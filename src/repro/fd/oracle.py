"""Oracle (god's-eye) failure detectors with controllable stability.

The paper's experiments consider *stable runs only* (section 8.1): the
failure detector makes no mistakes and its output never changes during a
run.  The oracle detectors make stability a first-class experimental knob:

* With ``detection_delay=0`` and crashes only at time 0, the output is
  constant and correct from the start — exactly a stable run.
* With a positive ``detection_delay`` or mid-run crashes, runs become
  recovery runs (the footnote-1 scenario) and the protocols' degradation can
  be measured — bench A2 does precisely this.
* :class:`ScriptedOmega` / :class:`ScriptedSuspects` replay an arbitrary
  output timeline per process, which is how the tests manufacture the
  unstable, mistaken-detector runs of the correctness proofs.

Unlike the heartbeat detectors in :mod:`repro.fd.heartbeat`, oracles send no
messages; they observe crashes through :meth:`repro.sim.node.Node.crash`
listeners.

The oracle also carries its group's :class:`DeliveryFloor`, the god's-eye
delivery watermark Multi-Paxos truncates its log below.  It is read
directly, as Ω is; a deployment would piggyback each member's watermark on
its ``LogAccepted`` messages instead.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.fd.base import OmegaView, Subscribers, SuspectView
from repro.sim.kernel import Simulator

__all__ = [
    "DeliveryFloor",
    "OracleFailureDetector",
    "ScriptedOmega",
    "ScriptedSuspects",
]


class _OracleOmegaView(Subscribers, OmegaView):
    def __init__(self, oracle: "OracleFailureDetector", pid: int) -> None:
        super().__init__()
        self._oracle = oracle
        self.pid = pid

    def leader(self) -> int | None:
        return self._oracle.current_leader()


class _OracleSuspectView(Subscribers, SuspectView):
    def __init__(self, oracle: "OracleFailureDetector", pid: int) -> None:
        super().__init__()
        self._oracle = oracle
        self.pid = pid

    def suspected(self) -> frozenset[int]:
        return self._oracle.current_suspects()


class DeliveryFloor:
    """The lowest next-to-deliver log slot over a group's members.

    Every member starts at slot 1 and reports its own next slot as it
    delivers.  A crashed member keeps its last report, and a storage-backed
    recovery resumes from that very slot, so the floor never passes a slot
    a member may still ask its peers for.  Every slot below :attr:`value`
    is delivered by every member: no member reads a log entry below it
    again.
    """

    __slots__ = ("_next", "value")

    def __init__(self, pids: Iterable[int]) -> None:
        self._next = dict.fromkeys(pids, 1)
        self.value = 1

    def advance(self, pid: int, next_slot: int) -> int:
        """Record ``pid``'s next slot; return the (possibly raised) floor."""
        held = self._next[pid] == self.value
        self._next[pid] = next_slot
        if held:  # only the member that held the minimum can raise it
            self.value = min(self._next.values())
        return self.value


class OracleFailureDetector:
    """Central oracle backing both Ω and ◇P views for a whole cluster.

    When observability is enabled the harness sets :attr:`tracer`; the
    oracle then emits ``suspect``/``trust``/``leader-change`` records with
    ``pid=-1`` (it is a god's-eye observer, not a process).

    Parameters
    ----------
    sim:
        The simulator (used to schedule delayed detections).
    pids:
        All process identifiers in the group.
    detection_delay:
        Seconds between a crash and the oracle reflecting it.  Zero gives a
        perfect detector; crashes at time 0 with zero delay give stable runs.
    initially_crashed:
        Pids already crashed when the run starts; they are reflected in the
        very first output, preserving stability.
    """

    #: Set by the harness when detailed tracing is on (pid=-1 records).
    tracer = None

    def __init__(
        self,
        sim: Simulator,
        pids: Iterable[int],
        detection_delay: float = 0.0,
        initially_crashed: Iterable[int] = (),
    ) -> None:
        if detection_delay < 0:
            raise ConfigurationError("detection_delay must be >= 0")
        self.sim = sim
        self.pids = tuple(sorted(pids))
        self.detection_delay = detection_delay
        self._crashed: set[int] = set(initially_crashed)
        unknown = self._crashed - set(self.pids)
        if unknown:
            raise ConfigurationError(f"initially_crashed contains unknown pids {unknown}")
        self._omega_views: dict[int, _OracleOmegaView] = {}
        self._suspect_views: dict[int, _OracleSuspectView] = {}
        #: The group's delivery watermark, shared by its Multi-Paxos modules.
        self.delivery_floor = DeliveryFloor(self.pids)

    # -------------------------------------------------------------- views

    def omega(self, pid: int) -> OmegaView:
        view = self._omega_views.get(pid)
        if view is None:
            view = _OracleOmegaView(self, pid)
            self._omega_views[pid] = view
        return view

    def suspect(self, pid: int) -> SuspectView:
        view = self._suspect_views.get(pid)
        if view is None:
            view = _OracleSuspectView(self, pid)
            self._suspect_views[pid] = view
        return view

    # -------------------------------------------------------------- output

    def current_leader(self) -> int | None:
        for pid in self.pids:
            if pid not in self._crashed:
                return pid
        return None

    def current_suspects(self) -> frozenset[int]:
        return frozenset(self._crashed)

    @property
    def crashed(self) -> frozenset[int]:
        """Pids currently reflected as crashed (for metrics gauges)."""
        return frozenset(self._crashed)

    # -------------------------------------------------------------- wiring

    def watch(self, nodes) -> None:
        """Attach crash/recovery listeners to every node in ``nodes``."""
        node_iter = nodes.values() if hasattr(nodes, "values") else nodes
        for node in node_iter:
            node.add_crash_listener(self.on_crash)
            if hasattr(node, "add_recover_listener"):
                node.add_recover_listener(self.on_recovery)

    def on_crash(self, pid: int) -> None:
        """Record a crash; the views change after ``detection_delay``."""
        if pid in self._crashed:
            return
        if self.detection_delay == 0:
            self._apply_crash(pid)
        else:
            self.sim.schedule(self.detection_delay, self._apply_crash, pid)

    def _apply_crash(self, pid: int) -> None:
        if pid in self._crashed:
            return
        old_leader = self.current_leader()
        self._crashed.add(pid)
        if self.tracer is not None:
            self.tracer.emit_suspect(self.sim.now, -1, pid)
        for view in self._suspect_views.values():
            view._notify()
        if self.current_leader() != old_leader:
            if self.tracer is not None:
                self.tracer.emit_leader_change(self.sim.now, -1, self.current_leader())
            for view in self._omega_views.values():
                view._notify()

    def on_recovery(self, pid: int) -> None:
        """Stop suspecting a recovered process (crash-recovery model)."""
        if pid not in self._crashed:
            return
        old_leader = self.current_leader()
        self._crashed.discard(pid)
        if self.tracer is not None:
            self.tracer.emit_trust(self.sim.now, -1, pid)
        for view in self._suspect_views.values():
            view._notify()
        if self.current_leader() != old_leader:
            if self.tracer is not None:
                self.tracer.emit_leader_change(self.sim.now, -1, self.current_leader())
            for view in self._omega_views.values():
                view._notify()


class _ScriptBase(Subscribers):
    """Shared machinery for scripted views: replay (time, output) steps."""

    def __init__(self, sim: Simulator, steps: Sequence[tuple[float, object]]) -> None:
        if not steps:
            raise ConfigurationError("a scripted detector needs at least one step")
        times = [t for t, _ in steps]
        if times != sorted(times):
            raise ConfigurationError("script steps must be time-ordered")
        if times[0] > 0:
            raise ConfigurationError("the first script step must be at time 0")
        super().__init__()
        self.sim = sim
        self._output = steps[0][1]
        for time, output in steps[1:]:
            sim.schedule_at(time, self._switch, output)

    def _switch(self, output) -> None:
        if output == self._output:
            return
        self._output = output
        self._notify()


class ScriptedOmega(_ScriptBase, OmegaView):
    """An Ω view that replays a fixed ``[(time, leader_pid), ...]`` timeline."""

    def leader(self) -> int | None:
        return self._output  # type: ignore[return-value]


class ScriptedSuspects(_ScriptBase, SuspectView):
    """A ◇P view that replays a fixed ``[(time, frozenset_of_pids), ...]`` timeline."""

    def __init__(self, sim: Simulator, steps: Sequence[tuple[float, Iterable[int]]]) -> None:
        frozen = [(t, frozenset(s)) for t, s in steps]
        super().__init__(sim, frozen)

    def suspected(self) -> frozenset[int]:
        return self._output  # type: ignore[return-value]
