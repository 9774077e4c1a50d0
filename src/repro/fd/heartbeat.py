"""Heartbeat-based ◇P failure detector (message-passing implementation).

The oracle detectors in :mod:`repro.fd.oracle` are the controlled instrument
for reproducing the paper's stable-run experiments; this module is the
realistic counterpart, implementing ◇P the way the paper's testbed would
have: periodic heartbeats plus per-peer timeouts that grow on every false
suspicion.

In any run that is eventually synchronous (in the simulator: bounded message
delays plus bounded CPU service times), the adaptive timeout eventually
exceeds the true bound, after which the detector satisfies both ◇P
properties:

* *strong completeness* — a crashed process stops sending heartbeats and its
  timeout fires at every correct process, forever;
* *eventual strong accuracy* — each false suspicion increases that peer's
  timeout, so only finitely many mistakes happen per peer.

The module is composition-friendly: attach it under a scope of a
:class:`~repro.sim.process.HostProcess` and wire protocols to its
:class:`~repro.fd.base.SuspectView` (and derived Ω) interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fd.base import OmegaView, Subscribers, SuspectView, omega_from_suspects
from repro.sim.process import Environment

__all__ = ["Heartbeat", "HeartbeatSuspector"]


@dataclass(frozen=True)
class Heartbeat:
    """I-am-alive beacon; ``seq`` only aids debugging and tests."""

    sender: int
    seq: int


class HeartbeatSuspector(Subscribers, SuspectView):
    """◇P module: broadcast heartbeats, suspect on timeout, adapt on mistakes."""

    HB_TIMER = "heartbeat"

    #: Set by the harness when detailed tracing is on; suspicion changes are
    #: then emitted as per-process ``suspect``/``trust`` records.
    tracer = None

    def __init__(
        self,
        env: Environment,
        period: float = 10e-3,
        initial_timeout: float = 30e-3,
        timeout_increment: float = 10e-3,
    ) -> None:
        if period <= 0 or initial_timeout <= 0 or timeout_increment < 0:
            raise ConfigurationError("heartbeat parameters must be positive")
        if initial_timeout <= period:
            raise ConfigurationError(
                f"initial_timeout ({initial_timeout}) must exceed period ({period})"
            )
        super().__init__()
        self.env = env
        self.period = period
        self.timeout_increment = timeout_increment
        self._timeouts: dict[int, float] = {
            pid: initial_timeout for pid in env.peers if pid != env.pid
        }
        self._suspected: set[int] = set()
        self._seq = 0
        self.false_suspicions = 0

    # --------------------------------------------------------------- view API

    def suspected(self) -> frozenset[int]:
        return frozenset(self._suspected)

    def omega(self) -> OmegaView:
        """Derived Ω: lowest-index non-suspected process."""
        return omega_from_suspects(self, self.env.peers)

    # ----------------------------------------------------------- protocol side

    def on_start(self) -> None:
        self._beat()
        for pid in self._timeouts:
            self._arm_watchdog(pid)

    def on_timer(self, name) -> None:
        if name == self.HB_TIMER:
            self._beat()
        elif isinstance(name, tuple) and name and name[0] == "watchdog":
            self._watchdog_fired(name[1])

    def on_message(self, src: int, msg) -> None:
        if not isinstance(msg, Heartbeat):
            return
        if src == self.env.pid:
            return
        if src in self._suspected:
            # Mistake: the peer was alive all along.  Trust it again and
            # raise its timeout so the same mistake cannot recur forever.
            self._suspected.discard(src)
            self._timeouts[src] += self.timeout_increment
            self.false_suspicions += 1
            if self.tracer is not None:
                self.tracer.emit_trust(self.env.now(), self.env.pid, src)
            self._notify()
        self._arm_watchdog(src)

    # ----------------------------------------------------------------- helpers

    def _beat(self) -> None:
        self._seq += 1
        beat = Heartbeat(self.env.pid, self._seq)
        for dst in self.env.peers:
            if dst != self.env.pid:
                self.env.send(dst, beat)
        self.env.set_timer(self.HB_TIMER, self.period)

    def _arm_watchdog(self, pid: int) -> None:
        self.env.set_timer(("watchdog", pid), self._timeouts[pid])

    def _watchdog_fired(self, pid: int) -> None:
        if pid in self._suspected:
            return
        self._suspected.add(pid)
        if self.tracer is not None:
            self.tracer.emit_suspect(self.env.now(), self.env.pid, pid)
        self._notify()
