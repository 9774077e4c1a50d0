"""Compile a :class:`NemesisSpec` into deterministic kernel events.

:class:`NemesisRuntime` is the bridge between the declarative schedule and a
live simulation: each op becomes one or two ordinary simulator events (window
start/end) that drive the existing fault hooks — ``Network.partition`` /
``heal``, link filters, ``Node.crash`` and the oracle failure detector's
``on_crash``/``on_recovery``.  Nothing new happens inside the kernel: a
nemesis run is just a run with more scheduled callbacks, so all the
determinism guarantees (same-seed byte-identical traces, batched-drain
equivalence) carry over unchanged.

Determinism notes:

* Schedule randomness (drop/dup coin flips, delay jitter) draws from the
  simulator's dedicated ``sim.rng("nemesis")`` stream, so attaching a
  schedule never perturbs delay-model or workload streams.
* Ops starting at ``t <= now`` apply their start action *immediately* at
  install time instead of racing node start-up events for kernel order —
  a partition at ``t=0`` therefore blocks the very first ``on_start`` sends,
  matching the hand-scripted ``network.partition(...)``-before-``run`` style.
* Link filters are installed only while a window is open, so outside fault
  windows the network's sends skip per-message admission entirely; while a
  window is open, each message of a send cohort runs the filters and draws
  its own delay, exactly as single sends do.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.nemesis.spec import (
    CpuSkewOp,
    CrashOp,
    DelayOp,
    DropOp,
    DupOp,
    FdFlapOp,
    NemesisSpec,
    PartitionOp,
)
from repro.sim.trace import KINDS

__all__ = ["NemesisRuntime"]


def _matches(op: Any, envelope: Any) -> bool:
    if op.src is not None and envelope.src != op.src:
        return False
    if op.dst is not None and envelope.dst != op.dst:
        return False
    if op.channel is not None and envelope.channel != op.channel:
        return False
    return True


class NemesisRuntime:
    """Executes one schedule against one simulation.

    Build it after the nodes have been started (and after any spec-level
    ``crash_at`` wiring), then :meth:`install` once, before ``sim.run``.
    """

    def __init__(
        self,
        nemesis: NemesisSpec,
        *,
        sim: Any,
        network: Any,
        nodes: dict[int, Any],
        oracle: Any = None,
        tracer: Any = None,
        crash_hook: Callable[[int, float], None] | None = None,
    ) -> None:
        unknown = nemesis.pids() - set(nodes)
        if unknown:
            raise ConfigurationError(
                f"nemesis schedule names unknown pids {sorted(unknown)}"
            )
        self.nemesis = nemesis
        self.sim = sim
        self.network = network
        self.nodes = nodes
        self.oracle = oracle
        self.tracer = tracer
        # Called once per CrashOp at install time; the RSM runner uses this
        # to register its learner-rejoin rebuild alongside the crash.
        self.crash_hook = crash_hook
        self.rng = sim.rng("nemesis")
        # Most recent partition op applied; a window's heal only fires if a
        # later partition has not superseded it.
        self._partition_owner: int | None = None
        # When set, nemesis filters wave everything through: duplicates
        # re-entering the network must not be dropped/delayed/duplicated
        # again (and must not recurse).
        self._suppress = False
        self._installed = False

    # ------------------------------------------------------------ installing

    def install(self) -> "NemesisRuntime":
        """Schedule every op; apply already-due start actions immediately."""
        if self._installed:
            raise ConfigurationError("NemesisRuntime.install called twice")
        self._installed = True
        now = self.sim.now
        for index, op in self.nemesis.sorted_ops():
            if type(op) is CrashOp and self.crash_hook is not None:
                self.crash_hook(op.pid, op.at)
            start = self._starter(index, op)
            if op.at <= now:
                start()
            else:
                self.sim.schedule_at(op.at, start)
        return self

    def _starter(self, index: int, op: Any) -> Callable[[], None]:
        kind = type(op)
        if kind is PartitionOp:
            return lambda: self._start_partition(index, op)
        if kind is CrashOp:
            return lambda: self._start_crash(index, op)
        if kind is DropOp:
            return lambda: self._start_filter(index, op, self._drop_filter(op))
        if kind is DelayOp:
            return lambda: self._start_filter(index, op, self._delay_filter(op))
        if kind is DupOp:
            return lambda: self._start_filter(index, op, self._dup_filter(op))
        if kind is FdFlapOp:
            return lambda: self._start_fd_flap(index, op)
        if kind is CpuSkewOp:
            return lambda: self._start_cpu_skew(index, op)
        raise ConfigurationError(f"unknown nemesis op type {kind.__name__}")

    # --------------------------------------------------------------- tracing

    def _trace(self, kind: str, index: int, op: Any, **extra: Any) -> None:
        if self.tracer is not None:
            data = {"index": index, **op.to_dict(), **extra}
            self.tracer.emit(self.sim.now, -1, kind, data)

    def _end(self, index: int, op: Any, **extra: Any) -> None:
        self._trace(KINDS.NEMESIS_END, index, op, **extra)

    # ------------------------------------------------------------------- ops

    def _start_partition(self, index: int, op: PartitionOp) -> None:
        self._trace(KINDS.NEMESIS_START, index, op)
        self._partition_owner = index
        self.network.partition(*(set(g) for g in op.groups))
        self.sim.schedule_at(op.at + op.duration, self._end_partition, index, op)

    def _end_partition(self, index: int, op: PartitionOp) -> None:
        # A later partition op supersedes this window; its own heal governs.
        if self._partition_owner == index:
            self._partition_owner = None
            self.network.heal()
            self._end(index, op)

    def _start_crash(self, index: int, op: CrashOp) -> None:
        node = self.nodes[op.pid]
        if not node.crashed:
            self._trace(KINDS.NEMESIS_START, index, op)
            node.crash()

    def _start_filter(self, index: int, op: Any, fn: Callable) -> None:
        self._trace(KINDS.NEMESIS_START, index, op)
        remove = self.network.add_filter(fn)
        self.sim.schedule_at(op.at + op.duration, self._end_filter, index, op, remove)

    def _end_filter(self, index: int, op: Any, remove: Callable[[], None]) -> None:
        remove()
        self._end(index, op)

    def _drop_filter(self, op: DropOp) -> Callable:
        rng = self.rng

        def fn(envelope: Any):
            if self._suppress or not _matches(op, envelope):
                return True
            if op.p >= 1.0 or rng.random() < op.p:
                return False
            return True

        return fn

    def _delay_filter(self, op: DelayOp) -> Callable:
        rng = self.rng

        def fn(envelope: Any):
            if self._suppress or not _matches(op, envelope):
                return True
            extra = op.extra
            if op.jitter > 0.0:
                extra += rng.expovariate(1.0 / op.jitter)
            return extra

        return fn

    def _dup_filter(self, op: DupOp) -> Callable:
        rng = self.rng

        def fn(envelope: Any):
            if self._suppress or not _matches(op, envelope):
                return True
            if op.p >= 1.0 or rng.random() < op.p:
                # Re-submit a copy right after the current event: the clone
                # draws its own delay (and FIFO slot), like a retransmitted
                # frame.  _suppress keeps the clone out of all nemesis
                # filters, so duplication never cascades.
                self.sim.schedule(
                    0.0,
                    self._resend,
                    envelope.src,
                    envelope.dst,
                    envelope.payload,
                    envelope.channel,
                )
            return True

        return fn

    def _resend(self, src: int, dst: int, payload: Any, channel: str) -> None:
        if self.nodes[src].crashed:
            return
        self._suppress = True
        try:
            self.network.send(src, dst, payload, channel)
        finally:
            self._suppress = False

    def _start_fd_flap(self, index: int, op: FdFlapOp) -> None:
        if self.oracle is None:
            return  # no oracle detector in this run; nothing to destabilise
        self._trace(KINDS.NEMESIS_START, index, op)
        self.oracle.on_crash(op.pid)
        self.sim.schedule_at(op.at + op.duration, self._end_fd_flap, index, op)

    def _end_fd_flap(self, index: int, op: FdFlapOp) -> None:
        # Only recant the suspicion if the node didn't really crash meanwhile.
        if not self.nodes[op.pid].crashed:
            self.oracle.on_recovery(op.pid)
        self._end(index, op)

    def _start_cpu_skew(self, index: int, op: CpuSkewOp) -> None:
        node = self.nodes[op.pid]
        if node._fixed_cost is None:
            return  # callable service-time model; cost is not a plain number
        self._trace(KINDS.NEMESIS_START, index, op)
        saved = node._fixed_cost
        node._fixed_cost = saved * op.factor + op.extra
        self.sim.schedule_at(op.at + op.duration, self._end_cpu_skew, index, op, saved)

    def _end_cpu_skew(self, index: int, op: CpuSkewOp, saved: float) -> None:
        self.nodes[op.pid]._fixed_cost = saved
        self._end(index, op)
