"""One kernel per partition: an ordered map over worker processes.

A simulation whose partitions — disjoint pid groups — provably never
exchange a message needs no synchronisation: each partition is built on its
own :class:`~repro.sim.kernel.Simulator`, run straight to the horizon and
distilled into a picklable outcome, and that outcome is the only thing that
crosses back.  :func:`run_partitions` is that map.  What a partition
computes depends on its index and payload, never on where it ran, so
``workers=1`` (in-process) and ``workers=N`` return identical outcomes.

Workers come from the platform's default multiprocessing context, like the
sweep pool's (:mod:`repro.engine.pool`): on Linux they are forked, and
skipping the quarter-second re-import of the library is what lets a
sub-second run pay.  Tasks and payloads are pickled by reference and value,
so every start method works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, WorkerError

__all__ = ["PartitionPlan", "run_partitions"]


@dataclass(frozen=True)
class PartitionPlan:
    """How a simulation splits into independent partitions.

    ``groups[i]`` is the pid membership of partition ``i``.  The plan is pure
    data derived from the spec — never from the worker count — which is what
    makes parallel runs byte-identical across worker counts.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigurationError("partition plan needs at least one group")
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise ConfigurationError("empty partition in plan")
            overlap = seen.intersection(group)
            if overlap:
                raise ConfigurationError(
                    f"pids {sorted(overlap)} appear in more than one partition"
                )
            seen.update(group)

    @property
    def partitions(self) -> int:
        return len(self.groups)

    def partition_of(self, pid: int) -> int:
        for index, group in enumerate(self.groups):
            if pid in group:
                return index
        raise ConfigurationError(f"pid {pid} is in no partition")


def run_partitions(
    task: Callable[[int, Any], Any],
    payloads: Sequence[Any],
    plan: PartitionPlan,
    workers: int = 1,
) -> list[Any]:
    """``[task(i, payloads[i]) for i in range(plan.partitions)]``, fanned
    over up to ``workers`` processes; outcomes come back in partition order.

    ``task`` must be a module-level callable; an exception it raises
    propagates unchanged, lowest partition first, as on the in-process path.
    A worker process that *dies* raises :class:`~repro.errors.WorkerError`
    naming every partition whose outcome was lost with it — never a hang or
    a partial result — after the remaining workers have been reaped.
    """
    if len(payloads) != plan.partitions:
        raise ConfigurationError(
            f"{len(payloads)} payloads for {plan.partitions} partitions"
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, plan.partitions)
    if workers == 1:
        return [task(index, payload) for index, payload in enumerate(payloads)]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(max_workers=workers)
    futures: list = []
    try:
        for index, payload in enumerate(payloads):
            futures.append(pool.submit(task, index, payload))
        return [future.result() for future in futures]
    except BrokenProcessPool:
        lost = tuple(
            index
            for index in range(plan.partitions)
            if index >= len(futures) or futures[index].exception() is not None
        )
        raise WorkerError(
            f"a parallel worker process died; partition(s) {list(lost)} were "
            "running or queued and have no outcome (no partial result is kept)",
            partitions=lost,
        ) from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
