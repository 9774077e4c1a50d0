"""Persistent worker pools and cost-aware scheduling for sweep execution.

A sweep is an embarrassingly parallel grid whose cells differ wildly in
cost — a 500 msg/s Figure-2 cell does ~25× the work of a 20 msg/s cell —
and whose fixed costs (process spawn, interpreter warm-up, module imports)
recur on every ``run_sweep`` call when each sweep cold-starts its own
executor.  This module amortises and re-orders that work:

* :class:`WorkerPool` wraps a :class:`~concurrent.futures.ProcessPoolExecutor`
  whose workers pre-import the harness, protocol and workload modules
  (:func:`_warm_import`), and :func:`shared_pool` keeps one pool alive for
  the whole process so back-to-back sweeps in a CLI or benchmark session
  reuse warm workers;
* :func:`estimate_cost` scores a spec by the work it implies
  (``rate × duration × group size``), and :func:`plan_chunks` orders cells
  longest-first (LPT) in adaptive chunks, so the expensive cells start
  first and the cheap ones pad out the tail instead of serialising it;
* :func:`run_chunk` is the worker-side entry point: it executes each spec
  and returns the report as canonical JSON bytes — a compact, stable wire
  format — instead of a pickled object graph, and reports per-spec failures
  as data so the parent can keep every completed cell.

:func:`available_cpus` is the clamp used by ``run_sweep(jobs=N)``: asking
for more workers than schedulable CPUs only adds contention.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

__all__ = [
    "WorkerPool",
    "available_cpus",
    "estimate_cost",
    "plan_chunks",
    "run_chunk",
    "shared_pool",
    "shutdown_shared_pool",
]

#: Modules imported by every worker at spawn, before the first task: the
#: harness pulls in the kernel/network/node stack, the protocol package
#: registers every factory, and the workload module covers the generators.
WARM_MODULES = ("repro.harness", "repro.protocols", "repro.workload")

#: Chunks planned per worker: enough granularity that a straggler chunk is
#: a small fraction of a worker's share, few enough that per-chunk IPC stays
#: amortised across cheap cells.
CHUNKS_PER_WORKER = 4


def _warm_import() -> None:
    """Worker initializer: preload the heavy modules once per process."""
    import importlib

    for name in WARM_MODULES:
        importlib.import_module(name)


def _noop() -> None:
    """Sentinel task used to force worker spawn during :meth:`WorkerPool.warm`."""


def available_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware).

    ``sched_getaffinity`` sees container/cgroup CPU masks that a bare
    ``os.cpu_count()`` ignores; platforms without it fall back to the count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def estimate_cost(spec) -> float:
    """Relative cost of executing ``spec``: offered events × replica count.

    ``rate × duration`` approximates the message count a run must simulate
    and the replica count scales the per-message fan-out; RSM specs add
    their client sessions, whose open/closed-loop drivers generate
    comparable event churn.  Sharded cells count *total* replicas (shards ×
    group size) plus the transaction sessions — a 8×3 topology simulates
    24 replicas' worth of events, not 3 — so the LPT scheduler ships wide
    topologies first.  The estimate only needs to *rank* cells for
    scheduling — any spec without the workload fields scores a neutral 1.0.
    """
    rate = getattr(spec, "rate", None)
    duration = getattr(spec, "duration", None)
    if rate is None or duration is None:
        return 1.0
    replicas = getattr(spec, "total_replicas", None)
    if replicas is None:
        replicas = getattr(spec, "n", 1)
    group = (
        replicas
        + getattr(spec, "clients", 0)
        + getattr(spec, "txn_clients", 0)
    )
    return float(rate) * float(duration) * float(group)


def plan_chunks(
    items: Sequence[tuple[int, object]], workers: int
) -> list[list[tuple[int, object]]]:
    """Partition ``(index, spec)`` cells into LPT-ordered dispatch chunks.

    Cells are sorted by descending :func:`estimate_cost` (ties broken by
    original index, so planning is deterministic) and greedily packed into
    chunks of roughly ``total_cost / (workers × CHUNKS_PER_WORKER)``: the
    expensive cells ship first — each alone in its chunk — and the cheap
    tail cells share chunks so their IPC round-trips amortise.
    """
    costed = sorted(
        ((estimate_cost(spec), index, spec) for index, spec in items),
        key=lambda entry: (-entry[0], entry[1]),
    )
    total = sum(cost for cost, _, _ in costed)
    budget = total / max(1, workers * CHUNKS_PER_WORKER)
    chunks: list[list[tuple[int, object]]] = []
    current: list[tuple[int, object]] = []
    current_cost = 0.0
    for cost, index, spec in costed:
        if current and current_cost + cost > budget:
            chunks.append(current)
            current, current_cost = [], 0.0
        current.append((index, spec))
        current_cost += cost
    if current:
        chunks.append(current)
    return chunks


def run_chunk(
    chunk: list[tuple[int, object]], workers_cap: int | None = None
) -> list[tuple[int, str, bytes]]:
    """Worker entry point: execute each spec, return canonical JSON bytes.

    Returns one ``(index, status, payload)`` triple per cell — ``("ok",
    report-JSON)`` or ``("err", error-text)``.  Failures are data, not
    exceptions, so one bad cell never discards the completed cells sharing
    its chunk, and the parent can attribute the failure to the exact spec.
    The JSON payload is byte-identical to what the serial path would write
    to the cache (:meth:`RunReport.to_json`), so shipping it instead of a
    pickled ``RunReport`` both shrinks IPC and lets the parent write cache
    entries without re-serialising.

    ``REPRO_KERNEL_BATCH=0`` in the worker's environment forces every spec
    onto the kernel's serial drain (``batch=False``) for A/B debugging.
    Reports are byte-identical either way, and the report is shipped under
    the requested spec and its key, so cache keys are unaffected.

    ``workers_cap`` bounds how many processes a parallel (kernel-per-shard)
    cell may spawn of its own (the sweep scheduler's share of the CPU budget).
    It is an execution parameter, never merged into the spec: clamping a
    cell must not change its cache key or any deterministic output.
    """
    from dataclasses import replace

    from repro.engine.runner import execute_run

    force_serial = os.environ.get("REPRO_KERNEL_BATCH") == "0"
    out: list[tuple[int, str, bytes]] = []
    for index, spec in chunk:
        try:
            if force_serial and getattr(spec, "batch", True):
                report = execute_run(replace(spec, batch=False), workers_cap=workers_cap)
                report = replace(report, spec=spec, key=spec.cache_key())
            else:
                report = execute_run(spec, workers_cap=workers_cap)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            message = f"{type(exc).__name__}: {exc}"
            out.append((index, "err", message.encode("utf-8")))
            continue
        out.append((index, "ok", report.to_json().encode("utf-8")))
    return out


class WorkerPool:
    """A reusable process pool with warm-imported workers.

    Unlike the one-shot executor a ``with ProcessPoolExecutor(...)`` block
    gives, a :class:`WorkerPool` survives across sweeps: the processes (and
    their imported module graphs) are paid for once per session.  Use
    :func:`shared_pool` for the process-wide instance.
    """

    def __init__(self, workers: int) -> None:
        # Imported lazily so `import repro.engine` stays free of the
        # executor machinery until a parallel sweep actually needs it.
        from concurrent.futures import ProcessPoolExecutor

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_warm_import
        )

    @property
    def broken(self) -> bool:
        """True once a worker died and the executor can't accept work."""
        return bool(getattr(self._executor, "_broken", False))

    def submit_chunk(
        self, chunk: list[tuple[int, object]], workers_cap: int | None = None
    ) -> Future:
        return self._executor.submit(run_chunk, chunk, workers_cap)

    def warm(self) -> None:
        """Spawn (and warm-import) every worker now rather than lazily."""
        futures = [self._executor.submit(_noop) for _ in range(self.workers)]
        for future in futures:
            future.result()

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)


_shared_pool: WorkerPool | None = None


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide :class:`WorkerPool`, (re)created only when needed.

    A pool at least ``workers`` wide is reused as-is — warm workers beat an
    exact width, and callers bound their own in-flight work — while a
    narrower or broken pool is replaced.
    """
    global _shared_pool
    pool = _shared_pool
    if pool is not None and (pool.broken or pool.workers < workers):
        pool.shutdown()
        pool = None
    if pool is None:
        pool = _shared_pool = WorkerPool(workers)
        # Tear the pool down before the interpreter unloads multiprocessing:
        # a pool merely garbage-collected at exit races that teardown and
        # spews "Exception ignored in: weakref_cb" noise.
        import atexit

        atexit.register(shutdown_shared_pool)
    return pool


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests and explicit session cleanup)."""
    global _shared_pool
    if _shared_pool is not None:
        _shared_pool.shutdown()
        _shared_pool = None
