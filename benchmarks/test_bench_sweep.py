"""Sweep-engine benchmarks: warm pools and cached replay.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sweep.py -q -s

Each benchmark times one orchestration path of the sweep engine — worker-pool
reuse across sweeps, and write-behind + cached replay — and prints the
measurements.  The recorded performance gate for this path is the
``sweep_engine`` workload of ``benchmarks/e2e``; what these benchmarks check
is what must hold on any machine: byte-identical reports across execution
paths.

The grid keeps the Figure-2 shape (4 protocols × 8 rates) but uses short
per-cell durations: the protocol simulation inside a cell is identical in
every execution path by construction (the byte-identity assertions prove
it), so cell length only dilutes what these benchmarks time — the
per-sweep orchestration cost (pool spawn/teardown, dispatch, transfer,
scheduling).

``REPRO_BENCH_SMOKE=1`` shrinks the grid so CI can verify the benchmarks
still run — including the warm worker-pool path — without slowing the
matrix.

They live outside the tier-1 ``tests/`` tree so normal test runs skip them.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.engine import (
    PAPER_LAN,
    ResultCache,
    run_sweep,
    shutdown_shared_pool,
    sweep_grid,
)
from repro.engine.runner import execute_run

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Figure-2-style grid: 4 protocols × 8 rates (shrunk ~8× for CI smoke).
GRID_PROTOCOLS = (
    ["cabcast-p", "wabcast"] if SMOKE
    else ["cabcast-p", "cabcast-l", "wabcast", "ct-abcast"]
)
GRID_RATES = [20, 100, 300] if SMOKE else [20, 50, 100, 150, 200, 300, 400, 500]
CELL_DURATION = 0.02
JOBS = 2 if SMOKE else 4
REPEATS = 2 if SMOKE else 5


def _grid(seed: int = 0):
    return sweep_grid(
        GRID_PROTOCOLS,
        GRID_RATES,
        duration=CELL_DURATION,
        warmup=CELL_DURATION * 0.2,
        seed=seed,
        cluster=PAPER_LAN,
    )


def _best_of(repeats: int, fn) -> float:
    """Best (minimum) wall time of ``repeats`` runs — the standard noise
    filter for benchmarks (the minimum is the least-interfered run)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_warm_pool_reuse():
    """The worker-pool path proper (``clamp_jobs=False`` so it runs even on
    one CPU): first sweep pays pool spawn + warm imports, the second reuses
    the warm workers.  Byte-identity against serial execution is asserted
    on the cold sweep."""
    specs_cold = _grid(seed=11)
    specs_warm = _grid(seed=12)
    shutdown_shared_pool()

    start = time.perf_counter()
    cold = run_sweep(specs_cold, jobs=JOBS, clamp_jobs=False)
    seconds_cold = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_sweep(specs_warm, jobs=JOBS, clamp_jobs=False)
    seconds_warm = time.perf_counter() - start
    assert all(report is not None for report in cold.reports + warm.reports)

    serial = [execute_run(spec) for spec in specs_cold]
    assert [r.to_json() for r in cold.reports] == [r.to_json() for r in serial]
    print(f"\n[bench] pool: cold {seconds_cold:.3f}s, warm {seconds_warm:.3f}s")


def test_bench_write_behind_and_cached_replay():
    """Write-behind persistence cost and fully-cached replay throughput,
    for both plain-JSON and gzip cache entries."""
    specs = _grid(seed=21)
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        first = run_sweep(specs, jobs=JOBS, cache=tmp)
        seconds_populate = time.perf_counter() - start
        assert first.cache_misses == len(specs)

        seconds_replay = _best_of(REPEATS, lambda: run_sweep(specs, cache=tmp))
        replay = run_sweep(specs, cache=tmp)
        assert (replay.cache_hits, replay.cache_misses) == (len(specs), 0)
        assert [r.to_json() for r in replay.reports] == [
            r.to_json() for r in first.reports
        ]

    with tempfile.TemporaryDirectory() as tmp:
        gz = ResultCache(tmp, compress=True)
        gz.put_many(first.reports)
        seconds_gz_replay = _best_of(
            REPEATS, lambda: run_sweep(specs, cache=ResultCache(tmp))
        )

    print(f"\n[bench] cache: populate {seconds_populate:.3f}s, "
          f"replay {seconds_replay:.3f}s, gzip replay {seconds_gz_replay:.3f}s")
