"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's evaluation artifacts (Table 1,
Figures 1-3) or an ablation, prints a paper-style rendering, and writes the
same text to ``benchmarks/out/<name>.txt`` so EXPERIMENTS.md numbers are
regenerable.  ``pytest benchmarks/ --benchmark-only`` runs everything.
"""

from __future__ import annotations

import os
import pathlib
from collections import Counter

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


def engine_jobs() -> int:
    """Worker processes for engine-driven sweeps (``REPRO_BENCH_JOBS``).

    Defaults to serial so timings stay comparable; export
    ``REPRO_BENCH_JOBS=4`` to fan the Figure-2/3 grids out — results are
    identical, the runs are deterministic and independent.
    """
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def engine_cache() -> str | None:
    """Result-cache directory for sweeps (``REPRO_BENCH_CACHE``).

    With a cache set, re-running a bench only executes cells whose spec
    changed; unchanged figures are served from disk.
    """
    return os.environ.get("REPRO_BENCH_CACHE") or None


@pytest.fixture
def report():
    """Collects lines, prints them, and persists them per-bench."""

    class Report:
        def __init__(self):
            self.lines: list[str] = []

        def line(self, text: str = "") -> None:
            self.lines.append(text)

        def emit(self, name: str) -> None:
            text = "\n".join(self.lines) + "\n"
            print("\n" + text)
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / f"{name}.txt").write_text(text)

    return Report()


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def one_step_counts(hosts) -> tuple[int, int]:
    """(one-step, slower) counts of the rounds decided inside the round
    structure, summed over ``hosts`` from each reduction's decision tally."""
    tally = sum((host.abcast.decision_tally for host in hosts.values()), Counter())
    in_round = sum(count for (via, _), count in tally.items() if via == "round")
    return tally["round", 1], in_round - tally["round", 1]
