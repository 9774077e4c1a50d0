"""Workload generation and measurement for the evaluation experiments."""

from repro.workload.experiment import (
    PAPER_THROUGHPUTS,
    SweepPoint,
    latency_vs_throughput,
)
from repro.workload.generator import poisson_schedule, uniform_schedule
from repro.workload.metrics import LatencySummary, summarize

__all__ = [
    "PAPER_THROUGHPUTS",
    "SweepPoint",
    "latency_vs_throughput",
    "poisson_schedule",
    "uniform_schedule",
    "LatencySummary",
    "summarize",
]
