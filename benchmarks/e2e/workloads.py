"""The five end-to-end workloads of the repo benchmark.

Each workload builds its specs from the benchmark seed, runs one *pass* (the
timed unit) through the public engine/obs API only, and distils the pass's
outputs — outside the timed region — into operation counts, virtual-time
latencies and the canonical text the determinism digest is taken over.

Import rule (checked by ``run.py --check``): this module may import only
names listed in ``repro.engine.__all__`` and ``repro.obs.__all__``, so a
refactor behind those two surfaces can never break the end-to-end path.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.engine import (
    PAPER_LAN,
    PAPER_THROUGHPUTS,
    AbcastRunSpec,
    ResultCache,
    RsmRunSpec,
    RunContext,
    TopologySpec,
    execute_run,
    run_sweep,
    shared_pool,
    sweep_grid,
)
from repro.obs import (
    CausalGraph,
    ObsRuntime,
    SpanBuilder,
    build_entry,
    critical_paths,
    export_chrome,
)

#: Worker processes of the one pooled workload (= nproc of the 2-CPU box the
#: baseline was taken on; ``run_sweep`` clamps it to the schedulable CPUs).
POOL_JOBS = 2


@dataclass
class PassOutput:
    """What one pass produced, distilled after the clock stopped."""

    ops: int                  # completed work units (the workload's `ops_unit`)
    attempted: int            # operations offered to the system
    failed: int               # offered operations that did not complete
    latencies: list[float]    # virtual-time seconds, every windowed op
    texts: list[str] = field(repr=False, default_factory=list)

    def digest(self) -> str:
        """sha256 over the pass's canonical output text (reports, entries)."""
        h = hashlib.sha256()
        for text in self.texts:
            h.update(text.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def _reports_output(reports) -> PassOutput:
    """Distil a list of RunReports: ops are the windowed delivered/committed."""
    return PassOutput(
        ops=sum(r.delivered for r in reports),
        attempted=sum(r.offered for r in reports),
        failed=sum(r.offered - r.delivered for r in reports),
        latencies=[lat for r in reports for lat in r.latencies],
        texts=[r.to_json() for r in reports],
    )


class Workload:
    """One benchmark workload: specs from a seed, a timed pass, a distiller."""

    name: str
    why: str
    ops_unit: str
    #: True when the simulation runs in pool workers, not in this process.
    pooled = False

    def __init__(self, seed: int, scratch: str) -> None:
        self.scratch = scratch
        self.specs = self.build(seed)

    def build(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        """Once-per-process set-up beyond building specs (counted in setup_s)."""

    def run_pass(self):
        """The timed unit.  Returns raw outputs for :meth:`distil`."""
        raise NotImplementedError

    def distil(self, raw) -> PassOutput:
        raise NotImplementedError


class Fig2Sweep(Workload):
    name = "fig2_sweep"
    why = (
        "The paper's Figure-2 grid (3 protocols x 12 rates, n=4, serial, no cache): "
        "the headline user task; sim.network + core + oracles do almost all the work."
    )
    ops_unit = "a-delivered messages"

    def build(self, seed):
        return sweep_grid(
            ["cabcast-p", "cabcast-l", "wabcast"],
            PAPER_THROUGHPUTS,
            duration=0.8,
            warmup=0.2,
            seed=seed,
            cluster=PAPER_LAN,
        )

    def run_pass(self):
        return run_sweep(self.specs, jobs=1).reports

    def distil(self, raw):
        return _reports_output(raw)


class SingleRun(Workload):
    """One RSM service spec through ``execute_run`` with every checker on."""

    def run_pass(self):
        return [execute_run(self.specs[0])]

    def distil(self, raw):
        return _reports_output(raw)


class RsmRecovery(SingleRun):
    name = "rsm_recovery"
    why = (
        "Single-group KV service with a replica crash, snapshot install, catch-up and all "
        "five RSM checkers: the fault workload; adds rsm.* + harness on the same substrate."
    )
    ops_unit = "committed commands"
    duration = 14.0

    def build(self, seed):
        return [
            RsmRunSpec(
                "cabcast-l",
                rate=400,
                duration=self.duration,
                n=4,
                # Sessions home on replicas 0..2, so the crashed replica 3 is
                # nobody's home: at HEAD a request that commits elsewhere just
                # before its home crashes is never acknowledged (its retry is
                # dedup-suppressed without an ack), which fails ~1 seed in 20.
                clients=3,
                seed=seed,
                cluster=PAPER_LAN,
                crash_at=((3, 0.4 * self.duration),),
                recover_after=2.0,
                check=True,
            )
        ]


class Shard8Txn(SingleRun):
    name = "shard8_txn"
    why = (
        "8 groups x 3 replicas on one kernel over the multipaxos baseline, router + "
        "cross-shard 2PC + serializability check: the many-group use of rsm.replica."
    )
    ops_unit = "committed commands"

    def build(self, seed):
        return [
            RsmRunSpec(
                "multipaxos",
                rate=960,
                duration=8.0,
                clients=16,
                keys=64,
                seed=seed,
                topology=TopologySpec(groups=8, group_size=3),
                txn_clients=4,
                txn_rate=80,
                cluster=PAPER_LAN,
            )
        ]


class SweepEngine(Workload):
    name = "sweep_engine"
    why = (
        "192 tiny cells, cold at jobs=2 into a fresh cache then 10 warm replays: spec "
        "hashing, pool dispatch, report JSON and cache I/O dominate, the simulator does not."
    )
    ops_unit = "cells served"
    pooled = True
    replays = 10

    def build(self, seed):
        specs = []
        for repeat in range(4):
            specs += sweep_grid(
                ["cabcast-p", "cabcast-l", "wabcast", "multipaxos"],
                PAPER_THROUGHPUTS,
                duration=0.25,
                seed=seed + 1000 * repeat,
                cluster=PAPER_LAN,
            )
        return specs

    def prepare(self):
        shared_pool(POOL_JOBS).warm()

    def run_pass(self):
        root = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        try:
            cold = run_sweep(self.specs, jobs=POOL_JOBS, cache=root)
            # A new ResultCache per replay: every cell is read and decoded
            # from disk, never served from the in-memory LRU.
            warm = [
                run_sweep(self.specs, jobs=POOL_JOBS, cache=ResultCache(root))
                for _ in range(self.replays)
            ]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return cold, warm

    def distil(self, raw):
        cold, warm = raw
        texts = [r.to_json() for r in cold.reports]
        failed = sum(1 for r in cold.reports if r.offered != r.delivered)
        failed += cold.cache_hits  # a fresh cache must serve nothing
        for replay in warm:
            failed += replay.cache_misses
            failed += sum(
                1
                for report, text in zip(replay.reports, texts)
                if report.to_json() != text
            )
        attempted = len(self.specs) * (1 + len(warm))
        return PassOutput(
            ops=attempted - failed,
            attempted=attempted,
            failed=failed,
            latencies=[lat for r in cold.reports for lat in r.latencies],
            texts=texts,
        )


class ObsExplain(Workload):
    name = "obs_explain"
    why = (
        "One fully observed cabcast-l run, then warehouse entry, critical paths and "
        "Perfetto export: the only workload where obs.* and sim.trace dominate."
    )
    ops_unit = "decided instances explained"

    def build(self, seed):
        return [
            AbcastRunSpec(
                "cabcast-l",
                rate=300,
                duration=1.5,
                seed=seed,
                drain=2.0,
                cluster=PAPER_LAN,
                obs=True,
                obs_metrics_interval=0.05,
                obs_flight_recorder=256,
            )
        ]

    def run_pass(self):
        spec = self.specs[0]
        runtime = ObsRuntime.from_spec(spec)
        report = execute_run(spec, ctx=RunContext(obs=runtime))
        return (report, *self.explain(report, runtime.tracer.records))

    def explain(self, report, records, span=None):
        """The post-run explanation stages; ``span`` (a context-manager
        factory taking a stage name) is how the traced pass times them."""
        span = span or _no_span
        with span("obs.build_entry"):
            entry = build_entry(report, records)
        with span("obs.spans"):
            builder = SpanBuilder().add_records(records)
        with span("obs.causal"):
            paths = critical_paths(builder, CausalGraph.from_records(records))
        with span("obs.export_chrome"):
            fd, path = tempfile.mkstemp(prefix="chrome-", suffix=".json", dir=self.scratch)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as out:
                    export_chrome(records, out, spec=report.spec.to_dict())
                with open(path, "rb") as fh:
                    chrome_sha = hashlib.sha256(fh.read()).hexdigest()
            finally:
                os.unlink(path)
        return entry, paths, chrome_sha

    def distil(self, raw):
        report, entry, paths, chrome_sha = raw
        decided = entry["spans"]["decided"]
        explained = sum(1 for p in paths if p.hops and p.latency is not None)
        lost = report.offered - report.delivered
        return PassOutput(
            ops=explained,
            attempted=decided + lost,
            failed=(decided - explained) + lost,
            latencies=list(report.latencies),
            texts=[
                report.to_json(),
                json.dumps(entry, sort_keys=True),
                json.dumps([p.to_dict() for p in paths], sort_keys=True),
                chrome_sha,
            ],
        )


def _no_span(name):
    return nullcontext()


WORKLOADS = {
    cls.name: cls for cls in (Fig2Sweep, RsmRecovery, Shard8Txn, SweepEngine, ObsExplain)
}
