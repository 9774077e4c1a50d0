"""Command-line interface: run the paper's experiments from a shell.

``python -m repro <command>`` exposes the main entry points:

* ``consensus`` — one consensus instance on a simulated cluster;
* ``abcast``    — an atomic-broadcast session with a Poisson workload;
* ``rsm``       — a replicated KV service (:mod:`repro.rsm`) over any abcast
  protocol: client sessions, batching, snapshots, crash + learner rejoin;
  ``--shards N`` partitions the key space over N consensus groups and
  ``--txn-clients``/``--txn-rate`` add cross-shard 2PC transactions;
  ``--json`` prints the structured report (byte-identical per seed);
* ``sweep``     — the Figure-2/3 latency-vs-throughput experiment on the
  parallel engine: ``--jobs N`` fans runs over the persistent worker pool
  (clamped to the available CPUs), ``--cache DIR`` reuses results by spec
  hash and absorbs each finished cell immediately (interrupted sweeps
  resume), ``--progress`` streams cells/sec + ETA to stderr, ``--json OUT``
  exports the structured reports; ``--shards 1,2,4,8`` switches to the RSM
  scale-out grid (shard count × ``--group-sizes``) at one offered rate;
* ``profile``   — one spec run with :mod:`repro.perf` observability:
  per-component event counts, events/sec, virtual-seconds per wall-second,
  optionally a cProfile hot-function table (``--cprofile``);
* ``trace``     — observability traces (:mod:`repro.obs`): ``export`` runs a
  spec with detailed tracing (optionally under a ``--partition``/``--fd-flap``
  nemesis schedule) and writes JSONL or Chrome/Perfetto JSON; ``summary``
  and ``spans`` inspect an export; ``critical-path`` reconstructs each
  decision's gating message chain and fallback cause; ``diff`` pinpoints
  the first divergent record between two exports;
* ``obs``       — the cross-run metrics warehouse (:mod:`repro.obs.warehouse`):
  ``record`` appends one observed run's summary, ``report`` tabulates a
  store, ``compare`` gates two entries against a latency tolerance;
* ``protocols`` — the protocol registry (name, kind, default n, description);
* ``table1``    — the analytical Table 1 for a given group size;
* ``theorem1``  — the executable Theorem-1 impossibility certificate.

Every command describes its run as a frozen spec
(:mod:`repro.engine.spec`) and resolves protocols through the single
registry (:mod:`repro.harness.registry`).

Examples::

    python -m repro consensus --protocol p-consensus --proposals a,b,c,d
    python -m repro abcast --protocol cabcast-l --rate 200 --duration 1.0
    python -m repro rsm --protocol cabcast-l --n 4 --clients 8 --rate 200 \
        --crash 2@0.5 --json
    python -m repro sweep --protocols cabcast-p,wabcast --rates 20,100,300,500 \
        --jobs 4 --cache ~/.cache/repro-sweeps --json out.json
    python -m repro theorem1
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.analysis.complexity import format_table1
from repro.analysis.textplot import line_chart
from repro.engine import PAPER_LAN, AbcastRunSpec, ClusterSpec, ConsensusRunSpec
from repro.engine.runner import run_sweep, sweep_grid
from repro.errors import ConfigurationError
from repro.harness.abcast_runner import run_abcast
from repro.harness.consensus_runner import run_consensus
from repro.harness.registry import ABCAST, CONSENSUS, PROTOCOLS, protocol_names
from repro.workload.metrics import summarize

__all__ = ["main", "build_parser", "SWEEP_JSON_SCHEMA"]

#: Schema tag of the ``sweep --json`` document (see docs/ENGINE.md).
SWEEP_JSON_SCHEMA = "repro.sweep.v1"


def _add_nemesis_args(parser: argparse.ArgumentParser) -> None:
    """Nemesis-schedule flags shared by ``trace export`` and ``obs record``."""
    parser.add_argument(
        "--partition",
        action="append",
        default=[],
        type=_partition_arg,
        metavar="AT:DUR:GROUPS",
        help="partition op: start, duration, '/'-separated pid groups "
             "(e.g. 0.05:0.1:0/1,2,3 isolates p0; repeatable)",
    )
    parser.add_argument(
        "--fd-flap",
        action="append",
        default=[],
        type=_fd_flap_arg,
        metavar="AT:DUR:PID",
        help="falsely suspect PID for DUR seconds starting at AT (repeatable)",
    )


def _partition_arg(text: str) -> tuple[float, float, tuple[tuple[int, ...], ...]]:
    """argparse type of ``--partition``: ``AT:DUR:GROUPS``."""
    try:
        at_text, dur_text, groups_text = text.split(":", 2)
        groups = tuple(
            tuple(int(pid) for pid in group.split(","))
            for group in groups_text.split("/")
        )
        return float(at_text), float(dur_text), groups
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected AT:DUR:GROUPS (e.g. 0.05:0.1:0/1,2,3), got {text!r}"
        ) from None


def _fd_flap_arg(text: str) -> tuple[float, float, int]:
    """argparse type of ``--fd-flap``: ``AT:DUR:PID``."""
    try:
        at_text, dur_text, pid_text = text.split(":", 2)
        return float(at_text), float(dur_text), int(pid_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected AT:DUR:PID (e.g. 0.2:0.05:2), got {text!r}"
        ) from None


def _crash_arg(text: str) -> tuple[int, float]:
    """argparse type of ``--crash``: ``PID@TIME`` (or the older ``PID:TIME``)."""
    pid_text, sep, time_text = text.partition("@" if "@" in text else ":")
    try:
        if not sep:
            raise ValueError
        return int(pid_text), float(time_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected PID@TIME (e.g. 2@0.5), got {text!r}"
        ) from None


def _add_crash_arg(parser: argparse.ArgumentParser, who: str = "PID") -> None:
    parser.add_argument(
        "--crash",
        action="append",
        default=[],
        type=_crash_arg,
        metavar="PID@TIME",
        help=f"crash {who} at TIME seconds (repeatable)",
    )


def _add_run_args(
    parser: argparse.ArgumentParser, protocol: str, rate: float, duration: float
) -> None:
    """The one-abcast-run flags, with the command's own defaults."""
    parser.add_argument(
        "--protocol", choices=protocol_names(ABCAST), default=protocol
    )
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--rate", type=float, default=rate, help="aggregate msg/s")
    parser.add_argument("--duration", type=float, default=duration)
    parser.add_argument("--seed", type=int, default=0)


def _abcast_spec(args: argparse.Namespace, **fields: Any) -> AbcastRunSpec:
    """The abcast run the ``_add_run_args`` flags describe, plus ``fields``."""
    return AbcastRunSpec(
        protocol=args.protocol,
        rate=args.rate,
        duration=args.duration,
        n=args.n,
        seed=args.seed,
        **fields,
    )


def _parse_nemesis(args: argparse.Namespace):
    """Build the :class:`NemesisSpec` from ``_add_nemesis_args`` flags.

    Returns ``None`` when no fault flags were given, so fault-free specs
    keep their exact pre-nemesis dict form and cache key.
    """
    from repro.nemesis import FdFlapOp, NemesisSpec, PartitionOp

    ops: list = [
        PartitionOp(at=at, duration=duration, groups=groups)
        for at, duration, groups in args.partition
    ]
    ops += [
        FdFlapOp(at=at, duration=duration, pid=pid)
        for at, duration, pid in args.fd_flap
    ]
    if not ops:
        return None
    return NemesisSpec(ops=tuple(sorted(ops, key=lambda op: op.at)))


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="One-step Consensus with Zero-Degradation (DSN 2006) — reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cons = sub.add_parser("consensus", help="run one consensus instance")
    p_cons.add_argument(
        "--protocol", choices=protocol_names(CONSENSUS), default="p-consensus"
    )
    p_cons.add_argument(
        "--proposals",
        default="a,b,c,d",
        help="comma-separated proposals, one per process (defines n)",
    )
    p_cons.add_argument("--seed", type=int, default=0)
    _add_crash_arg(p_cons)
    p_cons.add_argument("--detection-delay", type=float, default=0.0)

    p_ab = sub.add_parser("abcast", help="run an atomic-broadcast session")
    _add_run_args(p_ab, "cabcast-p", rate=100.0, duration=0.5)

    p_rsm = sub.add_parser(
        "rsm", help="replicated KV service over an abcast protocol"
    )
    p_rsm.add_argument(
        "--protocol", choices=protocol_names(ABCAST), default="cabcast-l"
    )
    p_rsm.add_argument("--n", type=int, default=4, help="replicas")
    p_rsm.add_argument("--clients", type=int, default=8, help="client sessions")
    p_rsm.add_argument(
        "--rate", type=float, default=200.0, help="aggregate client ops/s"
    )
    p_rsm.add_argument("--duration", type=float, default=1.0)
    p_rsm.add_argument("--seed", type=int, default=0)
    p_rsm.add_argument(
        "--workload", choices=("open", "closed"), default="open"
    )
    p_rsm.add_argument("--keys", type=int, default=32, help="KV key-space size")
    p_rsm.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent consensus groups partitioning the key space",
    )
    p_rsm.add_argument(
        "--partitioner",
        choices=("hash", "range"),
        default="hash",
        help="key-to-shard map: stable CRC-32 hash or contiguous ranges",
    )
    p_rsm.add_argument(
        "--txn-clients",
        type=int,
        default=0,
        help="closed-loop cross-shard transaction sessions (2PC over groups)",
    )
    p_rsm.add_argument(
        "--txn-rate",
        type=float,
        default=0.0,
        help="aggregate transactions/s offered by the txn sessions",
    )
    p_rsm.add_argument(
        "--txn-keys",
        type=int,
        default=2,
        help="keys written per transaction (one per distinct shard)",
    )
    p_rsm.add_argument("--batch-max", type=int, default=8)
    p_rsm.add_argument(
        "--batch-delay", type=float, default=2e-3, metavar="SECONDS"
    )
    p_rsm.add_argument(
        "--snapshot-every", type=int, default=25, metavar="COMMANDS"
    )
    p_rsm.add_argument(
        "--recover-after",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="crashed replicas rejoin as learners after this delay (<0 disables)",
    )
    _add_crash_arg(p_rsm, "replica PID")
    p_rsm.add_argument(
        "--parallel",
        action="store_true",
        help="parallel execution: one kernel per shard group",
    )
    p_rsm.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for --parallel (default: 1 process)",
    )
    p_rsm.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="print the structured run report to stdout (byte-identical per seed)",
    )

    p_sweep = sub.add_parser("sweep", help="latency vs throughput (Figures 2-3)")
    p_sweep.add_argument(
        "--protocols",
        default="cabcast-p,cabcast-l,wabcast",
        help="comma-separated names from: " + ",".join(protocol_names(ABCAST)),
    )
    p_sweep.add_argument("--rates", default="20,100,300,500")
    p_sweep.add_argument("--n", type=int, default=4)
    p_sweep.add_argument("--duration", type=float, default=1.5)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--repeats", type=int, default=1, help="independent seeds pooled per point"
    )
    p_sweep.add_argument(
        "--shards",
        default=None,
        metavar="LIST",
        help="RSM scale-out mode: sweep shard counts (e.g. 1,2,4,8) instead of "
             "rates; the first --rates value is the per-cell offered rate",
    )
    p_sweep.add_argument(
        "--group-sizes",
        default="3",
        metavar="LIST",
        help="group sizes crossed with --shards in scale-out mode",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the run grid"
    )
    p_sweep.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="on-disk result cache; unchanged cells are not re-run",
    )
    p_sweep.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="FILE",
        help="write the structured run reports to FILE",
    )
    p_sweep.add_argument(
        "--progress",
        action="store_true",
        help="stream per-cell progress (cells/sec, ETA) to stderr",
    )
    p_sweep.add_argument("--no-chart", action="store_true")

    p_prof = sub.add_parser(
        "profile", help="run one spec with perf observability (events/sec etc.)"
    )
    _add_run_args(p_prof, "cabcast-p", rate=300.0, duration=1.5)
    p_prof.add_argument(
        "--cprofile",
        nargs="?",
        const=20,
        default=None,
        type=int,
        metavar="TOP",
        help="also run under cProfile; show the TOP hottest functions (default 20)",
    )
    p_prof.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="FILE",
        help="write the perf section (repro.perf.v1) to FILE",
    )

    p_trace = sub.add_parser(
        "trace", help="export, summarise, inspect and diff observability traces"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    t_export = trace_sub.add_parser(
        "export", help="run one abcast spec with obs enabled and export its trace"
    )
    _add_run_args(t_export, "cabcast-l", rate=100.0, duration=0.5)
    _add_crash_arg(t_export)
    t_export.add_argument(
        "--format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="jsonl (repro.trace.v1, diffable) or chrome (Perfetto timeline)",
    )
    t_export.add_argument("--out", required=True, metavar="FILE")
    _add_nemesis_args(t_export)

    t_summary = trace_sub.add_parser(
        "summary", help="per-kind counts and span summary of a JSONL trace"
    )
    t_summary.add_argument("file")
    t_summary.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any kind falls outside the canonical vocabulary",
    )

    t_spans = trace_sub.add_parser(
        "spans", help="reconstructed consensus and broadcast spans of a JSONL trace"
    )
    t_spans.add_argument("file")

    t_cp = trace_sub.add_parser(
        "critical-path",
        help="decision critical paths and fallback causes of a JSONL trace",
    )
    t_cp.add_argument("file")
    t_cp.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when a decided instance has no resolvable path "
             "or a delivery lacks its matching send",
    )
    t_cp.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="print the paths as a JSON array instead of the table",
    )

    t_diff = trace_sub.add_parser(
        "diff", help="first divergence between two JSONL traces"
    )
    t_diff.add_argument("left")
    t_diff.add_argument("right")

    p_obs = sub.add_parser(
        "obs", help="cross-run metrics warehouse (record, report, compare)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    o_record = obs_sub.add_parser(
        "record",
        help="run one abcast spec with obs on and append its summary",
    )
    o_record.add_argument("--warehouse", required=True, metavar="FILE")
    _add_run_args(o_record, "cabcast-l", rate=100.0, duration=0.5)
    _add_crash_arg(o_record)
    o_record.add_argument(
        "--label", default=None, help="free-form tag stored with the entry"
    )
    o_record.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="record an RSM service run over N consensus groups instead of "
             "plain abcast (enables --parallel/--workers)",
    )
    o_record.add_argument(
        "--clients", type=int, default=4, help="client sessions (with --shards)"
    )
    o_record.add_argument(
        "--parallel",
        action="store_true",
        help="parallel execution: one kernel per shard group (with --shards)",
    )
    o_record.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes for --parallel",
    )
    _add_nemesis_args(o_record)

    o_report = obs_sub.add_parser("report", help="tabulate a warehouse file")
    o_report.add_argument("warehouse", metavar="FILE")

    o_compare = obs_sub.add_parser(
        "compare",
        help="gate two warehouse entries against a latency tolerance",
    )
    o_compare.add_argument("warehouse", metavar="FILE")
    o_compare.add_argument(
        "--base", type=int, default=-2, help="baseline entry index (default -2)"
    )
    o_compare.add_argument(
        "--fresh", type=int, default=-1, help="candidate entry index (default -1)"
    )
    o_compare.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="max tolerated latency growth as a fraction (default 0.30)",
    )

    p_fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided fault-schedule fuzzing (repro.nemesis)",
        description=(
            "Search random nemesis schedules for checker violations against "
            "one protocol; findings are delta-debugged to a minimal schedule "
            "and can be saved as a replayable JSON repro.  Exit status: 0 = "
            "no violation found, 1 = violation found, 2 = replay mismatch."
        ),
    )
    p_fuzz.add_argument(
        "--kind", choices=("consensus", "abcast", "rsm"), default="consensus"
    )
    p_fuzz.add_argument(
        "--protocol", default=None, help="registry name (default per kind)"
    )
    p_fuzz.add_argument("--n", type=int, default=4)
    p_fuzz.add_argument("--seed", type=int, default=0, help="fuzz campaign seed")
    p_fuzz.add_argument("--budget", type=int, default=32, help="trial runs")
    p_fuzz.add_argument("--max-ops", type=int, default=8, help="ops per schedule")
    p_fuzz.add_argument(
        "--ops",
        default=None,
        metavar="A,B,...",
        help="op kinds to generate (default: the in-model set; 'all' adds dup)",
    )
    p_fuzz.add_argument("--window", type=float, default=None, help="injection window (s)")
    p_fuzz.add_argument("--max-findings", type=int, default=1)
    p_fuzz.add_argument(
        "--detection-delay", type=float, default=1e-3, help="consensus-kind FD lag"
    )
    p_fuzz.add_argument(
        "--termination-as-violation",
        action="store_true",
        help="count stalls (TerminationFailure) as findings, not just safety",
    )
    p_fuzz.add_argument("--no-shrink", action="store_true")
    p_fuzz.add_argument(
        "--save", metavar="PATH", default=None, help="write first finding's repro JSON"
    )
    p_fuzz.add_argument(
        "--replay", metavar="PATH", default=None, help="replay a repro JSON instead"
    )

    sub.add_parser(
        "protocols", help="list the protocol registry (name, kind, n, description)"
    )

    p_t1 = sub.add_parser("table1", help="print the analytical Table 1")
    p_t1.add_argument("--n", type=int, default=4)

    sub.add_parser("theorem1", help="derive the Theorem-1 certificate")

    return parser


def _cmd_consensus(args: argparse.Namespace) -> int:
    values = args.proposals.split(",")
    spec = ConsensusRunSpec(
        protocol=args.protocol,
        proposals=tuple(values),
        seed=args.seed,
        cluster=ClusterSpec(detection_delay=args.detection_delay),
        crash_at=tuple(args.crash),
        horizon=30.0,
    )
    result = run_consensus(spec)
    print(f"protocol : {args.protocol} (n={len(values)})")
    print(f"proposals: {dict(enumerate(values))}")
    for pid, record in sorted(result.records.items()):
        print(
            f"  p{pid} decided {record.value!r} after {record.steps} step(s) "
            f"via {record.via} at t={record.at * 1e3:.3f} ms"
        )
    if result.crashed:
        print(f"crashed  : {result.crashed}")
    print(f"messages : {result.messages_sent}")
    return 0


def _cmd_abcast(args: argparse.Namespace) -> int:
    result = run_abcast(_abcast_spec(args, drain=2.0))
    sent = len(result.broadcast)
    latencies = result.latencies()
    mean_ms = sum(latencies) / len(latencies) * 1e3 if latencies else float("nan")
    print(f"protocol : {args.protocol} (n={args.n})")
    print(f"offered  : {sent} messages at {args.rate:.0f} msg/s")
    print(f"delivered: {result.delivered_count} (total order verified)")
    print(f"latency  : mean {mean_ms:.3f} ms over {len(latencies)} samples")
    print(f"messages : {result.network_stats['sent']} on the wire")
    return 0


def _cmd_rsm(args: argparse.Namespace) -> int:
    from repro.engine import RsmRunSpec, TopologySpec
    from repro.engine.runner import execute_run

    # --txn-keys alone (no transaction sessions) must not leave the default
    # spec: the txn fields are spelled out only with a txn workload.
    extra: dict = {}
    if args.txn_clients or args.txn_rate:
        extra.update(
            txn_clients=args.txn_clients,
            txn_rate=args.txn_rate,
            txn_keys=args.txn_keys,
        )
    spec = RsmRunSpec(
        protocol=args.protocol,
        rate=args.rate,
        duration=args.duration,
        n=args.n,
        clients=args.clients,
        seed=args.seed,
        workload=args.workload,
        keys=args.keys,
        batch_max=args.batch_max,
        batch_delay=args.batch_delay,
        snapshot_every=args.snapshot_every,
        recover_after=None if args.recover_after < 0 else args.recover_after,
        cluster=PAPER_LAN,
        crash_at=tuple(args.crash),
        topology=TopologySpec(groups=args.shards, partitioner=args.partitioner),
        parallel=args.parallel,
        workers=args.workers,
        **extra,
    )
    report = execute_run(spec)
    if args.json_out:
        # Canonical form so equal seeds print byte-identical documents.
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    rsm = report.rsm
    latency = rsm["latency_ms"]
    sharded = "shards" in rsm
    if sharded:
        topology = rsm["topology"]
        print(f"protocol : {args.protocol} ({topology['groups']} shards × n={args.n} "
              f"[{topology['partitioner']}], {args.clients} sessions, "
              f"{args.workload}-loop {args.rate:.0f} ops/s)")
    else:
        print(f"protocol : {args.protocol} (n={args.n}, {args.clients} sessions, "
              f"{args.workload}-loop {args.rate:.0f} ops/s)")
    parallel = rsm.get("parallel")
    if parallel:
        print(f"parallel : {parallel['partitions']} partition kernels on "
              f"{parallel['workers'] or 1} worker(s), busiest "
              f"{parallel['max_partition_events']:,} of "
              f"{parallel['events_total']:,} events")
    print(f"committed: {rsm['committed']} commands "
          f"({rsm['ops_per_s']:.0f} ops/s in the window)")
    if latency is not None:
        print(f"latency  : p50 {latency['p50']:.3f} ms, "
              f"p99 {latency['p99']:.3f} ms (mean {latency['mean']:.3f} ms)")
    if sharded:
        txns = rsm["txns"]
        if txns["sessions"]:
            print(f"txns     : {txns['committed']} committed, "
                  f"{txns['aborted']} aborted over {txns['sessions']} 2PC "
                  f"sessions ({txns['conflicts']} saw lock conflicts)")
        for shard, info in sorted(rsm["shards"].items(), key=lambda kv: int(kv[0])):
            print(f"  shard {shard}: {info['committed']} commands, "
                  f"{info['txns_committed']} txn commits, "
                  f"digest {info['digest'][:12]}…")
    else:
        print(f"batching : {rsm['batches']['count']} batches, "
              f"mean size {rsm['batches']['mean_size']:.2f}")
    snapshots = rsm["snapshots"]
    line = f"snapshots: {snapshots['taken']} taken ({snapshots['bytes']} bytes)"
    if "last_index" in snapshots:
        line += f", log compacted to index {snapshots['last_index']}"
    print(line)
    print(f"dedup    : {rsm['dedup']['suppressed']} duplicates suppressed, "
          f"{rsm['dedup']['retries']} client retries")
    if rsm["crashed"]:
        print(f"crashed  : {rsm['crashed']}")
    for pid, info in sorted(rsm["recovery"].items(), key=lambda kv: int(kv[0])):
        verdict = "state matches" if info["digest_match"] else "DIVERGED"
        print(f"  p{pid} rejoined from snapshot index {info['installed_index']}, "
              f"replayed {info['replayed']} commands — {verdict}")
    if sharded:
        print(f"checked  : linearizable per shard + cross-shard serializable="
              f"{str(rsm['linearizable']).lower()}")
    else:
        print(f"checked  : linearizable={str(rsm['linearizable']).lower()}, "
              f"digest {rsm['digest'][:16]}…")
    return 0


def _cmd_protocols(args: argparse.Namespace) -> int:
    rows = [
        (info.name, info.kind, "-" if info.default_n is None else str(info.default_n),
         info.description)
        for info in sorted(PROTOCOLS.values(), key=lambda i: (i.kind, i.name))
    ]
    name_w = max(len(r[0]) for r in rows)
    kind_w = max(len(r[1]) for r in rows)
    print(f"{'name':<{name_w}}  {'kind':<{kind_w}}  {'n':>2}  description")
    for name, kind, group, description in rows:
        print(f"{name:<{name_w}}  {kind:<{kind_w}}  {group:>2}  {description}")
    return 0


def _sweep_progress_printer():
    """A ``run_sweep`` progress callback streaming cells/sec + ETA to stderr.

    The first call (the cache-scan summary, ``report=None``) anchors the
    clock, so cells/sec measures executed cells only and cache hits don't
    inflate the rate.
    """
    from time import perf_counter

    state = {"start": None, "base": 0}

    def progress(done: int, total: int, report) -> None:
        if state["start"] is None:
            state["start"] = perf_counter()
            state["base"] = done
        executed = done - state["base"]
        elapsed = perf_counter() - state["start"]
        line = f"\r[{done}/{total}]"
        if executed and elapsed > 0:
            rate = executed / elapsed
            eta = (total - done) / rate
            line += f" {rate:.1f} cells/s ETA {eta:.0f}s"
        print(f"{line}   ", end="", file=sys.stderr, flush=True)

    return progress


def _run_cli_sweep(args: argparse.Namespace, specs: list):
    """Run a sweep grid, reporting progress, notes and cache use on stderr."""
    progress = _sweep_progress_printer() if args.progress else None
    sweep = run_sweep(specs, jobs=args.jobs, cache=args.cache, progress=progress)
    if progress is not None:
        print(file=sys.stderr)  # terminate the \r progress line
    for note in sweep.notes:
        print(f"note     : {note}", file=sys.stderr)
    if args.cache is not None:
        print(
            f"cache    : {sweep.cache_hits} hits, {sweep.cache_misses} misses "
            f"({sweep.hit_rate:.0%} hit rate) in {args.cache}",
            file=sys.stderr,
        )
    return sweep


def _write_sweep_json(args: argparse.Namespace, sweep, names, **axes) -> None:
    """Write the sweep's ``--json`` document: its grid (the protocols, the
    swept ``axes``, duration, seed, repeats) and every run."""
    if not args.json_out:
        return
    grid = {"protocols": names, **axes}
    grid.update(duration=args.duration, seed=args.seed, repeats=args.repeats)
    document = {
        "schema": SWEEP_JSON_SCHEMA,
        "grid": grid,
        "runs": [report.to_dict() for report in sweep.reports],
    }
    with open(args.json_out, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote    : {args.json_out}", file=sys.stderr)


def _sweep_shard_axis(args: argparse.Namespace, names, rates) -> int:
    """Scale-out sweep: shard count × group size at one offered rate.

    Each cell is an :class:`RsmRunSpec` built by
    :func:`~repro.engine.runner.rsm_sweep_grid`; 1-shard cells keep the
    default topology and therefore hit any pre-topology cache entries.
    """
    from repro.engine.runner import rsm_sweep_grid

    shard_counts = [int(s) for s in args.shards.split(",")]
    sizes = [int(s) for s in args.group_sizes.split(",")]
    rate = rates[0]
    specs: list = []
    for name in names:
        specs.extend(
            rsm_sweep_grid(
                name,
                rate=rate,
                duration=args.duration,
                shards=shard_counts,
                group_sizes=sizes,
                seed=args.seed,
                warmup=min(0.5, args.duration * 0.2),
                repeats=args.repeats,
                cluster=PAPER_LAN,
            )
        )
    print(
        f"sweeping {','.join(names)} over shards {shard_counts} × "
        f"group sizes {sizes} at {rate:.0f} ops/s ...",
        file=sys.stderr,
    )
    sweep = _run_cli_sweep(args, specs)

    # Pool repeats into one point per (protocol, shard count, group size).
    latency: dict[str, list[float]] = {}
    throughput: dict[str, list[float]] = {}
    reports = iter(sweep.reports)
    for name in names:
        series = {size: ([], []) for size in sizes}
        for _ in shard_counts:
            for size in sizes:
                pooled: list[float] = []
                ops = 0.0
                for _ in range(args.repeats):
                    report = next(reports)
                    pooled.extend(report.latencies)
                    ops += report.rsm["ops_per_s"]
                series[size][0].append(summarize(pooled).scaled(1e3).mean)
                series[size][1].append(ops / args.repeats)
        for size in sizes:
            label = f"{name} g{size}" if len(sizes) > 1 or len(names) > 1 else name
            latency[label] = series[size][0]
            throughput[label] = series[size][1]

    labels = list(latency)
    print(f"{'shards':<10}" + "".join(f"{label:<16}" for label in labels)
          + " (mean latency ms)")
    for i, groups in enumerate(shard_counts):
        row = f"{groups:<10d}"
        for label in labels:
            row += f"{latency[label][i]:<16.2f}"
        print(row)
    print()
    print(f"{'shards':<10}" + "".join(f"{label:<16}" for label in labels)
          + " (committed ops/s)")
    for i, groups in enumerate(shard_counts):
        row = f"{groups:<10d}"
        for label in labels:
            row += f"{throughput[label][i]:<16.0f}"
        print(row)
    if not args.no_chart:
        print()
        print(
            line_chart(
                latency,
                shard_counts,
                title=f"mean latency [ms] vs shards at {rate:.0f} ops/s",
            )
        )

    _write_sweep_json(
        args, sweep, names, rate=rate, shards=shard_counts, group_sizes=sizes
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    names = [name.strip() for name in args.protocols.split(",") if name.strip()]
    unknown = [
        name
        for name in names
        if name not in PROTOCOLS or PROTOCOLS[name].kind != ABCAST
    ]
    if unknown:
        print(f"unknown protocols: {unknown}", file=sys.stderr)
        return 2
    rates = [float(r) for r in args.rates.split(",")]
    if args.shards is not None:
        return _sweep_shard_axis(args, names, rates)

    specs = sweep_grid(
        names,
        rates,
        duration=args.duration,
        n=args.n,
        seed=args.seed,
        warmup=min(0.5, args.duration * 0.2),
        repeats=args.repeats,
        cluster=PAPER_LAN,
    )
    for name in names:
        group = PROTOCOLS[name].default_n or args.n
        print(f"sweeping {name} (n={group}) ...", file=sys.stderr)
    sweep = _run_cli_sweep(args, specs)

    # Pool repeats into one curve point per (protocol, rate).
    curves: dict[str, list[float]] = {}
    reports = iter(sweep.reports)
    for name in names:
        means: list[float] = []
        for _ in rates:
            pooled: list[float] = []
            for _ in range(args.repeats):
                pooled.extend(next(reports).latencies)
            means.append(summarize(pooled).scaled(1e3).mean)
        curves[name] = means

    print(f"{'msg/s':<10}" + "".join(f"{name:<16}" for name in names))
    for i, rate in enumerate(rates):
        row = f"{rate:<10.0f}"
        for name in names:
            row += f"{curves[name][i]:<16.2f}"
        print(row)
    if not args.no_chart:
        print()
        print(
            line_chart(
                curves,
                [int(r) for r in rates],
                title="mean latency [ms] vs throughput [msg/s]",
            )
        )

    _write_sweep_json(args, sweep, names, rates=rates, n=args.n)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.engine.runner import execute_run
    from repro.perf import format_perf, profile_call

    spec = _abcast_spec(
        args, warmup=min(0.5, args.duration * 0.2), cluster=PAPER_LAN
    )
    if args.cprofile is not None:
        report, profile_lines = profile_call(
            execute_run, spec, collect_perf=True, top=args.cprofile
        )
    else:
        report, profile_lines = execute_run(spec, collect_perf=True), None
    perf = dict(report.perf)
    if profile_lines is not None:
        perf["profile"] = list(profile_lines)

    print(
        f"protocol : {args.protocol} (n={args.n}, {args.rate:.0f} msg/s, "
        f"{args.duration:g} s, seed {args.seed})"
    )
    print(format_perf(perf))
    print(
        f"run      : {report.delivered}/{report.offered} window messages "
        f"delivered, mean latency {report.mean_latency_ms:.3f} ms"
    )
    if profile_lines is not None:
        print()
        print("cProfile (use for ratios; tracing inflates wall time):")
        for line in profile_lines:
            print(f"  {line}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(perf, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote    : {args.json_out}", file=sys.stderr)
    return 0


def _observed_abcast_spec(args: argparse.Namespace, nemesis) -> AbcastRunSpec:
    """The fully observed abcast run of ``trace export`` and ``obs record``."""
    return _abcast_spec(
        args,
        drain=2.0,
        cluster=PAPER_LAN,
        crash_at=tuple(args.crash),
        obs=True,
        nemesis=nemesis,
        # Partitions drop reliable-channel sends for good (no retransmit in
        # the paper's protocols), so messages broadcast into a partition
        # window may legitimately never deliver everywhere.
        require_all_delivered=nemesis is None,
    )


def _trace_export(args: argparse.Namespace) -> int:
    from repro.engine import RunContext
    from repro.obs import ObsRuntime, export_chrome, export_jsonl

    spec = _observed_abcast_spec(args, _parse_nemesis(args))
    obs = ObsRuntime.from_spec(spec)
    run_abcast(spec, ctx=RunContext(obs=obs))
    writer = export_chrome if args.format == "chrome" else export_jsonl
    with open(args.out, "w", encoding="utf-8") as fh:
        count = writer(obs.tracer.records, fh, spec=spec.to_dict())
    print(f"wrote    : {count} records to {args.out} ({args.format})")
    return 0


def _trace_summary(args: argparse.Namespace) -> int:
    from repro.obs import SpanBuilder, load_trace
    from repro.sim.trace import KINDS

    header, rows = load_trace(args.file)
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[2]] = counts.get(row[2], 0) + 1
    spec = header.get("spec") or {}
    if spec:
        print(f"spec     : {spec.get('protocol')} n={spec.get('n')} "
              f"rate={spec.get('rate')} seed={spec.get('seed')}")
    print(f"records  : {len(rows)}")
    for kind in sorted(counts):
        print(f"  {kind:<14} {counts[kind]}")
    summary = SpanBuilder().add_rows(rows).summary()
    print(f"consensus: {summary['decided']}/{summary['instances']} instances decided, "
          f"{summary['fast_path']} fast-path, {summary['forwarded']} forwarded, "
          f"max round {summary['max_round']}")
    if summary["steps_histogram"]:
        hist = ", ".join(
            f"{steps} step(s) x{count}"
            for steps, count in summary["steps_histogram"].items()
        )
        print(f"steps    : {hist}")
    txns = summary.get("txns") or {}
    if txns.get("count"):
        print(f"txns     : {txns['count']} transactions — "
              f"{txns['committed']} committed, {txns['aborted']} aborted, "
              f"{txns['unfinished']} in flight")
    broadcasts = summary["broadcasts"]
    if broadcasts["count"]:
        line = f"broadcast: {broadcasts['count']} messages"
        if "mean_latency" in broadcasts:
            line += (f", {broadcasts['delivered']} delivered, "
                     f"latency {broadcasts['min_latency'] * 1e3:.3f}-"
                     f"{broadcasts['max_latency'] * 1e3:.3f} ms "
                     f"(mean {broadcasts['mean_latency'] * 1e3:.3f} ms)")
        print(line)
    unknown = sorted(set(counts) - KINDS.ALL)
    if unknown:
        print(f"unknown kinds: {unknown}", file=sys.stderr)
        if args.strict:
            return 1
    return 0


def _trace_spans(args: argparse.Namespace) -> int:
    from repro.obs import SpanBuilder, load_trace

    _, rows = load_trace(args.file)
    builder = SpanBuilder().add_rows(rows)
    for span in builder.consensus_spans():
        label = "consensus" if span.instance is None else f"consensus[{span.instance}]"
        if span.decided:
            duration = (
                (span.decided_at - span.propose_at) * 1e3
                if span.propose_at is not None
                else float("nan")
            )
            print(f"p{span.pid} {label}: decided {span.decided_value!r} in "
                  f"{span.steps} step(s) via {span.via} ({duration:.3f} ms)")
        else:
            print(f"p{span.pid} {label}: undecided after {len(span.rounds)} round(s)")
        for entry in span.phase_breakdown():
            phase = f" {entry['phase']}" if "phase" in entry else ""
            print(f"    round {entry['round']}{phase}: "
                  f"{entry['duration'] * 1e3:.3f} ms from t={entry['start'] * 1e3:.3f} ms")
    for span in builder.broadcast_spans():
        latency = span.latency
        when = f"{latency * 1e3:.3f} ms" if latency is not None else "never delivered"
        print(f"msg {span.msg_id}: origin p{span.origin}, "
              f"{len(span.deliveries)} deliveries, first after {when}")
    for span in builder.txn_spans():
        votes = ", ".join(
            f"s{shard}={vote}" for shard, vote in sorted(span.votes.items())
        )
        if span.finished:
            outcome = (f"{span.decision} in {span.duration * 1e3:.3f} ms"
                       if span.duration is not None else span.decision)
        else:
            outcome = "in flight"
        print(f"txn {span.txid}: shards {span.shards} via p{span.coordinator_pid}, "
              f"votes [{votes}] — {outcome}")
    return 0


def _trace_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_traces, load_trace

    _, left = load_trace(args.left)
    _, right = load_trace(args.right)
    divergence = diff_traces(left, right)
    if divergence is None:
        print(f"identical: {len(left)} records")
        return 0
    index, left_row, right_row = divergence
    if left_row is None or right_row is None:
        # Strict prefix: no record disagrees, one trace just keeps going.
        longer = "right" if left_row is None else "left"
        extra = right_row if left_row is None else left_row
        trailing = max(len(left), len(right)) - index
        time, pid, kind, data = extra
        print(f"prefix: traces agree on the first {index} records; "
              f"{longer} has {trailing} extra trailing record(s)")
        print(f"  first extra ({longer}): "
              f"t={time:.6f} pid={pid} kind={kind} data={data!r}")
        return 1
    print(f"diverged at record {index}:")
    for name, row in (("left", left_row), ("right", right_row)):
        time, pid, kind, data = row
        print(f"  {name:<5}: t={time:.6f} pid={pid} kind={kind} data={data!r}")
    return 1


def _trace_critical_path(args: argparse.Namespace) -> int:
    from repro.obs import SpanBuilder, load_trace
    from repro.obs.causal import CausalGraph, critical_paths

    _, rows = load_trace(args.file)
    builder = SpanBuilder().add_rows(rows)
    graph = CausalGraph.from_rows(rows)
    paths = critical_paths(builder, graph)
    decided = [span for span in builder.consensus_spans() if span.decided]
    if args.json_out:
        print(json.dumps(
            [path.to_dict() for path in paths], indent=2, sort_keys=True
        ))
    else:
        for path in paths:
            label = (
                "consensus"
                if path.instance is None
                else f"consensus[{path.instance}]"
            )
            wire = (
                f", {path.network_time * 1e3:.3f} ms on the wire"
                if path.hops else ""
            )
            print(f"p{path.pid} {label}: {path.steps} step(s) via {path.via}, "
                  f"{len(path.hops)} hop(s) in {path.latency * 1e3:.3f} ms{wire}")
            for hop in path.hops:
                print(f"    #{hop.msg_id} {hop.kind} p{hop.src}→p{hop.dst} "
                      f"sent t={hop.sent_at * 1e3:.3f} ms, "
                      f"flight {hop.flight_time * 1e3:.3f} ms")
            if path.cause is not None:
                cause = path.cause
                op = cause.get("op")
                via_op = f" during nemesis op {op['op']}@{op['at']:g}s" if op else ""
                print(f"    cause: {cause['kind']} at t={cause['time'] * 1e3:.3f} ms "
                      f"(pid {cause['pid']}){via_op}")
    problems = []
    if len(paths) < len(decided):
        problems.append(
            f"{len(decided) - len(paths)} decided instance(s) "
            "with no resolvable critical path"
        )
    if graph.orphan_delivers:
        problems.append(
            f"{len(graph.orphan_delivers)} delivery record(s) "
            "without a matching send"
        )
    for problem in problems:
        print(f"problem  : {problem}", file=sys.stderr)
    if not paths and not problems:
        print("no decided instances in this trace")
    return 1 if args.strict and problems else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    return {
        "export": _trace_export,
        "summary": _trace_summary,
        "spans": _trace_spans,
        "critical-path": _trace_critical_path,
        "diff": _trace_diff,
    }[args.trace_command](args)


def _obs_record(args: argparse.Namespace) -> int:
    from repro.engine import RsmRunSpec, RunContext, TopologySpec
    from repro.engine.runner import execute_run
    from repro.obs import ObsRuntime, Warehouse, build_entry

    nemesis = _parse_nemesis(args)
    if args.shards:
        # RSM service run — report.rsm feeds the warehouse's ops/latency subset.
        spec = RsmRunSpec(
            protocol=args.protocol,
            rate=args.rate,
            duration=args.duration,
            n=args.n,
            clients=args.clients,
            seed=args.seed,
            cluster=PAPER_LAN,
            crash_at=tuple(args.crash),
            obs=True,
            nemesis=nemesis,
            topology=TopologySpec(groups=args.shards),
            parallel=args.parallel,
            workers=args.workers,
        )
    else:
        spec = _observed_abcast_spec(args, nemesis)
    obs = ObsRuntime.from_spec(spec)
    ctx = RunContext(tracer=obs.tracer, obs=obs)
    report = execute_run(spec, ctx=ctx)
    entry = build_entry(report, obs.tracer.records, label=args.label)
    index = Warehouse(args.warehouse).append(entry)
    latency = entry.get("latency") or {}
    mean = latency.get("mean")
    mean_text = f"{mean * 1e3:.3f} ms" if mean is not None else "-"
    print(f"recorded : entry {index} in {args.warehouse} "
          f"({entry['protocol']} seed {entry['seed']}, "
          f"mean latency {mean_text}, key {entry['key'][:12]})")
    return 0


def _obs_report(args: argparse.Namespace) -> int:
    from repro.obs import Warehouse
    from repro.obs.warehouse import format_entry

    entries = Warehouse(args.warehouse).load()
    if not entries:
        print(f"{args.warehouse}: empty warehouse")
        return 0
    print(f"{'idx':>3}  {'protocol':<12} {'seed':>6} {'decided':>9} "
          f"{'fast':>4} {'mean ms':>8} {'cps':>3} {'causes':<16} key")
    for index, entry in enumerate(entries):
        print(format_entry(index, entry))
    return 0


def _obs_compare(args: argparse.Namespace) -> int:
    from repro.obs import Warehouse, compare_entries
    from repro.obs.warehouse import DEFAULT_TOLERANCE

    store = Warehouse(args.warehouse)
    base = store.entry(args.base)
    fresh = store.entry(args.fresh)
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    lines, failures = compare_entries(base, fresh, tolerance=tolerance)
    print(f"comparing entry {args.fresh} against entry {args.base} "
          f"(tolerance {tolerance:.0%})")
    for line in lines:
        print(line)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("ok: no latency regression")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    return {
        "record": _obs_record,
        "report": _obs_report,
        "compare": _obs_compare,
    }[args.obs_command](args)


def _cmd_table1(args: argparse.Namespace) -> int:
    print(format_table1(args.n))
    return 0


def _cmd_theorem1(args: argparse.Namespace) -> int:
    from repro.core.lowerbound import prove_theorem1

    print(prove_theorem1().explain())
    return 0


def _fuzz_base_spec(args: argparse.Namespace):
    """The fault-free base spec a fuzz campaign mutates around."""
    from repro.engine import RsmRunSpec
    from repro.sim.network import UniformDelay

    if args.kind == "consensus":
        return ConsensusRunSpec(
            protocol=args.protocol or "p-consensus",
            proposals=tuple(f"v{pid}" for pid in range(args.n)),
            seed=0,
            cluster=ClusterSpec(
                delay=UniformDelay(1e-4, 3e-3),
                detection_delay=args.detection_delay,
            ),
            horizon=5.0,
        )
    if args.kind == "abcast":
        return AbcastRunSpec(
            protocol=args.protocol or "cabcast-p",
            rate=100.0,
            duration=0.3,
            n=args.n,
            seed=0,
        )
    return RsmRunSpec(
        protocol=args.protocol or "cabcast-l",
        rate=120.0,
        duration=0.3,
        n=args.n,
        clients=4,
        seed=0,
    )


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.nemesis.fuzz import (
        DEFAULT_OPS,
        FULL_OPS,
        fuzz_schedules,
        replay_repro,
        save_repro,
    )

    if args.replay:
        from repro.errors import ReproError

        try:
            err = replay_repro(args.replay)
        except ReproError as mismatch:
            print(f"replay FAILED: {mismatch}")
            return 2
        print(f"reproduced {type(err).__name__}: {err}")
        return 0

    if args.ops is None:
        include = DEFAULT_OPS
    elif args.ops == "all":
        include = FULL_OPS
    else:
        include = tuple(args.ops.split(","))
    spec = _fuzz_base_spec(args)

    def progress(trials: int, findings: int, coverage: int) -> None:
        print(
            f"\r[{trials}/{args.budget}] findings={findings} coverage={coverage}",
            end="",
            file=sys.stderr,
            flush=True,
        )

    result = fuzz_schedules(
        spec,
        budget=args.budget,
        seed=args.seed,
        max_ops=args.max_ops,
        window=args.window,
        include=include,
        shrink=not args.no_shrink,
        max_findings=args.max_findings,
        treat_termination_as_violation=args.termination_as_violation,
        progress=progress,
    )
    print(file=sys.stderr)
    print(
        f"trials={result.trials} violations={result.violations} "
        f"terminations={result.terminations} coverage={len(result.coverage)}"
    )
    for finding in result.findings:
        print(
            f"finding: {finding.error_type} (trial {finding.trial_index}, "
            f"{len(finding.schedule)} ops shrunk to {len(finding.shrunk)})"
        )
        print(f"  {finding.shrunk_error_message}")
        for op in finding.shrunk.ops:
            print(f"  op: {op.to_dict()}")
    if result.findings and args.save:
        path = save_repro(result.findings[0], args.save)
        print(f"repro written to {path}")
    return 1 if result.findings else 0


_COMMANDS = {
    "consensus": _cmd_consensus,
    "abcast": _cmd_abcast,
    "rsm": _cmd_rsm,
    "sweep": _cmd_sweep,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "obs": _cmd_obs,
    "fuzz": _cmd_fuzz,
    "protocols": _cmd_protocols,
    "table1": _cmd_table1,
    "theorem1": _cmd_theorem1,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        # A spec the CLI flags describe but the model rejects: a usage error.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
