#!/usr/bin/env python3
"""The repo benchmark: one workload per process, host-time + simulated-time.

    python3 benchmarks/e2e/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/e2e/run.py --check

One closed-loop caller (this process) issues passes of the workload back to
back; inside the simulation clients are open-loop Poisson in *virtual* time
over ``PAPER_LAN``.  Run shape: set-up (import, spec build, pool start, one
warm-up pass — repeated in two fresh child processes, median of the three
reported as ``setup_s``), then timed passes for ``--seconds`` (at least 5),
``gc.collect()`` before each; wall/CPU are medians over the passes.  Every
pass's canonical output must hash to the warm-up pass's digest.

Host times are *drift-compensated* (``speed.py``): every pass's seconds are
scaled to what they would be at a reference machine speed, gauged while the
pass runs.  Medians as measured are printed beside the compensated ones.

``--trace 1`` replaces the timed passes with the attribution probes of
``probes.py`` and prints the per-layer metrics instead.  The last stdout line
is always the JSON result object; everything above it is for people.
"""

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

WORKLOAD_NAMES = ("fig2_sweep", "rsm_recovery", "shard8_txn", "sweep_engine", "obs_explain")
POOLED = ("sweep_engine",)  # workloads whose passes run in pool workers (Workload.pooled)
MIN_PASSES = 5
SETUP_PROBES = 2  # fresh-process set-ups besides this process's own
RUN_CAP_S = 30.0

#: (name, unit, better, bound) of every end-to-end metric, in emission order.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("sim_latency_p50_ms", "ms", "lower", 0.25),
)


# --------------------------------------------------------------- measurement


def _proc_cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of a live process, from /proc (0 if it is gone)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """CPU seconds of this process and its children, reaped or still alive
    (pool workers outlive a pass, so rusage of reaped children alone would miss them)."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(_proc_cpu_seconds(p.pid) for p in multiprocessing.active_children())
    return time.process_time() + reaped.ru_utime + reaped.ru_stime + live


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children, in MiB."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            total_kib += int(match.group(1))
    return total_kib / 1024


def timed_pass(wl):
    """(wall seconds, CPU seconds, machine speed, distilled output) of one
    pass; the seconds are as measured."""
    gc.collect()
    with SpeedSampler(during=not wl.pooled) as sampler:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        raw = wl.run_pass()
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    return wall, cpu, sampler.speed, wl.distil(raw)


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def fingerprint(seed: int) -> dict:
    from repro.engine import PAPER_LAN

    try:
        # The ceiling keeps git from looking for a repository above the checkout.
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        "seed": seed,
        "injected_one_way_delay_ms": PAPER_LAN.delay.mean() * 1e3,
    }


# ------------------------------------------------------------------- one run


def set_up(name: str, seed: int, scratch: str):
    """Import, build specs, start the pool, warm up: (workload, warm-up
    output, warm-up wall seconds as measured, set-up seconds at reference speed)."""
    with SpeedSampler(during=name not in POOLED) as sampler:
        start = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        from workloads import WORKLOADS

        wl = WORKLOADS[name](seed, scratch)
        wl.prepare()
        gc.collect()
        t0 = time.perf_counter()
        warm = wl.distil(wl.run_pass())
        done = time.perf_counter()
    return wl, warm, done - t0, (done - start) * sampler.speed


def probe_set_up(name: str, seed: int) -> dict:
    """Set the workload up once more in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(args, scratch: str) -> int:
    wl, warm, warm_wall, own_setup = set_up(args.workload, args.seed, scratch)
    digest = warm.digest()
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup, "digest": digest}))
        return 0

    env = fingerprint(args.seed)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")
    print("load: closed loop of 1 caller; simulated clients open-loop Poisson in virtual time")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"digest {digest} (sha256 of the warm-up pass's canonical output)")

    attempted, failed = warm.attempted, warm.failed
    correct = warm.failed == 0 and warm.ops > 0
    record = {"workload": wl.name, "trace": args.trace, "env": env, "digest": digest}

    if args.trace:
        import probes

        metrics, notes, ok, log = probes.trace(wl, warm.texts, warm_wall)
        correct = correct and ok
        declared = probes.PER_LAYER
        spans_path = OUT / f"{wl.name}.spans.json"
        spans_path.write_text(json.dumps({"env": env, "digest": digest, "spans": log.spans}))
        print(f"spans: {len(log.spans)} written to {spans_path.relative_to(ROOT)}")
        ranked = sorted(probes.LAYERS, key=lambda layer: -metrics[f"{layer}.self_share"])
        print("layer table (whole pass under cProfile; builtin/stdlib time charged to the caller's layer):")
        for layer in ranked:
            share, calls = metrics[f"{layer}.self_share"], metrics[f"{layer}.calls"]
            if share or calls:
                print(f"  {layer:<13} {share:7.2%}  {calls:>10} calls")
        for note in notes:
            print("note: " + note)
    else:
        setups = [own_setup]
        for _ in range(SETUP_PROBES):
            probe = probe_set_up(wl.name, args.seed)
            setups.append(probe["setup_s"])
            if probe["digest"] != digest:
                correct = False
                print("FAILED: a fresh process produced different simulated output: " + probe["digest"])
        walls, cpus, speeds = [], [], []
        measure_from = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - measure_from < args.seconds:
            wall, cpu, speed, out = timed_pass(wl)
            walls.append(wall)
            cpus.append(cpu)
            speeds.append(speed)
            attempted += out.attempted
            failed += out.failed
            if out.digest() != digest:
                # Same seed, different simulated statistics: every op of the pass fails.
                failed += out.attempted - out.failed
                correct = False
                print(f"FAILED: pass {len(walls)} digest {out.digest()} differs from the warm-up pass")
        correct = correct and failed == 0
        latencies = sorted(warm.latencies)
        wall = statistics.median(w * s for w, s in zip(walls, speeds))
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cpu_s": statistics.median(c * s for c, s in zip(cpus, speeds)),
            "ops_per_s": warm.ops / wall,
            "peak_rss_mb": peak_rss_mb(),
            "sim_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        }
        declared = END_TO_END
        n = len(walls)
        print(f"passes: {n} timed (+1 warm-up); {n} samples support a median, no tail percentile")
        print(f"  as measured: wall median {statistics.median(walls):.4f} s (min {min(walls):.4f}, max {max(walls):.4f}), "
              f"cpu median {statistics.median(cpus):.4f} s; machine at {min(speeds):.2f}-{max(speeds):.2f}x the "
              f"reference speed over the passes; times below are scaled to it")
        print(f"  setup_s samples {[round(s, 4) for s in setups]} (this process + {SETUP_PROBES} fresh ones)")
        print(f"  ops: {warm.ops} {wl.ops_unit} per pass; sim latency over {len(latencies)} windowed ops, "
              f"p99 {percentile(latencies, 0.99) * 1e3:.6g} ms (printed only: not steady across seeds)")
        print(f"  failed_share {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")

    units = {name: unit for name, unit, *_ in declared}
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:<32} {shown:>14} {units[name]}")
    total_s = time.perf_counter() - args.started
    print(f"run took {total_s:.2f} s as measured (cap {RUN_CAP_S:.0f} s)")
    record.update(metrics=metrics, attempted=attempted, failed=failed, correct=correct, total_s=total_s)
    (OUT / f"{wl.name}.last{'.trace' if args.trace else ''}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))  # fmt: skip
    return 0 if correct else 1


# --------------------------------------------------------------------- check


def _public_import_violations() -> list[str]:
    """Names workloads.py imports from repro that are not public engine/obs API."""
    import ast
    import importlib

    problems = []
    for node in ast.walk(ast.parse((HERE / "workloads.py").read_text())):
        modules = []
        if isinstance(node, ast.Import):
            modules = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [(node.module or "", alias.name) for alias in node.names]
        for module, name in modules:
            if not module.startswith("repro"):
                continue
            if module not in ("repro.engine", "repro.obs") or name is None:
                problems.append(f"workloads.py imports {module}{'.' + name if name else ''}")
            elif name not in importlib.import_module(module).__all__:
                problems.append(f"workloads.py imports {module}.{name}, not in __all__")
    return problems


def check() -> int:
    """Does BENCHMARK.json say what this driver emits?  Did the last runs fit?"""
    sys.path.insert(0, str(ROOT / "src"))
    import probes
    from workloads import WORKLOADS

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOAD_NAMES) or list(WORKLOADS) != list(WORKLOAD_NAMES):
        problems.append("workload names differ between BENCHMARK.json, run.py and workloads.py")
    if sorted(POOLED) != sorted(name for name, cls in WORKLOADS.items() if cls.pooled):
        problems.append("run.POOLED differs from the workloads marked pooled in workloads.py")
    want_e2e = [dict(zip(("name", "unit", "better", "bound"), m)) for m in END_TO_END]
    want_layers = [dict(zip(("name", "unit", "better"), m)) for m in probes.PER_LAYER]
    if manifest["end_to_end"] != want_e2e:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if manifest["per_layer"] != want_layers:
        problems.append("per_layer metrics differ from probes.PER_LAYER")
    names = [m["name"] for m in want_e2e + want_layers] + list(WORKLOAD_NAMES)
    problems += [f"bad name {n!r}" for n in names if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)]
    problems += [f"duplicate name {n!r}" for n in set(names) if names.count(n) > 1]
    if manifest["command"] != ["python3", "benchmarks/e2e/run.py"] or manifest["paths"] != ["benchmarks/e2e"]:
        problems.append("command/paths differ from this driver's location")
    problems += _public_import_violations()
    for name in WORKLOAD_NAMES:
        for suffix in ("", ".trace"):
            path = OUT / f"{name}.last{suffix}.json"
            if not path.exists():
                print(f"note: no recorded{suffix.replace('.', ' ')} run of {name} yet")
                continue
            total_s = json.loads(path.read_text())["total_s"]
            if total_s >= RUN_CAP_S:
                problems.append(f"last{suffix} run of {name} took {total_s:.1f} s (cap {RUN_CAP_S:.0f} s)")
    for problem in problems:
        print("FAILED: " + problem)
    print(f"check: {len(want_e2e)} end-to-end + {len(want_layers)} per-layer metrics, "
          f"{len(WORKLOAD_NAMES)} workloads: {'ok' if not problems else 'FAILED'}")  # fmt: skip
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="offsets every spec seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to keep timing passes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--check", action="store_true", help="validate BENCHMARK.json against this driver")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    if args.check:
        return check()
    if args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if "repro.engine" in sys.modules:
            sys.modules["repro.engine"].shutdown_shared_pool()


if __name__ == "__main__":
    sys.exit(main())
