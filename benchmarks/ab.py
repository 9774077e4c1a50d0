#!/usr/bin/env python3
"""Before/after evidence for a change: alternating runs of the repo benchmark.

    python3 benchmarks/ab.py --base REV [--head REV] [--workload W ...]
        [--pairs N] [--seconds S] [--seed S] [--expect-output-change] [--heap]

Each revision is exported (``git archive``) into a temporary directory that is
removed at exit; without ``--head`` the head side is the checkout this script
sits in, uncommitted edits included.  ``benchmarks/e2e/run.py`` then runs
``--pairs`` times on each side, alternating between the two trees and flipping
which side goes first every pair, so host drift falls on both sides alike.

Per workload and end-to-end metric it prints each side's median [q1-q3], the
change of the medians, how many pairs the head won, the base's IQR, and a
verdict.  A change is "resolved" only when it wins at least 9 of 10 pairs and
its median moves by more than the base's IQR; anything less is "unresolved".

Once per side it also runs ``--trace 1`` and compares the counts that need no
pairs because they are exact: ``sim.kernel.events``, ``sim.network.sent``,
``sim.network.bytes_sent`` and every per-layer ``.calls``.  A difference there
is printed even when every host time is inside the noise.

With ``--heap`` each side also runs one more pass of each workload in a child
process that imports the workload from that side's tree, after one warm-up
pass, under ``tracemalloc`` and a ``gc.callbacks`` counter.  It prints side by
side the pass's traced peak, the heap still live (with the pass's output held)
after ``gc.collect()``, the GC-tracked objects left, and the collections and
collector seconds per generation.  Only this process is traced: a pooled
workload's workers are not.  Host times under ``tracemalloc`` are slower than
untraced ones, so read the collector seconds against each other only.

Exit status: 1 when the two sides' digests differ (unless
``--expect-output-change``), when a run fails its own checks, or when one side
printed two different digests; 0 otherwise.  The last line of each workload's
block reads ``digests: no change`` / ``counts: no change`` when nothing moved.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"

sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402

#: Exact per-run counts compared between the two sides' ``--trace 1`` runs
#: (besides every ``<layer>.calls``).
EXACT = ("sim.kernel.events", "sim.network.sent", "sim.network.bytes_sent")

#: "Resolved" needs at least this share of pairs won (9 of 10) ...
WIN_SHARE = 0.9
#: ... over at least this many pairs.
MIN_PAIRS = 10


def export(rev: str, into: Path) -> Path:
    """Write the committed tree of ``rev`` under ``into``; returns the tree."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()  # fmt: skip
    tree = into / commit[:12]
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        capture_output=True, check=True,
    ).stdout  # fmt: skip
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter (where this Python has it) refuses links and
        # paths that would leave ``tree``.
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return tree


def run_once(tree: Path, workload: str, seconds: float, seed: int, trace: bool) -> dict:
    """One ``run.py`` process in ``tree``: its JSON result plus the digest."""
    command = [sys.executable, str(tree / RUN), "--workload", workload,
               "--seconds", str(seconds), "--seed", str(seed)]  # fmt: skip
    if trace:
        command += ["--trace", "1"]
    # run.py puts its own tree's src/ first on sys.path; an inherited
    # PYTHONPATH must not bring the other tree in behind it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, env=env)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    result["digest"] = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    result["ok"] = done.returncode == 0 and result.get("correct", False)
    if not result["ok"]:
        tail = "\n".join((done.stdout + done.stderr).splitlines()[-15:])
        print(f"  run failed in {tree} (exit {done.returncode}):\n{tail}", file=sys.stderr)
    return result


def heap_pass(tree: Path, workload: str, seed: int) -> dict:
    """One pass of ``workload`` from ``tree``'s sources in this process,
    after a warm-up pass, under ``tracemalloc`` and a collector counter."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]
    from workloads import WORKLOADS

    collections, seconds, started = [0, 0, 0], [0.0, 0.0, 0.0], []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            collections[info["generation"]] += 1
            seconds[info["generation"]] += time.perf_counter() - started.pop()

    with tempfile.TemporaryDirectory(prefix="repro-heap-") as scratch:
        wl = WORKLOADS[workload](seed, scratch)
        wl.prepare()
        wl.distil(wl.run_pass())
        gc.collect()
        tracemalloc.start()
        gc.callbacks.append(count)
        try:
            raw = wl.run_pass()
        finally:
            gc.callbacks.remove(count)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        tracked = len(gc.get_objects())
        wl.distil(raw)
    return {
        "peak_mb": peak / 2**20,
        "live_mb": live / 2**20,
        "tracked": tracked,
        "collections": collections,
        "gc_s": seconds,
    }


def run_heap(tree: Path, workload: str, seed: int) -> dict | None:
    """:func:`heap_pass` in a child process; None when it failed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--heap-child", str(tree),
               workload, str(seed)]  # fmt: skip
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, env=env)
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        tail = "\n".join((done.stdout + done.stderr).splitlines()[-15:])
        print(f"  heap pass failed in {tree} (exit {done.returncode}):\n{tail}", file=sys.stderr)
        return None


def report_heap(base: dict, head: dict) -> None:
    """The two sides' :func:`heap_pass` results, side by side."""
    print("  heap: one pass under tracemalloc (this process only), base -> head")

    def line(label: str, b: float, h: float, form: str) -> None:
        change = f"{(h - b) / b:+.1%}" if b else "n/a"
        print(f"    {label:<24} {form.format(b):>10} -> {form.format(h):<10} {change:>8}")

    line("traced peak MB", base["peak_mb"], head["peak_mb"], "{:.2f}")
    line("live after gc MB", base["live_mb"], head["live_mb"], "{:.2f}")
    line("gc-tracked objects", base["tracked"], head["tracked"], "{:d}")
    for gen in range(3):
        line(f"gen{gen} collections", base["collections"][gen], head["collections"][gen], "{:d}")
        line(f"gen{gen} collector s", base["gc_s"][gen], head["gc_s"][gen], "{:.4f}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values`` (inclusive method; one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base: list[float], head: list[float], better: str) -> tuple[str, str, str]:
    """(change, wins, verdict) of paired samples, head against base."""
    sign = -1.0 if better == "lower" else 1.0
    pairs = len(base)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    b1, b_med, b3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    change = f"{(h_med - b_med) / b_med:+.1%}" if b_med else "n/a"
    needed = math.ceil(WIN_SHARE * pairs)
    moved = abs(h_med - b_med) > b3 - b1
    if h_med == b_med and all(b == h for b, h in zip(base, head)):
        call = "identical"
    elif pairs < MIN_PAIRS:
        call = f"unresolved (fewer than {MIN_PAIRS} pairs)"
    elif wins >= needed and moved and sign * (h_med - b_med) > 0:
        call = "resolved better"
    elif losses >= needed and moved and sign * (h_med - b_med) < 0:
        call = "resolved worse"
    else:
        call = "unresolved"
    return change, f"{wins}/{pairs}", call


def fmt(value: float) -> str:
    return f"{value:.4g}"


def report(base_runs: list[dict], head_runs: list[dict]) -> None:
    print(f"  {'metric':<20} {'base median [q1-q3]':<28} {'head median [q1-q3]':<28} "
          f"{'change':>8} {'wins':>6} {'base IQR':>9}  verdict")  # fmt: skip
    for name, _unit, better, bound in END_TO_END:
        base = [run["metrics"][name]["value"] for run in base_runs]
        head = [run["metrics"][name]["value"] for run in head_runs]
        if None in base or None in head:
            print(f"  {name:<20} (not reported)")
            continue
        change, wins, call = verdict(base, head, better)
        (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
        worse = (hm - bm if better == "lower" else bm - hm) / bm if bm else 0.0
        if worse > bound:
            call += f"; past the {bound:.0%} bound"
        print(f"  {name:<20} {f'{fmt(bm)} [{fmt(b1)}-{fmt(b3)}]':<28} "
              f"{f'{fmt(hm)} [{fmt(h1)}-{fmt(h3)}]':<28} {change:>8} {wins:>6} "
              f"{fmt(b3 - b1):>9}  {call}")  # fmt: skip


def compare_counts(base: dict, head: dict) -> list[str]:
    """Lines naming every exact count that differs between the sides."""
    names = sorted(
        name for name in set(base) | set(head)
        if name in EXACT or name.endswith(".calls")
    )  # fmt: skip
    lines = []
    for name in names:
        b = base.get(name, {}).get("value")
        h = head.get(name, {}).get("value")
        if b != h:
            delta = f" ({h - b:+g})" if isinstance(b, (int, float)) and isinstance(h, (int, float)) else ""
            lines.append(f"    {name}: {b} -> {h}{delta}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision measured as the parent (required)")
    parser.add_argument("--head", help="revision measured as the change (default: this checkout)")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeat for several (default: all five)")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    parser.add_argument("--seconds", type=float, default=5.0, help="run.py --seconds of each run")
    parser.add_argument("--seed", type=int, default=0, help="run.py --seed of every run")
    parser.add_argument("--expect-output-change", action="store_true",
                        help="different digests are the point of the change, not a failure")
    parser.add_argument("--heap", action="store_true",
                        help="also compare one pass per side under tracemalloc and a gc counter")
    parser.add_argument("--heap-child", nargs=3, metavar=("TREE", "WORKLOAD", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.heap_child:
        tree, workload, seed = args.heap_child
        print(json.dumps(heap_pass(Path(tree), workload, int(seed))))
        return 0
    if args.base is None:
        parser.error("--base is required")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    workloads = args.workload or list(WORKLOAD_NAMES)

    failed = False
    with tempfile.TemporaryDirectory(prefix="repro-ab-") as scratch:
        trees = {
            "base": export(args.base, Path(scratch) / "base"),
            "head": export(args.head, Path(scratch) / "head") if args.head else ROOT,
        }
        print(f"ab: base {args.base} ({trees['base'].name}) vs head {args.head or 'this checkout'}; "
              f"seed {args.seed}, {args.pairs} pair(s) x {args.seconds:g} s per workload")  # fmt: skip
        for workload in workloads:
            failed |= not compare(workload, trees, args)
    return 1 if failed else 0


def compare(workload: str, trees: dict[str, Path], args) -> bool:
    """Run and report one workload on both trees; False on a failure."""
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for pair in range(args.pairs):
        for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
            runs[side].append(run_once(trees[side], workload, args.seconds, args.seed, False))
    traced = {side: run_once(trees[side], workload, args.seconds, args.seed, True) for side in trees}
    if not all(run["ok"] for side in trees for run in runs[side] + [traced[side]]):
        print(f"{workload}: FAILED: a run failed its own checks (see stderr)")
        return False
    print(workload)
    report(runs["base"], runs["head"])
    ok = True
    digests = {side: {run["digest"] for run in runs[side] + [traced[side]]} for side in trees}
    if any(len(seen) != 1 for seen in digests.values()):
        ok = False
        print(f"  digests: FAILED: one side printed several: {digests}")
    elif digests["base"] == digests["head"]:
        print(f"  digests: no change ({next(iter(digests['base']))[:12]}...)")
    else:
        (b,), (h,) = digests["base"], digests["head"]
        ok = args.expect_output_change
        print(f"  digests: CHANGED {b[:12]}... -> {h[:12]}..."
              + ("" if ok else " (pass --expect-output-change if intended)"))  # fmt: skip
    moved = compare_counts(traced["base"]["metrics"], traced["head"]["metrics"])
    if moved:
        print(f"  counts: {len(moved)} changed (--trace 1, exact):")
        print("\n".join(moved))
    else:
        print("  counts: no change")
    if args.heap:
        heaps = {side: run_heap(trees[side], workload, args.seed) for side in trees}
        if None in heaps.values():
            print("  heap: FAILED: a heap pass failed (see stderr)")
            return False
        report_heap(heaps["base"], heaps["head"])
    return ok


if __name__ == "__main__":
    sys.exit(main())
