#!/usr/bin/env python3
"""Regenerate ``baseline.json``: two full end-to-end sets plus one traced set.

    python3 benchmarks/e2e/baseline.py [--seed N]

Runs every workload twice with ``--trace 0`` and once with ``--trace 1``, each
in a fresh process, and checks that the two end-to-end sets agree within the
benchmark's own bounds (simulated latency and the digest exactly).  Takes
about five minutes; exits non-zero, without writing, if the sets disagree.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, OUT, WORKLOAD_NAMES  # noqa: E402


def one_run(name: str, seed: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--trace", str(trace)],
        check=True, stdout=subprocess.DEVNULL,
    )  # fmt: skip
    suffix = ".trace" if trace else ""
    return json.loads((OUT / f"{name}.last{suffix}.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed

    sets = [{name: one_run(name, seed, 0) for name in WORKLOAD_NAMES} for _ in range(2)]
    problems = []
    for name in WORKLOAD_NAMES:
        first, second = sets[0][name], sets[1][name]
        if first["digest"] != second["digest"]:
            problems.append(f"{name}: digests differ between the two sets")
        for metric, _unit, better, bound in END_TO_END:
            a, b = first["metrics"][metric], second["metrics"][metric]
            if metric.startswith("sim_"):
                bound = 0.0  # deterministic per seed
            worse = (b - a) / a if better == "lower" else (a - b) / a
            if abs(worse) > bound:
                problems.append(f"{name}.{metric}: {a:.6g} vs {b:.6g} differ by more than {bound:.0%}")
    for problem in problems:
        print("FAILED: " + problem)
    if problems:
        return 1
    traced = {name: one_run(name, seed, 1) for name in WORKLOAD_NAMES}
    env = sets[0][WORKLOAD_NAMES[0]]["env"]
    for group in (*sets, traced):
        for record in group.values():
            del record["env"], record["workload"], record["trace"]
    (HERE / "baseline.json").write_text(
        json.dumps({"env": env, "end_to_end_sets": sets, "traced": traced}, indent=1) + "\n"
    )
    print("baseline.json written: 2 end-to-end sets agree within bounds, 1 traced set")
    return 0


if __name__ == "__main__":
    sys.exit(main())
