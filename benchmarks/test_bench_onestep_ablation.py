"""Ablation A1 — one-step rate vs proposal contention.

Why do L-/P-Consensus win at low throughput?  Because with no concurrent
proposers the WAB oracle hands every process the same proposal and consensus
finishes in ONE communication step.  This bench measures, per contention
level (number of simultaneous a-broadcasters), how many consensus instances
decide in 1 step vs 2+ steps, and the step distribution of all five
consensus protocols on equal vs split proposals.
"""

from repro.harness import run_consensus
from repro.harness.abcast_runner import run_abcast
from repro.harness.factories import CONSENSUS_FACTORIES, cabcast_l
from repro.harness.consensus_runner import CONSENSUS_SCOPE
from repro.sim.network import LanDelay

from conftest import once, one_step_counts

DGRAM = LanDelay(base=300e-6, jitter_mean=150e-6, jitter_sigma=1.3)


def one_step_fraction(senders, seeds=8):
    """Fraction of C-Abcast rounds decided in one step at this contention."""
    fast = slow = 0
    for seed in range(seeds):
        schedules = {
            p: [(0.001, f"m{p}")] for p in range(senders)
        }
        result = run_abcast(
            cabcast_l, 4, schedules, seed=seed, datagram_delay=DGRAM, horizon=5.0
        )
        run_fast, run_slow = one_step_counts(result.hosts)
        fast += run_fast
        slow += run_slow
    total = fast + slow
    return fast / total if total else float("nan")


def test_onestep_rate_vs_contention(benchmark, report):
    def experiment():
        return {senders: one_step_fraction(senders) for senders in (1, 2, 3, 4)}

    rates = once(benchmark, experiment)

    report.line("Ablation A1 — one-step decision rate vs concurrent proposers")
    report.line("=" * 62)
    report.line(f"{'simultaneous senders':<24}{'1-step decisions':<20}")
    for senders, rate in rates.items():
        report.line(f"{senders:<24}{rate:<20.0%}")
    report.line()
    report.line("One sender => spontaneous order => one-step path (2 delta total).")
    report.line("More senders => collisions => the 2-step fallback (3 delta total).")
    report.emit("ablation_onestep")

    assert rates[1] == 1.0  # uncontended rounds always take the fast path
    assert rates[4] < rates[1]  # contention must hurt


def test_step_counts_all_protocols(benchmark, report):
    def experiment():
        table = {}
        for name, make in sorted(CONSENSUS_FACTORIES.items()):
            n = 3 if name == "paxos" else 4
            equal = run_consensus(make, {p: "v" for p in range(n)}, seed=7, horizon=10.0)
            split = run_consensus(
                make, {p: f"v{p}" for p in range(n)}, seed=7, horizon=10.0
            )
            table[name] = (equal.min_steps, split.min_steps)
        return table

    table = once(benchmark, experiment)

    report.line("Consensus steps to first decision (stable run, n=4; Paxos n=3)")
    report.line("=" * 62)
    report.line(f"{'protocol':<16}{'equal proposals':<18}{'split proposals':<18}")
    for name, (equal, split) in table.items():
        report.line(f"{name:<16}{equal:<18}{split:<18}")
    report.line()
    report.line("The paper's positioning: L/P are the only protocols with 1-step")
    report.line("equal-proposal decisions AND 2-step split-proposal decisions.")
    report.emit("ablation_steps")

    assert table["l-consensus"] == (1, 2)
    assert table["p-consensus"] == (1, 2)
    assert table["brasileiro"][0] == 1 and table["brasileiro"][1] >= 3
    assert table["paxos"] == (2, 2)
    assert table["fast-paxos"][0] == 2 and table["fast-paxos"][1] >= 4
