"""Ablation A4 — what the WAB oracle buys: C-Abcast vs the plain reduction.

Section 2 of the paper recounts why consensus-sequence atomic broadcast
(Chandra-Toueg, optimised by Mostefaoui & Raynal [17]) loses its fast path
under concurrency: "even if messages are ordered, it is very unlikely that
all buffers have the same length when their content is proposed".  C-Abcast
fixes this by feeding the consensus module WAB-selected proposals.

This bench runs the *same* L-Consensus module under both reductions and
measures the fraction of consensus instances that decided in one step, plus
the mean latency, as contention rises.  The WAB-guided reduction is expected
to hold on to the one-step path far longer.
"""

from repro.engine import LAN, LAN_CAPACITY, LAN_DATAGRAM
from repro.harness.abcast_runner import run_abcast
from repro.harness.factories import cabcast_l, ct_abcast_l
from repro.workload.generator import poisson_schedule
from repro.workload.metrics import summarize

from conftest import once, one_step_counts

RATES = (50, 200, 400)
DURATION = 2.0


def run_point(make, rate, seed):
    schedules = poisson_schedule(4, rate, DURATION, seed=seed)
    result = run_abcast(
        make,
        4,
        schedules,
        seed=seed,
        delay=LAN,
        datagram_delay=LAN_DATAGRAM,
        capacity=LAN_CAPACITY,
        service_time=20e-6,
        horizon=DURATION + 1.0,
        require_all_delivered=False,
    )
    fast, slow = one_step_counts(result.hosts)
    latency = summarize(result.latencies((0.3, DURATION))).mean * 1e3
    one_step = fast / (fast + slow) if fast + slow else float("nan")
    return one_step, latency


def test_wab_oracle_ablation(benchmark, report):
    def experiment():
        rows = []
        for rate in RATES:
            with_wab = run_point(cabcast_l, rate, seed=rate)
            without = run_point(ct_abcast_l, rate, seed=rate)
            rows.append((rate, with_wab, without))
        return rows

    rows = once(benchmark, experiment)

    report.line("Ablation A4 — the WAB oracle's contribution (L-Consensus under both)")
    report.line("=" * 72)
    report.line(
        f"{'msg/s':<8}{'C-Abcast 1-step':<18}{'C-Abcast ms':<14}"
        f"{'CT/MR 1-step':<15}{'CT/MR ms':<10}"
    )
    for rate, (wab_fast, wab_ms), (ct_fast, ct_ms) in rows:
        report.line(
            f"{rate:<8}{wab_fast:<18.0%}{wab_ms:<14.2f}{ct_fast:<15.0%}{ct_ms:<10.2f}"
        )
    report.line()
    report.line("The oracle keeps proposals unanimous under contention; the plain")
    report.line("reduction loses its one-step path as buffers diverge (the [17]")
    report.line("weakness the paper's section 2 recounts).  Note an honest nuance:")
    report.line("in this simulator the divergence is milder than on the real")
    report.line("testbed (FIFO links couple dissemination and proposals), so the")
    report.line("plain reduction stays latency-competitive; the *rate* at which")
    report.line("the fast path survives contention is the robust effect.")
    report.emit("ablation_wab")

    # At high contention the WAB-guided stack keeps a higher one-step rate,
    # and the plain reduction's rate degrades monotonically with load.
    _, (wab_fast_hi, _), (ct_fast_hi, _) = rows[-1]
    assert wab_fast_hi > ct_fast_hi + 0.1
    ct_rates = [ct_fast for _, _, (ct_fast, _) in rows]
    assert ct_rates[0] > ct_rates[-1]
