"""Ready-made module factories for the runners.

These wire each protocol to the oracle failure detector exactly as the
paper's evaluation does (stable runs, detector output constant and correct).
Every factory has the signature expected by
:func:`repro.harness.consensus_runner.run_consensus` /
:func:`repro.harness.abcast_runner.run_abcast`:
``factory(pid, env, oracle, host) -> module``.

The names mirror the paper's protocol line-up: ``L``/``P`` are the
contribution, ``paxos``/``wabcast`` the baselines of Figures 2-3,
``brasileiro``/``fast_paxos`` the related-work protocols of section 2.
"""

from __future__ import annotations

from repro.core import LConsensus, PConsensus
from repro.core.cabcast import CAbcast
from repro.protocols import (
    BrasileiroConsensus,
    ChandraTouegConsensus,
    CtAbcast,
    FastPaxosConsensus,
    MultiPaxosAbcast,
    PaxosConsensus,
    WabCast,
)

__all__ = [
    "l_consensus",
    "p_consensus",
    "paxos_consensus",
    "fast_paxos_consensus",
    "brasileiro_consensus",
    "cabcast_l",
    "cabcast_p",
    "wabcast",
    "multipaxos_abcast",
    "chandra_toueg_consensus",
    "ct_abcast_l",
    "CONSENSUS_FACTORIES",
    "ABCAST_FACTORIES",
]


# ------------------------------------------------------------------ consensus

def l_consensus(pid, env, oracle, host):
    """L-Consensus on the oracle Ω view (algorithm 1)."""
    return LConsensus(env, oracle.omega(pid))


def p_consensus(pid, env, oracle, host):
    """P-Consensus on the oracle ◇P view (algorithm 2)."""
    return PConsensus(env, oracle.suspect(pid))


def paxos_consensus(pid, env, oracle, host):
    """Single-decree Paxos with a pre-promised initial leader."""
    return PaxosConsensus(env, oracle.omega(pid))


def fast_paxos_consensus(pid, env, oracle, host):
    """Fast Paxos with e = f = (n-1)//3."""
    return FastPaxosConsensus(env, oracle.omega(pid))


def brasileiro_consensus(pid, env, oracle, host):
    """Brasileiro's one-step consensus over an underlying Paxos."""
    return BrasileiroConsensus(
        env, lambda senv: PaxosConsensus(senv, oracle.omega(pid))
    )


def chandra_toueg_consensus(pid, env, oracle, host):
    """Chandra & Toueg's rotating-coordinator consensus on the oracle ◇S/◇P view."""
    return ChandraTouegConsensus(env, oracle.suspect(pid))


# --------------------------------------------------------------------- abcast

def cabcast_l(pid, env, oracle, host):
    """C-Abcast with L-Consensus — the paper's "L-Consensus" curve."""
    return CAbcast(env, lambda senv: LConsensus(senv, oracle.omega(pid)))


def cabcast_p(pid, env, oracle, host):
    """C-Abcast with P-Consensus — the paper's "P-Consensus" curve."""
    return CAbcast(env, lambda senv: PConsensus(senv, oracle.suspect(pid)))


def wabcast(pid, env, oracle, host):
    """Pedone & Schiper's WABCast — the Figure-2 baseline."""
    return WabCast(env)


def multipaxos_abcast(pid, env, oracle, host):
    """Multi-Paxos replicated log — the Figure-3 baseline.

    The group's modules share the oracle's delivery floor, so each keeps
    its log from the slowest member's next slot up."""
    return MultiPaxosAbcast(env, oracle.omega(pid), floor=oracle.delivery_floor)


def ct_abcast_l(pid, env, oracle, host):
    """Consensus-sequence abcast (CT/MR style, no WAB) over L-Consensus."""
    return CtAbcast(env, lambda senv: LConsensus(senv, oracle.omega(pid)))


# The canonical name→factory mapping lives in repro.harness.registry; the
# dicts below are derived views kept for the original import surface.  They
# are materialised lazily (PEP 562) because the registry imports this module.

def __getattr__(name: str):
    if name in ("CONSENSUS_FACTORIES", "ABCAST_FACTORIES"):
        from repro.harness.registry import ABCAST, CONSENSUS, protocols_of_kind

        kind = CONSENSUS if name == "CONSENSUS_FACTORIES" else ABCAST
        mapping = {
            key: info.factory for key, info in protocols_of_kind(kind).items()
        }
        globals()[name] = mapping
        return mapping
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
