"""Common interfaces for consensus modules and the shared DECIDE task.

Every consensus implementation in this repository (L-Consensus, P-Consensus,
Paxos, Brasileiro, Fast Paxos) is a *module*: it lives inside a host process
under a scope, reacts to ``on_message``/``on_timer`` and reports its decision
through an ``on_decide`` upcall.  The atomic-broadcast reductions swap these
modules freely, exactly as the paper's evaluation "exchang[ed] the consensus
module of C-Abcast" (section 8.1).

:class:`ConsensusModule` also implements the paper's *task T2*, shared
verbatim by algorithms 1 and 2: upon first reception of ``DECIDE(v)``,
forward ``DECIDE(v)`` to every other process and decide ``v``.  This makes
decision dissemination reliable — once any correct process decides, no
correct process can block in a round forever.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.sim.process import Environment

__all__ = ["Decide", "ConsensusModule", "DecisionRecord"]


@dataclass(frozen=True, slots=True)
class Decide:
    """Decision broadcast of task T2; ``round`` is carried for metrics only."""

    value: Any
    round: int


@dataclass(frozen=True)
class DecisionRecord:
    """How and when this module decided (one record per module)."""

    value: Any
    steps: int  # communication steps (= protocol rounds) to this decision
    via: str  # "round" if decided inside the round structure, "forward" if via DECIDE
    at: float  # environment time of the decision


class ConsensusModule(abc.ABC):
    """Base class: decision plumbing, T2 forwarding, per-instance metrics."""

    #: Subclasses whose protocol already disseminates decisions all-to-all
    #: (e.g. Paxos learning via ACCEPTED) set this False to skip the DECIDE
    #: broadcast/forward of task T2.
    announce_decide: bool = True

    #: True when a decided instance is inert: it has announced its decision
    #: and every later handler returns at its ``decided`` guard (task T2), so
    #: a reduction retires it at decision.  Modules that must keep answering
    #: after deciding (Paxos-family acceptors) leave this False and are kept.
    inert_once_decided: bool = False

    #: Detailed observability (propose / round-start / round-end records).
    #: ``None`` keeps the module silent; :meth:`enable_obs` turns it on.
    tracer = None
    #: Label distinguishing concurrent instances (e.g. the C-Abcast slot k).
    instance_label = None

    def __init__(self, env: Environment, on_decide: Callable[[Any], None] | None = None) -> None:
        self.env = env
        # T2 announcement targets (everyone but self), fixed for the
        # module's lifetime — one grouped send per decision.
        self._announce_targets = tuple(p for p in env.peers if p != env.pid)
        self._on_decide = on_decide
        self.decision: DecisionRecord | None = None
        self._proposed = False

    # ------------------------------------------------------------- public API

    @property
    def decided(self) -> bool:
        return self.decision is not None

    @property
    def proposed(self) -> bool:
        return self._proposed

    def set_on_decide(self, fn: Callable[[Any], None]) -> None:
        if self._on_decide is not None:
            raise ConfigurationError("on_decide callback already set")
        self._on_decide = fn

    def enable_obs(self, tracer, instance_label: Any = None) -> None:
        """Turn on detailed tracing for this module (and any sub-modules).

        Wrapper protocols that own an underlying consensus module override
        this to propagate the tracer downward.
        """
        self.tracer = tracer
        self.instance_label = instance_label

    def propose(self, value: Any) -> None:
        """Propose ``value``; may be called at most once per module."""
        if self._proposed:
            raise ConfigurationError("a consensus module accepts a single proposal")
        self._proposed = True
        if self.tracer is not None:
            self.tracer.emit_propose(self.env.now(), self.env.pid, value, self.instance_label)
        if self.decided:
            # A DECIDE arrived before we proposed (this process lagged); the
            # decision stands and there is nothing left to do.
            return
        self._start(value)

    def on_message(self, src: int, msg: Any) -> None:
        if type(msg) is Decide:  # exact type: Decide is a final message shape
            self._on_decide_message(src, msg)
        else:
            self._on_protocol_message(src, msg)

    def on_timer(self, name: Any) -> None:
        """Consensus modules are timer-free by default (round-asynchronous)."""

    def retire(self) -> None:
        """Let go of what outlives the instance (a detector subscription).

        Called by a reduction that drops a decided, inert instance.
        """

    # ----------------------------------------------------- subclass contract

    @abc.abstractmethod
    def _start(self, value: Any) -> None:
        """Begin the protocol with the local proposal ``value``."""

    @abc.abstractmethod
    def _on_protocol_message(self, src: int, msg: Any) -> None:
        """Handle a non-DECIDE protocol message."""

    # --------------------------------------------------------------- tracing

    def _emit_round_start(self, round_no: int, phase: str | None = None) -> None:
        """Record a round (or named phase) transition when tracing is on."""
        if self.tracer is not None:
            self.tracer.emit_round_start(
                self.env.now(), self.env.pid, round_no, self.instance_label, phase
            )

    # -------------------------------------------------------------- decisions

    def _decide(self, value: Any, steps: int) -> None:
        """Decide inside the round structure (e.g. line 5 of algorithm 1)."""
        if self.decided:
            return
        self.decision = DecisionRecord(value, steps, "round", self.env.now())
        if self.tracer is not None:
            self.tracer.emit_round_end(
                self.env.now(), self.env.pid, "decided", steps, "round", value, self.instance_label
            )
        if self.announce_decide:
            # One shared (immutable) DECIDE for all peers: byte accounting
            # then pays a single repr instead of n - 1, and the grouped send
            # is one network send cohort.
            self.env.send_many(self._announce_targets, Decide(value, steps))
        self._deliver_decision(value)

    def _on_decide_message(self, src: int, msg: Decide) -> None:
        """Task T2: forward on first reception, then decide."""
        if self.decided:
            return
        self.decision = DecisionRecord(msg.value, msg.round, "forward", self.env.now())
        if self.tracer is not None:
            self.tracer.emit_round_end(
                self.env.now(),
                self.env.pid,
                "forward",
                msg.round,
                "forward",
                msg.value,
                self.instance_label,
            )
        if self.announce_decide:
            self.env.send_many(self._announce_targets, Decide(msg.value, msg.round))
        self._deliver_decision(msg.value)

    def _deliver_decision(self, value: Any) -> None:
        if self._on_decide is not None:
            self._on_decide(value)
