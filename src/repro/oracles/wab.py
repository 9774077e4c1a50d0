"""Weak Atomic Broadcast (WAB) ordering oracle (section 3.4 of the paper).

A WAB oracle exposes ``w_broadcast(k, m)`` and delivers ``w_deliver(k, m)``
upcalls with three properties: *validity* (a correct broadcaster's message is
eventually w-delivered everywhere), *uniform integrity* (each pair ``(k, m)``
is delivered at most once per process, and only if broadcast), and
*spontaneous order* (infinitely often, the **first** message delivered in an
instance is the same at every process).

The paper's implementation used raw UDP multicast on a LAN, where spontaneous
total order is an empirical phenomenon.  Here the oracle runs over the
simulated datagram channel of :mod:`repro.sim.network`: every datagram gets
an independent random delay, so

* when a single process w-broadcasts in instance ``k`` with no competition,
  its message is first everywhere — spontaneous order holds;
* when several processes w-broadcast in ``k`` within one delay-spread of each
  other (a *collision*), delivery order differs across destinations exactly
  as on a real LAN under load.

This reproduces the collision-vs-throughput coupling that shapes Figures 2
and 3 without any tuning knob beyond the delay distribution itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.sim.process import Environment

__all__ = ["WabMessage", "WabOracle"]


@dataclass(frozen=True, slots=True)
class WabMessage:
    """Wire format of one w-broadcast."""

    instance: int
    payload: Any
    origin: int
    seq: int


class WabOracle:
    """Per-process WAB module.

    Parameters
    ----------
    env:
        (Scoped) environment used for datagram traffic.
    deliver:
        Upcall ``deliver(instance, payload, position)`` where ``position`` is
        0 for the first message w-delivered in that instance at this process,
        1 for the second, and so on.  The position argument is what lets
        C-Abcast treat the first message specially (algorithm 3, lines 7/16).
    repeats:
        Extra retransmissions per w-broadcast.  Zero matches the paper's
        plain-UDP implementation; positive values restore validity under a
        lossy datagram channel (each copy is deduplicated by uniform
        integrity, so upcalls never repeat).
    """

    def __init__(
        self,
        env: Environment,
        deliver: Callable[[int, Any, int], None],
        repeats: int = 0,
    ) -> None:
        if repeats < 0:
            raise ConfigurationError("repeats must be >= 0")
        self.env = env
        self._deliver = deliver
        self.repeats = repeats
        self._seq = 0
        # Kept for the whole run, closed instances included: uniform
        # integrity must hold exactly under ``repeats`` and nemesis
        # duplicates, whose copies each take their own unbounded delay.
        # Forgetting a closed instance would deliver a late copy again, and
        # C-Abcast would fold its payload into the estimate.
        self._seen: set[WabMessage] = set()
        self._positions: dict[int, int] = {}
        self.broadcasts = 0
        self.deliveries = 0

    # ---------------------------------------------------------------- actions

    def w_broadcast(self, instance: int, payload: Any) -> None:
        """Broadcast ``payload`` in WAB instance ``instance``."""
        self._seq += 1
        msg = WabMessage(instance, payload, self.env.pid, self._seq)
        self.broadcasts += 1
        for _ in range(self.repeats + 1):
            self.env.datagram_broadcast(msg)

    # ---------------------------------------------------------------- upcalls

    def on_message(self, src: int, msg: Any) -> None:
        if not isinstance(msg, WabMessage):
            return
        # The (frozen, slotted) message is its own dedup key: field equality
        # and hashing match the (instance, payload, origin, seq) tuple.
        if msg in self._seen:
            return  # uniform integrity: deliver (k, m) at most once
        self._seen.add(msg)
        position = self._positions.get(msg.instance, 0)
        self._positions[msg.instance] = position + 1
        self.deliveries += 1
        self._deliver(msg.instance, msg.payload, position)

    # ------------------------------------------------------------- inspection

    def delivered_in(self, instance: int) -> int:
        """How many distinct messages this process has w-delivered in ``instance``."""
        return self._positions.get(instance, 0)
