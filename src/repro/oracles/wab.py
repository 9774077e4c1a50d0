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

from bisect import bisect_right
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

    Uniform integrity is enforced per sender, not per message: an oracle
    numbers its w-broadcasts 1, 2, 3, ... and every copy of one (``repeats``,
    a nemesis ``DupOp`` clone) carries the same ``(origin, seq)``.  For each
    origin the oracle keeps the seqs it has delivered as sorted, disjoint,
    non-adjacent half-open ranges ``[lo, end)``, stored flat as
    ``[lo0, end0, lo1, end1, ...]``.  A seq at the end of the last range
    extends it; a seq inside a range is a duplicate; a seq after a gap
    (datagram loss, a nemesis drop, a partition) opens a range or merges two.
    The record is O(senders + gaps) and holds no message, so no estimate
    outlives its instance here, and a late copy of a closed instance's
    message is still dropped.

    The filter is exact only while each origin pid has **one** oracle per
    run: a second oracle at the same pid would restart at seq 1 and its
    messages would read as duplicates.  Every path builds one: abcast
    processes are crash-stop, and a rejoining RSM replica is a learner that
    hosts no abcast module.
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
        #: origin pid -> flat ``[lo, end)`` bounds of the seqs delivered.
        self._delivered: dict[int, list[int]] = {}
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
        seq = msg.seq
        bounds = self._delivered.get(msg.origin)
        if bounds is None:
            self._delivered[msg.origin] = [seq, seq + 1]
        elif bounds[-1] == seq:
            bounds[-1] = seq + 1  # the next seq in line
        elif not _admit(bounds, seq):
            return  # uniform integrity: deliver (k, m) at most once
        position = self._positions.get(msg.instance, 0)
        self._positions[msg.instance] = position + 1
        self.deliveries += 1
        self._deliver(msg.instance, msg.payload, position)

    # ------------------------------------------------------------- inspection

    def delivered_in(self, instance: int) -> int:
        """How many distinct messages this process has w-delivered in ``instance``."""
        return self._positions.get(instance, 0)


def _admit(bounds: list[int], seq: int) -> bool:
    """Add ``seq`` to the flat ``[lo, end)`` bounds; False if already there."""
    i = bisect_right(bounds, seq)
    if i & 1:
        return False  # bounds[i - 1] <= seq < bounds[i]
    joins_left = i > 0 and bounds[i - 1] == seq
    joins_right = i < len(bounds) and bounds[i] == seq + 1
    if joins_left and joins_right:
        del bounds[i - 1 : i + 1]
    elif joins_left:
        bounds[i - 1] = seq + 1
    elif joins_right:
        bounds[i] = seq
    else:
        bounds[i:i] = (seq, seq + 1)
    return True
