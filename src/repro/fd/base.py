"""Failure-detector abstractions (section 3.2 of the paper).

Two detector classes are used by the paper's protocols:

* **Ω** (:class:`OmegaView`) — outputs a single trusted leader process and
  eventually outputs the same correct process forever.  It is the weakest
  failure detector that solves consensus and is what L-Consensus queries.
* **◇P** (:class:`SuspectView`) — outputs a set of suspected processes,
  eventually exactly the crashed ones (strong completeness + eventual strong
  accuracy).  P-Consensus builds its deterministic quorum from it.

Protocols never poll on a timer loop: views push a change notification, so
L-Consensus can re-evaluate its line-3 wait (``ld ≠ Ω.leader``) and
P-Consensus its line-6 wait the instant the detector output changes.  A
consensus instance that a reduction retires at decision unsubscribes, so a
view's subscriber list holds the undecided instances only.
"""

from __future__ import annotations

import abc
from typing import Callable

__all__ = ["OmegaView", "SuspectView", "Subscribers", "omega_from_suspects"]


class OmegaView(abc.ABC):
    """Local Ω module of one process."""

    @abc.abstractmethod
    def leader(self) -> int | None:
        """Current leader output (None only before the first output)."""

    @abc.abstractmethod
    def subscribe(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to be called whenever the output changes."""

    def unsubscribe(self, fn: Callable[[], None]) -> None:
        """Stop calling ``fn``; a callback that is not subscribed is ignored.

        This default keeps the subscription, which is safe — a retired
        instance's callback returns at its ``decided`` guard — and only costs
        the call; views that keep a subscriber list override it.
        """


class SuspectView(abc.ABC):
    """Local ◇P module of one process."""

    @abc.abstractmethod
    def suspected(self) -> frozenset[int]:
        """Current set of suspected pids."""

    @abc.abstractmethod
    def subscribe(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to be called whenever the output changes."""

    def unsubscribe(self, fn: Callable[[], None]) -> None:
        """Stop calling ``fn``; see :meth:`OmegaView.unsubscribe`."""

    def trusts(self, pid: int) -> bool:
        """Convenience: True iff ``pid`` is not currently suspected."""
        return pid not in self.suspected()


class Subscribers:
    """The subscriber list of a concrete view (mix in before the view ABC)."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[], None]] = []

    def subscribe(self, fn: Callable[[], None]) -> None:
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[], None]) -> None:
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    def _notify(self) -> None:
        # Over a copy: a callback may decide its instance, which unsubscribes
        # it and may subscribe the next round's.
        for fn in list(self._subscribers):
            fn()


class _DerivedOmega(Subscribers, OmegaView):
    """Ω extracted from a ◇P view: the lowest-index non-suspected process.

    This is the textbook ◇P → Ω reduction (the paper cites Chu's Ω ⪯ ◇W
    reduction); if ◇P eventually outputs exactly the crashed processes, the
    lowest non-suspected index is eventually the same correct process at
    every process.
    """

    def __init__(self, suspect_view: SuspectView, peers: tuple[int, ...]) -> None:
        super().__init__()
        self._view = suspect_view
        self._peers = tuple(sorted(peers))
        self._last = self.leader()
        suspect_view.subscribe(self._recheck)

    def leader(self) -> int | None:
        suspected = self._view.suspected()
        for pid in self._peers:
            if pid not in suspected:
                return pid
        return None

    def _recheck(self) -> None:
        current = self.leader()
        if current != self._last:
            self._last = current
            self._notify()


def omega_from_suspects(suspect_view: SuspectView, peers) -> OmegaView:
    """Build an Ω view from a ◇P view (lowest non-suspected index)."""
    return _DerivedOmega(suspect_view, tuple(peers))
