"""Drift compensation: gauge the machine's speed while a pass runs.

The sandbox this suite was written on changes speed by up to 2x over tens of
seconds and in half-second bursts, so medians of raw seconds spread 14-34 %
between 20-second runs of one commit.  A *yardstick* — a small fixed block of
pure-Python work — is therefore timed all through every measured interval, and
the interval's seconds are multiplied by ``reference reading / median reading``:
what they would be at the yardstick's reference speed.  The sampler's own cost
(2-3 % of a pass) is left in the figures.
"""

import signal
import statistics
import time
from heapq import heappop, heappush

YARD_REQUESTS = 600
YARD_PERIOD_S = 0.1
#: What one yardstick reading takes at the reference speed: the 2-CPU box the
#: baseline was taken on, in its fast mode.  It only fixes the unit of the
#: compensated times; any constant compares two commits equally well.
YARD_REF_S = 0.0030


class _YardNode:
    def __init__(self, pid: int, peers: tuple) -> None:
        self.pid, self.peers, self.votes, self.log = pid, peers, {}, []

    def on_message(self, now: float, msg: tuple, send) -> None:
        src, _dst, kind, seq = msg
        votes = self.votes.get(seq)
        if votes is None:
            votes = self.votes[seq] = set()
        votes.add(src)
        if kind == "req":
            for peer in self.peers:
                send(now + 0.0004 + (seq % 7) * 1e-5, (self.pid, peer, "ack", seq))
        elif len(votes) == len(self.peers):
            self.log.append((now, seq))
            del self.votes[seq]


def yardstick() -> float:
    """Seconds a fixed block of pure-Python work takes right now: a toy event
    loop (heap, dicts, sets, method calls) with the simulator's kind of
    instruction mix but none of its code, so no change to the repo moves it."""
    start = time.perf_counter()
    heap: list = []
    pids = (0, 1, 2, 3)
    nodes = {pid: _YardNode(pid, pids) for pid in pids}
    sent = 0

    def send(at: float, msg: tuple) -> None:
        nonlocal sent
        sent += 1
        heappush(heap, (at, sent, msg))

    for i in range(YARD_REQUESTS):
        send(i * 0.001, (i & 3, (i + 1) & 3, "req", i))
    while heap:
        now, _, msg = heappop(heap)
        nodes[msg[1]].on_message(now, msg, send)
    return time.perf_counter() - start


class SpeedSampler:
    """The machine's speed over a measured interval, from yardstick readings.

    Normally a timer signal reads the yardstick every ``YARD_PERIOD_S`` on the
    main thread *during* the interval: on the CPU and with the caches the
    measured code has, not beside it.  A yardstick can only gauge code it
    shares a CPU with, though: while pool workers keep every CPU busy it would
    read their contention, so a pooled interval (``during=False``) is gauged
    by five readings on either side of it instead.
    """

    def __init__(self, during: bool = True) -> None:
        self.during = during
        self.readings: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.readings.append(yardstick())

    def __enter__(self) -> "SpeedSampler":
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, YARD_PERIOD_S, YARD_PERIOD_S)
        else:
            self.readings += [yardstick() for _ in range(5)]
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        if not self.during or not self.readings:  # or shorter than one period
            self.readings += [yardstick() for _ in range(5)]

    @property
    def speed(self) -> float:
        """Machine speed over the interval, 1.0 = the reference speed."""
        return YARD_REF_S / statistics.median(self.readings)
