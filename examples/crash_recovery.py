#!/usr/bin/env python3
"""Crash-recovery: a replica dies, restarts from stable storage, catches up.

Section 2 of the paper notes that Paxos-like protocols support the
crash-recovery model (Aguilera et al.).  This demo runs a counter replicated
over Multi-Paxos with per-node stable storage:

1. three replicas apply increments in a-delivery order;
2. replica 2 crashes mid-stream (volatile state lost);
3. a *fresh incarnation* restarts from its stable store, asks the group for
   the chosen-log suffix it missed, replays it, and converges to the same
   counter value as the survivors.

Usage:  python examples/crash_recovery.py
"""

from __future__ import annotations

from repro.fd.oracle import OracleFailureDetector
from repro.harness.abcast_runner import AbcastHost
from repro.protocols import MultiPaxosAbcast
from repro.sim.kernel import Simulator
from repro.sim.network import LanDelay, Network
from repro.sim.node import Node
from repro.sim.storage import StorageFabric


class CounterReplica(AbcastHost):
    """Applies delivered "+k" commands to a local counter."""

    def __init__(self, module_factory, schedule=()):
        super().__init__(module_factory, schedule)
        self.counter = 0

    def on_start(self):
        super().on_start()
        self.abcast.set_on_deliver(lambda m: self._apply(m.payload))

    def _apply(self, command: int) -> None:
        self.counter += command


def main() -> None:
    sim = Simulator(seed=11)
    network = Network(sim, delay=LanDelay())
    pids = [0, 1, 2]
    oracle = OracleFailureDetector(sim, pids)
    fabric = StorageFabric()

    def make_replica(pid: int, schedule=()) -> CounterReplica:
        return CounterReplica(
            module_factory=lambda host, env, pid=pid: MultiPaxosAbcast(
                env, oracle.omega(pid), storage=fabric.store(pid)
            ),
            schedule=schedule,
        )

    increments = [(0.002 * (i + 1), i + 1) for i in range(10)]  # +1 .. +10
    replicas = {pid: make_replica(pid, increments if pid == 1 else ()) for pid in pids}
    nodes = {pid: Node(sim, network, pid, pids, replicas[pid]) for pid in pids}
    oracle.watch(nodes)
    for node in nodes.values():
        node.start()

    crash_time, recover_time = 0.008, 0.015
    nodes[2].crash_at(crash_time)
    reborn: dict[str, CounterReplica] = {}

    def rebuild() -> CounterReplica:
        reborn["replica"] = make_replica(2)
        return reborn["replica"]

    nodes[2].recover_at(recover_time, rebuild)
    sim.run(until=1.0)

    first_life = replicas[2]
    second_life = reborn["replica"]
    store = fabric.store(2)

    print("=== crash-recovery: replicated counter over Multi-Paxos (n=3) ===\n")
    print(f"replica 2 crashed at {crash_time * 1e3:.0f} ms having applied "
          f"{len(first_life.abcast.delivered_ids)} commands (counter={first_life.counter})")
    print(f"stable store now holds next_deliver={store.get('next_deliver')} "
          f"after {store.writes} writes across both incarnations")
    print(f"recovered at {recover_time * 1e3:.0f} ms; caught up "
          f"{len(second_life.abcast.delivered_ids)} commands via CatchUpRequest\n")

    expected = sum(k for _, k in increments)
    print("final counters:")
    for pid in (0, 1):
        print(f"  replica {pid}:              {replicas[pid].counter}")
    total_at_2 = first_life.counter + second_life.counter
    print(f"  replica 2 (both lives):  {first_life.counter} + {second_life.counter} "
          f"= {total_at_2}")

    assert replicas[0].counter == replicas[1].counter == expected
    assert total_at_2 == expected, "recovered replica diverged!"
    print(f"\nall replicas converge on {expected}; no command lost or duplicated.  ✓")


if __name__ == "__main__":
    main()
