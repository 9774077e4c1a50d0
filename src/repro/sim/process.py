"""Process model shared by the simulator and the asyncio runtime.

A *process* (in the distributed-computing sense, section 3 of the paper) is
an event-driven state machine: it reacts to ``on_start``, ``on_message`` and
``on_timer`` callbacks and acts on the world exclusively through its
:class:`Environment`.  Because the environment is abstract, the very same
protocol code runs on the deterministic discrete-event simulator
(:mod:`repro.sim.node`) and on the live asyncio runtime
(:mod:`repro.runtime`).

Protocol composition
--------------------
A node usually stacks several protocols (C-Abcast on top of a consensus
module on top of a failure detector).  Composition is done with *scoped
environments*: a host process attaches sub-modules under a scope tuple, and
the host's dispatcher routes :class:`Scoped` messages and timers back to the
right sub-module.  This mirrors how the paper "exchanges the consensus
module of C-Abcast" between experiments (section 8.1).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = ["Environment", "Process", "Scoped", "ScopedEnvironment", "HostProcess"]


class Environment(abc.ABC):
    """Everything a process may do to the outside world."""

    pid: int
    peers: tuple[int, ...]
    rng: random.Random

    @property
    def n(self) -> int:
        """Total number of processes in the group."""
        return len(self.peers)

    @abc.abstractmethod
    def send(self, dst: int, msg: Any) -> None:
        """Send ``msg`` to process ``dst`` over the reliable channel."""

    @abc.abstractmethod
    def datagram(self, dst: int, msg: Any) -> None:
        """Send ``msg`` to ``dst`` over the unordered datagram channel."""

    def send_many(self, dsts: tuple[int, ...], msg: Any) -> None:
        """Send ``msg`` to each pid in ``dsts``, in order (reliable channel).

        Equivalent to looping :meth:`send`; environments backed by the
        simulated network override it to send one cohort
        (:meth:`repro.sim.network.Network.send_batch`).
        """
        for dst in dsts:
            self.send(dst, msg)

    def datagram_many(self, dsts: tuple[int, ...], msg: Any) -> None:
        """Send ``msg`` to each pid in ``dsts``, in order (datagram channel)."""
        for dst in dsts:
            self.datagram(dst, msg)

    def broadcast(self, msg: Any) -> None:
        """Send ``msg`` to every process, including the sender itself."""
        self.send_many(self.peers, msg)

    def datagram_broadcast(self, msg: Any) -> None:
        """Broadcast over the datagram channel (used by the WAB oracle)."""
        self.datagram_many(self.peers, msg)

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock)."""

    @abc.abstractmethod
    def set_timer(self, name: Any, delay: float) -> None:
        """(Re)arm the named timer to fire ``delay`` seconds from now."""

    @abc.abstractmethod
    def cancel_timer(self, name: Any) -> None:
        """Cancel the named timer if armed; no-op otherwise."""


class Process(abc.ABC):
    """Base class for event-driven protocol processes."""

    env: Environment

    def bind(self, env: Environment) -> None:
        """Attach the process to its environment.  Called once by the runtime."""
        self.env = env

    def on_start(self) -> None:
        """Called once when the node boots."""

    def on_message(self, src: int, msg: Any) -> None:
        """Called for every message addressed to this process."""

    def on_timer(self, name: Any) -> None:
        """Called when a timer armed through the environment fires."""

    def on_crash(self) -> None:
        """Called when the node hosting this process is crashed (simulation only)."""


@dataclass(frozen=True, slots=True)
class Scoped:
    """A message or timer name namespaced to a sub-module."""

    scope: tuple
    inner: Any


class ScopedEnvironment(Environment):
    """Environment view handed to a sub-module attached under a scope.

    Sends are wrapped in :class:`Scoped` envelopes; timers get scoped names.
    Peer list, pid, clock and randomness are shared with the host.
    """

    def __init__(self, host_env: Environment, scope: tuple) -> None:
        self._host = host_env
        self._scope = scope
        self.pid = host_env.pid
        self.peers = host_env.peers
        self.rng = host_env.rng

    @property
    def scope(self) -> tuple:
        return self._scope

    def send(self, dst: int, msg: Any) -> None:
        self._host.send(dst, Scoped(self._scope, msg))

    def datagram(self, dst: int, msg: Any) -> None:
        self._host.datagram(dst, Scoped(self._scope, msg))

    def send_many(self, dsts: tuple[int, ...], msg: Any) -> None:
        # Wrap once and share the frozen envelope across all destinations:
        # the network's byte accounting then pays one repr per fan-out
        # instead of n, and per-send allocation drops.  Receivers treat
        # messages as immutable values, so sharing is observationally
        # identical to wrapping per destination.
        self._host.send_many(dsts, Scoped(self._scope, msg))

    def datagram_many(self, dsts: tuple[int, ...], msg: Any) -> None:
        self._host.datagram_many(dsts, Scoped(self._scope, msg))

    def now(self) -> float:
        return self._host.now()

    def set_timer(self, name: Any, delay: float) -> None:
        self._host.set_timer(Scoped(self._scope, name), delay)

    def cancel_timer(self, name: Any) -> None:
        self._host.cancel_timer(Scoped(self._scope, name))


class HostProcess(Process):
    """A process that hosts scoped sub-modules and routes traffic to them.

    Sub-modules are any objects exposing ``on_message(src, msg)`` and
    optionally ``on_timer(name)`` / ``on_start()``.  Messages for scopes with
    no attached module are offered to :meth:`on_unrouted`, which protocol
    stacks override to create instances on demand (e.g. a consensus instance
    for a round this process has not reached yet).
    """

    def __init__(self) -> None:
        self._modules: dict[tuple, Any] = {}

    # ------------------------------------------------------------ composition

    def attach(self, scope: tuple, factory: Callable[[Environment], Any]) -> Any:
        """Create a sub-module under ``scope`` using ``factory(scoped_env)``."""
        if scope in self._modules:
            raise ConfigurationError(f"scope {scope!r} already attached")
        module = factory(ScopedEnvironment(self.env, scope))
        self._modules[scope] = module
        return module

    def detach(self, scope: tuple) -> None:
        """Remove the sub-module under ``scope`` (its late messages are dropped)."""
        self._modules.pop(scope, None)

    def module(self, scope: tuple) -> Any | None:
        return self._modules.get(scope)

    # -------------------------------------------------------------- dispatch

    def on_message(self, src: int, msg: Any) -> None:
        if isinstance(msg, Scoped):
            module = self._modules.get(msg.scope)
            if module is None:
                self.on_unrouted(src, msg)
            else:
                module.on_message(src, msg.inner)
        else:
            self.on_plain_message(src, msg)

    def on_timer(self, name: Any) -> None:
        if isinstance(name, Scoped):
            module = self._modules.get(name.scope)
            if module is not None and hasattr(module, "on_timer"):
                module.on_timer(name.inner)
        else:
            self.on_plain_timer(name)

    # ------------------------------------------------------------- overrides

    def on_unrouted(self, src: int, msg: Scoped) -> None:
        """Hook for scoped messages without a module (default: drop)."""

    def on_plain_message(self, src: int, msg: Any) -> None:
        """Hook for unscoped messages (default: drop)."""

    def on_plain_timer(self, name: Any) -> None:
        """Hook for unscoped timers (default: drop)."""
