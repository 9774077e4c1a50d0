"""Per-run execution context: one object instead of parallel keyword plumbing.

Every runner used to thread ``tracer=`` and ``obs=`` keywords separately
through the call chain (``execute_run`` → ``run_rsm_spec`` → ``run_rsm`` →
replicas), and each layer re-implemented the "adopt the obs runtime's
tracer" rule.  :class:`RunContext` collapses that into a single value with
one resolution rule, applied once at the runner boundary.

The abcast and consensus runners also take ``tracer=``/``obs=``
(``run_abcast(spec, tracer=t)``): their short spelling of ``ctx=``, folded
into a context by :meth:`RunContext.resolve` in the one place both runners
normalise their arguments (:func:`repro.harness.cluster.normalise`).  The
RSM runners take ``ctx=`` only.  Passing both a context and a keyword is a
configuration error — silently preferring one would hide bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.sim.trace import Tracer

__all__ = ["RunContext"]


@dataclass
class RunContext:
    """Everything observational a single run carries: tracer + obs runtime.

    ``tracer`` receives the always-on trace kinds (a-broadcast/a-deliver/
    decide); ``obs`` is the opt-in :class:`~repro.obs.ObsRuntime` switching
    on detailed kinds, metrics sampling and the flight recorder.  When only
    ``obs`` is supplied, the context adopts its tracer so both views observe
    the same record stream.
    """

    tracer: Tracer | None = None
    obs: Any = None

    def __post_init__(self) -> None:
        if self.obs is not None and self.tracer is None:
            self.tracer = self.obs.tracer

    @classmethod
    def resolve(
        cls, ctx: "RunContext | None", tracer: Tracer | None, obs: Any
    ) -> "RunContext":
        """Normalise a runner's ``(ctx, tracer, obs)`` arguments.

        ``tracer=``/``obs=`` keywords are folded into a fresh context, an
        explicit ``ctx`` is passed through, and mixing the two spellings is
        rejected.
        """
        if ctx is not None:
            if tracer is not None or obs is not None:
                raise ConfigurationError(
                    "pass either ctx= or the legacy tracer=/obs= keywords, not both"
                )
            return ctx
        return cls(tracer=tracer, obs=obs)

    def attach_failure(self, err: BaseException) -> BaseException:
        """Pin the flight recorder onto a checker error (no-op without obs)."""
        if self.obs is not None:
            self.obs.attach_failure(err)
        return err

    @property
    def detail(self) -> bool:
        """True when detailed (obs) tracing is on for this run."""
        return self.obs is not None and self.obs.detail
