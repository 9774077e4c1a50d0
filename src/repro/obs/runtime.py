"""Observability runtime: the opt-in switchboard for one run.

:class:`ObsConfig` mirrors the ``obs*`` fields on the run specs;
:class:`ObsRuntime` owns (or adopts) the run's :class:`~repro.sim.trace.Tracer`
and, depending on the config, a :class:`~repro.obs.metrics.MetricsRegistry` +
sampler and a :class:`~repro.obs.recorder.FlightRecorder`.

Harness runners call :meth:`ObsRuntime.install` once the simulator, network
and failure detector exist; it flips the detailed-tracing switches
(``network.obs_tracer``, ``oracle.tracer``), registers the standard gauges
and starts the sampler.  With every knob at its default the runtime wires
nothing and schedules nothing, preserving byte-identical output for
existing runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.obs.metrics import OBS_SCHEMA, MetricsRegistry, MetricsSampler
from repro.obs.recorder import FlightRecorder
from repro.sim.trace import Tracer

__all__ = ["ObsConfig", "ObsRuntime"]


@dataclass(frozen=True)
class ObsConfig:
    """What to collect for one run.

    ``detail`` turns on the expanded trace kinds (propose, round-start/end,
    suspect/trust, msg-send/deliver, rsm lifecycle); ``metrics_interval``
    (virtual seconds, 0 = off) enables the gauge sampler;
    ``flight_recorder`` (records per pid, 0 = off) enables the black box.
    """

    detail: bool = True
    metrics_interval: float = 0.0
    flight_recorder: int = 0

    @classmethod
    def from_spec(cls, spec: Any) -> "ObsConfig":
        return cls(
            detail=bool(getattr(spec, "obs", False)),
            metrics_interval=float(getattr(spec, "obs_metrics_interval", 0.0)),
            flight_recorder=int(getattr(spec, "obs_flight_recorder", 0)),
        )


class ObsRuntime:
    """Holds the tracer, metrics and recorder for one observed run."""

    def __init__(self, config: ObsConfig | None = None, tracer: Tracer | None = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry: MetricsRegistry | None = None
        self.sampler: MetricsSampler | None = None
        if self.config.metrics_interval > 0:
            self.registry = MetricsRegistry()
            self.sampler = MetricsSampler(self.registry, self.config.metrics_interval)
        self.recorder: FlightRecorder | None = None
        if self.config.flight_recorder > 0:
            self.recorder = FlightRecorder(self.tracer, self.config.flight_recorder)

    @classmethod
    def from_spec(cls, spec: Any, tracer: Tracer | None = None) -> "ObsRuntime":
        return cls(ObsConfig.from_spec(spec), tracer)

    @property
    def detail(self) -> bool:
        return self.config.detail

    # ------------------------------------------------------------------ wiring

    def install(
        self,
        sim: Any,
        network: Any = None,
        oracles: Sequence[Any] = (),
        gauges: Mapping[str, Callable[[], float]] | None = None,
    ) -> None:
        """Wire detailed tracing and start the metrics sampler.

        ``oracles`` are the run's failure detectors, one per replica group;
        ``fd.suspected`` counts the crashed pids over all of them.
        ``gauges`` lets a runner add run-shape-specific readings (per-pid
        round numbers, rsm applied indexes) on top of the standard kernel,
        network and failure-detector gauges.
        """
        if self.detail:
            if network is not None:
                network.obs_tracer = self.tracer
            for oracle in oracles:
                oracle.tracer = self.tracer
        if self.registry is not None and self.sampler is not None:
            self.registry.gauge("kernel.pending", lambda: float(sim.pending()))
            if network is not None:
                stats = network.stats
                self.registry.gauge(
                    "net.in_flight",
                    lambda: float(stats.sent - stats.delivered - stats.dropped),
                )
                self.registry.gauge("net.bytes_sent", lambda: float(stats.bytes_sent))
            if oracles:
                self.registry.gauge(
                    "fd.suspected",
                    lambda: float(sum(len(oracle.crashed) for oracle in oracles)),
                )
            if gauges:
                for name, read in gauges.items():
                    self.registry.gauge(name, read)
            self.sampler.start(sim)

    def attach_failure(self, err: BaseException) -> BaseException:
        """Pin the flight-recorder dump onto a checker error (if recording)."""
        if self.recorder is not None:
            self.recorder.attach(err)
        return err

    # --------------------------------------------------------- serialization

    def section(self) -> dict[str, Any] | None:
        """The ``repro.obs.v1`` RunReport section, or ``None`` if no metrics."""
        if self.registry is None or self.sampler is None:
            return None
        section: dict[str, Any] = {"schema": OBS_SCHEMA}
        section.update(self.sampler.to_dict())
        section.update(self.registry.to_dict())
        return section
