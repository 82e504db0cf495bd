"""Traffic sources: CBR, Poisson, on/off (Pareto/exponential), bursts, windows.

Sources are bound to an emission callback by the
:class:`~repro.net.scenario.Network` builder (``emit(size)`` creates a
fully addressed packet and injects it at the flow's source host), then
``start()`` schedules the first transmission. All randomness flows through
per-source ``random.Random(seed)`` instances so simulations are exactly
reproducible.

The Pareto on/off source reproduces the paper's best-effort background
traffic: mean on and off times of 100 ms, shape alpha = 1.5, peak rate
chosen so the mean rate exceeds the unallocated bandwidth.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Optional

from ..core.errors import ConfigurationError
from .engine import Simulator

__all__ = [
    "TrafficSource",
    "CBRSource",
    "PoissonSource",
    "ParetoOnOffSource",
    "ExponentialOnOffSource",
    "BurstSource",
    "WindowSource",
]

EmitFn = Callable[[int], None]


class TrafficSource(abc.ABC):
    """Base class wiring a source into the simulator."""

    def __init__(self) -> None:
        self.sim: Optional[Simulator] = None
        self._emit: Optional[EmitFn] = None
        self.packets_emitted = 0
        self.bytes_emitted = 0

    def bind(self, sim: Simulator, emit: EmitFn) -> None:
        """Attach to a simulator and an emission callback."""
        self.sim = sim
        self._emit = emit

    def emit(self, size: int) -> None:
        """Emit one packet of ``size`` bytes via the bound callback."""
        assert self._emit is not None, "source not bound"
        self.packets_emitted += 1
        self.bytes_emitted += size
        self._emit(size)

    @abc.abstractmethod
    def start(self) -> None:
        """Schedule the source's first emission."""


class CBRSource(TrafficSource):
    """Constant bit rate: one ``packet_size`` packet every
    ``packet_size * 8 / rate_bps`` seconds.

    This is the paper's reserved-traffic model (CBR over the reserved
    rate). ``start_at``/``stop_at`` bound the active interval.

    Emission ``n`` happens at exactly ``start + n * interval`` (one
    multiply from the epoch, not an accumulated ``now + interval``), so
    arrival times carry no cumulative float drift even after 10^7
    packets. Emissions are scheduled ``batch`` at a time with a single
    re-arm event per batch, amortising the per-packet ``schedule()``
    overhead. A grid point at or past ``stop_at`` is never scheduled —
    the same emissions as the tick-by-tick form, without dead events.
    """

    def __init__(
        self,
        rate_bps: float,
        packet_size: int = 200,
        *,
        start_at: float = 0.0,
        stop_at: Optional[float] = None,
        batch: int = 64,
    ) -> None:
        super().__init__()
        if rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_bps}")
        if packet_size <= 0:
            raise ConfigurationError(f"packet size must be positive")
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.start_at = start_at
        self.stop_at = stop_at
        self.batch = batch
        self.interval = packet_size * 8.0 / rate_bps
        self._epoch = 0.0
        self._next_n = 0

    def start(self) -> None:
        assert self.sim is not None
        self._epoch = max(self.start_at, self.sim.now)
        self._next_n = 0
        self._schedule_batch()

    def _schedule_batch(self) -> None:
        sim = self.sim
        assert sim is not None
        epoch = self._epoch
        interval = self.interval
        stop = self.stop_at
        schedule_at = sim.schedule_at
        fire = self._fire
        t = 0.0
        scheduled = False
        first = self._next_n
        last = first + self.batch
        for n in range(first, last):
            t = epoch + n * interval
            if stop is not None and t >= stop:
                self._next_n = n
                return  # the grid reached stop_at: the source is done
            schedule_at(t, fire)
            scheduled = True
        self._next_n = last
        if scheduled:
            # Re-arm at the batch's final emission time (later seq, so it
            # fires after that emission).
            schedule_at(t, self._schedule_batch)

    def _fire(self) -> None:
        self.emit(self.packet_size)


class PoissonSource(TrafficSource):
    """Poisson packet arrivals with the given mean rate."""

    def __init__(
        self,
        mean_rate_bps: float,
        packet_size: int = 200,
        *,
        start_at: float = 0.0,
        stop_at: Optional[float] = None,
        seed: int = 1,
    ) -> None:
        super().__init__()
        if mean_rate_bps <= 0:
            raise ConfigurationError("mean rate must be positive")
        if packet_size <= 0:
            raise ConfigurationError("packet size must be positive")
        self.packet_size = packet_size
        self.mean_interval = packet_size * 8.0 / mean_rate_bps
        self.start_at = start_at
        self.stop_at = stop_at
        self._rng = random.Random(seed)

    def start(self) -> None:
        assert self.sim is not None
        self.sim.schedule_at(max(self.start_at, self.sim.now), self._tick)

    def _tick(self) -> None:
        assert self.sim is not None
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        self.emit(self.packet_size)
        self.sim.schedule(
            self._rng.expovariate(1.0 / self.mean_interval), self._tick
        )


class _OnOffSource(TrafficSource):
    """Common machinery: CBR at ``peak_rate_bps`` during ON periods."""

    def __init__(
        self,
        peak_rate_bps: float,
        packet_size: int,
        start_at: float,
        stop_at: Optional[float],
        seed: int,
    ) -> None:
        super().__init__()
        if peak_rate_bps <= 0:
            raise ConfigurationError("peak rate must be positive")
        if packet_size <= 0:
            raise ConfigurationError("packet size must be positive")
        self.peak_rate_bps = peak_rate_bps
        self.packet_size = packet_size
        self.interval = packet_size * 8.0 / peak_rate_bps
        self.start_at = start_at
        self.stop_at = stop_at
        self._rng = random.Random(seed)
        self._on_until = 0.0
        # Drift-free ON-phase grid: emission j of the current ON period
        # happens at exactly ``on_epoch + j * interval``.
        self._on_epoch = 0.0
        self._on_n = 0

    @abc.abstractmethod
    def _sample_on(self) -> float:
        """Duration of the next ON period (seconds)."""

    @abc.abstractmethod
    def _sample_off(self) -> float:
        """Duration of the next OFF period (seconds)."""

    def start(self) -> None:
        assert self.sim is not None
        self.sim.schedule_at(max(self.start_at, self.sim.now), self._begin_on)

    def _stopped(self) -> bool:
        assert self.sim is not None
        return self.stop_at is not None and self.sim.now >= self.stop_at

    def _begin_on(self) -> None:
        assert self.sim is not None
        if self._stopped():
            return
        now = self.sim.now
        self._on_until = now + self._sample_on()
        self._on_epoch = now
        self._on_n = 0
        self._tick()

    def _tick(self) -> None:
        assert self.sim is not None
        if self._stopped():
            return
        if self.sim.now >= self._on_until:
            self.sim.schedule(self._sample_off(), self._begin_on)
            return
        self.emit(self.packet_size)
        self._on_n += 1
        self.sim.schedule_at(
            self._on_epoch + self._on_n * self.interval, self._tick
        )


class ParetoOnOffSource(_OnOffSource):
    """Pareto on/off source — the paper's best-effort traffic model.

    ON and OFF durations are Pareto distributed with the given means and
    shape ``alpha`` (the paper uses mean 100 ms and alpha 1.5). During ON,
    packets are emitted at ``peak_rate_bps``; the long-run mean rate is
    ``peak * on / (on + off)``.
    """

    def __init__(
        self,
        peak_rate_bps: float,
        packet_size: int = 200,
        *,
        mean_on: float = 0.1,
        mean_off: float = 0.1,
        alpha: float = 1.5,
        start_at: float = 0.0,
        stop_at: Optional[float] = None,
        seed: int = 1,
    ) -> None:
        super().__init__(peak_rate_bps, packet_size, start_at, stop_at, seed)
        if alpha <= 1.0:
            raise ConfigurationError(
                f"Pareto shape must be > 1 for a finite mean, got {alpha}"
            )
        if mean_on <= 0 or mean_off <= 0:
            raise ConfigurationError("mean on/off times must be positive")
        self.alpha = alpha
        self.mean_on = mean_on
        self.mean_off = mean_off
        # Pareto scale for a given mean: x_min = mean * (alpha-1) / alpha.
        self._scale_on = mean_on * (alpha - 1.0) / alpha
        self._scale_off = mean_off * (alpha - 1.0) / alpha

    def _pareto(self, scale: float) -> float:
        # Inverse-CDF sampling: scale / U^(1/alpha).
        u = 1.0 - self._rng.random()  # avoid 0
        return scale * u ** (-1.0 / self.alpha)

    def _sample_on(self) -> float:
        return self._pareto(self._scale_on)

    def _sample_off(self) -> float:
        return self._pareto(self._scale_off)

    @property
    def mean_rate_bps(self) -> float:
        """Long-run average emission rate."""
        return self.peak_rate_bps * self.mean_on / (self.mean_on + self.mean_off)


class ExponentialOnOffSource(_OnOffSource):
    """Exponential on/off source (ns-2's Exponential On/Off)."""

    def __init__(
        self,
        peak_rate_bps: float,
        packet_size: int = 200,
        *,
        mean_on: float = 0.1,
        mean_off: float = 0.1,
        start_at: float = 0.0,
        stop_at: Optional[float] = None,
        seed: int = 1,
    ) -> None:
        super().__init__(peak_rate_bps, packet_size, start_at, stop_at, seed)
        if mean_on <= 0 or mean_off <= 0:
            raise ConfigurationError("mean on/off times must be positive")
        self.mean_on = mean_on
        self.mean_off = mean_off

    def _sample_on(self) -> float:
        return self._rng.expovariate(1.0 / self.mean_on)

    def _sample_off(self) -> float:
        return self._rng.expovariate(1.0 / self.mean_off)


class BurstSource(TrafficSource):
    """Emit ``count`` packets at ``at`` (optionally ``spacing`` apart) —
    the standing-backlog workload for single-node fairness experiments."""

    def __init__(
        self,
        count: int,
        packet_size: int = 200,
        *,
        at: float = 0.0,
        spacing: float = 0.0,
    ) -> None:
        super().__init__()
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        if packet_size <= 0:
            raise ConfigurationError("packet size must be positive")
        self.count = count
        self.packet_size = packet_size
        self.at = at
        self.spacing = spacing

    def start(self) -> None:
        assert self.sim is not None
        if self.spacing <= 0:
            self.sim.schedule_at(max(self.at, self.sim.now), self._burst)
        else:
            for i in range(self.count):
                self.sim.schedule_at(
                    max(self.at, self.sim.now) + i * self.spacing,
                    self.emit,
                    self.packet_size,
                )

    def _burst(self) -> None:
        for _ in range(self.count):
            self.emit(self.packet_size)


class WindowSource(TrafficSource):
    """Closed-loop (TCP-like) source: keeps ``window`` packets in flight.

    The source emits ``window`` packets at start; every time one of its
    packets is *delivered* (reported by the sink registry), it emits a
    replacement after ``ack_delay`` seconds (the return path of the
    acknowledgement). Its sending rate therefore adapts to the service
    it receives — the classic elastic workload, useful for studying how
    schedulers isolate reserved traffic from greedy adaptive traffic
    without modelling full TCP.

    The :class:`~repro.net.scenario.Network` wires the delivery feedback
    automatically when attaching the source (``wants_feedback``).
    """

    wants_feedback = True

    def __init__(
        self,
        window: int = 16,
        packet_size: int = 1000,
        *,
        ack_delay: float = 0.001,
        total: Optional[int] = None,
        start_at: float = 0.0,
    ) -> None:
        super().__init__()
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if packet_size <= 0:
            raise ConfigurationError("packet size must be positive")
        if ack_delay < 0:
            raise ConfigurationError("ack_delay must be >= 0")
        self.window = window
        self.packet_size = packet_size
        self.ack_delay = ack_delay
        self.total = total
        self.start_at = start_at
        self._flow_id: Optional[object] = None

    def bind_feedback(self, flow_id, sink_registry) -> None:
        """Subscribe to the sink registry for this flow's deliveries."""
        self._flow_id = flow_id
        sink_registry.add_listener(self._on_delivery)

    def start(self) -> None:
        assert self.sim is not None
        self.sim.schedule_at(max(self.start_at, self.sim.now), self._open)

    def _open(self) -> None:
        for _ in range(self.window):
            if self._exhausted():
                return
            self.emit(self.packet_size)

    def _on_delivery(self, packet) -> None:
        if packet.flow_id != self._flow_id:
            return
        assert self.sim is not None
        if self._exhausted():
            return
        self.sim.schedule(self.ack_delay, self._refill)

    def _refill(self) -> None:
        if not self._exhausted():
            self.emit(self.packet_size)

    def _exhausted(self) -> bool:
        return self.total is not None and self.packets_emitted >= self.total

