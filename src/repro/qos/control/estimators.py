"""Deterministic EWMA rate estimation.

The estimator consumes ``observe(now, nbytes)`` events — one call per
packet arrival at an output port (or per delivery, for goodput) — and
answers ``rate_bps(now)``. It is a pure function of its observation
sequence: no wall clock, no RNG, so a ``--jobs N`` sweep sees
bit-identical estimates to a serial run.

:class:`EWMARateEstimator` is the Lin/Morris time-sliding-window
exponential estimator used by router line cards (and by sfctss's
``RateEstimator``): on each observation the previous estimate is decayed
by ``exp(-dt / tau)`` and the new sample ``bytes * 8 / dt`` is blended
in with weight ``1 - exp(-dt / tau)``. Bursts show up within ~``tau``
seconds and fade just as fast. :class:`RateEstimatorBank` keeps one
estimator per key (a port or a flow).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional

from ...core.errors import ConfigurationError

__all__ = ["EWMARateEstimator", "RateEstimatorBank"]


class EWMARateEstimator:
    """Time-decayed exponential rate estimate (bits per second).

    Args:
        tau_s: Time constant of the exponential memory. Observations
            older than a few ``tau`` have negligible weight.
        floor_dt_s: Smallest inter-observation gap used in the sample
            rate ``bytes * 8 / dt`` — back-to-back arrivals at the same
            simulation instant are merged into one sample instead of
            dividing by zero.
    """

    __slots__ = ("tau_s", "floor_dt_s", "_rate_bps", "_last_t", "_pending")

    def __init__(self, tau_s: float = 0.25, *, floor_dt_s: float = 1e-9) -> None:
        if tau_s <= 0:
            raise ConfigurationError(f"tau_s must be positive, got {tau_s}")
        self.tau_s = tau_s
        self.floor_dt_s = floor_dt_s
        self._rate_bps = 0.0
        self._last_t: Optional[float] = None
        #: Bytes observed at exactly ``_last_t`` (coalesced burst sample).
        self._pending = 0

    def observe(self, now: float, nbytes: int) -> None:
        """Record ``nbytes`` arriving at simulation time ``now``."""
        if self._last_t is None:
            self._last_t = now
            self._pending = nbytes
            return
        if now <= self._last_t + self.floor_dt_s:
            # Same instant (a burst): coalesce into the pending sample.
            self._pending += nbytes
            return
        self._absorb(now)
        self._pending = nbytes

    def _absorb(self, now: float) -> None:
        """Fold the pending sample into the estimate and advance time."""
        dt = now - self._last_t
        decay = math.exp(-dt / self.tau_s)
        sample = self._pending * 8.0 / dt
        self._rate_bps = decay * self._rate_bps + (1.0 - decay) * sample
        self._last_t = now
        self._pending = 0

    def rate_bps(self, now: float) -> float:
        """The estimate at ``now`` (pending sample folded in, then decayed
        for the silence since the last arrival)."""
        if self._last_t is None:
            return 0.0
        rate = self._rate_bps
        last = self._last_t
        if self._pending and now > last + self.floor_dt_s:
            dt = now - last
            decay = math.exp(-dt / self.tau_s)
            return decay * rate + (1.0 - decay) * (self._pending * 8.0 / dt)
        if now > last:
            # Pure silence since the last sample: decay toward zero.
            return rate * math.exp(-(now - last) / self.tau_s)
        return rate

    def __repr__(self) -> str:
        return f"EWMARateEstimator(tau_s={self.tau_s}, rate={self._rate_bps:.0f})"


class RateEstimatorBank:
    """Per-key EWMA estimators sharing one time constant (ports and flows).

    Keys are created lazily on first observation so churned flows cost
    nothing until they send.
    """

    def __init__(self, *, tau_s: float = 0.25) -> None:
        self.tau_s = tau_s
        self._estimators: Dict[Hashable, EWMARateEstimator] = {}

    def observe(self, key: Hashable, now: float, nbytes: int) -> None:
        est = self._estimators.get(key)
        if est is None:
            est = self._estimators[key] = EWMARateEstimator(self.tau_s)
        est.observe(now, nbytes)

    def rate_bps(self, key: Hashable, now: float) -> float:
        est = self._estimators.get(key)
        if est is None:
            return 0.0
        return est.rate_bps(now)

    def keys(self):
        return self._estimators.keys()

    def drop(self, key: Hashable) -> None:
        """Forget a key (a departed flow's estimator)."""
        self._estimators.pop(key, None)

    def __len__(self) -> int:
        return len(self._estimators)

    def __repr__(self) -> str:
        return f"RateEstimatorBank(tau_s={self.tau_s}, keys={len(self)})"
