"""Network-calculus certification plane: arrival/service curves and bounds.

The paper's Definition 1 and Theorems 1-2 turn SRR's headline claim into a
*provable* delay statement. This module supplies the analytic toolkit to
assert that claim (and its round-robin relatives) against simulation:

* :class:`TokenBucket` — the ``(sigma, rho)`` leaky-bucket arrival curve
  ``gamma(t) = sigma + rho * t`` (sigma in bytes, rho in bits/s).
* :class:`RateLatency` — the ``beta_{R,T}(t) = R * max(0, t - T)`` strict
  service curve every LR-server in this repo offers.
* Min-plus algebra: :func:`convolve` (tandem composition),
  :func:`deconvolve` (output arrival envelope), :func:`delay_bound` and
  :func:`backlog_bound` (the three classic bounds of network calculus,
  Le Boudec & Thiran, *Network Calculus*, LNCS 2050).
* Per-discipline service-curve constructors for SRR (paper Lemma 2 /
  Theorem 1), DRR (Stiliadis-Varma 1998 latency *and* the tighter second
  network-calculus analysis of arXiv 2106.01034), WRR (burst-serial
  rounds, cf. arXiv 2202.08381), and IWRR (the interleaved variant whose
  strict service curve is derived in arXiv 2003.08372 — computed here
  numerically from the exact interleaved emission pattern).

Every latency constant is an *upper envelope*, not a tight constant: the
``bounds`` conformance-oracle family certifies observed per-flow delays
against these curves across the fuzz corpus, so a too-tight constant is a
red CI run, while tightness itself is *reported* (not asserted) by
experiment E16. Small additive packet-slack terms absorb dynamic effects
the static analyses ignore (flows joining mid-round, round swaps,
store-and-forward).

All rates are bits/s, sizes bytes, times seconds — consistent with the
simulator and :mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..core.errors import ConfigurationError
from .bounds import drr_delay_bound, srr_delay_bound

__all__ = [
    "TokenBucket",
    "RateLatency",
    "convolve",
    "deconvolve",
    "delay_bound",
    "backlog_bound",
    "srr_service_curve",
    "drr_service_curve",
    "wrr_service_curve",
    "iwrr_service_curve",
    "service_curve",
    "NETCALC_DISCIPLINES",
]

#: Disciplines :func:`service_curve` can certify.
NETCALC_DISCIPLINES = ("srr", "drr", "wrr", "iwrr")


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokenBucket:
    """Leaky-bucket arrival curve ``gamma(t) = sigma + rho * t``.

    ``sigma_bytes`` is the burst allowance, ``rho_bps`` the sustained
    rate. A CBR source of rate ``rho`` and packet size ``L`` conforms to
    ``TokenBucket(L, rho)`` (whole packets arrive instantaneously).
    """

    sigma_bytes: float
    rho_bps: float

    def __post_init__(self) -> None:
        if self.sigma_bytes < 0 or math.isnan(self.sigma_bytes):
            raise ConfigurationError(
                f"sigma must be >= 0 bytes, got {self.sigma_bytes}"
            )
        if self.rho_bps < 0 or math.isnan(self.rho_bps):
            raise ConfigurationError(
                f"rho must be >= 0 bps, got {self.rho_bps}"
            )

    def bytes_at(self, t: float) -> float:
        """Max cumulative arrivals in any window of length ``t`` (bytes)."""
        if t <= 0:
            return 0.0
        return self.sigma_bytes + self.rho_bps * t / 8.0


@dataclass(frozen=True)
class RateLatency:
    """Rate-latency service curve ``beta(t) = R * max(0, t - T)``."""

    rate_bps: float
    latency_s: float

    def __post_init__(self) -> None:
        if not self.rate_bps > 0 or math.isinf(self.rate_bps):
            raise ConfigurationError(
                f"service rate must be positive and finite, "
                f"got {self.rate_bps}"
            )
        if self.latency_s < 0 or math.isnan(self.latency_s):
            raise ConfigurationError(
                f"latency must be >= 0 s, got {self.latency_s}"
            )

    def bytes_at(self, t: float) -> float:
        """Guaranteed cumulative service after ``t`` seconds (bytes)."""
        return max(0.0, t - self.latency_s) * self.rate_bps / 8.0


# ---------------------------------------------------------------------------
# Min-plus algebra
# ---------------------------------------------------------------------------

def convolve(a: RateLatency, b: RateLatency) -> RateLatency:
    """Min-plus convolution of two rate-latency curves.

    ``(a ⊗ b)(t) = min(R_a, R_b) * max(0, t - (T_a + T_b))`` — the
    end-to-end service curve of two LR-servers in tandem (the closed form
    behind Corollary 1's additive composition).
    """
    return RateLatency(
        rate_bps=min(a.rate_bps, b.rate_bps),
        latency_s=a.latency_s + b.latency_s,
    )


def deconvolve(arrival: TokenBucket, service: RateLatency) -> TokenBucket:
    """Min-plus deconvolution: the output arrival envelope.

    A ``(sigma, rho)`` flow through a ``(R, T)`` server leaves as
    ``(sigma + rho*T, rho)`` — the burst grows by what can arrive during
    the latency. Requires ``rho <= R`` (otherwise the output burst is
    unbounded).
    """
    if arrival.rho_bps > service.rate_bps:
        raise ConfigurationError(
            f"deconvolution needs rho <= R: arrival rate "
            f"{arrival.rho_bps} bps exceeds service rate "
            f"{service.rate_bps} bps"
        )
    return TokenBucket(
        sigma_bytes=arrival.sigma_bytes
        + arrival.rho_bps * service.latency_s / 8.0,
        rho_bps=arrival.rho_bps,
    )


def delay_bound(arrival: TokenBucket, service: RateLatency) -> float:
    """Closed-form worst-case delay, seconds (inf when ``rho > R``).

    The horizontal deviation between ``gamma_{sigma,rho}`` and
    ``beta_{R,T}`` is ``T + sigma/R`` when ``rho <= R``; with ``rho > R``
    the backlog diverges and no finite delay is certified.
    """
    if arrival.rho_bps > service.rate_bps:
        return math.inf
    return service.latency_s + arrival.sigma_bytes * 8.0 / service.rate_bps


def backlog_bound(arrival: TokenBucket, service: RateLatency) -> float:
    """Closed-form worst-case backlog, bytes (inf when ``rho > R``).

    The vertical deviation is ``sigma + rho * T`` when ``rho <= R``.
    """
    if arrival.rho_bps > service.rate_bps:
        return math.inf
    return arrival.sigma_bytes + arrival.rho_bps * service.latency_s / 8.0


# ---------------------------------------------------------------------------
# Per-discipline service curves
# ---------------------------------------------------------------------------

def _check_link(packet_size: int, link_rate_bps: float) -> None:
    if packet_size <= 0:
        raise ConfigurationError("packet_size must be positive")
    if link_rate_bps <= 0:
        raise ConfigurationError("link rate must be positive")


def _int_weights(weight: int, weights: Sequence[int]) -> List[int]:
    ws = [int(w) for w in weights]
    if int(weight) < 1:
        raise ConfigurationError(f"weight must be >= 1, got {weight}")
    if any(w < 1 for w in ws):
        raise ConfigurationError(f"all weights must be >= 1, got {ws}")
    if int(weight) not in ws:
        raise ConfigurationError(
            f"weights must include the flow's own weight {weight}"
        )
    return ws


def srr_service_curve(
    weight: int,
    weights: Sequence[int],
    packet_size: int,
    link_rate_bps: float,
) -> RateLatency:
    """SRR strict service curve (paper Lemma 2 as an LR-server latency).

    ``weights`` is the full competitor set *including* this flow; the
    reserved rate is the proportional share ``w_i / W * C`` and the
    latency is the Lemma 2 delay bound with one weight unit worth
    ``C / W`` (full reservation).
    """
    _check_link(packet_size, link_rate_bps)
    ws = _int_weights(weight, weights)
    total = sum(ws)
    rate = weight / total * link_rate_bps
    latency = srr_delay_bound(
        int(weight), len(ws), packet_size, link_rate_bps,
        link_rate_bps / total,
    )
    return RateLatency(rate_bps=rate, latency_s=latency)


def drr_service_curve(
    weight: float,
    weights: Sequence[float],
    quantum: int,
    packet_size: int,
    link_rate_bps: float,
) -> RateLatency:
    """DRR strict service curve: best of three provable latencies.

    With per-flow quantum ``phi_i = w_i * quantum`` (bytes) and frame
    ``F = sum(w_j) * quantum``:

    * *Generic* (any quanta, from the deficit invariant ``D_j < L``):
      each competitor sends at most ``k * phi_j + L`` bytes across the
      ``k`` rounds this flow needs, giving
      ``T = (L*(F - phi) + (n-1)*L*phi) / (phi * C) + (F + n*L)/C``.
      This stays valid in the sub-packet-quantum regime
      (``phi_i < L``) where the classic analyses don't apply.
    * *Stiliadis-Varma 1998* (``phi_i >= L``): ``(3F - 2*phi_i)/C``
      — via :func:`repro.analysis.bounds.drr_delay_bound`.
    * *Second NC analysis* (arXiv 2106.01034, ``phi_i >= L``):
      ``(sum_{j != i}(phi_j + L) + L)/C`` — tighter than
      Stiliadis-Varma whenever ``F`` is large relative to ``n * L``.
    """
    _check_link(packet_size, link_rate_bps)
    if weight <= 0:
        raise ConfigurationError(f"weight must be positive, got {weight}")
    if quantum < 1:
        raise ConfigurationError(f"quantum must be >= 1, got {quantum}")
    total = float(sum(weights))
    if total < weight:
        raise ConfigurationError("weights must include the flow's own weight")
    n = len(weights)
    L = float(packet_size)
    phi = weight * quantum
    frame = total * quantum
    rate = phi / frame * link_rate_bps
    generic = (
        (L * (frame - phi) + (n - 1) * L * phi) * 8.0 / (phi * link_rate_bps)
        + (frame + n * L) * 8.0 / link_rate_bps
    )
    latency = generic
    if phi >= L:
        sv = drr_delay_bound(weight, total, quantum, packet_size,
                             link_rate_bps)
        nc2 = (
            ((frame - phi) + (n - 1) * L + L) * 8.0 / link_rate_bps
            + L * 8.0 / link_rate_bps
        )
        latency = min(latency, sv, nc2)
    return RateLatency(rate_bps=rate, latency_s=latency)


def wrr_service_curve(
    weight: int,
    weights: Sequence[int],
    packet_size: int,
    link_rate_bps: float,
) -> RateLatency:
    """WRR strict service curve (burst-serial rounds, arXiv 2202.08381).

    A round serves each flow's full ``w_j``-packet burst consecutively,
    so flow ``i`` waits at most ``W - w_i`` foreign packets between
    bursts; within the burst its staircase never falls more than one
    packet behind the ``w_i/W`` rate line. One extra packet of slack
    absorbs the join-at-tail phase.
    """
    _check_link(packet_size, link_rate_bps)
    ws = _int_weights(weight, weights)
    total = sum(ws)
    slot = packet_size * 8.0 / link_rate_bps
    rate = weight / total * link_rate_bps
    latency = (total - weight + 2) * slot
    return RateLatency(rate_bps=rate, latency_s=latency)


def _iwrr_latency_slots(weight: int, others: Sequence[int]) -> float:
    """Worst-phase horizontal deviation of the interleaved pattern, in
    packet slots.

    Builds one period of the static IWRR emission pattern with the
    tagged flow ranked *last* in every cycle it participates in (the
    worst service position), then takes the sup over all backlog-start
    phases ``p`` and packet indices ``k`` of the gap between the flow's
    ``k``-th finish slot and the ideal ``k * W / w`` fluid slot. The
    deviation is periodic in ``k`` with period ``w`` (one round adds
    exactly ``W`` slots and ``w`` services), so one round of ``k`` per
    phase suffices.
    """
    w = int(weight)
    wmax = max([w] + [int(o) for o in others]) if others else w
    # finish[k] = slot index (1-based, within one round) at which the
    # tagged flow's (k+1)-th packet of the round completes.
    finish: List[int] = []
    slot_idx = 0
    for cycle in range(1, wmax + 1):
        slot_idx += sum(1 for o in others if int(o) >= cycle)
        if cycle <= w:
            slot_idx += 1
            finish.append(slot_idx)
    period = slot_idx  # == w + sum(others): one full round of slots
    per_packet = period / w  # ideal fluid slots per tagged packet
    worst = 0.0
    for phase in range(period):
        k = 0
        for round_offset in (0, period):
            for s in finish:
                t = round_offset + s - phase
                if t <= 0:
                    continue
                k += 1
                worst = max(worst, t - k * per_packet)
    return worst


def iwrr_service_curve(
    weight: int,
    weights: Sequence[int],
    packet_size: int,
    link_rate_bps: float,
) -> RateLatency:
    """IWRR strict service curve (arXiv 2003.08372).

    Interleaved WRR spreads each flow's ``w_i`` per-round packets across
    cycles ``c = 1..w_i`` (cycle ``c`` serves every flow with
    ``w_j >= c`` once), so the latency is governed by the interleaved
    pattern rather than WRR's serial bursts — strictly better for
    ``w_i > 1``. The pattern deviation is computed exactly by
    :func:`_iwrr_latency_slots`; ``n + 2`` packet slots of slack absorb
    the dynamic effects (joining a round in progress, round swap order).
    """
    _check_link(packet_size, link_rate_bps)
    ws = _int_weights(weight, weights)
    total = sum(ws)
    others = list(ws)
    others.remove(int(weight))
    slot = packet_size * 8.0 / link_rate_bps
    rate = weight / total * link_rate_bps
    latency = (_iwrr_latency_slots(int(weight), others)
               + len(ws) + 2) * slot
    return RateLatency(rate_bps=rate, latency_s=latency)


def service_curve(
    discipline: str,
    *,
    weight: float,
    weights: Sequence[float],
    packet_size: int,
    link_rate_bps: float,
    quantum: int = 1500,
) -> RateLatency:
    """Per-flow strict service curve for one certified discipline.

    ``discipline`` is a registry name; ``weights`` is the complete flow
    set at the node, including this flow's own ``weight``.
    """
    if discipline == "srr":
        return srr_service_curve(int(weight), [int(w) for w in weights],
                                 packet_size, link_rate_bps)
    if discipline == "drr":
        return drr_service_curve(weight, weights, quantum, packet_size,
                                 link_rate_bps)
    if discipline == "wrr":
        return wrr_service_curve(int(weight), [int(w) for w in weights],
                                 packet_size, link_rate_bps)
    if discipline == "iwrr":
        return iwrr_service_curve(int(weight), [int(w) for w in weights],
                                  packet_size, link_rate_bps)
    raise ConfigurationError(
        f"no service curve for discipline {discipline!r}; "
        f"certified disciplines: {', '.join(NETCALC_DISCIPLINES)}"
    )
