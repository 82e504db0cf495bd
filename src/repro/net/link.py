"""Point-to-point link parameters.

A :class:`Link` is a unidirectional transmission resource: a serialisation
rate in bits/s and a propagation delay in seconds, exactly ns-2's duplex
link halves. The queueing/scheduling happens in the upstream
:class:`~repro.net.port.OutputPort`; the link itself only converts packet
sizes to transmission times.
"""

from __future__ import annotations

from ..core.errors import CapacityError

__all__ = ["Link"]


class Link:
    """Unidirectional link: ``rate_bps`` bits/s, ``delay`` seconds.

    ``up`` models link availability for fault injection: a downed link
    stops the upstream port's transmit loop (queued packets wait or are
    dropped per the port's policy) until the link comes back up.
    """

    __slots__ = ("rate_bps", "delay", "up")

    def __init__(self, rate_bps: float, delay: float = 0.0) -> None:
        if rate_bps <= 0:
            raise CapacityError(f"link rate must be positive, got {rate_bps}")
        if delay < 0:
            raise CapacityError(f"propagation delay must be >= 0, got {delay}")
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.up = True

    def serialization_time(self, size_bytes: int) -> float:
        """Seconds needed to clock ``size_bytes`` onto the wire."""
        return size_bytes * 8.0 / self.rate_bps

    def __repr__(self) -> str:
        state = "" if self.up else ", DOWN"
        return (
            f"Link(rate={self.rate_bps / 1e6:g}Mb/s, "
            f"delay={self.delay * 1e3:g}ms{state})"
        )
