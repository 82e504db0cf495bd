"""Time-Slot Sequence (TSS) and bit-reversal — Definitions 4-5 of the
author's follow-on (G-3) paper.

``TSS^n`` spreads the ``2^n`` leaves of a perfect binary tree of depth
``n`` into the order the RRR flip-bit walk would visit them::

    TSS^0 = (0)
    b_i^n = 2 * b_i^(n-1)              for 0 <= i < 2^(n-1)
    b_i^n = 2 * b_(i-2^(n-1))^(n-1)+1  for 2^(n-1) <= i < 2^n

Lemma 4 gives the closed form ``b_i^n = RB(i, n)`` — the *bit reversal*
of ``i`` in ``n`` bits — which this module uses directly (and the tests
cross-validate against the recursion).

Lemma 5 is the even-spreading property the extensions rely on: the leaves
owned by tree node ``v(l, i)`` occupy positions ``RB(i, l) + y * 2^l`` of
``TSS^n`` — a perfectly regular stride-``2^l`` comb. Those positions are
what :func:`node_slot_positions` returns; the G-3 Time-Slot Array writes a
flow id into exactly those entries.
"""

from __future__ import annotations

from typing import List

from ..core.errors import ConfigurationError

__all__ = [
    "reverse_bits",
    "tss_term",
    "tss_sequence",
    "tss_sequence_recursive",
    "node_slot_positions",
    "first_slot_after",
]


def reverse_bits(value: int, width: int) -> int:
    """``RB(value, width)``: reverse the ``width``-bit binary representation.

    Examples from the paper: ``RB(0b011, 3) == 0b110 == 6`` and
    ``RB(0b0001, 4) == 0b1000 == 8``.
    """
    if width < 0:
        raise ConfigurationError(f"width must be >= 0, got {width}")
    if not 0 <= value < (1 << width):
        raise ConfigurationError(
            f"value {value} does not fit in {width} bits"
        )
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def tss_term(index: int, order: int) -> int:
    """The ``index``-th term of ``TSS^order`` (0-based) via Lemma 4."""
    if order < 0:
        raise ConfigurationError(f"order must be >= 0, got {order}")
    if not 0 <= index < (1 << order):
        raise ConfigurationError(
            f"index {index} outside TSS^{order} (size {1 << order})"
        )
    return reverse_bits(index, order)


def tss_sequence(order: int) -> List[int]:
    """Materialise ``TSS^order`` (a permutation of ``0 .. 2^order - 1``)."""
    return [tss_term(i, order) for i in range(1 << order)]


def tss_sequence_recursive(order: int) -> List[int]:
    """``TSS^order`` by the paper's recursion (Definition 4); for tests."""
    if order < 0:
        raise ConfigurationError(f"order must be >= 0, got {order}")
    seq = [0]
    for _ in range(order):
        seq = [2 * b for b in seq] + [2 * b + 1 for b in seq]
    return seq


def node_slot_positions(level: int, index: int, order: int) -> List[int]:
    """Positions in ``TSS^order`` of the leaves owned by node ``v(level, index)``.

    By Lemma 5 these are ``RB(index, level) + y * 2^level`` for
    ``y = 0 .. 2^(order-level) - 1`` — evenly spread with stride
    ``2^level``.
    """
    if not 0 <= level <= order:
        raise ConfigurationError(
            f"level {level} outside tree of depth {order}"
        )
    if not 0 <= index < (1 << level):
        raise ConfigurationError(f"node index {index} invalid at level {level}")
    base = reverse_bits(index, level)
    stride = 1 << level
    return [base + y * stride for y in range(1 << (order - level))]


def first_slot_after(position: int, level: int, index: int, order: int) -> int:
    """First slot position >= ``position`` (mod ``2^order``) belonging to
    node ``v(level, index)``.

    This is the paper's rule for carrying out TArray updates "in front of"
    the running Schedule pointer: ``x = (RB(i, l) + y * 2^l) mod 2^n`` with
    ``y = ceil((p - RB(i, l)) / 2^l)``.
    """
    size = 1 << order
    if not 0 <= position < size:
        raise ConfigurationError(f"position {position} outside TArray^{order}")
    base = reverse_bits(index, level)
    stride = 1 << level
    y = -(-(position - base) // stride)  # ceil division
    return (base + y * stride) % size
