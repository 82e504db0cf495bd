"""Weight Spread Sequence (WSS) — the core combinatorial object of SRR.

The WSS of order ``k`` is defined recursively (Eq. 6-7 of the paper, as
restated in the author's later G-3 paper)::

    WSS^1 = (1)
    WSS^k = WSS^(k-1)  ++  (k)  ++  WSS^(k-1)           for k > 1

so ``WSS^2 = (1, 2, 1)``, ``WSS^3 = (1, 2, 1, 3, 1, 2, 1)``,
``WSS^4 = (1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1)``, and in general
``|WSS^k| = 2^k - 1`` with term values drawn from ``{1, .., k}``.

Closed form
-----------
Indexing terms from 1, the ``i``-th term of ``WSS^k`` equals ``v2(i) + 1``
where ``v2(i)`` is the 2-adic valuation (number of trailing zero bits) of
``i``. This follows directly from the recursion: position ``2^(k-1)`` is
the unique position with ``v2 = k - 1`` and the two halves replicate
``WSS^(k-1)`` at positions with unchanged valuation. The closed form is
what gives this implementation O(1) *time and space* per term — the paper
stores the sequence in a ``2^k`` array and separately proposes a
space-time tradeoff (build a high-order sequence from a stored low-order
one); both storage strategies are provided here for the E9 ablation.

Key properties (all unit/property-tested):

* value ``v`` (``1 <= v <= k``) occurs exactly ``2^(k-v)`` times in
  ``WSS^k``;
* occurrences of value ``v`` are *evenly spread*: consecutive positions
  of value ``v`` are exactly ``2^v`` apart;
* ``WSS^(k-1)`` is a prefix of ``WSS^k`` — a term's value does not
  depend on the order (see :func:`wss_term`);
* when SRR maps term value ``v`` to weight-matrix column ``order - v``,
  column ``j`` is visited exactly ``2^j`` times per round, hence a flow
  with weight ``w`` is served exactly ``w`` times per round.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from .errors import ConfigurationError

__all__ = [
    "wss_term",
    "wss_sequence",
    "wss_sequence_recursive",
    "iter_wss",
    "wss_length",
    "value_count",
    "value_positions",
    "WSSCursor",
    "MaterializedWSS",
    "FoldedWSS",
]


def _trailing_zeros(i: int) -> int:
    """Number of trailing zero bits of a positive integer (2-adic valuation)."""
    # (i & -i) isolates the lowest set bit; its bit_length-1 is the valuation.
    return (i & -i).bit_length() - 1


def wss_term(position: int) -> int:
    """Return the term of the WSS at 1-based ``position`` in O(1).

    The value is independent of the order ``k`` as long as
    ``1 <= position <= 2^k - 1`` (the prefix property), so the order is
    not a parameter.

    Raises:
        ConfigurationError: if ``position < 1``.
    """
    if position < 1:
        raise ConfigurationError(f"WSS positions are 1-based, got {position}")
    return _trailing_zeros(position) + 1


def wss_length(order: int) -> int:
    """Length of ``WSS^order`` (``2^order - 1``)."""
    _check_order(order)
    return (1 << order) - 1


def value_count(order: int, value: int) -> int:
    """Number of occurrences of ``value`` in ``WSS^order`` (``2^(order-value)``)."""
    _check_order(order)
    if not 1 <= value <= order:
        raise ConfigurationError(
            f"WSS^{order} contains values 1..{order}, got {value}"
        )
    return 1 << (order - value)


def value_positions(order: int, value: int) -> List[int]:
    """All 1-based positions of ``value`` in ``WSS^order``.

    Occurrences are at ``2^(value-1) * (2j + 1)`` for ``j >= 0`` — i.e.
    evenly spaced ``2^value`` apart starting at ``2^(value-1)``.
    """
    count = value_count(order, value)
    first = 1 << (value - 1)
    step = 1 << value
    return [first + j * step for j in range(count)]


def iter_wss(order: int) -> Iterator[int]:
    """Yield the terms of ``WSS^order`` once, in O(1) space."""
    _check_order(order)
    for i in range(1, (1 << order)):
        yield _trailing_zeros(i) + 1


#: Shared materialised sequences keyed by order. The sequence is a pure
#: function of the order, and every consumer (the E9 tables and
#: :func:`wss_sequence`) wants the same tables, so one process-wide copy
#: suffices. Entries are treated as immutable by all internal consumers;
#: bounded in practice by the order-26 materialisation cap below.
_SEQUENCE_CACHE: Dict[int, List[int]] = {}


def _materialized(order: int) -> List[int]:
    """The shared (do-not-mutate) materialised ``WSS^order``."""
    seq = _SEQUENCE_CACHE.get(order)
    if seq is None:
        _check_order(order)
        _SEQUENCE_CACHE[order] = seq = [
            _trailing_zeros(i) + 1 for i in range(1, 1 << order)
        ]
    return seq


def wss_sequence(order: int) -> List[int]:
    """Materialise ``WSS^order`` as a list (length ``2^order - 1``).

    Returns a fresh copy (callers may mutate); the underlying table is
    memoised per order, so repeated materialisations are a single
    C-level list copy.
    """
    return list(_materialized(order))


def wss_sequence_recursive(order: int) -> List[int]:
    """Materialise ``WSS^order`` by the paper's recursion (Eq. 7).

    Exists for cross-validation against the closed form; use
    :func:`wss_sequence` in real code.
    """
    _check_order(order)
    seq: List[int] = [1]
    for k in range(2, order + 1):
        seq = seq + [k] + seq
    return seq


def _check_order(order: int) -> None:
    if order < 1:
        raise ConfigurationError(f"WSS order must be >= 1, got {order}")
    if order > 62:
        # 2^order - 1 positions no longer fit comfortably in machine words.
        raise ConfigurationError(f"WSS order {order} is unreasonably large")


class WSSCursor:
    """A cyclic scanner over ``WSS^order`` computing terms in O(1).

    ``advance()`` moves to the next position (wrapping at ``2^order - 1``)
    and returns the term value. This is the closed-form strategy that E9
    times against the stored tables; SRR inlines the same closed form in
    its scan and never uses the cursor.

    The cursor never allocates: it is a pair of integers.
    """

    __slots__ = ("_order", "_length", "_position")

    def __init__(self, order: int) -> None:
        _check_order(order)
        self._order = order
        self._length = (1 << order) - 1
        self._position = 0  # "before the first term"

    @property
    def order(self) -> int:
        """Current sequence order."""
        return self._order

    @property
    def position(self) -> int:
        """1-based position of the most recently returned term (0 = none yet)."""
        return self._position

    def advance(self) -> int:
        """Move to the next position (cyclically) and return its term value."""
        pos = self._position + 1
        if pos > self._length:
            pos = 1
        self._position = pos
        return _trailing_zeros(pos) + 1

    def __repr__(self) -> str:
        return f"WSSCursor(order={self._order}, position={self._position})"


class MaterializedWSS:
    """The paper's storage strategy: the full ``2^order - 1`` term array.

    Term lookup is a single array read. Exists for the E9 space-time
    ablation; the closed form (:class:`WSSCursor`) is strictly better in
    Python but the *memory* numbers in E9 mirror the paper's discussion
    (a 32nd-order sequence would need a 4G-entry array).
    """

    __slots__ = ("order", "_seq")

    def __init__(self, order: int) -> None:
        _check_order(order)
        if order > 26:
            raise ConfigurationError(
                f"refusing to materialise WSS^{order} "
                f"({(1 << order) - 1} entries); use FoldedWSS or WSSCursor"
            )
        self.order = order
        self._seq = _materialized(order)

    def term(self, position: int) -> int:
        """Term at 1-based ``position``."""
        return self._seq[position - 1]

    def __len__(self) -> int:
        return len(self._seq)

    @property
    def storage_entries(self) -> int:
        """Number of stored entries (for the E9 space accounting)."""
        return len(self._seq)


class FoldedWSS:
    """The paper's space-time tradeoff: serve ``WSS^order`` from a stored
    ``WSS^stored_order`` plus one extra arithmetic step per lookup.

    Write a 1-based position ``i`` of ``WSS^order`` as
    ``i = q * 2^s + rem`` with ``s = stored_order``:

    * if ``rem != 0`` then ``v2(i) = v2(rem)``, so the term equals the
      stored ``WSS^s`` term at ``rem``;
    * if ``rem == 0`` then ``v2(i) = s + v2(q)``, so the term equals
      ``s`` plus the stored term at ``q`` (and ``q < 2^(order-s)`` always
      fits in the stored table when ``order <= 2 * s``).

    This reproduces the paper's example — a 32nd-order sequence served
    from a 17th-order table at the cost of one extra operation — while
    keeping exact equality with the direct definition (property-tested).
    """

    __slots__ = ("order", "stored_order", "_seq")

    def __init__(self, order: int, stored_order: int) -> None:
        _check_order(order)
        _check_order(stored_order)
        if stored_order >= order:
            raise ConfigurationError(
                "stored_order must be smaller than order "
                f"(got {stored_order} >= {order})"
            )
        if order > 2 * stored_order:
            raise ConfigurationError(
                f"WSS^{order} cannot be folded onto WSS^{stored_order}: "
                "need order <= 2 * stored_order"
            )
        self.order = order
        self.stored_order = stored_order
        self._seq = _materialized(stored_order)

    def term(self, position: int) -> int:
        """Term of ``WSS^order`` at 1-based ``position``, from the folded table."""
        if not 1 <= position <= (1 << self.order) - 1:
            raise ConfigurationError(
                f"position {position} outside WSS^{self.order}"
            )
        s = self.stored_order
        rem = position & ((1 << s) - 1)
        if rem:
            return self._seq[rem - 1]
        q = position >> s
        return s + self._seq[q - 1]

    @property
    def storage_entries(self) -> int:
        """Number of stored entries (for the E9 space accounting)."""
        return len(self._seq)

    def sequence(self) -> Sequence[int]:
        """Materialise the full folded sequence (testing helper; O(2^order))."""
        return [self.term(i) for i in range(1, (1 << self.order))]
