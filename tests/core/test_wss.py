"""Tests for the Weight Spread Sequence (repro.core.wss).

Covers the paper's Eq. 6-7 examples, the closed form, the even-spreading
property that underlies SRR's smoothness, and the space-time tradeoff
(FoldedWSS) the paper proposes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.wss import (
    FoldedWSS,
    MaterializedWSS,
    WSSCursor,
    iter_wss,
    value_count,
    value_positions,
    wss_length,
    wss_sequence,
    wss_sequence_recursive,
    wss_term,
)


class TestPaperExamples:
    def test_wss_1(self):
        assert wss_sequence(1) == [1]

    def test_wss_2(self):
        assert wss_sequence(2) == [1, 2, 1]

    def test_wss_3(self):
        assert wss_sequence(3) == [1, 2, 1, 3, 1, 2, 1]

    def test_wss_4_matches_paper_section_iii_c(self):
        # The paper's G-3 example spells WSS^4 out in full.
        assert wss_sequence(4) == [1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1]

    def test_length(self):
        for k in range(1, 12):
            assert wss_length(k) == 2**k - 1
            assert len(wss_sequence(k)) == 2**k - 1


class TestClosedForm:
    @pytest.mark.parametrize("order", range(1, 15))
    def test_matches_recursive_definition(self, order):
        assert wss_sequence(order) == wss_sequence_recursive(order)

    def test_term_is_order_independent_prefix_property(self):
        # WSS^(k-1) is a prefix of WSS^k, so term(i) needs no order.
        big = wss_sequence(10)
        small = wss_sequence(7)
        assert big[: len(small)] == small

    @given(st.integers(min_value=1, max_value=2**40))
    def test_term_equals_trailing_zeros_plus_one(self, i):
        expected = 1
        j = i
        while j % 2 == 0:
            expected += 1
            j //= 2
        assert wss_term(i) == expected

    def test_position_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            wss_term(0)

    def test_negative_position_rejected(self):
        with pytest.raises(ConfigurationError):
            wss_term(-5)


class TestDistributionProperties:
    @pytest.mark.parametrize("order", range(1, 13))
    def test_value_counts(self, order):
        """Value v occurs exactly 2^(order-v) times."""
        seq = wss_sequence(order)
        for v in range(1, order + 1):
            assert seq.count(v) == 2 ** (order - v) == value_count(order, v)

    @pytest.mark.parametrize("order", range(2, 13))
    def test_even_spreading(self, order):
        """Consecutive occurrences of value v are exactly 2^v apart.

        This is the property that makes SRR *smoothed*: each weight-matrix
        column is visited at perfectly regular intervals.
        """
        seq = wss_sequence(order)
        for v in range(1, order + 1):
            positions = [i + 1 for i, x in enumerate(seq) if x == v]
            assert positions == value_positions(order, v)
            gaps = {b - a for a, b in zip(positions, positions[1:])}
            assert gaps <= {2**v}
            # First occurrence is at 2^(v-1): mid-point of its spacing.
            assert positions[0] == 2 ** (v - 1)

    @pytest.mark.parametrize("order", range(1, 13))
    def test_column_visit_totals_equal_weight_service(self, order):
        """Sum over columns of (visits * column weight) = 2^order - 1.

        Column j = order - v is visited 2^j times and stands for weight
        2^j; one full round therefore serves exactly 2^order - 1 weight
        units — the maximum schedulable weight sum.
        """
        total = sum(2 ** (order - v) for v in range(1, order + 1))
        assert total == 2**order - 1

    def test_value_count_validation(self):
        with pytest.raises(ConfigurationError):
            value_count(4, 0)
        with pytest.raises(ConfigurationError):
            value_count(4, 5)


class TestIterator:
    def test_iter_matches_list(self):
        assert list(iter_wss(9)) == wss_sequence(9)

    def test_invalid_orders(self):
        with pytest.raises(ConfigurationError):
            list(iter_wss(0))
        with pytest.raises(ConfigurationError):
            wss_sequence(63)


class TestCursor:
    def test_cycles_through_sequence(self):
        cur = WSSCursor(3)
        seq = [cur.advance() for _ in range(7)]
        assert seq == wss_sequence(3)
        # Wraps around.
        assert [cur.advance() for _ in range(7)] == wss_sequence(3)

    def test_position_tracking(self):
        cur = WSSCursor(4)
        assert cur.position == 0
        cur.advance()
        assert cur.position == 1
        for _ in range(14):
            cur.advance()
        assert cur.position == 15
        cur.advance()
        assert cur.position == 1  # wrapped

    def test_order_property(self):
        cur = WSSCursor(6)
        assert cur.order == 6

    def test_invalid_order(self):
        with pytest.raises(ConfigurationError):
            WSSCursor(0)


class TestMaterialized:
    def test_matches_closed_form(self):
        m = MaterializedWSS(8)
        for i in range(1, 2**8):
            assert m.term(i) == wss_term(i)

    def test_len_and_storage(self):
        m = MaterializedWSS(6)
        assert len(m) == 63
        assert m.storage_entries == 63

    def test_refuses_huge_orders(self):
        with pytest.raises(ConfigurationError):
            MaterializedWSS(27)


class TestFolded:
    """The paper's space-time tradeoff (Section IV-B): serve a high-order
    sequence from a stored low-order table plus one extra operation."""

    @pytest.mark.parametrize("order,stored", [(8, 4), (8, 7), (10, 5), (13, 7)])
    def test_exact_equality_with_direct_sequence(self, order, stored):
        folded = FoldedWSS(order, stored)
        assert list(folded.sequence()) == wss_sequence(order)

    def test_storage_is_low_order(self):
        folded = FoldedWSS(16, 9)
        assert folded.storage_entries == 2**9 - 1

    def test_paper_example_32_from_17(self):
        # 32nd-order sequence from a 17th-order table: spot-check terms
        # without materialising 2^32 entries.
        folded = FoldedWSS(32, 17)
        assert folded.storage_entries == 2**17 - 1
        for position in [1, 2, 3, 2**16, 2**17, 2**17 + 1, 2**31, 2**32 - 1]:
            assert folded.term(position) == wss_term(position)

    @given(
        st.integers(min_value=2, max_value=20),
        st.data(),
    )
    @settings(max_examples=60)
    def test_random_positions_match(self, order, data):
        stored = data.draw(
            st.integers(min_value=(order + 1) // 2, max_value=order - 1)
        )
        position = data.draw(st.integers(min_value=1, max_value=2**order - 1))
        folded = FoldedWSS(order, stored)
        assert folded.term(position) == wss_term(position)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FoldedWSS(8, 8)  # stored must be smaller
        with pytest.raises(ConfigurationError):
            FoldedWSS(20, 5)  # order > 2 * stored
        folded = FoldedWSS(8, 5)
        with pytest.raises(ConfigurationError):
            folded.term(0)
        with pytest.raises(ConfigurationError):
            folded.term(2**8)
