import pytest

from convdist.gf2core import BitMatrix
from convdist.optsearch import wt_profile
from convdist.simplex import (
    canonical_stack,
    k_partial_simplex,
    m_fold,
    partial_simplex,
    simplex_generator,
)


def canonical_columns(k_top, bottom):
    """The columns (t, w) with t != 0, in the order the module docstring
    states: w from its maximum down to 0, and within each w, t from its
    maximum down to 1.  Row i < k_top holds bit k_top-1-i of t, and row
    k_top+i holds bit i of w."""
    columns = []
    for w in range((1 << bottom) - 1, -1, -1):
        for t in range((1 << k_top) - 1, 0, -1):
            top = [(t >> (k_top - 1 - i)) & 1 for i in range(k_top)]
            columns.append(top + [(w >> i) & 1 for i in range(bottom)])
    return columns


class TestCanonicalMatrices:
    def test_full_simplex_2(self):
        assert simplex_generator(2).row_strings() == ["110", "101"]

    def test_full_simplex_3(self):
        assert simplex_generator(3).row_strings() == [
            "1111000",
            "1100110",
            "1010101",
        ]

    def test_partial_simplex_2(self):
        assert partial_simplex(2).row_strings() == ["11", "10"]

    def test_partial_simplex_3(self):
        assert partial_simplex(3).row_strings() == ["1111", "1010", "1100"]

    def test_k_partial_simplex_2_2(self):
        assert k_partial_simplex(2, 2).row_strings() == [
            "110110110110",
            "101101101101",
            "111000111000",
            "111111000000",
        ]

    def test_k_partial_reduces_to_partial(self):
        assert k_partial_simplex(1, 3).row_strings() == partial_simplex(4).row_strings()

    def test_widths(self):
        assert simplex_generator(4).cols == 15
        assert partial_simplex(4).cols == 8
        assert k_partial_simplex(3, 2).cols == (1 << 5) - (1 << 2)

    def test_m_fold(self):
        assert m_fold(partial_simplex(2), 3).row_strings() == ["111111", "101010"]
        with pytest.raises(ValueError):
            m_fold(partial_simplex(2), 0)


class TestCanonicalStack:
    @pytest.mark.parametrize("k_top", range(1, 6))
    def test_matches_the_documented_order(self, k_top):
        # every n from one column to three periods plus a partial fourth
        for bottom in range(7):
            columns = canonical_columns(k_top, bottom)
            period = len(columns)
            assert period == ((1 << k_top) - 1) << bottom
            longest = 3 * period + period // 2 + 1
            rows = [
                sum(columns[j % period][i] << j for j in range(longest))
                for i in range(k_top + bottom)
            ]
            for n in range(1, longest + 1):
                expected = tuple(row & ((1 << n) - 1) for row in rows)
                assert canonical_stack(k_top, bottom, n) == BitMatrix(n, expected), (
                    k_top, bottom, n
                )

    def test_generators_are_one_period(self):
        for k in range(1, 6):
            assert simplex_generator(k) == canonical_stack(k, 0, (1 << k) - 1)
            for delta in range(5):
                period = ((1 << k) - 1) << delta
                assert k_partial_simplex(k, delta) == canonical_stack(k, delta, period)

    def test_deep_bottom_with_few_columns(self):
        # rows of 2^i ones are never built wider than n
        rows = canonical_stack(1, 200, 3).row_strings()
        assert rows == ["111", "101", "110"] + ["111"] * 198

    def test_invalid(self):
        assert canonical_stack(2, 1, 0).cols == 0
        for args in [(0, 1, 4), (1, -1, 4), (1, 1, -1)]:
            with pytest.raises(ValueError):
                canonical_stack(*args)


class TestMinWeight:
    def test_simplex_is_constant_weight(self):
        for k in range(1, 6):
            m = simplex_generator(k)
            assert wt_profile(m, [m.cols])[0] == 1 << (k - 1)

    def test_guard(self):
        with pytest.raises(ValueError):
            wt_profile(BitMatrix.zeros(31, 2), [2])
