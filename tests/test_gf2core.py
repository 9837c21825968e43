import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convdist
from convdist.gf2core import (
    BitMatrix,
    BitVec,
    echelon,
    hstack,
    rank,
    span_weights,
    vstack,
    xor_span,
)
from convdist.optsearch import _stacked_rows, wt_profile
from poly_oracle import (
    POLY_ONE, POLY_ZERO, Poly2, PolyMatrix, k_minors, poly_gcd, transpose, vec_mat_mul,
)


class TestBitVec:
    def test_string_round_trip(self):
        v = BitVec.from_bits([1, 0, 1, 1, 0])
        assert v.n == 5
        assert v.bits == 0b01101
        assert v.to_string() == "10110"
        with pytest.raises(ValueError):
            BitVec.from_bits([1, 2])

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            BitVec(2, 0b100)


class TestBitMatrix:
    def test_round_trip_and_entries(self):
        m = BitMatrix.from_strings(["101", "011"])
        assert m.rows == 2 and m.cols == 3
        assert m.row_strings() == ["101", "011"]
        assert m.entry(0, 0) == 1 and m.entry(1, 0) == 0
        assert m.column(2).to_string() == "11"

    def test_vec_mat_mul(self):
        m = BitMatrix.from_strings(["1100", "0110", "0011"])
        assert vec_mat_mul(0b101, m) == 0b1111

    def test_rank(self):
        assert rank(BitMatrix.from_strings(["110", "011", "101"])) == 2
        assert rank(BitMatrix.from_strings(["100", "010", "001"])) == 3
        assert rank(BitMatrix.zeros(3, 4)) == 0

    def test_string_codec_round_trip(self):
        rng = random.Random(9)
        for rows, cols in [(1, 0), (3, 0), (1, 1), (2, 65), (4, 130), (5, 7)]:
            strings = ["".join(rng.choice("01") for _ in range(cols)) for _ in range(rows)]
            m = BitMatrix.from_strings(strings)
            assert (m.rows, m.cols) == (rows, cols)
            assert m.row_strings() == strings
            assert [BitVec(cols, r).to_string() for r in m.row_bits] == strings
            # column 0 is the first character, and the least significant bit
            assert all(m.entry(i, 0) == int(r[0]) for i, r in enumerate(strings) if cols)
        for bad in (["10", "1x"], ["1_0"], [" 10"], ["+1"], ["0b1"], ["12"]):
            with pytest.raises(ValueError, match="non-binary"):
                BitMatrix.from_strings(bad)
        with pytest.raises(ValueError, match="ragged"):
            BitMatrix.from_strings(["101", "10"])
        with pytest.raises(ValueError, match="empty"):
            BitMatrix.from_strings([])

    def test_stacking(self):
        a = BitMatrix.from_strings(["11", "00"])
        b = BitMatrix.from_strings(["01", "10"])
        assert hstack([a, b]).row_strings() == ["1101", "0010"]
        assert vstack([a, b]).row_strings() == ["11", "00", "01", "10"]
        with pytest.raises(ValueError):
            hstack([a, BitMatrix.from_strings(["1"])])


@st.composite
def matrices(draw):
    """A random rows x cols matrix, with width 0, one row and more than 64
    columns among the shapes."""
    rows = draw(st.integers(0, 9))
    cols = draw(st.sampled_from([0, 1, 2, 7, 63, 64, 65, 130]))
    return BitMatrix(cols, tuple(draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_transpose_gives_the_columns(m):
    columns = transpose(m.row_bits, m.cols)
    assert len(columns) == m.cols
    assert columns == [m.column(j).bits for j in range(m.cols)]
    assert transpose(columns, m.rows) == list(m.row_bits)


def test_transpose_bit_order():
    # row i lands at bit i of every column, column j is bit j of every row
    assert transpose([0b001, 0b110], 3) == [0b01, 0b10, 0b10]
    assert transpose([0b1], 1) == [1]
    assert transpose([], 3) == [0, 0, 0]
    assert transpose([0, 0], 0) == []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_echelon_and_rank(m):
    rows = m.row_bits
    entries = echelon(rows)
    assert len(entries) == len(rows)
    # the rank counts the pivots, and 2^rank codewords span the rows
    assert 2 ** rank(m) == len(np.unique(xor_span(rows, m.cols), axis=0))
    assert rank(m) == sum(1 for low, _, _ in entries if low)
    for i, (low, v, mask) in enumerate(entries):
        # v is the sum of the rows at mask, row i among them and no later row
        assert mask >> i == 1
        selected = 0
        for t, row in enumerate(rows):
            if mask >> t & 1:
                selected ^= row
        assert selected == v
        assert low == v & -v
        if not low:
            assert v == 0  # a zero entry's mask selects rows that XOR to zero
    lows = [low for low, _, _ in entries if low]
    assert len(set(lows)) == len(lows)


def test_echelon_entries():
    # row 2 = row 0 + row 1; row 1 is reduced by row 0's pivot, bit 0
    assert echelon([0b011, 0b101, 0b110]) == [(1, 0b011, 0b001), (2, 0b110, 0b011), (0, 0, 0b111)]
    assert echelon([0, 0b10]) == [(0, 0, 0b01), (2, 0b10, 0b10)]
    assert echelon([]) == []


class TestPoly2:
    def test_degree(self):
        assert POLY_ZERO.degree is None
        assert POLY_ONE.degree == 0
        assert Poly2(0b110).degree == 2

    def test_mul(self):
        # (1+z)(1+z) = 1+z^2 over GF(2)
        a = Poly2(0b11)
        assert (a * a).bits == 0b101
        assert (a * POLY_ZERO).bits == 0

    def test_divmod(self):
        q, r = divmod(Poly2(0b101), Poly2(0b11))
        assert q.bits == 0b11 and r.bits == 0
        with pytest.raises(ZeroDivisionError):
            divmod(POLY_ONE, POLY_ZERO)

    def test_gcd(self):
        # gcd(1+z^2, 1+z) = 1+z
        assert poly_gcd(Poly2(0b101), Poly2(0b11)).bits == 0b11
        # coprime pair
        assert poly_gcd(Poly2(0b111), Poly2(0b11)).bits == 1
        with pytest.raises(ValueError):
            poly_gcd(POLY_ZERO, POLY_ZERO)


class TestPolyMatrix:
    def test_coeff_round_trip(self):
        coeffs = [
            BitMatrix.from_strings(["11", "01"]),
            BitMatrix.from_strings(["10", "00"]),
            BitMatrix.from_strings(["01", "10"]),
        ]
        g = PolyMatrix.from_coeffs(coeffs)
        assert g.max_degree() == 2
        back = g.to_coeffs()
        assert [m.row_strings() for m in back] == [m.row_strings() for m in coeffs]

    def test_k_minors(self):
        # rows (1, z), (z, 1): single 2x2 minor is 1 + z^2
        g = PolyMatrix(2, 2, ((Poly2(1), Poly2(2)), (Poly2(2), Poly2(1))))
        (m,) = k_minors(g)
        assert m.bits == 0b101

    def test_k_minors_column_subsets(self):
        # 1 x 3 matrix: minors are just the entries, in column order
        g = PolyMatrix(1, 3, ((Poly2(1), Poly2(0b10), Poly2(0b11)),))
        assert [m.bits for m in k_minors(g)] == [1, 0b10, 0b11]
        with pytest.raises(ValueError):
            k_minors(PolyMatrix(2, 1, ((Poly2(1),), (Poly2(1),))))


class TestXorSpan:
    def test_batched_span_is_one_span_per_entry(self):
        rng = random.Random(5)
        rows = [[rng.getrandbits(40) for _ in range(4)] for _ in range(3)]
        span = xor_span(np.array(rows, dtype=np.int64).T, 40)
        assert span.shape == (16, 3, 1)
        for b, batch_rows in enumerate(rows):
            expected = [0] * 16
            for u in range(16):
                for i, row in enumerate(batch_rows):
                    if u >> i & 1:
                        expected[u] ^= row
            assert span[:, b, 0].tolist() == expected

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64])
    def test_batched_span_takes_the_narrowest_words(self, n):
        rng = random.Random(n)
        # the top bit in every set, so that a word one type too narrow loses it
        rows = [[rng.getrandbits(n) for _ in range(4)] + [1 << (n - 1)] for _ in range(3)]
        span = xor_span(np.array(rows, dtype=np.uint64).T, n)
        assert span.dtype == np.min_scalar_type((1 << n) - 1)
        for b, batch_rows in enumerate(rows):
            want = span_weights(xor_span(batch_rows, n))
            assert span_weights(span[:, b]).tolist() == want.tolist()

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_block_code_weights_at_word_boundaries(self, n):
        rng = random.Random(n)
        # a lone top bit makes the minimum 1, whichever word it lands in
        rows = [rng.getrandbits(n) for _ in range(5)] + [1 << (n - 1), (1 << n) - 1]
        m = BitMatrix(n, tuple(rows))
        words = [vec_mat_mul(u, m) for u in range(1 << m.rows)]
        widths = range(1, n + 1)
        expected = tuple(
            min((w & ((1 << s) - 1)).bit_count() for w in words[1:]) for s in widths
        )
        assert wt_profile(m, widths) == expected
        assert expected[-1] == 1

    def test_bit_63_has_weight_one(self):
        assert span_weights(xor_span([1 << 63], 64)).tolist() == [0, 1]
        batch = np.array([[1 << 63], [1]], dtype=np.uint64)
        assert span_weights(xor_span(batch, 64)).tolist() == [[0], [1], [1], [2]]
        # columns 0 and 63 both switched on by window bit 0
        tubes = np.array([[1] + [0] * 62 + [1]])
        assert span_weights(xor_span(_stacked_rows(tubes, 1).T, 64)).tolist() == [[0], [2]]


class TestLazyNumpy:
    """numpy is bound once, in gf2core, and loads on its first use."""

    @staticmethod
    def run_fresh(script):
        src = os.path.dirname(os.path.dirname(convdist.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split()

    def test_integer_paths_never_load_numpy(self, tmp_path):
        path = str(tmp_path / "c.txt")
        out = self.run_fresh(f"""
            import sys
            def loaded():
                print("numpy._core" in sys.modules)
            import convdist
            loaded()
            from convdist.cli import main
            loaded()
            assert main(["construct", "9", "1", "2", "--out", {path!r}, "--quiet"]) == 0
            loaded()
            assert main(["check", {path!r}, "--quiet"]) == 0
            loaded()
            # a numeric path does load it, so the probe can tell
            assert main(["profile", {path!r}, "--quiet"]) == 0
            loaded()
        """)
        assert out == ["False"] * 4 + ["True"]

    def test_numpy_works_whichever_is_imported_first(self):
        out = self.run_fresh("""
            import convdist
            import numpy
            print(numpy.zeros(2).sum() == 0)
        """)
        assert out == ["True"]
        out = self.run_fresh("""
            import sys
            import numpy
            from convdist.gf2core import np
            print(np is numpy, type(np) is type(sys))
        """)
        assert out == ["True", "True"]
