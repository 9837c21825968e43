"""Simplex, partial simplex and k-partial simplex generator matrices.

All generators come out in one canonical column order: a column encodes a
pair (t, w) where t is the value of the top `k_top` rows (row 1 is the most
significant bit of t) and w is the value of the remaining rows (the first of
them is the LEAST significant bit of w).  Enumeration runs w from its
maximum down to 0 in the outer loop and t from its maximum down to 1 in the
inner loop.  For a full simplex (k_top = 0) the columns are the values
2^k - 1 down to 1 with row 1 the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2core import BitMatrix, guard_table, hstack, np, span_weights, xor_span


def _canonical_columns(k_top: int, bottom: int) -> BitMatrix:
    """Columns (t, w) with t != 0, in the canonical order described above."""
    dim = k_top + bottom
    rows = [0] * dim
    j = 0
    for w in range((1 << bottom) - 1, -1, -1):
        for t in range((1 << k_top) - 1, 0, -1):
            for i in range(k_top):  # row i holds bit k_top-1-i of t
                if (t >> (k_top - 1 - i)) & 1:
                    rows[i] |= 1 << j
            for i in range(bottom):  # row k_top+i holds bit i of w
                if (w >> i) & 1:
                    rows[k_top + i] |= 1 << j
            j += 1
    return BitMatrix(j, tuple(rows))


def simplex_generator(k: int) -> BitMatrix:
    """Generator of the simplex code S(k): all nonzero vectors as columns."""
    if k < 1:
        raise ValueError("simplex dimension must be >= 1")
    rows = [0] * k
    j = 0
    for v in range((1 << k) - 1, 0, -1):
        for i in range(k):
            if (v >> (k - 1 - i)) & 1:
                rows[i] |= 1 << j
        j += 1
    return BitMatrix(j, tuple(rows))


def partial_simplex(d: int) -> BitMatrix:
    """S(d)_1: the simplex generator restricted to columns with first entry 1."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _canonical_columns(1, d - 1)


def k_partial_simplex(k: int, delta: int) -> BitMatrix:
    """S(delta+k)_k: simplex columns whose top k entries are not all zero."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return _canonical_columns(k, delta)


def m_fold(m_mat: BitMatrix, m: int) -> BitMatrix:
    """Horizontal concatenation of m copies of a generator matrix."""
    if m < 1:
        raise ValueError("fold count must be >= 1")
    return hstack([m_mat] * m)


@dataclass(frozen=True)
class SimplexFamilySpec:
    """Parameters picking one member of the (partial) simplex family."""

    kind: str  # "full", "partial" or "k_partial"
    dim: int
    k_top: int
    fold: int = 1

    def __post_init__(self):
        if self.kind not in ("full", "partial", "k_partial"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.fold < 1 or self.dim < 1 or not 0 <= self.k_top <= self.dim:
            raise ValueError("invalid simplex family parameters")
        if self.kind == "full" and self.k_top != 0:
            raise ValueError("full simplex has no restricted top rows")
        if self.kind == "partial" and self.k_top != 1:
            raise ValueError("partial simplex restricts exactly one top row")

    @property
    def width(self) -> int:
        if self.kind == "full":
            base = (1 << self.dim) - 1
        else:
            base = (1 << self.dim) - (1 << (self.dim - self.k_top))
        return self.fold * base

    def generate(self) -> BitMatrix:
        if self.kind == "full":
            base = simplex_generator(self.dim)
        elif self.kind == "partial":
            base = partial_simplex(self.dim)
        else:
            base = k_partial_simplex(self.k_top, self.dim - self.k_top)
        return m_fold(base, self.fold) if self.fold > 1 else base


def min_weight_block_code(
    m_mat: BitMatrix, restrict_top_nonzero: int = 0
) -> int:
    """Minimum weight over nonzero messages, by exhaustion over 2^rows - 1.

    With restrict_top_nonzero = k_top > 0, only messages whose first k_top
    coordinates are not all zero are considered.  The 2^rows codewords are
    one XOR span, refused past the table guard before it is built.
    """
    nrows = m_mat.rows
    if nrows == 0:
        raise ValueError("empty matrix")
    guard_table(nrows, m_mat.cols, "block-code table")
    weights = span_weights(xor_span(m_mat.row_bits, m_mat.cols))
    top_mask = (1 << restrict_top_nonzero) - 1 or -1  # -1: any nonzero message
    return int(weights[(np.arange(1 << nrows) & top_mask) != 0].min())
