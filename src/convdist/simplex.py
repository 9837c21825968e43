"""Simplex, partial simplex and k-partial simplex generator matrices.

All generators come out in one canonical column order: a column encodes a
pair (t, w) where t is the value of the top `k_top` rows (row 1 is the most
significant bit of t) and w is the value of the remaining rows (the first of
them is the LEAST significant bit of w).  Enumeration runs w from its
maximum down to 0 in the outer loop and t from its maximum down to 1 in the
inner loop.  For a full simplex the top rows are all k rows, so the columns
are the values 2^k - 1 down to 1 with row 1 the most significant bit.

One closed form, `canonical_stack`, builds every generator and every m-fold
stack of them.  With T = 2^k_top - 1, inner column b holds t = T - b, the
bits of b inverted, so top row i is 2^(k_top-1-i) ones then as many zeros,
cut to T columns; bottom row i is 2^i*T ones then 2^i*T zeros.  Each row's
pattern is doubled until it is n bits wide.
"""

from __future__ import annotations

from .gf2core import BitMatrix, hstack


def _repeat(pattern: int, width: int, n: int) -> int:
    """The first n bits of the `width`-bit `pattern` repeated, in
    O(log(n/width)) doublings."""
    while width < n:
        pattern |= pattern << width
        width *= 2
    return pattern & ((1 << n) - 1)


def _square_wave(h: int, n: int) -> int:
    """n bits of h ones then h zeros, repeated."""
    return _repeat((1 << min(h, n)) - 1, 2 * h, n)


def canonical_stack(k_top: int, bottom: int, n: int) -> BitMatrix:
    """The first n columns of S(k_top+bottom)_{k_top} in canonical order,
    repeated with period (2^k_top - 1)*2^bottom."""
    if k_top < 1 or bottom < 0 or n < 0:
        raise ValueError("need k_top >= 1, bottom >= 0 and n >= 0")
    t = (1 << k_top) - 1
    top = [
        _repeat(_square_wave(1 << (k_top - 1 - i), min(t, n)), t, n)
        for i in range(k_top)
    ]
    # a half-period h >= n gives n ones, so no shift needs more than n's bits
    cap = n.bit_length()
    return BitMatrix(n, tuple(top + [_square_wave(t << min(i, cap), n) for i in range(bottom)]))


def simplex_generator(k: int) -> BitMatrix:
    """Generator of the simplex code S(k): all nonzero vectors as columns."""
    if k < 1:
        raise ValueError("simplex dimension must be >= 1")
    return canonical_stack(k, 0, (1 << k) - 1)


def partial_simplex(d: int) -> BitMatrix:
    """S(d)_1: the simplex generator restricted to columns with first entry 1."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return canonical_stack(1, d - 1, 1 << (d - 1))


def k_partial_simplex(k: int, delta: int) -> BitMatrix:
    """S(delta+k)_k: simplex columns whose top k entries are not all zero."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return canonical_stack(k, delta, ((1 << k) - 1) << delta)


def m_fold(m_mat: BitMatrix, m: int) -> BitMatrix:
    """Horizontal concatenation of m copies of a generator matrix."""
    if m < 1:
        raise ValueError("fold count must be >= 1")
    return hstack([m_mat] * m)
