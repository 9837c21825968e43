"""Constructions of binary convolutional codes from partial simplex codes.

Every code is stacked from `simplex.canonical_stack`, the canonical columns
of a (k-)partial simplex repeated.  For rate 1/n, column j of the stack is
(1, ~j_0, ..., ~j_{delta-1}), with j_i bit i of j, so an (n, 1, delta) stack
costs O(n*delta).  Its first m*2^delta columns are the m-fold partial
simplex of the exact family, and the r leftover columns are the first r
canonical columns, which is what the nested-block search of the near-optimal
construction picks and what the residual tables hold for delta <= 2.  For
delta in {3, 4} and r a multiple of 4, the table-backed extension replaces
that last partial period by the optimal residual columns; at every other r
the canonical columns do at least as well on d_0..d_delta.  The k > 1
family is an m-fold k-partial simplex followed by greedily chosen canonical
columns.

This module also holds the reference tables of the paper, and in
`REFERENCE_TABLES` the computation that re-derives each one, which the
`reproduce` subcommand runs.
"""

from __future__ import annotations

from .convcode import (
    _CHUNK_BITS,
    ConvCode,
    DistanceProfile,
    distance_profile,
    free_distance,
    internal_degree,
    is_noncatastrophic,
)
from .gf2core import BitMatrix, guard_table, hstack, np, transpose
from .optsearch import search_optimal_row
from .simplex import canonical_stack, m_fold, partial_simplex

# ---------------------------------------------------------------------------
# Reference tables

# The eight optimal bottom rows over the 2-fold dimension-3 partial simplex,
# with the weight table wt^s (s = 1..7) they share, and the weight table
# wt^t (t = 1..15) of the dimension-5 search over the recursive dimension-4
# layout.
OPT_ROWS_D3 = (
    "00011110",
    "00101101",
    "01001011",
    "01111000",
    "10000111",
    "10110100",
    "11010010",
    "11100001",
)
WS3_EXPECTED = (0, 0, 0, 1, 1, 2, 3)
WT4_EXPECTED = (0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 4, 5, 6, 7)
# The delta = 2 residual case analysis: (profile d_0..d_5, limiting distance)
# for s = 2 with bottom entries (x, y), and for two s = 3 column choices.
DELTA2_S2_EXPECTED = {
    (0, 0): ((2, 3, 3, 3, 3, 3), 3),
    (0, 1): ((2, 3, 3, 3, 3, 3), 3),
    (1, 0): ((2, 3, 3, 4, 4, 4), 4),
    (1, 1): ((2, 3, 3, 4, 4, 5), 5),
}
DELTA2_S3_EXPECTED = {
    ("111", "101", "110"): ((3, 4, 5, 6, 7, 7), 7),  # optimal choice
    ("111", "100", "110"): ((3, 4, 5, 6, 6, 6), 6),
}


def _expand_d4(row: str) -> str:
    """The quarter-repeated dimension-5 row h1 h1 h2 h2 of a row h1 h2."""
    h1, h2 = row[:4], row[4:]
    return h1 + h1 + h2 + h2


# Canonical optimal residual row for delta=3 (one of the eight equivalent
# choices; the others are available through the search in `optsearch`), and
# the delta=4 row derived from its halves.
OPT_ROW_D3 = "11100001"
OPT_ROW_D4 = _expand_d4(OPT_ROW_D3)


def _residual_code_profile(rows, jmax=5):
    """Profile of a code stacked from 0/1 row strings (trailing zero
    coefficient rows trimmed), together with the limiting distance: the free
    distance when non-catastrophic, else the saturated column distance."""
    mu = max((i for i, r in enumerate(rows) if "1" in r), default=0)
    code = stack_to_code(BitMatrix.from_strings(rows[: mu + 1]), 1, mu)
    prof = distance_profile(code, max(jmax, 10))
    if is_noncatastrophic(code):
        limit = free_distance(code)
    else:
        limit = prof.values[-1]
    return prof.values[: jmax + 1], limit


def _quarter_repeated_optimal_rows(g3_row: str):
    """The optimal dimension-5 bottom rows over the recursive dimension-4
    layout of `g3_row` that are in quarter-repeated form h1 h1 h2 h2, the
    form that keeps the recursive column layout extendable, in ascending
    order.  The search ties on the whole weight profile; these rows must be
    exactly the expansions of the eight optimal dimension-3 rows."""
    res = search_optimal_row(recursive_partial_simplex_4(g3_row))
    rows = (v.to_string() for v in res.optimal_rows)
    return tuple(sorted(r for r in rows if r[0:4] == r[4:8] and r[8:12] == r[12:16]))


# The delta = 2 residual cases keyed by their (delta+1) rows.
_DELTA2_CASES = {
    ("11", "10", f"{x}{y}"): expected for (x, y), expected in DELTA2_S2_EXPECTED.items()
} | DELTA2_S3_EXPECTED

# `reproduce` table -> (recompute, expected): the table is reproduced when
# recompute() == expected.  opt-rows-d4 searches all 2^16 candidate rows at
# dimension 5 for each of the 8 optimal dimension-3 rows, 64 codes in total.
REFERENCE_TABLES = {
    "ws3": (
        lambda: search_optimal_row(m_fold(partial_simplex(3), 2)).profile[:7],
        WS3_EXPECTED,
    ),
    "wt4": (
        lambda: search_optimal_row(recursive_partial_simplex_4()).profile[:15],
        WT4_EXPECTED,
    ),
    "delta2-cases": (
        lambda: {rows: _residual_code_profile(rows) for rows in _DELTA2_CASES},
        _DELTA2_CASES,
    ),
    "opt-rows-d3": (
        lambda: tuple(sorted(
            v.to_string() for v in search_optimal_row(m_fold(partial_simplex(3), 2)).optimal_rows
        )),
        tuple(sorted(OPT_ROWS_D3)),
    ),
    "opt-rows-d4": (
        lambda: tuple(_quarter_repeated_optimal_rows(g3) for g3 in OPT_ROWS_D3),
        (tuple(sorted(_expand_d4(r) for r in OPT_ROWS_D3)),) * len(OPT_ROWS_D3),
    ),
}


def _check_parameters(n: int, k: int, delta: int) -> None:
    """Refuse, before any work, (n, k, delta) that no code has, and a stack
    of delta + k rows of n bits past the memory guard."""
    if n < 1 or k < 1 or delta < 0:
        raise ValueError("invalid parameters")
    if k > n:
        raise ValueError(f"need k <= n, got k={k} > n={n}")
    guard_table((delta + k - 1).bit_length(), n, "stack")


def stack_to_code(stack: BitMatrix, k: int, delta: int) -> ConvCode:
    """Slice a (delta+k)-row stacked matrix into coefficient matrices.

    G_0..G_{mu-1} take k rows each; the remaining delta+k-k*mu rows become
    the top of G_mu, whose last rows are padded with zeros.  A stack whose
    code has internal degree other than delta is refused.
    """
    _check_parameters(stack.cols, k, delta)
    if stack.rows != delta + k:
        raise ValueError("stacked matrix must have delta+k rows")
    rows = stack.row_bits + (0,) * (-(delta + k) % k)
    coeffs = [BitMatrix(stack.cols, rows[i : i + k]) for i in range(0, delta + k, k)]
    code = ConvCode(stack.cols, k, tuple(coeffs), delta)
    degree = internal_degree(code)
    if degree != delta:
        raise ValueError(
            f"chosen columns cannot realize degree {delta}: internal degree is {degree}"
        )
    return code


# ---------------------------------------------------------------------------
# Rate 1/n


def _rate_1_stack(n: int, delta: int, tables: bool) -> BitMatrix:
    """The (delta+1)-row stack of an (n, 1, delta) code in O(n*delta).

    Column j is the canonical column j mod 2^delta of S(delta+1)_1, that is
    (1, ~j_0, ..., ~j_{delta-1}): row i+1 repeats 2^i ones then 2^i zeros.
    With `tables` the last s = n mod 2^delta columns are the first s columns
    of the optimal residual stack instead; `construct` asks for that at
    delta in {3, 4} when s is a multiple of 4.  At every other s the
    canonical columns reach at least the same d_0..d_delta as the tabled
    ones, and more at s = 6 for delta = 3 and s in {5, 6, 10, 13, 14} for
    delta = 4; at s = 4, 8, 12 the tabled columns reach more.
    """
    rows = canonical_stack(1, delta, n).row_bits
    if tables:
        s = n % (1 << delta)
        base = n - s
        tail = (1 << s) - 1
        residual = _residual_stack(delta).row_bits
        rows = [
            (row & ((1 << base) - 1)) | ((res & tail) << base)
            for row, res in zip(rows, residual)
        ]
    return BitMatrix(n, tuple(rows))


def predicted_profile_rate_1_n(n: int, delta: int, jmax: int) -> DistanceProfile:
    """Closed-form profile n + min(j, delta)*n/2 with free distance n + delta*n/2."""
    if n < 1 or n % (1 << delta):
        raise ValueError(f"n={n} is not a positive multiple of 2^{delta}")
    values = tuple(n + min(j, delta) * (n // 2) for j in range(jmax + 1))
    return DistanceProfile(values, n + delta * (n // 2), "formula")


# ---------------------------------------------------------------------------
# Column extensions for 2^delta not dividing n (k = 1)


def _residual_stack(delta: int) -> BitMatrix:
    """Stacked (delta+1)-row matrix whose leading columns are the optimal
    residual choices for delta in {3, 4}."""
    if delta == 3:
        top = canonical_stack(1, 2, 8)  # the 2-fold dimension-3 partial simplex
        return BitMatrix(8, top.row_bits + BitMatrix.from_strings([OPT_ROW_D3]).row_bits)
    top = recursive_partial_simplex_4()
    return BitMatrix(16, top.row_bits + BitMatrix.from_strings([OPT_ROW_D4]).row_bits)


def recursive_partial_simplex_4(g3_row: str = OPT_ROW_D3) -> BitMatrix:
    """The dimension-4 partial simplex in its recursive column order:
    two copies of the 2-fold dimension-3 partial simplex over the
    dimension-3 bottom row `g3_row`, repeated."""
    top = canonical_stack(1, 2, 16)
    g3 = BitMatrix.from_strings([g3_row + g3_row])
    return BitMatrix(16, top.row_bits + g3.row_bits)


# ---------------------------------------------------------------------------
# Near-optimal general construction


def binary_decomposition(r: int):
    """Exponents a_1 > ... > a_b >= 1 with sum 2^(a_i - 1) = r."""
    if r < 0:
        raise ValueError("negative remainder")
    return tuple(
        i + 1 for i in range(r.bit_length() - 1, -1, -1) if (r >> i) & 1
    )


def near_optimal_bound_profile(n: int, delta: int, jmax: int) -> DistanceProfile:
    """The guaranteed per-j lower bounds for the near-optimal construction."""
    m = n >> delta
    n1 = m << delta
    exponents = binary_decomposition(n - n1)
    values = [n]
    for j in range(1, jmax + 1):
        incr = 0
        if j <= delta:
            incr = n1 // 2 + sum(1 << (a - 2) for a in exponents if a >= j + 1)
        values.append(values[-1] + incr)
    return DistanceProfile(tuple(values), None, "bound")


def construct_near_optimal(n: int, delta: int):
    """Near-optimal (n, 1, delta) code and its guaranteed lower-bound profile.

    The r = n mod 2^delta leftover columns form nested blocks, one per
    exponent a of r's binary decomposition, whose top a rows are the
    dimension-a partial simplex; they are the first r canonical columns.
    """
    _check_parameters(n, 1, delta)
    code = stack_to_code(_rate_1_stack(n, delta, tables=False), 1, delta)
    if n % (1 << delta) == 0:
        return code, predicted_profile_rate_1_n(n, delta, delta)
    return code, near_optimal_bound_profile(n, delta, delta)


# ---------------------------------------------------------------------------
# Dimension k > 1

# Largest k > 1 extension search `construct` takes on, counted as r extra
# columns * 2^delta*(2^k-1) candidates * 2^(delta+k) messages per trial;
# about a second of work.
EXTENSION_SEARCH_GUARD = 1 << 26


def predicted_profile_k_dim(n: int, k: int, delta: int, jmax: int) -> DistanceProfile:
    """Closed-form profile n*2^(k-1)/(2^k-1) + min(j, floor(delta/k))*n/2."""
    base = (1 << delta) * ((1 << k) - 1)
    if n < 1 or n % base:
        raise ValueError(f"n={n} is not a positive multiple of 2^{delta}*(2^{k}-1)")
    d0 = n * (1 << (k - 1)) // ((1 << k) - 1)
    cap = delta // k
    values = tuple(d0 + min(j, cap) * (n // 2) for j in range(jmax + 1))
    return DistanceProfile(values, None, "formula")


def _k_dim_stack(n: int, k: int, delta: int) -> BitMatrix:
    """The (delta+k)-row stack of an (n, k, delta) code: a k-partial simplex
    base plus greedily chosen extra canonical columns.

    Each extra column maximizes, in turn, the minimum weight of the block
    code generated by the residual columns chosen so far (ties go to the
    smallest canonical column index).  Optimal only up to this search rule.
    A search predicted to cost more than EXTENSION_SEARCH_GUARD is refused
    before it starts.
    """
    base_len = (1 << delta) * ((1 << k) - 1)
    r = n % base_len
    if r == 0:
        return canonical_stack(k, delta, n)
    cost = (r * base_len) << (delta + k)
    if cost > EXTENSION_SEARCH_GUARD:
        raise ValueError(
            f"extension search of {cost} candidate messages exceeds the guard"
        )
    msg_type = np.min_scalar_type((1 << (delta + k)) - 1)
    messages = np.arange(1, 1 << (delta + k), dtype=msg_type)
    # canonical column j, with row i at bit i
    pool = np.array(transpose(canonical_stack(k, delta, base_len).row_bits, base_len), msg_type)
    free = np.ones(len(pool), dtype=bool)
    # weight[u]: weight of message u's codeword on the columns chosen so far
    weight = np.zeros(len(messages), dtype=np.min_scalar_type(r))
    piece = max(1, (1 << _CHUNK_BITS) // len(messages))  # candidates scored at once
    chosen = []
    for _ in range(r):
        cands = np.flatnonzero(free)
        score = np.concatenate([
            (weight[:, None] + (np.bitwise_count(messages[:, None] & pool[part]) & 1)).min(axis=0)
            for part in np.split(cands, range(piece, len(cands), piece))
        ])
        best = cands[np.argmax(score)]  # ties go to the smallest index
        free[best] = False
        weight += np.bitwise_count(messages & pool[best]) & 1
        chosen.append(int(pool[best]))
    ext = BitMatrix(r, tuple(transpose(chosen, delta + k)))
    return hstack([canonical_stack(k, delta, n - r), ext])


# ---------------------------------------------------------------------------
# Dispatcher


def construct(n: int, k: int, delta: int):
    """Build an (n, k, delta) code, returning it with a provenance string.

    This is the package's one builder.  A rate-1/n code is the m-fold
    partial simplex followed by the first r = n mod 2^delta canonical
    columns, or for delta in {3, 4} and r a multiple of 4 by the tabled
    optimal residual columns; a k > 1 code is the stack of `_k_dim_stack`.
    The provenance names the columns used: the delta <= 2 tables are
    canonical columns."""
    _check_parameters(n, k, delta)
    r = n % ((1 << delta) * ((1 << k) - 1))
    if k > 1:
        stack = _k_dim_stack(n, k, delta)
        provenance = "k-dim search extension" if r else "k-dim exact"
    else:
        tabled = delta in (3, 4) and r in (4, 8, 12)
        stack = _rate_1_stack(n, delta, tables=tabled)
        if r == 0:
            provenance = "rate-1/n exact"
        elif delta <= 2 or tabled:
            provenance = f"table-backed extension, s={r}"
        else:
            provenance = "near-optimal"
    return stack_to_code(stack, k, delta), provenance
