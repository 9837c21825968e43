"""Constructions of binary convolutional codes from partial simplex codes.

Every (n, k, delta) stack is the canonical columns of its m full periods,
the m-fold k-partial simplex of `simplex.canonical_stack`, followed by
r = n mod 2^delta*(2^k - 1) residual columns from exactly one source:
the table `_RESIDUALS`, keyed by (delta, r), for k = 1; the greedy column
search of `_k_dim_stack` for k > 1; otherwise the first r canonical
columns, so that the whole stack is canonical.  For rate 1/n, column j of
the canonical stack is (1, ~j_0, ..., ~j_{delta-1}), with j_i bit i of j,
so an (n, 1, delta) stack costs O(n*delta), and its first r columns are
what the nested-block search of the paper's near-optimal construction
picks.

This module also holds the reference tables of the paper, and in
`REFERENCE_TABLES` the computation that re-derives each one, which the
`reproduce` subcommand runs.
"""

from __future__ import annotations

from .convcode import (
    STEP_WORK_GUARD,
    ConvCode,
    DistanceProfile,
    _internal_degree,
    _stacked_code,
    distance_profile,
    free_distance,
    is_noncatastrophic,
)
from .gf2core import BitMatrix, guard_table, hstack, np, table_bits, xor_span
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
# choices; the others are available through the search in `optsearch`).
OPT_ROW_D3 = "11100001"

# The residual columns of an (n, 1, delta) code, keyed by (delta, s) for
# s = n mod 2^delta, as the rows G_0..G_delta of the s columns.  At
# delta <= 2 they are the canonical columns, the optimal choices of the
# delta = 2 case analysis.  (4, 8) and (4, 12) are the first s columns of
# the recursive dimension-4 partial simplex over OPT_ROW_D3 with the row
# _expand_d4(OPT_ROW_D3) below it, and (3, 4) those of the 2-fold
# dimension-3 partial simplex over OPT_ROW_D3.  The first 4 columns of the
# dimension-4 stack fall one short of the optimal d_4, so (4, 4) is instead
# the first achiever of optimal_codes_bruteforce(4, 1, 4, 9).  At every
# other s the canonical columns reach at least as much on d_0..d_delta as
# a prefix of those stacks.
_RESIDUALS = {
    (1, 1): ("1", "1"),
    (2, 1): ("1", "1", "1"),
    (2, 2): ("11", "10", "11"),
    (2, 3): ("111", "101", "110"),
    (3, 4): ("1111", "1010", "1100", "1110"),
    (4, 4): ("1111", "0101", "0011", "1011", "0111"),
    (4, 8): ("11111111", "10101010", "11001100", "11100001", "11101110"),
    (4, 12): (
        "111111111111", "101010101010", "110011001100", "111000011110", "111011100001",
    ),
}


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
# recompute() == expected.  opt-rows-d4 searches the 2^16 candidate rows at
# dimension 5, extending only the surviving best prefixes bit by bit, for
# each of the 8 optimal dimension-3 rows, 64 codes in total.
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
    past the memory guard.  Packing G(z) adds each of the delta + k stacked
    rows, shifted, into a row of ceil(delta/k) + 1 blocks of n bits, one
    block per coefficient matrix, so the stack is priced as delta + k rows
    of that width: the packing time grows as delta^2, and the coefficient
    matrices take memory in proportion to delta/k + 1."""
    if n < 1 or k < 1 or delta < 0:
        raise ValueError("invalid parameters")
    if k > n:
        raise ValueError(f"need k <= n, got k={k} > n={n}")
    guard_table((delta + k - 1).bit_length(), (-(-delta // k) + 1) * n, "stack")


def stack_to_code(stack: BitMatrix, k: int, delta: int) -> ConvCode:
    """The code of a (delta+k)-row stacked matrix: row i*k + r is row r of
    G_i, as `convcode._stacked_code` lays it out.  A stack whose code has
    internal degree other than delta is refused.
    """
    _check_parameters(stack.cols, k, delta)
    if stack.rows != delta + k:
        raise ValueError("stacked matrix must have delta+k rows")
    degree = _internal_degree(stack.row_bits, stack.cols, k)
    if degree != delta:
        why = "G(z) has rank below k" if degree is None else f"internal degree is {degree}"
        raise ValueError(f"chosen columns cannot realize degree {delta}: {why}")
    return _stacked_code(stack.row_bits, stack.cols, k, delta)


# ---------------------------------------------------------------------------
# Rate 1/n


def predicted_profile_rate_1_n(n: int, delta: int, jmax: int) -> DistanceProfile:
    """The k = 1 case of `predicted_profile_k_dim`, n + min(j, delta)*n/2,
    with free distance n + delta*n/2."""
    values = predicted_profile_k_dim(n, 1, delta, jmax).values
    return DistanceProfile(values, n + delta * (n // 2), "formula")


def recursive_partial_simplex_4(g3_row: str = OPT_ROW_D3) -> BitMatrix:
    """The dimension-4 partial simplex in its recursive column order:
    two copies of the 2-fold dimension-3 partial simplex over the
    dimension-3 bottom row `g3_row`, repeated."""
    top = canonical_stack(1, 2, 16)
    g3 = BitMatrix.from_strings([g3_row + g3_row])
    return BitMatrix(16, top.row_bits + g3.row_bits)


# ---------------------------------------------------------------------------
# Near-optimal bound (k = 1, 2^delta not dividing n)


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


# ---------------------------------------------------------------------------
# Dimension k > 1

def predicted_profile_k_dim(n: int, k: int, delta: int, jmax: int) -> DistanceProfile:
    """Closed-form profile n*2^(k-1)/(2^k-1) + min(j, floor(delta/k))*n/2."""
    base = (1 << delta) * ((1 << k) - 1)
    if n < 1 or n % base:
        raise ValueError(f"n={n} is not a positive multiple of 2^{delta}*(2^{k}-1)")
    d0 = n * (1 << (k - 1)) // ((1 << k) - 1)
    cap = delta // k
    values = tuple([d0 + min(j, cap) * (n // 2) for j in range(jmax + 1)])
    return DistanceProfile(values, None, "formula")


def _k_dim_stack(r: int, k: int, delta: int) -> BitMatrix:
    """The r residual columns, 0 < r < 2^delta*(2^k-1), of an (n, k, delta)
    code past its full periods, chosen greedily from the canonical columns.

    Each column maximizes, in turn, the minimum weight of the block code
    generated by the residual columns chosen so far (ties go to the
    smallest canonical column index).  One more column raises that minimum
    by at most one, and exactly when every lightest codeword is 1 on it, so
    each step takes the first free column in the AND of the lightest
    codewords, else the first free column.  Optimal only up to this search
    rule.  Before anything is built, the span is priced by the table guard
    and the r steps, r times its words, by STEP_WORK_GUARD: a step ANDs at
    most every word of the span, and the first step ANDs all of them.
    """
    base_len = (1 << delta) * ((1 << k) - 1)
    guard_table(delta + k, base_len, "extension span")
    bits = table_bits(delta + k, base_len)
    if r << bits > STEP_WORK_GUARD:
        raise ValueError(
            f"k-dim extension: {r} steps over a 2^{bits}-word span exceed the step guard"
        )
    stack = canonical_stack(k, delta, base_len)
    # span[u - 1]: the codeword of message u on every canonical column
    span = xor_span(stack.row_bits, base_len)[1:]
    # weight[u - 1]: its weight on the columns chosen so far
    weight = np.zeros(len(span), dtype=np.min_scalar_type(r))
    free = (1 << base_len) - 1
    chosen = []
    for _ in range(r):
        lightest = np.bitwise_and.reduce(span, axis=0, where=(weight == weight.min())[:, None])
        cands = int.from_bytes(lightest.astype("<u8").tobytes(), "little") & free or free
        best = (cands & -cands).bit_length() - 1
        free ^= 1 << best
        weight += (span[:, best >> 6] >> (best & 63)) & 1
        chosen.append(best)
    # residual row i: bit t is row i of the canonical column chosen t-th
    return BitMatrix(r, tuple(
        sum((row >> b & 1) << t for t, b in enumerate(chosen)) for row in stack.row_bits
    ))


# ---------------------------------------------------------------------------
# Dispatcher


def construct(n: int, k: int, delta: int):
    """Build an (n, k, delta) code, returning it with a provenance string.

    This is the package's one builder.  The stack is the canonical columns
    of the m full periods followed by r = n mod 2^delta*(2^k - 1) residual
    columns: the tabled ones for k = 1, the greedy search's for k > 1, and
    otherwise the first r canonical columns, which continue the canonical
    stack.  The provenance names the source of the residual columns."""
    _check_parameters(n, k, delta)
    r = n % ((1 << delta) * ((1 << k) - 1))
    residual = None
    if k == 1 and (delta, r) in _RESIDUALS:
        residual = BitMatrix.from_strings(_RESIDUALS[delta, r])
        provenance = f"table-backed extension, s={r}"
    elif k > 1 and r:
        residual = _k_dim_stack(r, k, delta)
        provenance = "k-dim search extension"
    elif r:
        provenance = "near-optimal"
    else:
        provenance = "rate-1/n exact" if k == 1 else "k-dim exact"
    if residual is None:
        stack = canonical_stack(k, delta, n)
    else:
        stack = hstack([canonical_stack(k, delta, n - r), residual])
    return stack_to_code(stack, k, delta), provenance
