"""Constructions of binary convolutional codes from partial simplex codes.

Every code is stacked from `simplex.canonical_stack`, the canonical columns
of a (k-)partial simplex repeated.  For rate 1/n, column j of the stack is
(1, ~j_0, ..., ~j_{delta-1}), with j_i bit i of j, so an (n, 1, delta) stack
costs O(n*delta).  Its first m*2^delta columns are the m-fold partial
simplex of the exact family, and the r leftover columns are the first r
canonical columns, which is what the nested-block search of the near-optimal
construction picks and what the residual tables hold for delta <= 2.  For
delta in {3, 4} the table-backed extension replaces that last partial period
by the optimal residual columns.  The k > 1 family is an m-fold k-partial
simplex followed by greedily chosen canonical columns.

This module also holds the reference tables of the paper that the
`reproduce` subcommand and the acceptance tests check.
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
from .gf2core import BitMatrix, hstack, np
from .simplex import canonical_stack

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
    row_bits = [BitMatrix.from_strings([r]).row_bits[0] for r in rows]
    while len(row_bits) > 1 and row_bits[-1] == 0:
        row_bits.pop()
    n = len(rows[0])
    coeffs = tuple(BitMatrix(n, (rb,)) for rb in row_bits)
    code = ConvCode(n, 1, coeffs, len(row_bits) - 1)
    prof = distance_profile(code, max(jmax, 10))
    if is_noncatastrophic(code):
        limit = free_distance(code)
    else:
        limit = prof.values[-1]
    return prof.values[: jmax + 1], limit


def _check_parameters(n: int, k: int, delta: int) -> None:
    """Refuse (n, k, delta) that no code has, before any work."""
    if n < 1 or k < 1 or delta < 0:
        raise ValueError("invalid parameters")
    if k > n:
        raise ValueError(f"need k <= n, got k={k} > n={n}")


def stack_to_code(stack: BitMatrix, k: int, delta: int) -> ConvCode:
    """Slice a (delta+k)-row stacked matrix into coefficient matrices.

    G_0..G_{mu-1} take k rows each; the remaining delta+k-k*mu rows become
    the top of G_mu, whose last rows are padded with zeros.  A stack whose
    code has internal degree other than delta is refused.
    """
    _check_parameters(stack.cols, k, delta)
    if stack.rows != delta + k:
        raise ValueError("stacked matrix must have delta+k rows")
    n = stack.cols
    mu = -(-delta // k)
    coeffs = []
    for i in range(mu):
        coeffs.append(BitMatrix(n, stack.row_bits[i * k : (i + 1) * k]))
    tilde = stack.row_bits[mu * k :]
    if tilde:
        coeffs.append(BitMatrix(n, tuple(tilde) + (0,) * (k - len(tilde))))
    code = ConvCode(n, k, tuple(coeffs), delta)
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
    With `tables`, for delta in {3, 4} the last s = n mod 2^delta columns
    are the first s columns of the optimal residual stack instead.
    """
    rows = canonical_stack(1, delta, n).row_bits
    s = n % (1 << delta)
    if tables and s and delta in (3, 4):
        base = n - s
        tail = (1 << s) - 1
        residual = _residual_stack(delta).row_bits
        rows = [
            (row & ((1 << base) - 1)) | ((res & tail) << base)
            for row, res in zip(rows, residual)
        ]
    return BitMatrix(n, tuple(rows))


def construct_rate_1_n(m: int, delta: int) -> ConvCode:
    """The (m*2^delta, 1, delta) code stacked from an m-fold partial simplex."""
    if m < 1:
        raise ValueError("fold count must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return stack_to_code(_rate_1_stack(m << delta, delta, tables=False), 1, delta)


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


def construct_extended(n: int, delta: int) -> ConvCode:
    """(n, 1, delta) code for 1 <= delta <= 4 using the optimal residual columns."""
    if not 1 <= delta <= 4:
        raise ValueError(
            "optimal residual tables cover delta in 1..4; use construct_near_optimal"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    return stack_to_code(_rate_1_stack(n, delta, tables=True), 1, delta)


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    code = stack_to_code(_rate_1_stack(n, delta, tables=False), 1, delta)
    if n % (1 << delta) == 0:
        return code, predicted_profile_rate_1_n(n, delta, delta)
    return code, near_optimal_bound_profile(n, delta, delta)


# ---------------------------------------------------------------------------
# Dimension k > 1

# Largest extension search construct_k_dim_extended takes on, counted as
# r extra columns * 2^delta*(2^k-1) candidates * 2^(delta+k) messages per
# trial; about a second of work.
EXTENSION_SEARCH_GUARD = 1 << 26


def construct_k_dim(m: int, k: int, delta: int) -> ConvCode:
    """The (m*2^delta*(2^k-1), k, delta) code from an m-fold k-partial simplex."""
    if m < 1:
        raise ValueError("fold count must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return stack_to_code(canonical_stack(k, delta, (m * ((1 << k) - 1)) << delta), k, delta)


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
    """The (delta+k)-row stack of construct_k_dim_extended."""
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
    # Canonical column j is (t, w) = (T - j mod T, 2^delta - 1 - j div T),
    # T = 2^k - 1.  Its bit i is row i: bit k - 1 - i of t for i < k, then w.
    j = np.arange(base_len)
    t = (1 << k) - 1 - j % ((1 << k) - 1)
    w = (1 << delta) - 1 - j // ((1 << k) - 1)
    pool = sum(((t >> (k - 1 - i)) & 1) << i for i in range(k)) | (w << k)
    pool = pool.astype(msg_type)
    free = np.ones(len(pool), dtype=bool)
    # weight[u]: weight of message u's codeword on the columns chosen so far
    weight = np.zeros(len(messages), dtype=np.min_scalar_type(r))
    piece = max(1, (1 << _CHUNK_BITS) // len(messages))  # candidates scored at once
    rows = [0] * (delta + k)
    for c in range(r):
        cands = np.flatnonzero(free)
        score = np.concatenate([
            (weight[:, None] + (np.bitwise_count(messages[:, None] & pool[part]) & 1)).min(axis=0)
            for part in np.split(cands, range(piece, len(cands), piece))
        ])
        best = cands[np.argmax(score)]  # ties go to the smallest index
        free[best] = False
        weight += np.bitwise_count(messages & pool[best]) & 1
        rows = [row | (((int(pool[best]) >> i) & 1) << c) for i, row in enumerate(rows)]
    ext = BitMatrix(r, tuple(rows))
    return hstack([canonical_stack(k, delta, n - r), ext])


def construct_k_dim_extended(n: int, k: int, delta: int) -> ConvCode:
    """k-partial simplex base plus greedily chosen extra canonical columns.

    Each extra column maximizes, in turn, the minimum weight of the block
    code generated by the residual columns chosen so far (ties go to the
    smallest canonical column index).  Optimal only up to this search rule.
    A search predicted to cost more than EXTENSION_SEARCH_GUARD is refused
    before it starts.
    """
    _check_parameters(n, k, delta)
    return stack_to_code(_k_dim_stack(n, k, delta), k, delta)


# ---------------------------------------------------------------------------
# Dispatcher


def construct(n: int, k: int, delta: int):
    """Build an (n, k, delta) code, returning it with a provenance string."""
    _check_parameters(n, k, delta)
    r = n % ((1 << delta) * ((1 << k) - 1))
    if k > 1:
        stack = _k_dim_stack(n, k, delta)
        provenance = "k-dim search extension" if r else "k-dim exact"
    else:
        stack = _rate_1_stack(n, delta, tables=True)
        if r == 0:
            provenance = "rate-1/n exact"
        elif delta <= 4:
            provenance = f"table-backed extension, s={r}"
        else:
            provenance = "near-optimal"
    return stack_to_code(stack, k, delta), provenance
