"""Constructions of binary convolutional codes from partial simplex codes.

Covers the exact rate-1/n family (n a multiple of 2^delta), the
column-extension family for 2^delta not dividing n (closed-form residuals
for delta <= 2, table-backed residuals for delta in {3, 4}), the general
near-optimal construction via binary decomposition of the leftover length,
and the k > 1 family built from k-partial simplex codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .convcode import ConvCode, DistanceProfile
from .gf2core import BitMatrix, hstack
from .simplex import k_partial_simplex, m_fold, min_weight_block_code, partial_simplex

# Canonical optimal residual row for delta=3 (one of the eight equivalent
# choices; the others are available through the search in `optsearch`), and
# the delta=4 row derived from its halves.
OPT_ROW_D3 = "11100001"
OPT_ROW_D4 = "1110" + "1110" + "0001" + "0001"


@dataclass(frozen=True)
class ExtensionChoice:
    """Extra generator columns used when n is not an exact multiple."""

    width: int
    columns: Optional[BitMatrix]  # (delta+k) x width, from the canonical column set
    exponents: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("negative extension width")
        if self.columns is not None and self.columns.cols != self.width:
            raise ValueError("extension width mismatch")
        if self.exponents:
            if list(self.exponents) != sorted(self.exponents, reverse=True):
                raise ValueError("exponents must be strictly decreasing")
            if sum(1 << (a - 1) for a in self.exponents) != self.width:
                raise ValueError("exponents do not sum to the extension width")


@dataclass(frozen=True)
class ConstructionPlan:
    """How a requested (n, k, delta) was realized."""

    n: int
    k: int
    delta: int
    m: int
    base_width: int
    extension: ExtensionChoice
    provenance: str


def _take_columns(m: BitMatrix, s: int) -> BitMatrix:
    mask = (1 << s) - 1
    return BitMatrix(s, tuple(r & mask for r in m.row_bits))


def _matrix_from_columns(nrows: int, cols) -> BitMatrix:
    rows = [0] * nrows
    for j, col in enumerate(cols):
        for i in range(nrows):
            rows[i] |= col[i] << j
    return BitMatrix(len(cols), tuple(rows))


def stack_to_code(stack: BitMatrix, k: int, delta: int) -> ConvCode:
    """Slice a (delta+k)-row stacked matrix into coefficient matrices.

    G_0..G_{mu-1} take k rows each; the remaining delta+k-k*mu rows become
    the top of G_mu, whose last rows are padded with zeros.
    """
    if stack.rows != delta + k:
        raise ValueError("stacked matrix must have delta+k rows")
    n = stack.cols
    mu = -(-delta // k)
    coeffs = []
    for i in range(mu):
        coeffs.append(BitMatrix(n, stack.row_bits[i * k : (i + 1) * k]))
    tilde = stack.row_bits[mu * k :]
    if tilde:
        if all(r == 0 for r in tilde):
            raise ValueError("chosen columns cannot realize degree delta")
        coeffs.append(BitMatrix(n, tuple(tilde) + (0,) * (k - len(tilde))))
    elif delta > 0 and coeffs[-1].is_zero():
        raise ValueError("chosen columns cannot realize degree delta")
    return ConvCode(n, k, tuple(coeffs), delta)


# ---------------------------------------------------------------------------
# Rate 1/n, exact multiples


def construct_rate_1_n(m: int, delta: int) -> ConvCode:
    """The (m*2^delta, 1, delta) code stacked from an m-fold partial simplex."""
    if m < 1:
        raise ValueError("fold count must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return stack_to_code(m_fold(partial_simplex(delta + 1), m), 1, delta)


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
    residual choices for delta in 1..4."""
    if delta == 1:
        return partial_simplex(2)
    if delta == 2:
        return BitMatrix.from_strings(["111", "101", "110"])
    s3_2 = m_fold(partial_simplex(3), 2)
    if delta == 3:
        return BitMatrix(8, s3_2.row_bits + BitMatrix.from_strings([OPT_ROW_D3]).row_bits)
    if delta == 4:
        s4 = recursive_partial_simplex_4()
        return BitMatrix(
            16, s4.row_bits + BitMatrix.from_strings([OPT_ROW_D4]).row_bits
        )
    raise ValueError("table-backed residuals exist only for delta in 1..4")


def recursive_partial_simplex_4() -> BitMatrix:
    """The dimension-4 partial simplex in its recursive column order:
    two copies of the 2-fold dimension-3 partial simplex over the canonical
    optimal residual row, repeated."""
    s3_2 = m_fold(partial_simplex(3), 2)
    top = hstack([s3_2, s3_2])
    g3 = BitMatrix.from_strings([OPT_ROW_D3 + OPT_ROW_D3])
    return BitMatrix(16, top.row_bits + g3.row_bits)


def construct_extended(n: int, delta: int) -> ConvCode:
    """(n, 1, delta) code for 1 <= delta <= 4 using the optimal residual columns."""
    if not 1 <= delta <= 4:
        raise ValueError(
            "optimal residual tables cover delta in 1..4; use construct_near_optimal"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n >> delta
    s = n - (m << delta)
    if s == 0:
        return construct_rate_1_n(m, delta)
    residual = _take_columns(_residual_stack(delta), s)
    if m:
        stack = hstack([m_fold(partial_simplex(delta + 1), m), residual])
    else:
        stack = residual
    return stack_to_code(stack, 1, delta)


# ---------------------------------------------------------------------------
# Near-optimal general construction


def binary_decomposition(r: int):
    """Exponents a_1 > ... > a_b >= 1 with sum 2^(a_i - 1) = r."""
    if r < 0:
        raise ValueError("negative remainder")
    return tuple(
        i + 1 for i in range(r.bit_length() - 1, -1, -1) if (r >> i) & 1
    )


def _nested_extension(delta: int, exponents) -> BitMatrix:
    """Extension whose top-left nested blocks are partial simplex generators.

    For each block of width 2^(a-1) the top a rows are forced to the columns
    of the dimension-a partial simplex; the remaining rows are completed with
    the matching canonical column of the dimension-(delta+1) partial simplex
    of smallest index not yet used.
    """
    ps = partial_simplex(delta + 1)
    pool = [ps.column(j) for j in range(ps.cols)]
    used = [False] * len(pool)
    chosen = []
    for a in exponents:
        block = partial_simplex(a)
        for j in range(block.cols):
            want = block.column(j).bits
            mask = (1 << a) - 1
            for idx, cand in enumerate(pool):
                if not used[idx] and (cand.bits & mask) == want:
                    used[idx] = True
                    chosen.append(cand)
                    break
            else:
                raise ValueError("no unused completion column available")
    return _matrix_from_columns(delta + 1, chosen)


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
    """Near-optimal (n, 1, delta) code and its guaranteed lower-bound profile."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    m = n >> delta
    r = n - (m << delta)
    if r == 0:
        return construct_rate_1_n(m, delta), predicted_profile_rate_1_n(
            n, delta, delta
        )
    ext = _nested_extension(delta, binary_decomposition(r))
    if m:
        stack = hstack([m_fold(partial_simplex(delta + 1), m), ext])
    else:
        stack = ext
    return stack_to_code(stack, 1, delta), near_optimal_bound_profile(n, delta, delta)


# ---------------------------------------------------------------------------
# Dimension k > 1


def construct_k_dim(m: int, k: int, delta: int) -> ConvCode:
    """The (m*2^delta*(2^k-1), k, delta) code from an m-fold k-partial simplex."""
    if m < 1:
        raise ValueError("fold count must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return stack_to_code(m_fold(k_partial_simplex(k, delta), m), k, delta)


def predicted_profile_k_dim(n: int, k: int, delta: int, jmax: int) -> DistanceProfile:
    """Closed-form profile n*2^(k-1)/(2^k-1) + min(j, floor(delta/k))*n/2."""
    base = (1 << delta) * ((1 << k) - 1)
    if n < 1 or n % base:
        raise ValueError(f"n={n} is not a positive multiple of 2^{delta}*(2^{k}-1)")
    d0 = n * (1 << (k - 1)) // ((1 << k) - 1)
    cap = delta // k
    values = tuple(d0 + min(j, cap) * (n // 2) for j in range(jmax + 1))
    return DistanceProfile(values, None, "formula")


def construct_k_dim_extended(n: int, k: int, delta: int) -> ConvCode:
    """k-partial simplex base plus greedily chosen extra canonical columns.

    Each extra column maximizes, in turn, the minimum weight of the block
    code generated by the residual columns chosen so far (ties go to the
    smallest canonical column index).  Optimal only up to this search rule.
    """
    if k < 1 or n < 1 or delta < 0:
        raise ValueError("invalid parameters")
    base_len = (1 << delta) * ((1 << k) - 1)
    m = n // base_len
    r = n - m * base_len
    if r == 0:
        return construct_k_dim(m, k, delta)
    canon = k_partial_simplex(k, delta)
    pool = [canon.column(j) for j in range(canon.cols)]
    used = [False] * len(pool)
    chosen = []
    for _ in range(r):
        best_idx, best_wt = None, -1
        for idx, cand in enumerate(pool):
            if used[idx]:
                continue
            trial = _matrix_from_columns(delta + k, chosen + [cand])
            wt = min_weight_block_code(trial)
            if wt > best_wt:
                best_idx, best_wt = idx, wt
        used[best_idx] = True
        chosen.append(pool[best_idx])
    ext = _matrix_from_columns(delta + k, chosen)
    if m:
        stack = hstack([m_fold(canon, m), ext])
    else:
        stack = ext
    return stack_to_code(stack, k, delta)


# ---------------------------------------------------------------------------
# Dispatcher


def construct(n: int, k: int, delta: int):
    """Build an (n, k, delta) code, returning it with a ConstructionPlan."""
    if n < 1 or k < 1 or delta < 0:
        raise ValueError("invalid parameters")
    if k == 1:
        base_len = 1 << delta
    else:
        base_len = (1 << delta) * ((1 << k) - 1)
    m = n // base_len
    r = n - m * base_len
    exponents = ()
    ext_cols = None
    if k == 1:
        if r == 0:
            code = construct_rate_1_n(m, delta)
            provenance = "rate-1/n exact"
        elif delta <= 4:
            code = construct_extended(n, delta)
            provenance = f"table-backed extension, s={r}"
        else:
            code, _ = construct_near_optimal(n, delta)
            exponents = binary_decomposition(r)
            provenance = "near-optimal"
    else:
        if r == 0:
            code = construct_k_dim(m, k, delta)
            provenance = "k-dim exact"
        else:
            code = construct_k_dim_extended(n, k, delta)
            provenance = "k-dim search extension"
    if r:
        stacked_rows = []
        for i, g in enumerate(code.coeffs):
            take = code.k if i < len(code.coeffs) - 1 else delta + k - k * code.mu
            take = code.k if take == 0 else take
            stacked_rows.extend(g.row_bits[:take])
        shift = m * base_len
        mask = ((1 << n) - 1) ^ ((1 << shift) - 1)
        ext_cols = BitMatrix(
            r, tuple((rb & mask) >> shift for rb in stacked_rows)
        )
    plan = ConstructionPlan(
        n=n,
        k=k,
        delta=delta,
        m=m,
        base_width=m * base_len,
        extension=ExtensionChoice(width=r, columns=ext_cols, exponents=exponents),
        provenance=provenance,
    )
    return code, plan
