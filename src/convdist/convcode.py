"""Binary convolutional codes: representation, predicates, distances, bounds.

Column distances come from two independent algorithms — exhaustive message
enumeration over the truncated sliding matrix, and a minimum-weight dynamic
program over numpy tables of the shift-register states — which must always
agree.  The free distance is read off the trellis run of the column
distances, extended until d_t reaches the lightest return to the zero state.

A `ConvCode` keeps four derived values for as long as the object lives: the
state tables, the trellis run from the zero state (extended, never redone),
the verdict of `is_noncatastrophic`, and the deepest window-weight table
built so far.  The arrays are read-only.  A shallower depth reads a prefix
of the run, or a strided view of the window table, so one run serves the
trellis oracle and the free distance, and one table the exhaustive oracle
and the weight bounds.  Equality, hashing and repr ignore the kept values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add
from typing import Optional

from .gf2core import (
    TABLE_GUARD_BITS as STATE_GUARD_BITS, BitMatrix, echelon, guard_table, np,
    poly_divmod, poly_mul, rank, span_weights, xor_span,
)

MESSAGE_GUARD_BITS = 30
# Largest loop over j accepted, in branch updates: jmax + 1 steps of
# max(2^(memory + k), 2^_STEP_FLOOR_BITS) branches each.  The smallest
# trellis step costs about 5 us, as much as 2^12 branch updates of a large
# step (about 1 ns each), so the guard admits about a third of a second of
# such steps.  `construct._k_dim_stack` compares the r steps of the k > 1
# extension, each over the words of its span, with it too.
STEP_WORK_GUARD = 1 << 28
_STEP_FLOOR_BITS = 12
# Largest work array in flight, in entries: the levels of a piece of message
# prefixes in `_min_weights` and a batch of orbits in the brute force.
_CHUNK_BITS = 22
# Widest batch whose levels in `_min_weights` take their minima in one
# `reduceat`.  It walks the work array one code's column at a time, so past
# about 32 codes a `reduce` per level, which walks whole rows, is cheaper.
_REDUCEAT_BATCH = 32
# Unreached states sit at _INF.  The state tables hold int32 path weights,
# which are exact while _INF + n * (j + 1) < 2^31, that is for every d_j
# below 2^30.
_INF = 1 << 30


@dataclass(frozen=True)
class ConvCode:
    """An (n, k, delta) code given by coefficient matrices G_0..G_mu.

    `delta` is the declared degree; constructors in this package always emit
    row-reduced matrices so the declared and measured degrees agree.
    """

    n: int
    k: int
    coeffs: tuple
    delta: int

    def __post_init__(self):
        check_parameters(self.n, self.k, self.delta)
        if not self.coeffs:
            raise ValueError("need at least G_0")
        for g in self.coeffs:
            if g.rows != self.k or g.cols != self.n:
                raise ValueError("coefficient matrix shape mismatch")
        if self.coeffs[-1].is_zero() and len(self.coeffs) > 1:
            raise ValueError("trailing zero coefficient matrix (G_mu must be nonzero)")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def mu(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> BitMatrix:
        """G_i, with G_i = 0 for i > mu."""
        if i <= self.mu:
            return self.coeffs[i]
        return BitMatrix.zeros(self.k, self.n)

    @cached_property
    def _trellis(self):
        """(bw, plan) of `_state_tables`, built on first use."""
        return _state_tables(self)

    @cached_property
    def _noncatastrophic(self) -> bool:
        """The verdict of `is_noncatastrophic`; an exception is not kept."""
        return _left_prime(self)


def check_parameters(n: int, k: int, delta: int) -> None:
    """Refuse (n, k, delta) that names no code: the package's one test of
    1 <= k <= n and delta >= 0, and its one wording of the refusal."""
    if not 1 <= k <= n or delta < 0:
        raise ValueError(
            f"n={n}, k={k}, delta={delta} name no code: need 1 <= k <= n and delta >= 0"
        )


def _stacked_code(stack, n: int, k: int, delta: int) -> ConvCode:
    """The code of the stacked rows `stack`: row i*k + r is row r of G_i.
    The last block is padded with zero rows, and trailing zero G_i (all but
    G_0) are trimmed."""
    rows = tuple(stack) + (0,) * (-len(stack) % k)
    coeffs = [BitMatrix(n, rows[i : i + k]) for i in range(0, len(rows), k)]
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    return ConvCode(n, k, tuple(coeffs), delta)


@dataclass(frozen=True)
class DistanceProfile:
    """Column distances d_0..d_jmax, the free distance if known, and their source."""

    values: tuple
    free_distance: Optional[int] = None
    method: str = ""

    def __post_init__(self):
        vals = tuple(self.values)
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("column distances must be nondecreasing")
        if self.free_distance is not None and any(
            v > self.free_distance for v in vals
        ):
            raise ValueError("column distance exceeds free distance")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class BoundReport:
    """Per-j weight-based lower and upper bounds, and their cap."""

    lower: tuple
    upper: tuple
    cap: tuple


# ---------------------------------------------------------------------------
# Sliding matrices and column distances


def check_jmax(jmax: int, branch_bits: int = 0) -> None:
    """Refuse, before any work, a negative jmax, or jmax + 1 steps of
    2^branch_bits branch updates (at least 2^_STEP_FLOOR_BITS) past
    STEP_WORK_GUARD."""
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    bits = max(branch_bits, _STEP_FLOOR_BITS)
    if (jmax + 1) << bits > STEP_WORK_GUARD:
        steps, verb = (f"{jmax + 1} steps", "exceed") if jmax else ("1 step", "exceeds")
        raise ValueError(f"{steps} of 2^{bits} branch updates {verb} the step guard")


def sliding_matrix(c: ConvCode, j: int) -> BitMatrix:
    """Truncated sliding generator matrix: block (r, s) is G_{s-r}, so block
    row r is block row 0 shifted r blocks right and cut to j + 1 blocks.
    Its (j+1)k rows of (j+1)n bits are priced by the table guard first."""
    if j < 0:
        raise ValueError("j must be >= 0")
    width = (j + 1) * c.n
    guard_table(((j + 1) * c.k - 1).bit_length(), width, "sliding-matrix")
    top = [0] * c.k
    for s, g in enumerate(c.coeffs[: j + 1]):
        for row, bits in enumerate(g.row_bits):
            top[row] |= bits << (s * c.n)
    cut = (1 << width) - 1
    rows = [(bits << (r * c.n)) & cut for r in range(j + 1) for bits in top]
    return BitMatrix(width, tuple(rows))


def _window_weights(c: ConvCode, jmax: int) -> np.ndarray:
    """Weight of one output block as a function of the window of message
    blocks u_i, u_{i-1}, ..., u_{i-D}, D = min(jmax, mu), as a read-only array.

    The newest block is on top: window bit k*(D-e) + r is row r of u_{i-e},
    which multiplies G_e.  The blocks before u_0 are zero, so the entries
    with zero low blocks serve i < D, and the depth-D table is every
    2^(k(D'-D))-th entry of a deeper one: c keeps the deepest table built so
    far, which a shallower depth reads as a strided view.  A window weighs
    at most n: the entries take the smallest unsigned type for n."""
    depth = min(jmax, c.mu)
    bits = c.k * (depth + 1)
    table = c.__dict__.get("_window_table")
    if table is None or len(table) < 1 << bits:
        guard_table(bits, c.n, "weight-table")
        rows = [c.coeffs[e].row_bits[r] for e in range(depth, -1, -1) for r in range(c.k)]
        table = span_weights(xor_span(rows, c.n), np.min_scalar_type(c.n))
        table.flags.writeable = False
        c.__dict__["_window_table"] = table
    return table[:: len(table) >> bits]


def _min_weights(tables: np.ndarray, k: int, jmax: int) -> np.ndarray:
    """Column distances of a batch of codes from their window-weight tables.

    tables[:, b] is code b's table, as `_window_weights` lays it out; entry
    (b, j) of the result is the least weight of output blocks 0..j over the
    message prefixes u_0..u_j with u_0 != 0.  Level j is laid out like the
    table, newest block on top, so it is level j - 1 broadcast over a new
    leading axis, u_j, plus the table at the windows u_j..u_{j-D}: a strided
    view with the blocks before u_0 at zero while j <= D, then the whole
    table over the inner axis of the older blocks.  One add writes a level,
    each after the other in one array, and one `reduceat` over that array
    gives d_j of all of them (a `reduce` per level past _REDUCEAT_BATCH
    codes).  A piece (the descendants of the level-0 prefixes or of one
    prefix, whose blocks enter the views as a fixed index) whose levels
    would pass 2^_CHUNK_BITS entries is grown one level, each child then a
    piece of its own.  The batch is innermost, as `xor_span` fills it.
    """
    batch = tables.shape[1]
    bound = int(tables.max()) * (jmax + 1)  # no prefix weighs more
    dtype = np.min_scalar_type(bound)
    tables = np.ascontiguousarray(tables, dtype=dtype)
    bits = len(tables).bit_length() - 1
    budget = max(1 << k, (1 << _CHUNK_BITS) // batch)  # per code; one parent always fits

    def levels(j):  # entries of levels j..jmax under one prefix of level j
        return ((1 << k * (jmax + 1 - j)) - 1) // ((1 << k) - 1)

    def read(f, lo, hi, j, new):
        """The table, over the newest blocks of a window, at the prefixes f
        levels below the prefixes lo..hi-1 of level j, with `new` entries of
        the newest block on the leading axis."""
        free = k * f
        if free >= bits:
            return tables.reshape(new, -1, 1, batch)
        fixed = min(bits - free, k * (j + 1))  # the newest blocks of the root
        shift = k * (j + 1) - fixed
        view = tables.reshape(new, (1 << free) // new, 1 << fixed, -1, batch)
        return view[:, :, lo >> shift : ((hi - 1) >> shift) + 1, 0]

    def take(run, lo, hi, j):
        """Rows d_j..d_jmax over the prefixes lo..hi-1 of level j, which
        weigh `run`, and their descendants."""
        least = np.empty((jmax + 1 - j, batch), dtype)
        if (hi - lo) * levels(j) > budget:
            np.minimum.reduce(run, 0, None, least[0])
            children = np.add(run, read(1, lo, hi, j, 1 << k)).reshape(-1, batch)
            least[1:] = bound
            for x in range(len(children)):
                p = (x // (hi - lo)) << k * (j + 1) | lo + x % (hi - lo)
                np.minimum(least[1:], take(children[x : x + 1], p, p + 1, j + 1), out=least[1:])
            return least
        work = np.empty(((hi - lo) * levels(j), batch), dtype)
        start, count = 0, hi - lo
        starts = [start]
        level = work[:count]
        level[...] = run
        for f in range(1, jmax + 1 - j):
            view = read(f, lo, hi, j, 1 << k)
            parents = level.reshape(view.shape[1], -1, batch)
            start, count = start + count, count << k
            starts.append(start)
            level = work[start : start + count]
            np.add(parents, view, out=level.reshape((1 << k,) + parents.shape))
        if batch <= _REDUCEAT_BATCH:
            np.minimum.reduceat(work, starts, 0, None, least)
        else:
            for f, (s, e) in enumerate(zip(starts, starts[1:] + [len(work)])):
                np.minimum.reduce(work[s:e], 0, None, least[f])
        return least

    run = read(0, 1, 1 << k, 0, 1)[0, 0]  # level 0
    return take(run, 1, 1 << k, 0).T


def column_distances_exhaustive(c: ConvCode, jmax: int):
    """Exact d_0..d_jmax by enumerating every message prefix with u_0 != 0."""
    if not is_delay_free(c):
        raise ValueError("column distances need a delay-free generator matrix")
    check_jmax(jmax)
    bits = c.k * (jmax + 1)
    if bits > MESSAGE_GUARD_BITS:
        raise ValueError(f"{bits} message bits exceed the exhaustion guard")
    table = _window_weights(c, jmax)
    return _min_weights(table[:, None], c.k, jmax)[0].tolist()


# ---------------------------------------------------------------------------
# State tables of the direct-form encoder and the trellis algorithms
#
# The encoder keeps one shift register of length nu_r per input row; state
# bit (offset_r + nu_r - e) holds the input of row r from e steps ago.  A
# branch (s, u) is numbered as s with u_r put on top of register r, and it
# leads to the state t that is that number with the lowest bit of each
# register dropped (u_r itself when nu_r = 0).  That map is a bijection onto
# (t, dropped bits), so the 2^k predecessors of t form a butterfly, and one
# minimum of two halves per dropped bit takes the place of a predecessor
# table.


def _state_tables(c: ConvCode):
    """Branch weights and the butterfly plan of `_min_plus_step`; c keeps
    them as `c._trellis`.

    bw has two axes per row, from the last row down: u_r and register r of
    the start state; it is read-only.  The plan is the shape that broadcasts
    the labels of the start states over the u_r axes, and, for each row r,
    the number of states below register r, 2^offset_r."""
    nus = row_degrees(c)
    guard_table(sum(nus) + c.k, c.n, "state-table")
    # Span bit offset_r + r + e is the input of row r from nu_r - e steps
    # before the branch, which multiplies G_{nu_r - e}; e = nu_r is u_r.
    rows = [c.coeffs[i].row_bits[r] for r, nu in enumerate(nus) for i in range(nu, -1, -1)]
    bw = span_weights(xor_span(rows, c.n), np.int32)
    bw.flags.writeable = False
    shape, label_shape = (), ()
    for nu in reversed(nus):
        shape += (2, 1 << nu)
        label_shape += (1, 1 << nu)
    below = tuple(1 << sum(nus[:r]) for r in range(c.k))
    return bw.reshape(shape), (label_shape, below)


def _min_plus_step(cur, bw, plan, leave_zero: bool = False):
    """Cheapest arrival at every state after one more branch; with
    `leave_zero` the all-zero branch from the zero state is excluded."""
    label_shape, below = plan
    total = cur.reshape(label_shape) + bw
    if leave_zero:
        total.flat[0] = _INF
    # once the registers below r have lost their dropped bits, register r's
    # sits just above the 2^offset_r states below it
    for inner in below:
        halves = total.reshape(-1, 2, inner)
        total = np.minimum(halves[:, 0], halves[:, 1])
    return total.reshape(-1)


def _trellis_run(c: ConvCode, length: int, branch_bits: int):
    """c's trellis run from the zero state, extended to `length` steps if it
    is shorter, as (cur, dist); c keeps it.  cur[s], read-only, is the least
    weight of a path of the run's length from the zero state to s that starts
    with a nonzero input; dist is d_0 onwards.  The all-zero branch keeps the
    zero state's label, so cur[0] is the lightest return to it so far.  Its
    `length` steps of 2^branch_bits branches (memory + k) are priced first,
    before the state tables, which `_state_tables` prices in turn, are read
    or built."""
    check_jmax(length - 1, branch_bits)
    bw, plan = c._trellis
    if "_run" not in c.__dict__:
        start = np.full(bw.size >> c.k, _INF, dtype=np.int32)
        start[0] = 0
        c.__dict__["_run"] = start, []
    cur, dist = c.__dict__["_run"]
    while len(dist) < length:
        cur = _min_plus_step(cur, bw, plan, leave_zero=not dist)
        dist.append(int(cur.min()))
    cur.flags.writeable = False
    c.__dict__["_run"] = cur, dist
    return cur, dist


def column_distances_trellis(c: ConvCode, jmax: int):
    """Exact d_0..d_jmax by minimum-weight traversal of the encoder states."""
    if not is_delay_free(c):
        raise ValueError("column distances need a delay-free generator matrix")
    return _trellis_run(c, jmax + 1, external_degree(c) + c.k)[1][: jmax + 1]


def distance_profile(c: ConvCode, jmax: int) -> DistanceProfile:
    """Column-distance profile d_0..d_jmax from the trellis, or from the
    exhaustive oracle when the trellis refuses the job, which it does before
    anything is built.  That oracle then raises its own refusal of what it
    cannot answer: for a non-delay-free code or a negative jmax, the same
    refusal as the trellis."""
    try:
        values, method = column_distances_trellis(c, jmax), "trellis"
    except ValueError:
        values, method = column_distances_exhaustive(c, jmax), "exhaustive"
    return DistanceProfile(tuple(values), None, method)


def free_distance(c: ConvCode) -> int:
    """Exact free distance from the trellis run of the column distances.

    Only defined here for non-catastrophic codes, where the free distance is
    attained by a finite excursion that leaves the zero state with a nonzero
    input and returns to it, and d_t rises to it.  Any path longer than the
    run weighs at least its d_t, so once d_t reaches cur[0], the lightest
    return so far, that return is the free distance.  The run prices its
    length before each new step, with memory + k derived once per call, so
    the search is refused once it passes STEP_WORK_GUARD.
    """
    if not is_noncatastrophic(c):
        raise ValueError("free distance search requires a non-catastrophic code")
    bits = external_degree(c) + c.k
    cur, dist = _trellis_run(c, 1, bits)
    while dist[-1] < cur[0]:
        cur, dist = _trellis_run(c, len(dist) + 1, bits)
    return int(cur[0])


# ---------------------------------------------------------------------------
# Degrees and structural predicates


def row_degrees(c: ConvCode):
    """nu_r = largest i with a nonzero row r in G_i (0 for a constant row)."""
    degs = []
    for r in range(c.k):
        nu = 0
        for i in range(c.mu, 0, -1):
            if c.coeffs[i].row_bits[r]:
                nu = i
                break
        degs.append(nu)
    return degs


def external_degree(c: ConvCode) -> int:
    return sum(row_degrees(c))


def _row_reduce(rows: list, n: int) -> list:
    """The rows of a row-reduced generator matrix of the code of the packed
    rows of G(z), k <= n of them, or rows that include a zero one if all
    k x k minors of G(z) vanish.

    Unimodular row operations keep every minor, so G(z) is row-reduced in
    place: while the leading-row-coefficient matrix is singular, the row of
    largest degree in a dependent set S takes the z-shifted sum of S, which
    lowers its degree.  Each step adds z^t times other rows (t >= 0) to one
    row, an elementary row operation on G_0 when t = 0, so G_0 keeps its
    rank.
    """
    rows = list(rows)
    while all(rows):
        nus = [(g.bit_length() - 1) // n for g in rows]
        lead = echelon([g >> (nu * n) for g, nu in zip(rows, nus)])
        dep = next((mask for low, _, mask in lead if not low), 0)
        if not dep:
            break
        members = [i for i in range(len(rows)) if dep >> i & 1]
        top = max(members, key=nus.__getitem__)
        for i in members:
            if i != top:
                rows[top] ^= rows[i] << ((nus[top] - nus[i]) * n)
    return rows


def _internal_degree(stack, n: int, k: int) -> Optional[int]:
    """`internal_degree` of the code of the stacked rows `stack`, k <= n:
    row i*k + r of the stack is row r of G_i.  Row r of G(z) is packed
    into one int with the z^i coefficient of entry j at bit i*n + j."""
    packed = [0] * k
    for i, g in enumerate(stack):
        packed[i % k] |= g << (i // k * n)
    rows = _row_reduce(packed, n)
    if not all(rows):
        return None
    return sum((g.bit_length() - 1) // n for g in rows)


def internal_degree(c: ConvCode) -> Optional[int]:
    """Max degree of the k x k minors, or None if all minors vanish.

    Once G(z) is row-reduced, its row degrees sum to the internal degree
    (Forney 1975).
    """
    return _internal_degree([row for g in c.coeffs for row in g.row_bits], c.n, c.k)


def check_degree(c: ConvCode) -> None:
    """Refuse a code whose declared degree is not its internal degree: the
    package's one test of that rule, and its one wording of the refusal."""
    degree = internal_degree(c)
    if degree != c.delta:
        why = f"the internal degree {degree}"
        if degree is None:
            why = "an internal degree: G(z) has rank below k"
        raise ValueError(f"declared degree {c.delta} is not {why}")


def is_row_reduced(c: ConvCode) -> bool:
    return internal_degree(c) == external_degree(c)


def is_delay_free(c: ConvCode) -> bool:
    return rank(c.coeffs[0]) == c.k


def has_generic_row_degrees(c: ConvCode) -> bool:
    """Row degrees distribute delta as evenly as possible: t rows of
    ceil(delta/k) and k - t of floor(delta/k), t = delta + k - k*ceil(delta/k)."""
    k, delta = c.k, c.delta
    hi = -(-delta // k)
    t = delta + k - k * hi
    expected = [hi] * t + [delta // k] * (k - t)
    return sorted(row_degrees(c), reverse=True) == expected


def is_noncatastrophic(c: ConvCode) -> bool:
    """Left primeness: the gcd of all k x k minors of G(z) is 1.

    That gcd depends only on the F2[z]-module the columns generate, so a basis
    of their F2-span, read off the stacked rows, stands in for all n columns.
    Unimodular column operations keep the gcd (Cauchy-Binet).  For each row
    i in turn, Euclid's algorithm on the columns not yet used as pivots
    leaves one column with a nonzero entry in row i, the pivot.  That brings
    the basis to [L | 0] with L lower triangular, whose maximal minors have
    gcd det L, the product of the pivots.  The verdict is kept on c.
    """
    return c._noncatastrophic


def _left_prime(c: ConvCode) -> bool:
    # Row operations keep the dependencies among the stacked columns, so the
    # columns at the lowest-bit pivots of the nonzero stacked rows, each
    # reduced by the earlier ones, are a basis of the span of them all.
    rows = [row for g in c.coeffs for row in g.row_bits if row]
    lows = [low for low, _, _ in echelon(rows) if low]
    # Independent rows span every tube on their coordinates, the constant
    # unit vector of each row of G(z) among them when G_0 has no zero row.
    if len(lows) == len(rows) and all(c.coeffs[0].row_bits):
        return True
    # entry r of the basis column at bit j is entry (r, j) of G(z): bit i is
    # bit j of row r of G_i
    cols = [
        [sum(1 << i for i, g in enumerate(c.coeffs) if g.row_bits[r] & low) for r in range(c.k)]
        for low in lows
    ]
    pivots = []
    for i in range(c.k):
        live = [col for col in cols if col[i]]
        if not live:
            raise ValueError("G(z) is rank deficient")
        while True:
            p = min(live, key=lambda col: col[i].bit_length())
            rest = [col for col in live if col is not p]
            # on the last row nothing below a unit pivot is left to update
            if not rest or (p[i] == 1 and i == c.k - 1):
                break
            for col in rest:
                q, col[i] = poly_divmod(col[i], p[i])
                for t in range(i + 1, c.k):
                    col[t] ^= poly_mul(q, p[t])
            live = [p] + [col for col in rest if col[i]]
        pivots.append(p[i])
        cols = [col for col in cols if col is not p]
    return all(p == 1 for p in pivots)


# ---------------------------------------------------------------------------
# Closed-form bounds


def singleton_bound(n: int, k: int, delta: int) -> int:
    """Generalized Singleton bound on the free distance."""
    check_parameters(n, k, delta)
    return (n - k) * (delta // k + 1) + delta + 1


def column_bound(n: int, k: int, j: int) -> int:
    """Generic upper bound (n-k)(j+1)+1 on the j-th column distance."""
    return (n - k) * (j + 1) + 1


def L_value(n: int, k: int, delta: int) -> int:
    """Largest j at which the generic column bound can still be attained."""
    check_parameters(n, k, delta)
    if n <= k:
        raise ValueError("L needs n > k")
    return delta // k + delta // (n - k)


def is_mdp(c: ConvCode) -> bool:
    """Whether d_L meets the generic bound (unattainable over GF(2) for L >= 1)."""
    L = L_value(c.n, c.k, c.delta)
    return distance_profile(c, L).values[L] == column_bound(c.n, c.k, L)


def row_weight_bounds(c: ConvCode, jmax: int) -> BoundReport:
    """Weight-based per-j lower and upper bounds on the column distances.

    lower[j] accumulates, over i <= j, the restricted minimum weight of the
    block code stacked as (G_i; ...; G_0) with the top k message coordinates
    not all zero; upper[j] is the best row-weight sum over i <= min(j, mu);
    cap[j] = n*(min(j, max(delta, mu)) + 1).
    """
    if not is_delay_free(c):
        raise ValueError("bounds need a delay-free generator matrix")
    check_jmax(jmax)
    # Increment i <= mu is the least window weight with a nonzero block of
    # G_i and zero older blocks (0 for i > mu: take u = (u_0, 0, ...)).  For
    # i < h = ceil((D + 1) / 2) these windows lie in table[::low]; for the
    # others the least weights over the h free newest blocks stand in for them.
    table = _window_weights(c, jmax)
    low = len(table) >> c.k * ((min(jmax, c.mu) + 2) // 2)
    increments = []
    for part in (table[::low].tolist(), np.minimum.reduce(table.reshape(-1, low)).tolist()):
        step = len(part)
        while step := step >> c.k:
            rows = part[::step]  # no nonzero block older than the one at step
            del rows[:: 1 << c.k]  # and that one nonzero
            increments.append(min(rows))
    lower = list(accumulate(increments))
    # upper[j]: the lightest row r of G_0..G_min(j, mu), from u_0 = e_r.
    # For a row-reduced matrix every row degree is <= delta, so the cap sums
    # to min(j, delta); a non-row-reduced row may keep contributing up to mu,
    # hence the max.
    sums, upper = [0] * c.k, []
    for g in c.coeffs:  # the weight of each row r of G_0..G_i
        sums = list(map(add, sums, map(int.bit_count, g.row_bits)))
        upper.append(min(sums))
    cap = [c.n * (i + 1) for i in range(min(jmax, max(c.delta, c.mu)) + 1)]
    # entry j of each bound is entry min(j, len - 1) of its per-i list
    held = [tuple(v[: jmax + 1] + v[-1:] * (jmax + 1 - len(v))) for v in (lower, upper, cap)]
    return BoundReport(*held)
