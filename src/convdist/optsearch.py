"""Exhaustive searches: residual-row optimization and optimality oracles.

`search_optimal_row` finds every bottom row of a stacked coefficient matrix
that maximizes the prefix minimum-weight profile, growing the surviving
prefixes one bit at a time under the package's memory guard.
`optimal_codes_bruteforce` scores every delay-free (n, k, delta)
code, one representative per column-permutation orbit, and keeps the
lexicographically maximal column-distance profiles up to a finite horizon;
`verify_optimal` decides from the same search whether a candidate's profile
is maximal to the horizon, and whether its d_0..d_delta are.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from . import convcode
from .convcode import (
    MESSAGE_GUARD_BITS,
    ConvCode,
    _internal_degree,
    _min_weights,
    _stacked_code,
    check_degree,
    check_parameters,
    column_distances_exhaustive,
)
from .gf2core import (
    _WORD_MASK, BitMatrix, BitVec, guard_table, np, span_weights, xor_span,
)

# Most coefficient bits k*n*(delta+1) of a brute force.  It also keeps
# n <= 24, which `_stacked_rows` needs: it packs each stacked row into one
# int64 word.
CODE_SEARCH_GUARD_BITS = 24
# orbits x messages x steps of the largest brute force accepted
BRUTEFORCE_WORK_GUARD = 1 << 30
# The degree test of one k > 1 orbit is charged as 2^15 message steps of
# the batch kernel.
_REPRESENTATIVE_WORK = 1 << 15


@dataclass(frozen=True)
class RowSearchResult:
    """Rows achieving the best prefix minimum-weight profile; `evaluated` is
    the size of the candidate space searched, 2^width."""

    optimal_rows: tuple
    profile: tuple
    evaluated: int


@dataclass(frozen=True)
class OptimalityVerdict:
    """Outcome of the brute-force optimality check up to a horizon."""

    optimal: bool
    horizon: int
    witness: Optional[ConvCode]
    ties_at_horizon: bool
    optimal_through_delta: bool


def wt_profile(stacked: BitMatrix, widths) -> Tuple[int, ...]:
    """For each s: minimum weight of the code generated by the first s columns."""
    nrows, n = stacked.rows, stacked.cols
    if nrows == 0:
        raise ValueError("empty matrix")
    guard_table(nrows, n, "block-code table")
    codewords = xor_span(stacked.row_bits, n)[1:]
    out = []
    for s in widths:
        if not 0 < s <= n:
            raise ValueError(f"width {s} out of range")
        mask = (1 << s) - 1
        prefix = np.array([mask >> w & _WORD_MASK for w in range(0, n, 64)], dtype=np.uint64)
        out.append(int(span_weights(codewords & prefix).min()))
    return tuple(out)


def search_optimal_row(top: BitMatrix) -> RowSearchResult:
    """Every row g of length top.cols that maximizes wt^1..wt^cols of
    [top; g] lexicographically, in ascending integer order.

    wt^s depends only on the first s bits of g, so the rows that are best on
    wt^1..wt^s are the s-bit prefixes of the final maximizers.  Step s
    extends every surviving prefix by bit s - 1, scores wt^s of both
    extensions against the XOR span of `top`, and keeps the maximizers.
    A step whose table (2 x survivors x 2^rows words) would pass the memory
    guard is refused before it is built.
    """
    width = top.cols
    if width > 64:
        raise ValueError(f"a {width}-bit row does not fit one 64-bit word")
    guard_table(top.rows + 1, width, "row-search step")
    combos = xor_span(top.row_bits, width)[:, 0]
    survivors = np.zeros(1, dtype=np.uint64)
    profile = []
    for s in range(width):
        guard_table(top.rows + (2 * len(survivors) - 1).bit_length(), width, "row-search step")
        cands = np.concatenate([survivors, survivors | np.uint64(1 << s)])
        prefixes = combos & np.uint64((1 << (s + 1)) - 1)
        # codewords that use g, then the nonzero ones that do not
        wt = np.bitwise_count(prefixes[:, None] ^ cands).min(axis=0)
        wt = np.minimum(wt, np.bitwise_count(prefixes[1:]).min(initial=s + 1))
        profile.append(int(wt.max()))
        survivors = cands[wt == profile[-1]]
    return RowSearchResult(
        optimal_rows=tuple([BitVec(width, int(r)) for r in survivors]),
        profile=tuple(profile),
        evaluated=1 << width,
    )


# ---------------------------------------------------------------------------
# Brute-force optimality over column-permutation orbits
#
# Column c's "tube" stacks it through G_0..G_delta: bit i*k + r is row r of
# G_i.  A simultaneous column permutation reorders the tubes and keeps the
# column distances, so the search visits one sorted n-tuple of tubes per
# orbit, in lexicographic order.  Each batch of orbits is then turned once
# into stacked rows (row i*k + r is row r of G_i), its window rows with the
# blocks reversed; the filter, the scores and the codes all read those rows.


def _orbit_chunks(values: int, n: int, rows: int):
    """Every nondecreasing n-tuple over range(values), in lexicographic
    order, as arrays of at most max(rows, 1) rows."""
    orbits = itertools.combinations_with_replacement(range(values), n)
    while chunk := list(itertools.islice(orbits, max(rows, 1))):
        yield np.array(chunk, dtype=np.int64)


def _stacked_rows(tubes: np.ndarray, height: int) -> np.ndarray:
    """Entry (b, i): the n-bit stacked row i of orbit b, whose bit c is bit
    i of tubes[b, c]."""
    column_bits = np.int64(1) << np.arange(tubes.shape[1], dtype=np.int64)
    return ((tubes[:, None, :] >> np.arange(height)[:, None]) & 1) @ column_bits


def _in_space(rows: np.ndarray, n: int, k: int, delta: int) -> np.ndarray:
    """Which orbits, given by their stacked rows, are delay-free codes of
    degree exactly delta.

    G_0 has full rank iff every nonzero combination of its rows is nonzero,
    which one span of the first k rows decides for the whole batch.  The
    degree is then G_delta != 0 for k = 1; for k > 1 it is the internal
    degree of each delay-free orbit's rows."""
    keep = xor_span(rows[:, :k].T, n)[1:, :, 0].all(axis=0)
    if k == 1:
        return keep & (rows[:, delta] != 0)
    keep[keep] = [_internal_degree(stack, n, k) == delta for stack in rows[keep].tolist()]
    return keep


def price_search(n: int, k: int, delta: int, horizon: int) -> None:
    """Refuse, before anything is built, a brute force over the delay-free
    (n, k, delta) codes to `horizon` that a guard does not admit.

    The predicted work is C(2^(k(delta+1)) + n - 1, n) orbits x 2^(k*J)
    messages x J steps, J = max(horizon, delta) + 1, plus, for k > 1,
    _REPRESENTATIVE_WORK per orbit for its predicates.  A horizon below
    delta is priced as delta: nearly every orbit can tie there, and each
    tie becomes a code.  A J whose 2^(k*J) messages alone pass the message
    guard, which is no larger than the work guard, is refused first."""
    check_parameters(n, k, delta)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    steps = max(horizon, delta) + 1
    if k * steps > MESSAGE_GUARD_BITS:
        raise ValueError(f"{k * steps} message bits exceed the exhaustion guard")
    bits = k * n * (delta + 1)
    if bits > CODE_SEARCH_GUARD_BITS:
        raise ValueError(f"2^{bits} coefficient choices exceed the search guard")
    orbits = math.comb((1 << (k * (delta + 1))) + n - 1, n)
    per_orbit = (steps << (k * steps)) + (_REPRESENTATIVE_WORK if k > 1 else 0)
    if orbits * per_orbit > BRUTEFORCE_WORK_GUARD:
        raise ValueError(
            f"{orbits} orbits x 2^{k * steps} messages x {steps} steps "
            "exceed the brute-force work guard"
        )


def _scored_orbits(n: int, k: int, delta: int, horizon: int):
    """Yield (rows, profiles) chunks: the stacked rows of every orbit of
    delay-free (n, k, delta) codes in lexicographic order, with its
    d_0..d_horizon, in batches of at most 2^convcode._CHUNK_BITS message
    prefixes.  The callers run `price_search` first."""
    window = [e * k + r for e in range(min(horizon, delta), -1, -1) for r in range(k)]
    batch = (1 << convcode._CHUNK_BITS) >> (k * (horizon + 1))
    for tubes in _orbit_chunks(1 << (k * (delta + 1)), n, batch):
        rows = _stacked_rows(tubes, k * (delta + 1))
        rows = rows[_in_space(rows, n, k, delta)]
        if len(rows):
            tables = span_weights(xor_span(rows[:, window].T, n), np.uint8)
            yield rows, _min_weights(tables, k, horizon)


def _lex_max_rows(profiles: np.ndarray) -> np.ndarray:
    """Indices of the lexicographically largest rows of `profiles`."""
    rows = np.arange(len(profiles))
    for col in profiles.T:
        vals = col[rows]
        rows = rows[vals == vals.max()]
    return rows


def _best_orbits(scored, key_len: int):
    """The lexicographically largest profile, and the stacked rows of every
    orbit whose first key_len distances equal its own, in orbit order."""
    best, achievers = None, []
    for rows, profiles in scored:
        top = tuple([int(v) for v in profiles[_lex_max_rows(profiles)[0]]])
        if best is None or top[:key_len] > best[:key_len]:
            best, achievers = top, []
        elif top[:key_len] < best[:key_len]:
            continue
        best = max(best, top)
        ties = (profiles[:, :key_len] == best[:key_len]).all(axis=1)
        achievers.append(rows[ties])
    if best is None:
        raise ValueError("empty enumeration space")
    return best, np.concatenate(achievers)


def optimal_codes_bruteforce(n: int, k: int, delta: int, horizon: int):
    """Lexicographically maximal profile d_0..d_horizon over every delay-free
    (n, k, delta) code, with one representative per column-permutation orbit
    that achieves it, in lexicographic order of the sorted tubes."""
    price_search(n, k, delta, horizon)
    best, rows = _best_orbits(_scored_orbits(n, k, delta, horizon), horizon + 1)
    return best, [_stacked_code(stack, n, k, delta) for stack in rows.tolist()]


def verify_optimal(c: ConvCode, horizon: Optional[int] = None) -> OptimalityVerdict:
    """Decide whether c's profile is lexicographically maximal to the horizon,
    and whether its d_0..d_delta are maximal (the paper's claim).

    One search to max(horizon, delta) answers both: the prefix of a
    lexicographic maximum is the maximum of the prefixes.  A code whose
    declared degree is not its internal degree is refused, since the search
    enumerates only codes of the declared degree.  Otherwise the search
    enumerates c's orbit: c's row-reduced form is a delay-free code of that
    degree with c's column distances.  So when c is maximal, a tie (another
    maximal orbit, agreeing with c through the horizon but perhaps not
    beyond) is reported exactly when more than one orbit achieves the
    maximum.
    """
    if horizon is None:
        horizon = c.delta + 5
    price_search(c.n, c.k, c.delta, horizon)
    check_degree(c)
    depth = max(horizon, c.delta)
    profile = tuple(column_distances_exhaustive(c, depth))
    best, rows = _best_orbits(_scored_orbits(c.n, c.k, c.delta, depth), horizon + 1)
    through_delta = not profile[: c.delta + 1] < best[: c.delta + 1]
    if profile[: horizon + 1] < best[: horizon + 1]:
        witness = _stacked_code(rows[0].tolist(), c.n, c.k, c.delta)
        return OptimalityVerdict(False, horizon, witness, False, through_delta)
    return OptimalityVerdict(True, horizon, None, len(rows) > 1, through_delta)
