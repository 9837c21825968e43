import itertools
import random
import time

import pytest

from convdist import convcode, optsearch
from convdist.construct import construct
from convdist.convcode import (
    ConvCode,
    column_distances_exhaustive,
    column_distances_trellis,
    internal_degree,
    is_delay_free,
)
from convdist.gf2core import BitMatrix
from convdist.optsearch import (
    _padded_tubes,
    best_profile_bruteforce,
    codes_equivalent_by_column_permutation,
    optimal_codes_bruteforce,
    search_optimal_row,
    verify_optimal,
    wt_profile,
)
from convdist.simplex import m_fold, partial_simplex


def code_from_rows(rows, k=1, delta=None):
    n = len(rows[0])
    coeffs = tuple(
        BitMatrix.from_strings(rows[i : i + k]) for i in range(0, len(rows), k)
    )
    if delta is None:
        delta = len(coeffs) - 1
    return ConvCode(n, k, coeffs, delta)


class TestWtProfile:
    def test_partial_simplex_prefixes(self):
        m = partial_simplex(3)
        # prefix minima over nonzero combinations of the three rows
        assert wt_profile(m, range(1, 5)) == (0, 0, 1, 2)

    def test_guard_and_range(self):
        with pytest.raises(ValueError):
            wt_profile(BitMatrix.zeros(31, 2), [1])
        with pytest.raises(ValueError):
            wt_profile(partial_simplex(2), [3])


def _row_scan(top):
    """The profile maximum and its rows, from wt_profile of every [top; g]."""
    width = top.cols
    profiles = [
        wt_profile(BitMatrix(width, top.row_bits + (g,)), range(1, width + 1))
        for g in range(1 << width)
    ]
    best = max(profiles)
    return best, [g for g, p in enumerate(profiles) if p == best]


def _random_tops():
    """Seeded random tops of up to 5 rows and 11 columns, and all-zero tops."""
    rng = random.Random(2026)
    widths = list(range(1, 12)) + [rng.randint(1, 9) for _ in range(24)]
    for width in widths:
        rows = rng.randint(1, 5)
        yield BitMatrix(width, tuple(rng.getrandbits(width) for _ in range(rows)))
    for rows, width in [(1, 1), (2, 6), (5, 10)]:
        yield BitMatrix.zeros(rows, width)


class TestRowSearch:
    def test_matches_scalar_oracle_on_small_top(self):
        for top in _random_tops():
            res = search_optimal_row(top)
            best, rows = _row_scan(top)
            assert res.profile == best
            assert [v.bits for v in res.optimal_rows] == rows
            assert res.evaluated == 1 << top.cols

    def test_24_column_top_in_under_a_second(self):
        # the full scan of all 2^24 rows took about 32 s for the same result
        t0 = time.monotonic()
        res = search_optimal_row(m_fold(partial_simplex(3), 6))
        assert time.monotonic() - t0 < 1.0
        assert res.profile == (0, 0, 0, 1, 1, 2, 3, 4, 4, 4, 4, 5, 5, 6, 7, 8, 8, 8, 8, 9, 9, 10, 11, 12)
        assert len(res.optimal_rows) == 512
        assert res.evaluated == 1 << 24

    def test_refuses_wide_searches_at_once(self):
        # every row ties on an all-zero top, so the survivors double each
        # step until a step table would pass the memory guard
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="memory guard"):
            search_optimal_row(BitMatrix.zeros(1, 25))
        assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="64-bit word"):
            search_optimal_row(BitMatrix.zeros(1, 65))
        assert time.monotonic() - t0 < 0.1


class TestBruteForce:
    def test_best_profile_2_1_1(self):
        prof, witness = best_profile_bruteforce(2, 1, 1, 4)
        assert prof.values == (2, 3, 3, 3, 3)
        assert column_distances_exhaustive(witness, 4) == [2, 3, 3, 3, 3]

    def test_achievers_are_permutations_for_2_1_1(self):
        _, achievers = optimal_codes_bruteforce(2, 1, 1, 4)
        ref = achievers[0]
        assert all(
            codes_equivalent_by_column_permutation(ref, other) for other in achievers
        )

    def test_k2_enumeration_includes_short_mu(self):
        # with k = 2 and delta = 1, generic degrees (1, 0) force mu = 1, but
        # the enumeration must re-derive the degree instead of requiring a
        # nonzero G_delta row pattern in any fixed position
        best, achievers = optimal_codes_bruteforce(3, 2, 1, 2)
        assert achievers
        assert all(a.delta == 1 for a in achievers)

    def test_guard(self):
        with pytest.raises(ValueError):
            optimal_codes_bruteforce(6, 1, 4, 5)

    def test_work_guard_refuses_before_enumerating(self):
        # 24 coefficient bits pass the bit guard, but C(4097, 2) orbits x 2^17
        # messages x 17 steps do not pass the work guard
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="work guard"):
            optimal_codes_bruteforce(2, 1, 11, 16)
        with pytest.raises(ValueError, match="work guard"):
            verify_optimal(construct(2, 1, 11)[0])
        # a horizon below delta is priced as delta
        with pytest.raises(ValueError, match="work guard"):
            optimal_codes_bruteforce(1, 1, 23, 0)
        assert time.monotonic() - t0 < 1.0

    def test_k_above_n_is_refused_before_enumerating(self):
        with pytest.raises(ValueError, match="empty enumeration space"):
            optimal_codes_bruteforce(2, 3, 1, 1)

    def test_one_representative_per_orbit_in_order(self):
        best, achievers = optimal_codes_bruteforce(3, 2, 1, 6)
        orbits = [tuple(_padded_tubes(a, 1)) for a in achievers]
        assert orbits == sorted(set(orbits))
        assert all(column_distances_exhaustive(a, 6) == list(best) for a in achievers)


class TestEquivalence:
    def test_permutation_detected(self):
        a = code_from_rows(["1111", "1010", "1100"])
        b = a.permute_columns([3, 1, 0, 2])
        assert codes_equivalent_by_column_permutation(a, b)

    def test_different_codes(self):
        a = code_from_rows(["11", "10"])
        b = code_from_rows(["11", "11"])
        assert not codes_equivalent_by_column_permutation(a, b)

    def test_different_mu_padding(self):
        a = code_from_rows(["11", "10"])
        b = code_from_rows(["11", "10", "01"])
        assert not codes_equivalent_by_column_permutation(a, b)


class TestVerifyOptimal:
    def test_optimal_code(self):
        verdict = verify_optimal(code_from_rows(["11", "10"]))
        assert verdict.optimal
        assert verdict.witness is None
        assert not verdict.ties_at_horizon

    def test_suboptimal_code(self):
        verdict = verify_optimal(code_from_rows(["11", "11"]))
        assert not verdict.optimal
        assert verdict.witness is not None
        better = column_distances_exhaustive(verdict.witness, verdict.horizon)
        worse = column_distances_exhaustive(
            code_from_rows(["11", "11"]), verdict.horizon
        )
        assert tuple(better) > tuple(worse)

    def test_horizon_override(self):
        verdict = verify_optimal(code_from_rows(["11", "10"]), horizon=3)
        assert verdict.horizon == 3

    def test_negative_horizon_is_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("verify_optimal started work")

        monkeypatch.setattr(optsearch, "column_distances_exhaustive", no_work)
        monkeypatch.setattr(optsearch, "_scored_orbits", no_work)
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            verify_optimal(construct(4, 1, 2)[0], -1)

    def test_non_row_reduced_matrix_matches_its_own_orbit(self):
        # [g1; g2 + z*g1] generates the (3, 2, 0) even-weight code, the one
        # optimal orbit; with mu = 1 > delta only its row-reduced form has
        # tubes in the enumerated space, and those match that orbit.
        g0 = BitMatrix.from_strings(["110", "011"])
        reduced = ConvCode(3, 2, (g0,), 0)
        lifted = ConvCode(3, 2, (g0, BitMatrix.from_strings(["000", "110"])), 0)
        assert len(optimal_codes_bruteforce(3, 2, 0, 5)[1]) == 1
        assert not verify_optimal(reduced).ties_at_horizon
        verdict = verify_optimal(lifted)
        assert verdict.optimal and not verdict.ties_at_horizon


# ---------------------------------------------------------------------------
# The brute force over coefficient sequences, one ConvCode per sequence, kept
# as the oracle for the orbit search.


def _enumerate_codes(n, k, delta):
    """Every delay-free coefficient sequence of degree exactly delta.

    For k = 1 the degree equals the top coefficient index, so G_delta must be
    nonzero.  For k > 1 trailing zero matrices are trimmed and the degree is
    re-derived from the k x k minors.
    """
    mat_space = list(itertools.product(range(1 << n), repeat=k))
    for seq in itertools.product(mat_space, repeat=delta + 1):
        if k == 1:
            if seq[0][0] == 0 or (delta > 0 and seq[-1][0] == 0):
                continue
            yield ConvCode(n, k, tuple(BitMatrix(n, m) for m in seq), delta)
        else:
            trimmed = list(seq)
            while len(trimmed) > 1 and all(r == 0 for r in trimmed[-1]):
                trimmed.pop()
            if all(r == 0 for r in trimmed[-1]):
                continue
            code = ConvCode(n, k, tuple(BitMatrix(n, m) for m in trimmed), delta)
            if is_delay_free(code) and internal_degree(code) == delta:
                yield code


def sequence_search(n, k, delta, horizon):
    """Lexicographically maximal profile and every achieving sequence."""
    best, achievers = None, []
    for code in _enumerate_codes(n, k, delta):
        profile = tuple(column_distances_exhaustive(code, horizon))
        if best is None or profile > best:
            best, achievers = profile, [code]
        elif profile == best:
            achievers.append(code)
    return best, achievers


def orbit_set(codes, delta):
    return {tuple(_padded_tubes(c, delta)) for c in codes}


ORACLE_CASES = [
    (n, k, delta, horizon)
    for k in (1, 2)
    for delta in range(1, 10)
    for n in range(k, 11)
    if k * n * (delta + 1) <= 10
    for horizon in (delta, delta + 5)
] + [(3, 2, 1, 2)]


@pytest.mark.parametrize("n,k,delta,horizon", ORACLE_CASES)
def test_orbit_search_matches_sequence_search(n, k, delta, horizon):
    ref_best, ref_codes = sequence_search(n, k, delta, horizon)
    best, achievers = optimal_codes_bruteforce(n, k, delta, horizon)
    assert best == ref_best
    orbits = [tuple(_padded_tubes(a, delta)) for a in achievers]
    assert len(orbits) == len(set(orbits))
    assert set(orbits) == orbit_set(ref_codes, delta)
    if n <= k:
        return
    code, _ = construct(n, k, delta)
    profile = tuple(column_distances_exhaustive(code, horizon))
    verdict = verify_optimal(code, horizon)
    assert verdict.optimal == (not profile < ref_best)
    assert verdict.optimal_through_delta == (not profile[: delta + 1] < ref_best[: delta + 1])
    if verdict.optimal:
        ref_ties = any(not codes_equivalent_by_column_permutation(code, c) for c in ref_codes)
        assert verdict.ties_at_horizon == ref_ties
    else:
        assert orbit_set([verdict.witness], delta) <= orbit_set(ref_codes, delta)


def test_orbit_chunks_cover_every_multiset_in_order():
    for values, n, rows in [(4, 3, 5), (8, 2, 3), (5, 1, 2), (3, 4, 100), (16, 3, 0)]:
        chunks = list(optsearch._orbit_chunks(values, n, rows))
        assert all(len(chunk) <= max(rows, 1) for chunk in chunks)
        got = [tuple(row) for chunk in chunks for row in chunk.tolist()]
        assert got == list(itertools.combinations_with_replacement(range(values), n))


@pytest.mark.parametrize("n, k, delta", [(3, 1, 2), (4, 2, 1), (3, 3, 0), (2, 2, 2)])
def test_space_filter_matches_the_predicates(n, k, delta):
    """The batch delay-free test and the degree test on every orbit, against
    the predicates run on each orbit's representative."""
    (tubes,) = optsearch._orbit_chunks(1 << (k * (delta + 1)), n, 1 << 20)
    codes = [optsearch._code_from_tubes(n, k, delta, row) for row in tubes]
    delay_free = [is_delay_free(c) for c in codes]
    want = [free and internal_degree(c) == delta for free, c in zip(delay_free, codes)]
    assert optsearch._in_space(tubes, k, delta).tolist() == want
    # each test refuses some orbits; at delta = 0 every delay-free one passes
    assert any(want) and not all(delay_free) and (want != delay_free or delta == 0)


def test_small_batches_and_pieces_give_the_same_search(monkeypatch):
    """Orbit chunks of a few rows and kernel pieces of a few prefixes split
    every level; the results must not depend on where the splits fall."""
    cases = [(5, 1, 2, 7), (3, 1, 3, 3), (3, 2, 1, 2), (2, 1, 4, 9)]
    expected = [optimal_codes_bruteforce(*case) for case in cases]
    monkeypatch.setattr(optsearch, "_BATCH_BITS", 9)
    monkeypatch.setattr(convcode, "_CHUNK_BITS", 5)
    for case, (best, achievers) in zip(cases, expected):
        got_best, got = optimal_codes_bruteforce(*case)
        assert got_best == best
        assert [a.coeffs for a in got] == [a.coeffs for a in achievers]
    code, _ = construct(3, 1, 4)
    assert column_distances_exhaustive(code, 12) == column_distances_trellis(code, 12)


# ---------------------------------------------------------------------------
# The paper's claim: optimal d_0..d_delta, over every covered (n, 1, delta)


def test_optimal_through_delta_but_not_to_delta_plus_5():
    """A known limit of the stronger claim: the (5,1,2) construction has
    optimal d_0..d_2 but is not lexicographically optimal to j = 7."""
    t0 = time.monotonic()
    code, _ = construct(5, 1, 2)
    verdict = verify_optimal(code)
    assert verdict.optimal_through_delta
    assert not verdict.optimal
    assert column_distances_exhaustive(code, 7)[4] == 11
    assert column_distances_exhaustive(verdict.witness, 7)[4] == 12
    assert time.monotonic() - t0 < 2.0


# (n, delta) -> (the construction's d_0..d_delta, the optimum).  Both are
# table-backed extensions with m = 0 that fall one short at j = delta.
KNOWN_SHORTFALLS = {
    (6, 3): ((6, 9, 11, 13), (6, 9, 11, 14)),
    (4, 4): ((4, 6, 8, 9, 9), (4, 6, 8, 9, 10)),
}


def test_paper_claim_over_every_covered_rate_1_n_code():
    t0 = time.monotonic()
    shortfalls = {}
    for delta in range(1, 5):
        for n in range(2, 24 // (delta + 1) + 1):
            code, _ = construct(n, 1, delta)
            verdict = verify_optimal(code)
            if not verdict.optimal_through_delta:
                mine = tuple(column_distances_exhaustive(code, delta))
                best = tuple(column_distances_exhaustive(verdict.witness, delta))
                shortfalls[n, delta] = (mine, best)
    assert shortfalls == KNOWN_SHORTFALLS
    assert time.monotonic() - t0 < 30.0


def test_shortfall_witness_agrees_across_oracles():
    witness = code_from_rows(["111111", "010101", "001101", "000011"])
    assert column_distances_trellis(witness, 3) == [6, 9, 11, 14]
    assert column_distances_exhaustive(witness, 3) == [6, 9, 11, 14]
