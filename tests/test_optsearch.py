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
    optimal_codes_bruteforce,
    search_optimal_row,
    verify_optimal,
    wt_profile,
)
from convdist.simplex import m_fold, partial_simplex
from poly_oracle import code_from_rows, transpose


def orbit(code, mu):
    """The sorted column tubes of code through G_mu, which name its
    column-permutation orbit: bit i*k + r of a tube is row r of G_i."""
    stack = [code.coeff(i).row_bits[r] for i in range(mu + 1) for r in range(code.k)]
    return tuple(sorted(transpose(stack, code.n)))


def row_reduced_orbit(code):
    """The orbit through G_delta of the row-reduced form of code, the form
    whose tubes lie in the enumerated space."""
    n, mask = code.n, (1 << code.n) - 1
    rows = convcode._row_reduce(
        [sum(g.row_bits[r] << (i * n) for i, g in enumerate(code.coeffs)) for r in range(code.k)], n
    )
    stack = [(g >> (i * n)) & mask for i in range(code.delta + 1) for g in rows]
    return tuple(sorted(transpose(stack, n)))


def lifts(code):
    """[g1; g2 + z^t g1] for t = 1, 2: unimodular row operations, which keep
    G_0, the code and its column distances, and mostly leave G(z) not
    row-reduced."""
    g1, g2 = ([g.row_bits[r] for g in code.coeffs] for r in range(2))
    for t in (1, 2):
        rows2 = g2 + [0] * t
        for i, row in enumerate(g1):
            rows2[i + t] ^= row
        coeffs = [BitMatrix(code.n, pair) for pair in zip(g1 + [0] * t, rows2)]
        while coeffs[-1].is_zero():
            coeffs.pop()
        yield ConvCode(code.n, 2, tuple(coeffs), code.delta)


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
        best, achievers = optimal_codes_bruteforce(2, 1, 1, 4)
        assert best == (2, 3, 3, 3, 3)
        assert column_distances_exhaustive(achievers[0], 4) == [2, 3, 3, 3, 3]

    def test_achievers_are_permutations_for_2_1_1(self):
        _, achievers = optimal_codes_bruteforce(2, 1, 1, 4)
        assert len({orbit(a, 1) for a in achievers}) == 1

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

    def test_deep_horizon_is_refused_before_pricing_orbits(self):
        # 2^(k * steps) messages alone pass the guard; no such number is formed
        assert 1 << convcode.MESSAGE_GUARD_BITS <= optsearch.BRUTEFORCE_WORK_GUARD
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="message bits"):
            optimal_codes_bruteforce(2, 1, 1, 10**9)
        assert time.monotonic() - t0 < 0.1

    @pytest.mark.parametrize("n", [25, 64, 65])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("delta", [0, 1])
    def test_rows_past_one_word_are_refused(self, n, k, delta):
        # `_stacked_rows` packs each stacked row into one int64 word
        with pytest.raises(ValueError, match="coefficient choices exceed the search guard"):
            optsearch.price_search(n, k, delta, 0)

    def test_k_above_n_is_refused_before_enumerating(self):
        with pytest.raises(ValueError, match="n=2, k=3, delta=1 name no code"):
            optimal_codes_bruteforce(2, 3, 1, 1)

    def test_one_representative_per_orbit_in_order(self):
        best, achievers = optimal_codes_bruteforce(3, 2, 1, 6)
        orbits = [orbit(a, 1) for a in achievers]
        assert orbits == sorted(set(orbits))
        assert all(column_distances_exhaustive(a, 6) == list(best) for a in achievers)


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

    def test_declared_degree_must_be_the_internal_degree(self):
        # internal degree 2 and d_0..d_3 = (3, 4, 5, 6), against the (3, 1, 1)
        # optimum (3, 4, 5, 5): the search must not compare it with that space
        code = code_from_rows(["111", "101", "011"], delta=1)
        assert internal_degree(code) == 2
        with pytest.raises(ValueError, match="declared degree 1 is not the internal degree 2"):
            verify_optimal(code, 3)

    def test_rank_deficient_code_is_refused_in_words(self):
        code = code_from_rows(["11", "11"], k=2, delta=0)
        assert internal_degree(code) is None
        with pytest.raises(ValueError, match=r"degree 0 is not an internal degree: G\(z\) has rank below k$"):
            verify_optimal(code)

    def test_non_row_reduced_matrix_matches_its_own_orbit(self):
        # [g1; g2 + z*g1] generates the (3, 2, 0) even-weight code, the one
        # optimal orbit; with mu = 1 > delta only its row-reduced form has
        # tubes in the enumerated space, and that is the one achiever.
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
    return {orbit(c, delta) for c in codes}


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
    orbits = [orbit(a, delta) for a in achievers]
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
        ref_ties = any(orbit(c, delta) != orbit(code, delta) for c in ref_codes)
        assert verdict.ties_at_horizon == ref_ties
    else:
        assert orbit_set([verdict.witness], delta) <= orbit_set(ref_codes, delta)


@pytest.mark.parametrize(
    "n,k,delta,horizon", [case for case in ORACLE_CASES if case[1] == 2] + [(3, 2, 0, 5)]
)
def test_non_row_reduced_lifts_match_their_own_orbits(n, k, delta, horizon):
    """The lifts of every code that achieves the sequence search's optimum
    (the codes whose tie verdict depends on the orbit match), against the
    oracle's achievers compared through the tubes of each lift's
    row-reduced form.  (3, 2, 0) has one optimal orbit, so no tie."""
    _, achievers = sequence_search(n, k, delta, horizon)
    ref_orbits = orbit_set(achievers, delta)
    for code in achievers:
        for lift in lifts(code):
            assert internal_degree(lift) == delta
            verdict = verify_optimal(lift, horizon)
            assert verdict.optimal
            assert verdict.ties_at_horizon == bool(ref_orbits - {row_reduced_orbit(lift)})


def test_orbit_chunks_cover_every_multiset_in_order():
    for values, n, rows in [(4, 3, 5), (8, 2, 3), (5, 1, 2), (3, 4, 100), (16, 3, 0)]:
        chunks = list(optsearch._orbit_chunks(values, n, rows))
        assert all(len(chunk) <= max(rows, 1) for chunk in chunks)
        got = [tuple(row) for chunk in chunks for row in chunk.tolist()]
        assert got == list(itertools.combinations_with_replacement(range(values), n))


SPACES = [(3, 1, 2), (4, 2, 1), (3, 3, 0), (2, 2, 2)]


@pytest.mark.parametrize("n, k, delta", SPACES)
def test_stacked_rows_are_the_transposed_tubes(n, k, delta):
    height = k * (delta + 1)
    (tubes,) = optsearch._orbit_chunks(1 << height, n, 1 << 20)
    want = [transpose(row, height) for row in tubes.tolist()]
    assert optsearch._stacked_rows(tubes, height).tolist() == want


@pytest.mark.parametrize("n, k, delta", SPACES)
def test_space_filter_matches_the_predicates(n, k, delta):
    """The batch delay-free test and the degree test on every orbit, against
    the predicates run on each orbit's representative."""
    height = k * (delta + 1)
    (tubes,) = optsearch._orbit_chunks(1 << height, n, 1 << 20)
    stacks = [transpose(row, height) for row in tubes.tolist()]
    codes = [convcode._stacked_code(stack, n, k, delta) for stack in stacks]
    delay_free = [is_delay_free(c) for c in codes]
    want = [free and internal_degree(c) == delta for free, c in zip(delay_free, codes)]
    rows = optsearch._stacked_rows(tubes, height)
    assert optsearch._in_space(rows, n, k, delta).tolist() == want
    # each test refuses some orbits; at delta = 0 every delay-free one passes
    assert any(want) and not all(delay_free) and (want != delay_free or delta == 0)


def test_small_batches_and_pieces_give_the_same_search(monkeypatch):
    """An in-flight budget of 2^5 entries splits every level into orbit
    chunks of one row and kernel pieces of a few prefixes; the results must
    not depend on where the splits fall."""
    cases = [(5, 1, 2, 7), (3, 1, 3, 3), (3, 2, 1, 2), (2, 1, 4, 9)]
    expected = [optimal_codes_bruteforce(*case) for case in cases]
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


# (n, delta) -> (the construction's d_0..d_delta, the optimum).  Empty
# since the (4, 4) residual table entry is an optimal (4, 1, 4) code.
KNOWN_SHORTFALLS = {}


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
