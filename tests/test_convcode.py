import functools
import heapq
import math
import random
import time
import tracemalloc

import pytest

from convdist import convcode
from convdist.construct import construct, predicted_profile_rate_1_n
from convdist.convcode import (
    STATE_GUARD_BITS,
    ConvCode,
    DistanceProfile,
    L_value,
    _stacked_code,
    column_bound,
    column_distances_exhaustive,
    column_distances_trellis,
    distance_profile,
    external_degree,
    free_distance,
    has_generic_row_degrees,
    internal_degree,
    is_delay_free,
    is_mdp,
    is_noncatastrophic,
    is_row_reduced,
    row_weight_bounds,
    row_degrees,
    singleton_bound,
    sliding_matrix,
)
from convdist.gf2core import BitMatrix, rank, transpose
from poly_oracle import PolyMatrix, k_minors, poly_gcd, vec_mat_mul


def code_from_rows(rows, k=1, delta=None):
    n = len(rows[0])
    coeffs = tuple(
        BitMatrix.from_strings(rows[i : i + k]) for i in range(0, len(rows), k)
    )
    if delta is None:
        delta = len(coeffs) - 1
    return ConvCode(n, k, coeffs, delta)


REP_211 = code_from_rows(["11", "10"])  # (2,1,1), profile (2,3,3,...)
REP_412 = code_from_rows(["1111", "1010", "1100"])  # (4,1,2)
CATASTROPHIC = code_from_rows(["11", "11"])  # G(z) = ((1+z, 1+z))


class TestConvCode:
    def test_validation(self):
        with pytest.raises(ValueError):
            code_from_rows(["11", "00"])  # trailing zero G_mu
        with pytest.raises(ValueError):
            ConvCode(2, 1, (BitMatrix.from_strings(["111"]),), 0)

    def test_coeff_zero_padding(self):
        assert REP_211.mu == 1
        assert REP_211.coeff(5).is_zero()


class TestSlidingMatrix:
    def test_block_layout(self):
        m = sliding_matrix(REP_211, 2)
        # row blocks carry G_0 on the diagonal and G_1 one block right
        assert m.row_strings() == ["111000", "001110", "000011"]

    def test_k2_layout(self):
        c = code_from_rows(["10", "01", "11", "10"], k=2)
        m = sliding_matrix(c, 1)
        assert m.row_strings() == ["1011", "0110", "0010", "0001"]

    def test_blocks_match_the_definition(self):
        rng = random.Random(149)
        for _ in range(300):
            c = random_delay_free_code(rng)
            for j in {0, 1, c.mu, c.mu + 2}:
                m = sliding_matrix(c, j)
                assert (m.rows, m.cols) == ((j + 1) * c.k, (j + 1) * c.n)
                for r in range(j + 1):
                    for i in range(c.k):
                        row = m.row_bits[r * c.k + i]
                        blocks = [row >> (s * c.n) & ((1 << c.n) - 1) for s in range(j + 1)]
                        want = [0] * r + [c.coeff(s).row_bits[i] for s in range(j + 1 - r)]
                        assert blocks == want, (c, j)

    def test_guard_refuses_before_building(self):
        # the first j refused: 2^14 + 1 rows of 2^15 + 2 bits take 2^15 * 2^10 words
        with pytest.raises(ValueError, match="25 sliding-matrix bits exceed the memory guard"):
            sliding_matrix(REP_211, 1 << 14)
        assert sliding_matrix(REP_211, 2000).rows == 2001


class TestDistances:
    def test_known_profiles(self):
        assert column_distances_exhaustive(REP_211, 4) == [2, 3, 3, 3, 3]
        assert column_distances_trellis(REP_211, 4) == [2, 3, 3, 3, 3]
        assert column_distances_exhaustive(REP_412, 5) == [4, 6, 8, 8, 8, 8]

    def test_methods_agree(self):
        for code in (REP_211, REP_412, CATASTROPHIC):
            jmax = code.delta + 4
            assert column_distances_exhaustive(code, jmax) == column_distances_trellis(
                code, jmax
            )

    def test_free_distance(self):
        assert free_distance(REP_211) == 3
        assert free_distance(REP_412) == 8

    def test_free_distance_rejects_catastrophic(self):
        with pytest.raises(ValueError):
            free_distance(CATASTROPHIC)

    def test_distance_profile_auto(self):
        prof = distance_profile(REP_412, 4)
        assert prof.values == (4, 6, 8, 8, 8)
        assert prof.free_distance is None
        assert prof.method == "trellis"

    def test_distance_profile_asks_the_step_guard(self):
        # memory + k = 24 fits the state tables, but 21 steps of 2^24 branch
        # updates pass the step guard; the exhaustive oracle answers at once
        c = code_from_rows(["1111"] + ["0000"] * 22 + ["1000"])
        assert external_degree(c) + c.k == STATE_GUARD_BITS
        with pytest.raises(ValueError, match="step guard"):
            column_distances_trellis(c, 20)
        prof = distance_profile(c, 20)
        assert prof.method == "exhaustive"
        assert prof.values[20] == 4

    def test_delta_zero(self):
        c = code_from_rows(["111"])
        assert distance_profile(c, 3).values == (3, 3, 3, 3)
        assert free_distance(c) == 3

    def test_requires_delay_free(self):
        c = ConvCode(
            2, 1, (BitMatrix.zeros(1, 2), BitMatrix.from_strings(["11"])), 1
        )
        with pytest.raises(ValueError):
            column_distances_exhaustive(c, 2)
        with pytest.raises(ValueError):
            column_distances_trellis(c, 2)

    def test_exhaustion_guard(self):
        with pytest.raises(ValueError):
            column_distances_exhaustive(REP_211, 30)

    def test_state_table_guard_precedes_allocation(self, monkeypatch):
        # memory + k = STATE_GUARD_BITS + 1: one bit over the guard
        rows = ["11"] + ["00"] * (STATE_GUARD_BITS - 1) + ["10"]
        c = code_from_rows(rows)

        def no_tables(*args):
            raise AssertionError("state tables built past the guard")

        monkeypatch.setattr(convcode, "xor_span", no_tables)
        with pytest.raises(ValueError, match="guard"):
            column_distances_trellis(c, 2)
        with pytest.raises(ValueError, match="guard"):
            free_distance(c)
        monkeypatch.undo()
        prof = distance_profile(c, 2)
        assert prof.method == "exhaustive" and prof.values == (2, 2, 2)

    def test_step_guard_precedes_the_state_tables(self, monkeypatch):
        # with the guard cut to 2^11, even one step of 2^12 branch updates is
        # refused, before the state tables of memory + k = 3 are built
        c, _ = construct(4, 1, 2)

        def no_tables(*args):
            raise AssertionError("state tables built past the step guard")

        monkeypatch.setattr(convcode, "STEP_WORK_GUARD", 1 << 11)
        monkeypatch.setattr(convcode, "xor_span", no_tables)
        with pytest.raises(ValueError, match=r"1 step of 2\^12 branch updates exceeds the step guard"):
            free_distance(c)

    @pytest.mark.parametrize(
        "code, jmax",
        [(ConvCode(2, 1, (BitMatrix.zeros(1, 2), BitMatrix.from_strings(["11"])), 1), 2),
         (REP_412, -1)],
        ids=["not-delay-free", "negative-jmax"],
    )
    def test_distance_profile_refuses_as_both_oracles(self, code, jmax):
        messages = []
        for oracle in (column_distances_trellis, column_distances_exhaustive, distance_profile):
            with pytest.raises(ValueError) as refusal:
                oracle(code, jmax)
            messages.append(str(refusal.value))
        assert len(set(messages)) == 1, messages

    def test_state_table_guard_counts_output_words(self, monkeypatch):
        # memory + k = 23 fits at n <= 64, but 130 columns take 3 words a state
        rows = ["1" * 130] + ["0" * 130] * 21 + ["1" + "0" * 129]
        c = code_from_rows(rows)
        assert external_degree(c) + c.k == STATE_GUARD_BITS - 1
        # the state-table guard admits the same rows cut to 64 columns, so
        # `_state_tables` goes on to the span, and refuses the 130 columns
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(convcode, "xor_span", admitted)
        with pytest.raises(Admitted):
            convcode._state_tables(code_from_rows([r[:64] for r in rows]))
        with pytest.raises(ValueError, match="state-table bits exceed the memory guard"):
            convcode._state_tables(c)
        monkeypatch.undo()

        def no_tables(*args):
            raise AssertionError("state tables built past the guard")

        monkeypatch.setattr(convcode, "xor_span", no_tables)
        with pytest.raises(ValueError, match="guard"):
            column_distances_trellis(c, 2)
        monkeypatch.undo()
        prof = distance_profile(c, 2)
        assert prof.method == "exhaustive" and prof.values == (130, 130, 130)

    def test_weight_table_guard_precedes_allocation(self, monkeypatch):
        # 26 message bits pass the message guard; a 2^26-entry table does not,
        # also when the code already keeps a shallower table
        c = code_from_rows(["11"] + ["00"] * 24 + ["10"])
        assert c.mu == 25
        assert column_distances_exhaustive(c, 3) == [2, 2, 2, 2]

        def no_tables(*args):
            raise AssertionError("weight tables built past the guard")

        monkeypatch.setattr(convcode, "xor_span", no_tables)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="guard"):
            column_distances_exhaustive(c, 25)
        assert time.monotonic() - t0 < 1.0

    def test_code_wider_than_one_word(self):
        code, _ = construct(96, 1, 5)
        pred = predicted_profile_rate_1_n(96, 5, 8)
        assert column_distances_trellis(code, 8) == list(pred.values)
        assert column_distances_exhaustive(code, 8) == list(pred.values)
        assert free_distance(code) == pred.free_distance == 96 + 5 * 48

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DistanceProfile((3, 2))
        with pytest.raises(ValueError):
            DistanceProfile((2, 3), free_distance=2)


class TestKeptValues:
    def test_each_table_is_built_once(self, monkeypatch):
        code, _ = construct(16, 1, 4)
        pred = predicted_profile_rate_1_n(16, 4, 9)
        spans, verdicts = [], []
        xor_span, left_prime = convcode.xor_span, convcode._left_prime
        monkeypatch.setattr(convcode, "xor_span", lambda rows, n: spans.append(len(rows)) or xor_span(rows, n))
        monkeypatch.setattr(convcode, "_left_prime", lambda c: verdicts.append(c) or left_prime(c))
        for _ in range(2):
            assert column_distances_trellis(code, 9) == list(pred.values)
            assert distance_profile(code, 9).values == pred.values
            assert free_distance(code) == pred.free_distance
            assert is_noncatastrophic(code)
        # one state table of memory + k = 5 rows, one verdict
        assert spans == [5] and verdicts == [code]
        assert column_distances_exhaustive(code, 2) == list(pred.values[:3])
        row_weight_bounds(code, 9)
        # a deeper window table replaces the shallower one, which it extends
        assert spans == [5, 3, 5]
        assert column_distances_exhaustive(code, 3) == list(pred.values[:4])
        row_weight_bounds(code, 2)
        assert spans == [5, 3, 5]

    def test_kept_arrays_are_read_only_prefixes(self):
        c = code_from_rows(["1111", "1010", "1100"])
        bw, _ = c._trellis
        with pytest.raises(ValueError, match="read-only"):
            bw[(0,) * bw.ndim] = 1
        # depth 0 is served as a strided view of the depth-2 table
        for jmax in (2, 0):
            table = convcode._window_weights(c, jmax)
            fresh = convcode._window_weights(code_from_rows(["1111", "1010", "1100"]), jmax)
            assert len(table) == 1 << (jmax + 1) and table.tolist() == fresh.tolist()
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_window_table_holds_n(self):
        assert convcode._window_weights(code_from_rows(["1" * 256]), 0).dtype == "uint16"
        # the lower bound sums past the uint8 entries of its table
        c = code_from_rows(["1" * 200, "1" * 100 + "0" * 100])
        assert convcode._window_weights(c, 1).dtype == "uint8"
        assert row_weight_bounds(c, 1).lower == (200, 300)

    def test_free_distance_reads_the_kept_run(self, monkeypatch):
        code, _ = construct(5, 1, 10)
        want = reference_free_distance(code)
        steps, step = [], convcode._min_plus_step
        monkeypatch.setattr(convcode, "_min_plus_step",
                            lambda *a, **kw: steps.append(1) or step(*a, **kw))
        jmax = code.delta + 5
        tr = column_distances_trellis(code, jmax)
        assert len(steps) == jmax + 1
        assert free_distance(code) == want and len(steps) == jmax + 1
        assert column_distances_trellis(code, 4) == tr[:5] and len(steps) == jmax + 1
        assert column_distances_trellis(code, jmax + 3)[: jmax + 1] == tr
        assert len(steps) == jmax + 4
        cur, _ = code._run
        with pytest.raises(ValueError, match="read-only"):
            cur[0] = 0
        # the other way round: the free distance stops early, and the trellis
        # goes on from where it stopped
        fresh = ConvCode(code.n, code.k, code.coeffs, code.delta)
        steps.clear()
        assert free_distance(fresh) == want and len(steps) < jmax + 1
        assert column_distances_trellis(fresh, jmax) == tr and len(steps) == jmax + 1

    def test_free_distance_derives_memory_once(self, monkeypatch):
        # memory + k prices every step of the search, derived once per call
        code, _ = construct(5, 1, 10)
        calls, degree = [], convcode.external_degree
        monkeypatch.setattr(convcode, "external_degree", lambda c: calls.append(c) or degree(c))
        assert free_distance(code) == reference_free_distance(code)
        assert len(code._run[1]) > 1 and calls == [code]

    def test_kept_values_leave_equality_and_hash_alone(self):
        a, b = (code_from_rows(["1111", "1010", "1100"]) for _ in range(2))
        free_distance(a)
        row_weight_bounds(a, 3)
        assert {"_trellis", "_run", "_noncatastrophic", "_window_table"} <= vars(a).keys()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


class TestStructure:
    def test_row_degrees_k2(self):
        c = code_from_rows(["10", "01", "11", "00"], k=2, delta=1)
        assert row_degrees(c) == [1, 0]
        assert external_degree(c) == 1

    def test_internal_degree(self):
        assert internal_degree(REP_412) == 2
        # rows (1, z), (0, 1): determinant 1, so internal degree 0 < external 1
        c = code_from_rows(["10", "01", "01", "00"], k=2, delta=1)
        assert internal_degree(c) == 0
        assert not is_row_reduced(c)
        assert is_noncatastrophic(c)

    def test_row_reduced(self):
        assert is_row_reduced(REP_412)
        assert is_row_reduced(REP_211)

    def test_delay_free(self):
        assert is_delay_free(REP_211)
        assert not is_delay_free(
            ConvCode(2, 1, (BitMatrix.zeros(1, 2), BitMatrix.from_strings(["10"])), 1)
        )

    def test_noncatastrophic(self):
        assert is_noncatastrophic(REP_211)
        assert not is_noncatastrophic(CATASTROPHIC)

    def test_independent_rows_need_a_full_g0(self):
        # the stacked rows are independent, but a row of G_0 is zero, so z
        # divides every minor: diag(1, z) and (z, z)
        assert not is_noncatastrophic(code_from_rows(["10", "00", "00", "01"], k=2))
        assert not is_noncatastrophic(code_from_rows(["00", "11"]))
        # independent rows and a full G_0: ((1, 0, z), (0, 1, 0)) is left prime
        assert is_noncatastrophic(code_from_rows(["100", "010", "001", "000"], k=2))

    @pytest.mark.parametrize("k, n, mu", [(1, 1, 3), (1, 2, 3), (1, 3, 3), (2, 2, 1), (2, 3, 1)])
    def test_noncatastrophic_matches_minor_gcd_on_every_code(self, k, n, mu):
        for bits in range(1 << k * n * (mu + 1)):  # every memory up to mu
            rows = [bits >> n * i & (1 << n) - 1 for i in range(k * (mu + 1))]
            c = _stacked_code(rows, n, k, mu)
            minors = [m for m in k_minors(PolyMatrix.from_coeffs(c.coeffs)) if m.bits]
            if not minors:
                with pytest.raises(ValueError, match="rank deficient"):
                    is_noncatastrophic(c)
                continue
            assert is_noncatastrophic(c) == (functools.reduce(poly_gcd, minors).bits == 1), rows

    @pytest.mark.parametrize("n", [300, 3000])
    def test_noncatastrophic_divides_by_the_basis_not_by_n(self, monkeypatch, n):
        # n distinct tubes of even weight: none is a monomial, the stacked rows
        # sum to zero, and 1 + z divides every column
        tubes = [t for t in range(1, 1 << 13) if t.bit_count() % 2 == 0][:n]
        c = _stacked_code(transpose(tubes, 13), n, 1, 12)
        calls = []
        divmod_ = convcode.poly_divmod
        monkeypatch.setattr(convcode, "poly_divmod", lambda a, b: calls.append(b) or divmod_(a, b))
        assert not is_noncatastrophic(c)
        # at most mu + 1 basis columns, each Euclid round lowers the pivot's degree
        assert 0 < len(calls) <= (c.mu + 1) ** 2

    def test_rank_deficient_raises(self):
        c = code_from_rows(["11", "11", "11", "11"], k=2, delta=1)
        for _ in range(2):  # on every call: an exception is not kept
            with pytest.raises(ValueError):
                is_noncatastrophic(c)
        assert internal_degree(c) is None

    def test_more_rows_than_columns_raises(self):
        c = code_from_rows(["10", "01", "11"], k=3, delta=0)
        with pytest.raises(ValueError):
            internal_degree(c)
        with pytest.raises(ValueError):
            is_noncatastrophic(c)

    def test_wide_rate_k_predicates_time_budget(self):
        # k x k minor enumeration took over 100 s on these two codes
        codes = [construct(112, 3, 4)[0], construct(60, 4, 3)[0]]
        t0 = time.monotonic()
        for c in codes:
            assert internal_degree(c) == c.delta
            assert is_noncatastrophic(c)
        dt = time.monotonic() - t0
        assert dt < 2.0, f"runtime {dt:.1f}s exceeds 2.0s budget"

    def test_generic_row_degrees(self):
        assert has_generic_row_degrees(REP_412)
        c = code_from_rows(["10", "01", "11", "00"], k=2, delta=1)
        assert has_generic_row_degrees(c)
        c2 = code_from_rows(["10", "01", "00", "00", "11", "00"], k=2, delta=2)
        assert not has_generic_row_degrees(c2)  # degrees (2, 0), generic is (1, 1)


class TestBounds:
    def test_closed_forms(self):
        assert singleton_bound(4, 1, 2) == 12
        assert column_bound(4, 1, 2) == 10
        assert L_value(4, 1, 2) == 2
        with pytest.raises(ValueError):
            L_value(2, 2, 1)

    def test_not_mdp_over_gf2(self):
        assert not is_mdp(REP_211)
        assert not is_mdp(REP_412)

    def test_row_weight_bounds_tight_on_exact_code(self):
        rep = row_weight_bounds(REP_412, 5)
        prof = distance_profile(REP_412, 5).values
        assert rep.lower == prof == rep.upper  # tight on this construction
        assert all(u <= c for u, c in zip(rep.upper, rep.cap))

    def test_row_weight_bounds_refuse_negative_jmax(self):
        with pytest.raises(ValueError, match="jmax must be >= 0"):
            row_weight_bounds(REP_412, -1)

    def test_step_guard(self):
        # jmax + 1 steps of max(2^branch_bits, 2^12) branch updates, at most 2^28
        convcode.check_jmax((1 << 16) - 1)
        convcode.check_jmax(15, STATE_GUARD_BITS)
        for jmax, branch_bits in [(1 << 16, 0), (16, STATE_GUARD_BITS)]:
            with pytest.raises(ValueError, match="step guard"):
                convcode.check_jmax(jmax, branch_bits)
        t0 = time.monotonic()
        for oracle in (row_weight_bounds, column_distances_trellis):
            with pytest.raises(ValueError, match="step guard"):
                oracle(REP_412, 10**9)
        assert time.monotonic() - t0 < 1.0

    def test_row_weight_bounds_bracket_distances(self):
        c = code_from_rows(["110", "011", "101"])
        rep = row_weight_bounds(c, 4)
        prof = distance_profile(c, 4).values
        for lo, d, up, cap in zip(rep.lower, prof, rep.upper, rep.cap):
            assert lo <= d <= up <= cap


def test_xor_span_matches_vec_mat_mul():
    rng = random.Random(70)
    m = BitMatrix(70, tuple(rng.getrandbits(70) for _ in range(6)))
    span = convcode.xor_span(m.row_bits, 70)
    assert span.shape == (64, 2)
    for i, (lo, hi) in enumerate(span.tolist()):
        assert lo | (hi << 64) == vec_mat_mul(i, m)


def branch(c, state, u):
    """Weight and next state of the branch (state, u) of a bit-level
    direct-form encoder: state bit offset_r + nu_r - e holds the input of row
    r from e steps ago, the numbering the state tables use."""
    out, nxt, off = 0, 0, 0
    for r, nu in enumerate(row_degrees(c)):
        u_r = (u >> r) & 1
        reg = (state >> off) & ((1 << nu) - 1)
        if u_r:
            out ^= c.coeffs[0].row_bits[r]
        for e in range(1, nu + 1):
            if (reg >> (nu - e)) & 1:
                out ^= c.coeffs[e].row_bits[r]
        nxt |= ((u_r << nu) | reg) >> 1 << off
        off += nu
    return out.bit_count(), nxt


def reference_free_distance(c):
    """Heap Dijkstra over `branch`: an oracle that shares nothing with the
    numpy state tables."""
    best = math.inf
    heap = []
    for u in range(1, 1 << c.k):
        w, s = branch(c, 0, u)
        if s == 0:
            best = min(best, w)
        else:
            heapq.heappush(heap, (w, s))
    settled = set()
    while heap:
        w, s = heapq.heappop(heap)
        if w >= best:
            break
        if s in settled:
            continue
        settled.add(s)
        for u in range(1 << c.k):
            w2, s2 = branch(c, s, u)
            if s2 == 0:
                best = min(best, w + w2)
            elif s2 not in settled:
                heapq.heappush(heap, (w + w2, s2))
    return best


def code_with_degrees(rng, n, nus):
    """A random code with row degrees nus and a full-rank G_0."""
    k = len(nus)
    while True:
        g0 = tuple(rng.getrandbits(n) for _ in range(k))
        if rank(BitMatrix(n, g0)) == k:
            break
    rows = [list(g0)] + [[0] * k for _ in range(max(nus))]
    for r, nu in enumerate(nus):
        for i in range(1, nu + 1):
            rows[i][r] = rng.getrandbits(n)
        while nu and not rows[nu][r]:
            rows[nu][r] = rng.getrandbits(n)
    return ConvCode(n, k, tuple(BitMatrix(n, tuple(g)) for g in rows), sum(nus))


def random_delay_free_code(rng, k=None):
    """k <= 3 unless given, n <= 7, row degrees summing to at most 6."""
    if k is None:
        k = rng.randint(1, 3)
    n = rng.randint(k, 7)
    while True:
        nus = [rng.randint(0, 6) for _ in range(k)]
        if sum(nus) <= 6:
            break
    return code_with_degrees(rng, n, nus)


def check_oracles(c):
    """Check both column-distance oracles, and the free distance against
    `reference_free_distance` when c is non-catastrophic; say whether it was."""
    jmax = min(c.mu + 3, 15 // c.k - 1)
    trellis = column_distances_trellis(c, jmax)
    assert trellis == column_distances_exhaustive(c, jmax), c
    if not is_noncatastrophic(c):
        return False
    assert free_distance(c) == reference_free_distance(c), c
    return True


def test_constructed_codes_oracles_agree():
    # n = 1 gives the catastrophic (1, 1, delta) code 1 + ... + z^delta
    for delta in range(7):
        for n in range(2, (2 << delta) + 2):
            assert check_oracles(construct(n, 1, delta)[0]), (n, delta)


def test_random_codes_oracles_agree():
    rng = random.Random(2305)
    assert sum(check_oracles(random_delay_free_code(rng)) for _ in range(600)) >= 300
    # k = 4, from a seed of its own so that the draws above stay as they were
    rng = random.Random(2404)
    assert sum(check_oracles(random_delay_free_code(rng, 4)) for _ in range(60)) >= 20


@pytest.mark.parametrize("leave_zero", [False, True])
def test_min_plus_step_matches_every_branch(leave_zero):
    """One step against the explicit minimum over every branch (s, u) -> t,
    from random labels, not only those of paths from the zero state; k = 1..4
    with rows of degree 0 and codes of memory 0."""
    from convdist.gf2core import np

    rng = random.Random(1357 + leave_zero)
    for nus in ([0], [1], [5], [0, 0], [2, 0], [0, 3], [2, 1],
                [0, 0, 0], [1, 0, 2], [2, 2, 1], [0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 2]):
        c = code_with_degrees(rng, rng.randint(len(nus), 7), nus)
        states = 1 << sum(nus)
        # a label at or above _INF means unreached, however far above
        labels = [convcode._INF if rng.random() < 0.25 else rng.randrange(40)
                  for _ in range(states)]
        want = [convcode._INF] * states
        for s in range(states):
            for u in range(1 << c.k):
                if not (leave_zero and s == u == 0):
                    w, t = branch(c, s, u)
                    want[t] = min(want[t], labels[s] + w)
        cur = np.array(labels, dtype=np.int32)
        got = convcode._min_plus_step(cur, *convcode._state_tables(c), leave_zero)
        assert np.minimum(got, convcode._INF).tolist() == want, nus
        assert cur.tolist() == labels


def scalar_min_weights(table, k, jmax):
    """d_0..d_jmax over every prefix u_0..u_j with u_0 != 0, one prefix at a
    time: prefix p has u_0 in its top block and its window is p mod size."""
    mask = len(table) - 1
    level = [(u, table[u]) for u in range(1, 1 << k)]
    dist = [min(w for _, w in level)]
    for _ in range(jmax):
        level = [
            (p << k | u, w + table[(p << k | u) & mask])
            for p, w in level
            for u in range(1 << k)
        ]
        dist.append(min(w for _, w in level))
    return dist


def newest_on_top(table, k):
    """`table`, laid out oldest block on top as `scalar_min_weights` reads
    it, with its blocks reversed: newest block on top, as `_window_weights`
    lays a table out and `_min_weights` reads it."""
    blocks, mask = (len(table).bit_length() - 1) // k, (1 << k) - 1
    out = [None] * len(table)
    for x, w in enumerate(table):
        out[sum((x >> k * e & mask) << k * (blocks - 1 - e) for e in range(blocks))] = w
    return out


@pytest.mark.parametrize("chunk_bits", [3, 4, 5, 22])
def test_min_weights_matches_scalar_enumeration(monkeypatch, chunk_bits):
    """Random window tables, not only tables of codes.  At 2^3 entries a
    piece stays inside one period of the table, at 2^22 it spans many.  At
    2^4, three k = 1 draws put a run's levels one entry past the budget; at
    2^5, two k = 1 draws fill it exactly.  `test_min_weights_at_the_piece_budget`
    pins both cases for k = 1, 2 and 3."""
    from convdist.gf2core import np

    monkeypatch.setattr(convcode, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(chunk_bits)
    cases = 0
    for k in (1, 2, 3):
        for depth in range(4):
            for jmax in range(8):
                if k * (jmax + 1) > 15:
                    continue
                high = rng.choice((10, 300))  # uint8 and uint16 sums
                tables = [
                    [rng.randrange(high) for _ in range(1 << (k * (depth + 1)))]
                    for _ in range(rng.randint(1, 5))
                ]
                laid_out = [newest_on_top(t, k) for t in tables]
                given = np.array(laid_out).T
                got = convcode._min_weights(given, k, jmax)
                want = [scalar_min_weights(t, k, jmax) for t in tables]
                assert got.tolist() == want, (k, depth, jmax)
                assert given.T.tolist() == laid_out
                cases += 1
    assert cases == 4 * (8 + 7 + 5)


@pytest.mark.parametrize(
    "k, jmax, chunk_bits, batch, spare",
    [(1, 3, 6, 9, 0), (1, 3, 5, 5, -1), (2, 2, 8, 17, 0), (2, 2, 7, 9, -1),
     (3, 2, 12, 65, 0), (3, 2, 11, 33, -1)],
)
def test_min_weights_at_the_piece_budget(monkeypatch, k, jmax, chunk_bits, batch, spare):
    """The levels under the first run, 2^(k jmax) - 1 entries per code, fill
    the budget of 2^chunk_bits // batch entries per code exactly (spare 0),
    or pass it by one entry (spare -1), so that the run is grown one level
    in pieces."""
    from convdist.gf2core import np

    assert (1 << chunk_bits) // batch - ((1 << k * jmax) - 1) == spare
    monkeypatch.setattr(convcode, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(chunk_bits)
    for depth in range(jmax + 1):
        tables = [[rng.randrange(300) for _ in range(1 << (k * (depth + 1)))]
                  for _ in range(batch)]
        got = convcode._min_weights(np.array([newest_on_top(t, k) for t in tables]).T, k, jmax)
        assert got.tolist() == [scalar_min_weights(t, k, jmax) for t in tables], depth


@pytest.mark.parametrize(
    "k, jmax, chunk_bits, batch, pieces",
    [(1, 1, 22, 1, 1), (1, 8, 22, 1, 1), (2, 3, 22, 32, 1), (1, 8, 4, 1, 16), (2, 4, 7, 4, 12),
     (1, 5, 22, 33, 1)],
)
def test_min_weights_reduces_each_piece_once(monkeypatch, k, jmax, chunk_bits, batch, pieces):
    """Each leaf piece takes d_j..d_jmax-1 of its levels with one `reduceat`,
    or one `reduce` per level for a batch wider than _REDUCEAT_BATCH, and
    d_jmax with one `reduce`.  A one-piece call makes one more `reduce`, for
    the lightest newest block of each window.  Split at 2^chunk_bits // batch
    entries per code, the pieces are the 2^(kj) (2^k - 1) prefixes of the
    first level j with levels j..jmax-1 in budget."""
    from convdist.gf2core import np

    calls = []

    class Minimum:
        def __call__(self, *args, **kwargs):
            return np.minimum(*args, **kwargs)

        def reduce(self, *args, **kwargs):
            calls.append("reduce")
            return np.minimum.reduce(*args, **kwargs)

        def reduceat(self, *args, **kwargs):
            calls.append("reduceat")
            return np.minimum.reduceat(*args, **kwargs)

    class Numpy:
        minimum = Minimum()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(convcode, "_CHUNK_BITS", chunk_bits)
    monkeypatch.setattr(convcode, "np", Numpy())
    rng = random.Random(jmax)
    tables = [[rng.randrange(300) for _ in range(1 << 3 * k)] for _ in range(batch)]
    got = convcode._min_weights(np.array([newest_on_top(t, k) for t in tables]).T, k, jmax)
    assert got.tolist() == [scalar_min_weights(t, k, jmax) for t in tables]
    narrow = batch <= convcode._REDUCEAT_BATCH
    assert calls.count("reduceat") == (pieces if narrow else 0)
    if pieces == 1:
        assert calls.count("reduce") == (2 if narrow else jmax + 2)


@pytest.mark.parametrize("params, jmax", [((2, 1, 2), 23), ((5, 1, 3), 25), ((3, 2, 1), 12),
                                          ((4, 3, 1), 8)])
def test_exhaustive_memory_stays_in_pieces(params, jmax):
    """Near the exhaustion guard the kernel holds one piece of at most
    2^_CHUNK_BITS entries at a time, 2^22 bytes of uint8 weights here, so
    its peak stays within 6 * 2^22 bytes."""
    from convdist.gf2core import np

    code, _ = construct(*params)
    np.zeros(1)  # numpy itself loads outside the trace
    tracemalloc.start()
    try:
        got = column_distances_exhaustive(code, jmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == column_distances_trellis(code, jmax)
    assert peak <= 6 << 22, peak
