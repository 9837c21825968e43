"""End-to-end acceptance checks for the constructions and distance oracles.

Each test covers one numbered criterion and prints a single pass line; a
failing assertion marks the criterion failed.  Runtime limits are asserted
with the stated budgets.
"""

import random
import time

import pytest

import convdist as cd
from convdist.construct import (
    DELTA2_S2_EXPECTED,
    DELTA2_S3_EXPECTED,
    OPT_ROWS_D3,
    WS3_EXPECTED,
    WT4_EXPECTED,
    _expand_d4,
    _residual_code_profile,
    recursive_partial_simplex_4,
)
from convdist.gf2core import BitMatrix


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def elapsed_under(t0, budget):
    dt = time.monotonic() - t0
    assert dt < budget, f"runtime {dt:.1f}s exceeds {budget}s budget"


def test_criterion_01_delta3_weight_table_and_optimal_rows():
    t0 = time.monotonic()
    top = cd.m_fold(cd.partial_simplex(3), 2)
    res = cd.search_optimal_row(top)
    assert res.profile[:7] == WS3_EXPECTED
    got = sorted(v.to_string() for v in res.optimal_rows)
    assert got == sorted(OPT_ROWS_D3)
    # characterization: (a b c d a+1 b+1 c+1 d+1) with a+b+c+d = 1
    for row in got:
        a, b, c, d = (int(ch) for ch in row[:4])
        assert row[4:] == "".join(str(1 - x) for x in (a, b, c, d))
        assert (a + b + c + d) % 2 == 1
    elapsed_under(t0, 1.0)
    report(1, "delta=3 weight table and all 8 optimal rows reproduced")


def test_criterion_02_delta4_weight_table_and_64_codes():
    t0 = time.monotonic()
    expected = sorted(_expand_d4(r) for r in OPT_ROWS_D3)
    total = 0
    for g3 in OPT_ROWS_D3:
        res = cd.search_optimal_row(recursive_partial_simplex_4(g3))
        assert res.evaluated == 1 << 16
        assert res.profile[:15] == WT4_EXPECTED
        rows = [v.to_string() for v in res.optimal_rows]
        structured = sorted(
            r for r in rows if r[0:4] == r[4:8] and r[8:12] == r[12:16]
        )
        assert structured == expected
        total += len(structured)
    assert total == 64
    elapsed_under(t0, 30.0)
    report(2, "delta=4 weight table and 8 rows per top choice (64 codes)")


def test_criterion_03_rate_1_n_profile_formula():
    t0 = time.monotonic()
    cases = [(m, d) for m in (1, 2) for d in (0, 1, 2, 3)] + [(1, 4)]
    for m, d in cases:
        n = m << d
        code, _ = cd.construct(n, 1, d)
        pred = cd.predicted_profile_rate_1_n(n, d, d + 5)
        trellis = cd.column_distances_trellis(code, d + 5)
        assert tuple(trellis) == pred.values
        if (d + 6) <= 30:  # exhaustive guard always allows these sizes
            exhaustive = cd.column_distances_exhaustive(code, d + 5)
            assert exhaustive == trellis
        assert cd.free_distance(code) == pred.free_distance == n + d * (n // 2)
    elapsed_under(t0, 60.0)
    report(3, "rate-1/n profiles and free distances match the closed form")


def test_criterion_04_k2_example_12_2_2():
    t0 = time.monotonic()
    code, _ = cd.construct(12, 2, 2)
    for values in (
        cd.column_distances_trellis(code, 1),
        cd.column_distances_exhaustive(code, 1),
    ):
        assert values == [8, 14]
    elapsed_under(t0, 1.0)
    report(4, "(12,2,2) construction has d_0 = 8 and d_1 = 14 by both oracles")


def test_criterion_05_delta2_extension_cases():
    t0 = time.monotonic()
    # residual tables
    for (x, y), expected in DELTA2_S2_EXPECTED.items():
        assert _residual_code_profile(["11", "10", f"{x}{y}"]) == expected
    for rows, expected in DELTA2_S3_EXPECTED.items():
        assert _residual_code_profile(list(rows)) == expected
    # combined codes; stated values hold through j = delta, free distances
    # saturate at the residual-augmented limits
    for n, head, free in [
        (5, (5, 7, 9), 11),
        (6, (6, 9, 11), 13),
        (7, (7, 10, 13), 15),
    ]:
        code, _ = cd.construct(n, 1, 2)
        assert cd.distance_profile(code, 2).values == head
        assert cd.free_distance(code) == free
    elapsed_under(t0, 5.0)
    report(5, "delta=2 extension residual tables and combined profiles verified")


def test_criterion_06_bruteforce_optimality():
    t0 = time.monotonic()
    for n, k, d in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (4, 1, 1), (4, 1, 2)]:
        code, _ = cd.construct(n, k, d)
        verdict = cd.verify_optimal(code)  # horizon defaults to delta + 5
        assert verdict.optimal, (n, k, d)
        if (n, k) == (2, 1):
            assert not verdict.ties_at_horizon, (n, k, d)
    elapsed_under(t0, 120.0)
    report(6, "constructions brute-force optimal; (2,1,delta) optima unique")


def test_criterion_07_near_optimal_bounds():
    t0 = time.monotonic()
    rng = random.Random(7)
    candidates = [
        (n, d) for d in range(1, 5) for n in range(2, 41) if n % (1 << d)
    ]
    for n, d in rng.sample(candidates, 20):
        # the paper's near-optimal construction: the first n canonical columns
        code = cd.stack_to_code(cd.canonical_stack(1, d, n), 1, d)
        bound = cd.near_optimal_bound_profile(n, d, d)
        prof = cd.distance_profile(code, d)
        exponents = cd.binary_decomposition(n - ((n >> d) << d))
        a_b = exponents[-1]
        for j in range(d + 1):
            assert prof.values[j] >= bound.values[j], (n, d, j)
            if j <= a_b - 1:
                assert 2 * prof.values[j] == 2 * n + j * n, (n, d, j)
    elapsed_under(t0, 120.0)
    report(7, "near-optimal construction dominates its bound profile (20 cases)")


def test_criterion_08_weight_propositions():
    t0 = time.monotonic()
    for m in (1, 2, 3):
        # full simplex: every nonzero message has weight m * 2^(k-1)
        for k in range(1, 11):
            mat = cd.m_fold(cd.simplex_generator(k), m)
            weights = _all_weights(mat)
            assert set(weights.values()) == {m << (k - 1)}
        # partial simplex: first unit message doubles the weight
        for dim in range(2, 11):
            mat = cd.m_fold(cd.partial_simplex(dim), m)
            weights = _all_weights(mat)
            assert weights[1] == m << (dim - 1)
            assert all(
                w == m << (dim - 2) for msg, w in weights.items() if msg != 1
            )
        # k-partial simplex: combinations of just the top k rows have the
        # full weight, everything else loses 2^(delta-1) per fold
        for k in range(1, 10):
            for delta in range(1, 11 - k):
                mat = cd.m_fold(cd.k_partial_simplex(k, delta), m)
                weights = _all_weights(mat)
                hi = m << (delta + k - 1)
                lo = hi - (m << (delta - 1))
                for msg, w in weights.items():
                    assert w == (hi if msg >> k == 0 else lo), (m, k, delta, msg)
    elapsed_under(t0, 60.0)
    report(8, "weight propositions hold exhaustively for dimensions <= 10")


def _all_weights(mat: BitMatrix):
    out = {}
    cw = 0
    prev = 0
    for i in range(1, 1 << mat.rows):
        g = i ^ (i >> 1)
        cw ^= mat.row_bits[(g ^ prev).bit_length() - 1]
        prev = g
        out[g] = cw.bit_count()
    return out


def _random_code(rng):
    while True:
        k = rng.choice((1, 2))
        n = rng.randint(k + 1, 6)
        delta = rng.randint(0, 4)
        coeffs = []
        for i in range(delta + 1):
            rows = tuple(rng.randrange(1 << n) for _ in range(k))
            coeffs.append(BitMatrix(n, rows))
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        code = cd.ConvCode(n, k, tuple(coeffs), 0)
        if not cd.is_delay_free(code):
            continue
        measured = cd.internal_degree(code)
        if measured is None or measured > 4:
            continue
        return cd.ConvCode(n, k, tuple(coeffs), measured)


def test_criterion_09_oracle_equivalence_and_bound_sandwich():
    t0 = time.monotonic()
    rng = random.Random(9)
    for _ in range(500):
        code = _random_code(rng)
        jmax = code.delta + 4
        ex = cd.column_distances_exhaustive(code, jmax)
        tr = cd.column_distances_trellis(code, jmax)
        assert ex == tr, code
        rep = cd.row_weight_bounds(code, jmax)
        for j in range(jmax + 1):
            assert rep.lower[j] <= ex[j] <= rep.upper[j] <= rep.cap[j], (code, j)
            assert ex[j] <= cd.column_bound(code.n, code.k, j), (code, j)
    elapsed_under(t0, 120.0)
    report(9, "trellis and exhaustive oracles agree; bounds bracket d_j (500 codes)")
