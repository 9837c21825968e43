import os
import subprocess
import sys

import numpy as np
import pytest

import convdist

from convdist.cli import format_code_file, parse_code_file
from convdist.construct import (
    OPT_ROW_D3,
    OPT_ROW_D4,
    binary_decomposition,
    construct,
    construct_extended,
    construct_k_dim,
    construct_k_dim_extended,
    construct_near_optimal,
    construct_rate_1_n,
    near_optimal_bound_profile,
    predicted_profile_k_dim,
    predicted_profile_rate_1_n,
    recursive_partial_simplex_4,
    stack_to_code,
)
from convdist.convcode import (
    distance_profile,
    free_distance,
    internal_degree,
    is_delay_free,
    is_noncatastrophic,
    is_row_reduced,
)
from convdist.gf2core import BitMatrix, hstack
from convdist.simplex import k_partial_simplex, m_fold, min_weight_block_code, partial_simplex


def coeff_strings(code):
    return [g.row_strings() for g in code.coeffs]


class TestStackToCode:
    def test_k1_slices_rows(self):
        code = stack_to_code(partial_simplex(3), 1, 2)
        assert coeff_strings(code) == [["1111"], ["1010"], ["1100"]]

    def test_k2_pads_last_block(self):
        stack = BitMatrix.from_strings(["11", "10", "01", "11", "10"])
        code = stack_to_code(stack, 2, 3)
        assert code.mu == 2
        assert coeff_strings(code) == [
            ["11", "10"],
            ["01", "11"],
            ["10", "00"],
        ]

    def test_rejects_zero_degree_rows(self):
        stack = BitMatrix.from_strings(["11", "10", "00"])
        with pytest.raises(ValueError):
            stack_to_code(stack, 1, 2)

    def test_rejects_wrong_height(self):
        with pytest.raises(ValueError):
            stack_to_code(partial_simplex(3), 1, 3)


class TestRate1N:
    def test_known_small_codes(self):
        assert coeff_strings(construct_rate_1_n(1, 1)) == [["11"], ["10"]]
        assert coeff_strings(construct_rate_1_n(2, 1)) == [["1111"], ["1010"]]

    def test_profile_matches_formula(self):
        for m, delta in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            code = construct_rate_1_n(m, delta)
            pred = predicted_profile_rate_1_n(m << delta, delta, delta + 3)
            prof = distance_profile(code, delta + 3, with_free=True)
            assert prof.values == pred.values
            assert prof.free_distance == pred.free_distance

    def test_formula_rejects_non_multiples(self):
        with pytest.raises(ValueError):
            predicted_profile_rate_1_n(6, 2, 4)


class TestExtended:
    def test_delta1_odd_length(self):
        assert coeff_strings(construct_extended(3, 1)) == [["111"], ["101"]]

    def test_delta2_residuals(self):
        assert coeff_strings(construct_extended(6, 2)) == [
            ["111111"],
            ["101010"],
            ["110011"],
        ]
        assert coeff_strings(construct_extended(3, 2)) == [["111"], ["101"], ["110"]]

    def test_delta3_table_row(self):
        code = construct_extended(11, 3)
        assert code.coeffs[3].row_strings() == [
            partial_simplex(4).row_strings()[3] + OPT_ROW_D3[:3]
        ]

    def test_delta4_recursive_layout(self):
        top = recursive_partial_simplex_4()
        # the recursive layout is a column permutation of the canonical
        # 2-fold matrix
        canonical = m_fold(partial_simplex(4), 2)
        assert sorted(top.column(j).to_string() for j in range(16)) == sorted(
            canonical.column(j).to_string() for j in range(16)
        )
        code = construct_extended(16 + 5, 4)
        assert code.coeffs[4].row_strings() == [
            partial_simplex(5).row_strings()[4] + OPT_ROW_D4[:5]
        ]

    def test_out_of_table_range(self):
        with pytest.raises(ValueError):
            construct_extended(9, 5)


def nested_block_stack(m, r, delta):
    """The paper's nested-block search, as the oracle for the closed form.

    The m-fold S(delta+1)_1 is followed by one block per exponent a of r's
    binary decomposition: the block's top a rows are S(a)_1, and each of its
    columns is completed by the smallest unused canonical column of
    S(delta+1)_1 that agrees with it on those rows.
    """
    ps = partial_simplex(delta + 1)
    pool = np.array([ps.column(j).bits for j in range(ps.cols)])
    free = np.ones(ps.cols, dtype=bool)
    chosen = []
    for a in binary_decomposition(r):
        block = partial_simplex(a)
        for j in range(block.cols):
            want = block.column(j).bits
            idx = np.flatnonzero(free & ((pool & ((1 << a) - 1)) == want))[0]
            free[idx] = False
            chosen.append(int(pool[idx]))
    cols = [int(c) for c in pool] * m + chosen
    rows = [0] * (delta + 1)
    for j, col in enumerate(cols):
        for i in range(delta + 1):
            rows[i] |= ((col >> i) & 1) << j
    return BitMatrix(len(cols), tuple(rows))


class TestClosedFormColumns:
    def test_near_optimal_matches_nested_block_search(self):
        for delta in range(9):
            for m in (0, 1):
                for r in range(1 - m, 1 << delta):
                    expected = stack_to_code(nested_block_stack(m, r, delta), 1, delta)
                    code, _ = construct_near_optimal((m << delta) + r, delta)
                    assert code == expected, (m, r, delta)

    def test_small_delta_tables_are_the_nested_columns(self):
        for delta in (1, 2):
            for m in (0, 1):
                for r in range(1 - m, 1 << delta):
                    n = (m << delta) + r
                    code, _ = construct_near_optimal(n, delta)
                    assert construct_extended(n, delta) == code


class TestNearOptimal:
    def test_binary_decomposition(self):
        assert binary_decomposition(0) == ()
        assert binary_decomposition(1) == (1,)
        assert binary_decomposition(7) == (3, 2, 1)
        assert binary_decomposition(12) == (4, 3)

    def test_smallest_case(self):
        code, bound = construct_near_optimal(2, 2)
        assert coeff_strings(code) == [["11"], ["10"], ["11"]]
        assert bound.values == (2, 3, 3)

    def test_matches_table_for_delta2(self):
        code, _ = construct_near_optimal(7, 2)
        assert coeff_strings(code) == coeff_strings(construct_extended(7, 2))

    def test_bound_profile_shape(self):
        bound = near_optimal_bound_profile(10, 3, 3)
        # n1 = 8, leftover 2 = 2^1: increments 4+1, then 4, 4
        assert bound.values == (10, 15, 19, 23)

    def test_construction_dominates_bound(self):
        for n, delta in [(3, 2), (5, 3), (13, 3), (21, 4)]:
            code, bound = construct_near_optimal(n, delta)
            prof = distance_profile(code, delta)
            assert all(d >= b for d, b in zip(prof.values, bound.values))


class TestKDim:
    def test_s42_slicing(self):
        code = construct_k_dim(1, 2, 2)
        assert coeff_strings(code) == [
            ["110110110110", "101101101101"],
            ["111000111000", "111111000000"],
        ]

    def test_profile_formula(self):
        code = construct_k_dim(1, 2, 2)
        pred = predicted_profile_k_dim(12, 2, 2, 3)
        assert distance_profile(code, 3).values == pred.values

    def test_k2_delta3_padding(self):
        code = construct_k_dim(1, 2, 3)
        assert code.mu == 2
        assert code.coeffs[2].row_bits[1] == 0
        assert internal_degree(code) == 3

    def test_extended_search(self):
        code = construct_k_dim_extended(13, 2, 2)
        assert code.n == 13
        assert is_delay_free(code)
        assert internal_degree(code) == 2
        base = distance_profile(construct_k_dim(1, 2, 2), 2).values
        ext = distance_profile(code, 2).values
        assert all(e >= b for e, b in zip(ext, base))


class TestDispatcher:
    @pytest.mark.parametrize(
        "n,k,delta,provenance",
        [
            (8, 1, 2, "rate-1/n exact"),
            (7, 1, 2, "table-backed extension, s=3"),
            (33, 1, 5, "near-optimal"),
            (12, 2, 2, "k-dim exact"),
            (14, 2, 2, "k-dim search extension"),
        ],
    )
    def test_provenance_and_validity(self, n, k, delta, provenance):
        code, plan = construct(n, k, delta)
        assert (code.n, code.k, code.delta) == (n, k, delta)
        assert plan.provenance == provenance
        assert plan.base_width + plan.extension.width == n
        assert is_delay_free(code)
        assert is_row_reduced(code)
        assert is_noncatastrophic(code)
        assert internal_degree(code) == delta

    def test_plan_extension_columns(self):
        _, plan = construct(7, 1, 2)
        assert plan.extension.columns.row_strings() == ["111", "101", "110"]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            construct(0, 1, 1)
        with pytest.raises(ValueError):
            construct(4, 1, -1)

    def test_small_parameter_sets_are_built_or_refused(self):
        # k > n is refused before any work; every code returned is delay-free,
        # has internal degree delta, and survives the code-file round trip
        built = 0
        for k in range(1, 5):
            for n in range(1, 13):
                for delta in range(5):
                    if k > n:
                        for build in (construct, construct_k_dim_extended):
                            with pytest.raises(ValueError, match="k <= n"):
                                build(n, k, delta)
                        continue
                    try:
                        code, _ = construct(n, k, delta)
                    except ValueError:
                        continue
                    assert is_delay_free(code), (n, k, delta)
                    assert internal_degree(code) == delta, (n, k, delta)
                    assert parse_code_file(format_code_file(code)) == code
                    built += 1
        assert built == 155  # 55 of the 210 sets with k <= n fall below delta

    def test_free_distances_of_small_family(self):
        # closed-form limits for the delta=2 extension family
        for n, free in [(5, 11), (6, 13), (7, 15), (8, 16)]:
            code, _ = construct(n, 1, 2)
            assert free_distance(code) == free


def per_candidate_extension(k, delta, r):
    """Rows of the r greedy extra columns, by trying every unused canonical
    column in turn and keeping the first that maximizes the minimum weight
    of the block code of the columns chosen so far."""
    canon = k_partial_simplex(k, delta)
    pool = [canon.column(j).bits for j in range(canon.cols)]
    used = set()
    rows = [0] * (delta + k)
    for c in range(r):
        best_idx, best_wt = None, -1
        for idx, col in enumerate(pool):
            if idx in used:
                continue
            trial = [row | (((col >> i) & 1) << c) for i, row in enumerate(rows)]
            wt = min_weight_block_code(BitMatrix(c + 1, tuple(trial)))
            if wt > best_wt:
                best_idx, best_wt, best_rows = idx, wt, trial
        used.add(best_idx)
        rows = best_rows
    return rows


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_greedy_extension_matches_per_candidate_search(k):
    for delta in range(5):
        canon = k_partial_simplex(k, delta)
        base = canon.cols
        # a greedy step never looks ahead, so r columns are a prefix of base - 1
        full = per_candidate_extension(k, delta, base - 1)
        for n in range(1, 2 * base):
            m, r = divmod(n, base)
            parts = [m_fold(canon, m)] if m else []
            if r:
                parts.append(BitMatrix(r, tuple(row & ((1 << r) - 1) for row in full)))
            expected = _outcome(stack_to_code, hstack(parts), k, delta)
            assert _outcome(construct_k_dim_extended, n, k, delta) == expected, (n, k, delta)


def test_largest_admitted_extension_stays_small():
    # (6145, 2, 11), just inside EXTENSION_SEARCH_GUARD: one extra column
    # scored over 6144 candidates x 8191 messages.  The child reads its peak
    # RSS from VmHWM: Linux carries the forking process's RSS into ru_maxrss
    # across exec, so ru_maxrss would report the test runner's size.
    src = os.path.dirname(os.path.dirname(convdist.__file__))
    script = (
        "import convdist; convdist.construct(6145, 2, 11); "
        "print(next(line.split()[1] for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert int(out.stdout) < 64 * 1024  # VmHWM is in KiB
