import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import convdist

from convdist.cli import format_code_file, parse_code_file
from convdist.construct import (
    OPT_ROW_D3,
    _RESIDUALS,
    _expand_d4,
    _k_dim_stack,
    binary_decomposition,
    construct,
    near_optimal_bound_profile,
    predicted_profile_k_dim,
    predicted_profile_rate_1_n,
    recursive_partial_simplex_4,
    stack_to_code,
)
from convdist.convcode import (
    STEP_WORK_GUARD,
    _STEP_FLOOR_BITS,
    column_distances_exhaustive,
    distance_profile,
    free_distance,
    internal_degree,
    is_delay_free,
    is_noncatastrophic,
    is_row_reduced,
    L_value,
    singleton_bound,
)
from convdist.gf2core import BitMatrix, hstack, table_bits
from convdist.optsearch import optimal_codes_bruteforce, wt_profile
from convdist.simplex import canonical_stack, k_partial_simplex, m_fold, partial_simplex
from poly_oracle import transpose


def coeff_strings(code):
    return [g.row_strings() for g in code.coeffs]


def canonical_code(n, delta):
    """The (n, 1, delta) code of the first n canonical columns, the paper's
    near-optimal construction."""
    return stack_to_code(canonical_stack(1, delta, n), 1, delta)


def paper_residual_stack(delta):
    """Rows of the paper's residual stack for delta in {3, 4}: the 2-fold
    dimension-3 partial simplex over OPT_ROW_D3, or the recursive
    dimension-4 partial simplex over the row _expand_d4(OPT_ROW_D3)."""
    if delta == 3:
        return canonical_stack(1, 2, 8).row_strings() + [OPT_ROW_D3]
    return recursive_partial_simplex_4().row_strings() + [_expand_d4(OPT_ROW_D3)]


def columns(code, start, stop):
    """Columns start..stop-1 of the (delta+k)-row stack a code was sliced from."""
    rows = [row for g in code.coeffs for row in g.row_bits][: code.delta + code.k]
    mask = (1 << (stop - start)) - 1
    return BitMatrix(stop - start, tuple((row >> start) & mask for row in rows))


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
        assert coeff_strings(construct(2, 1, 1)[0]) == [["11"], ["10"]]
        assert coeff_strings(construct(4, 1, 1)[0]) == [["1111"], ["1010"]]

    def test_profile_matches_formula(self):
        for m, delta in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            code, _ = construct(m << delta, 1, delta)
            pred = predicted_profile_rate_1_n(m << delta, delta, delta + 3)
            assert distance_profile(code, delta + 3).values == pred.values
            assert free_distance(code) == pred.free_distance

    def test_formula_rejects_non_multiples(self):
        with pytest.raises(ValueError):
            predicted_profile_rate_1_n(6, 2, 4)


class TestExtended:
    def test_delta1_odd_length(self):
        assert coeff_strings(construct(3, 1, 1)[0]) == [["111"], ["101"]]

    def test_delta2_residuals(self):
        assert coeff_strings(construct(6, 1, 2)[0]) == [
            ["111111"],
            ["101010"],
            ["110011"],
        ]
        assert coeff_strings(construct(3, 1, 2)[0]) == [["111"], ["101"], ["110"]]

    def test_delta3_table_row(self):
        # s = 4: the tabled residual columns follow the canonical period
        code, _ = construct(12, 1, 3)
        assert code.coeffs[3].row_strings() == [
            partial_simplex(4).row_strings()[3] + OPT_ROW_D3[:4]
        ]

    def test_delta4_recursive_layout(self):
        top = recursive_partial_simplex_4()
        # the recursive layout is a column permutation of the canonical
        # 2-fold matrix
        canonical = m_fold(partial_simplex(4), 2)
        assert sorted(top.column(j).to_string() for j in range(16)) == sorted(
            canonical.column(j).to_string() for j in range(16)
        )
        code, _ = construct(16 + 8, 1, 4)
        assert code.coeffs[4].row_strings() == [
            partial_simplex(5).row_strings()[4] + _expand_d4(OPT_ROW_D3)[:8]
        ]

    def test_residual_table(self):
        # (3, 4) and (4, 4) are optimal through delta, and (4, 4) is the
        # first achiever of the search to d_9; (3, 4), (4, 8) and (4, 12)
        # are prefixes of the paper's residual stacks
        t0 = time.monotonic()
        for delta, s, horizon in [(3, 4, 3), (4, 4, 9)]:
            code = stack_to_code(BitMatrix.from_strings(_RESIDUALS[delta, s]), 1, delta)
            best, achievers = optimal_codes_bruteforce(s, 1, delta, horizon)
            assert tuple(column_distances_exhaustive(code, delta)) == best[: delta + 1]
        assert achievers[0] == code  # the last search is (4, 4)'s, to d_9
        for delta, s in [(3, 4), (4, 8), (4, 12)]:
            assert list(_RESIDUALS[delta, s]) == [row[:s] for row in paper_residual_stack(delta)]
        # below delta = 3 the table holds the canonical columns
        for (delta, s), rows in _RESIDUALS.items():
            if delta <= 2:
                assert BitMatrix.from_strings(rows) == canonical_stack(1, delta, s)
        assert time.monotonic() - t0 < 2.0

    # (n, delta) -> d_0..d_delta: the survivor-search optimum, reached since
    # these residues keep the canonical columns instead of the tabled ones
    CANONICAL_RESIDUES = {
        (6, 3): (6, 9, 11, 14),
        (14, 3): (14, 21, 27, 34),
        (22, 3): (22, 33, 43, 54),
        (5, 4): (5, 7, 9, 11, 13),
        (21, 4): (21, 31, 41, 51, 61),
        (6, 4): (6, 9, 11, 14, 16),
        (22, 4): (22, 33, 43, 54, 64),
        (10, 4): (10, 15, 19, 24, 28),
        (26, 4): (26, 39, 51, 64, 76),
        (13, 4): (13, 19, 25, 31, 37),
        (29, 4): (29, 43, 57, 71, 85),
        (14, 4): (14, 21, 27, 34, 40),
        (30, 4): (30, 45, 59, 74, 88),
    }

    def test_residue_rule(self):
        # tabled residual columns only at s = 4, 8, 12; at every s the code
        # is at least as good through delta as the canonical columns and as
        # the first s columns of the paper's residual stack
        for delta in (3, 4):
            for n in range(1, 4 << delta):
                s = n % (1 << delta)
                if s == 0:
                    continue
                code, provenance = construct(n, 1, delta)
                tabled = s % 4 == 0
                assert provenance == (f"table-backed extension, s={s}" if tabled else "near-optimal")
                got = tuple(column_distances_exhaustive(code, delta))
                if tabled:
                    residual = BitMatrix.from_strings(_RESIDUALS[delta, s])
                    assert columns(code, n - s, n) == residual
                paper = [row[:s] for row in paper_residual_stack(delta)]
                stacks = [
                    canonical_stack(1, delta, n),
                    hstack([canonical_stack(1, delta, n - s), BitMatrix.from_strings(paper)]),
                ]
                for stack in stacks:
                    other = stack_to_code(stack, 1, delta)
                    assert got >= tuple(column_distances_exhaustive(other, delta))
                bound = near_optimal_bound_profile(n, delta, delta).values
                assert all(d >= b for d, b in zip(got, bound))
                if (n, delta) in self.CANONICAL_RESIDUES:
                    assert got == self.CANONICAL_RESIDUES[n, delta]


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
                    assert canonical_code((m << delta) + r, delta) == expected, (m, r, delta)

    def test_small_delta_tables_are_the_nested_columns(self):
        for delta in (1, 2):
            for m in (0, 1):
                for r in range(1 - m, 1 << delta):
                    n = (m << delta) + r
                    assert construct(n, 1, delta)[0] == canonical_code(n, delta)


class TestNearOptimal:
    def test_binary_decomposition(self):
        assert binary_decomposition(0) == ()
        assert binary_decomposition(1) == (1,)
        assert binary_decomposition(7) == (3, 2, 1)
        assert binary_decomposition(12) == (4, 3)

    def test_smallest_case(self):
        assert coeff_strings(canonical_code(2, 2)) == [["11"], ["10"], ["11"]]
        assert near_optimal_bound_profile(2, 2, 2).values == (2, 3, 3)

    def test_matches_table_for_delta2(self):
        assert coeff_strings(canonical_code(7, 2)) == coeff_strings(construct(7, 1, 2)[0])

    def test_bound_profile_shape(self):
        bound = near_optimal_bound_profile(10, 3, 3)
        # n1 = 8, leftover 2 = 2^1: increments 4+1, then 4, 4
        assert bound.values == (10, 15, 19, 23)

    def test_construction_dominates_bound(self):
        for n, delta in [(3, 2), (5, 3), (13, 3), (21, 4)]:
            prof = distance_profile(canonical_code(n, delta), delta)
            bound = near_optimal_bound_profile(n, delta, delta)
            assert all(d >= b for d, b in zip(prof.values, bound.values))


class TestKDim:
    def test_s42_slicing(self):
        code, _ = construct(12, 2, 2)
        assert coeff_strings(code) == [
            ["110110110110", "101101101101"],
            ["111000111000", "111111000000"],
        ]

    def test_profile_formula(self):
        code, _ = construct(12, 2, 2)
        pred = predicted_profile_k_dim(12, 2, 2, 3)
        assert distance_profile(code, 3).values == pred.values

    def test_k2_delta3_padding(self):
        code, _ = construct(24, 2, 3)
        assert code.mu == 2
        assert code.coeffs[2].row_bits[1] == 0
        assert internal_degree(code) == 3

    def test_extended_search(self):
        code, _ = construct(13, 2, 2)
        assert code.n == 13
        assert is_delay_free(code)
        assert internal_degree(code) == 2
        base = distance_profile(construct(12, 2, 2)[0], 2).values
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
        code, got = construct(n, k, delta)
        assert (code.n, code.k, code.delta) == (n, k, delta)
        assert got == provenance
        # the full periods come first, as the canonical m-fold base
        base = n - n % (((1 << k) - 1) << delta)
        assert columns(code, 0, base) == canonical_stack(k, delta, base)
        assert is_delay_free(code)
        assert is_row_reduced(code)
        assert is_noncatastrophic(code)
        assert internal_degree(code) == delta

    def test_plan_extension_columns(self):
        code, provenance = construct(7, 1, 2)
        assert provenance == "table-backed extension, s=3"
        assert columns(code, 4, 7).row_strings() == ["111", "101", "110"]

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
                        with pytest.raises(ValueError, match="k <= n"):
                            construct(n, k, delta)
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


@pytest.mark.parametrize(
    "call,params",
    [
        (lambda: predicted_profile_k_dim(4, 0, 1, 3), "n=4, k=0, delta=1"),
        (lambda: predicted_profile_k_dim(2, 3, 1, 3), "n=2, k=3, delta=1"),
        (lambda: predicted_profile_rate_1_n(4, -2, 3), "n=4, k=1, delta=-2"),
        (lambda: near_optimal_bound_profile(0, 2, 3), "n=0, k=1, delta=2"),
        (lambda: singleton_bound(4, 0, 1), "n=4, k=0, delta=1"),
        (lambda: L_value(4, 0, 1), "n=4, k=0, delta=1"),
    ],
    ids=["k_dim", "k_dim_k_above_n", "rate_1_n", "near_optimal", "singleton", "L"],
)
def test_closed_forms_refuse_parameters_that_name_no_code(call, params):
    message = f"{params} name no code: need 1 <= k <= n and delta >= 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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
            wt = wt_profile(BitMatrix(c + 1, tuple(trial)), [c + 1])[0]
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
            got = _outcome(lambda *args: construct(*args)[0], n, k, delta)
            assert got == expected, (n, k, delta)


def scored_extension_order(k, delta):
    """The canonical columns, row i at bit i, in greedy order, every free
    candidate scored against every message: the minimum over messages of
    the weight so far plus the parity of the message AND the candidate,
    ties to the first."""
    base = (1 << delta) * ((1 << k) - 1)
    messages = np.arange(1, 1 << (delta + k))
    pool = np.array(transpose(canonical_stack(k, delta, base).row_bits, base))
    free = np.ones(base, dtype=bool)
    weight = np.zeros(len(messages), dtype=int)
    order = []
    for _ in range(base - 1):
        cands = np.flatnonzero(free)
        score = (weight[:, None] + (np.bitwise_count(messages[:, None] & pool[cands]) & 1)).min(axis=0)
        best = cands[np.argmax(score)]
        free[best] = False
        weight += np.bitwise_count(messages & pool[best]) & 1
        order.append(int(pool[best]))
    return order


@pytest.mark.parametrize("k, delta", [(2, 5), (2, 6), (2, 7), (3, 5), (4, 4), (5, 3)])
def test_extension_matches_scored_search_past_delta_4(k, delta):
    base = (1 << delta) * ((1 << k) - 1)
    order = scored_extension_order(k, delta)
    # the largest r the step guard admits: r steps over the span's words
    largest = min(base - 1, STEP_WORK_GUARD >> max(table_bits(delta + k, base), _STEP_FLOOR_BITS))
    for r in sorted({1, base // 2, largest}):
        expected = BitMatrix(r, tuple(transpose(order[:r], delta + k)))
        assert _k_dim_stack(r, k, delta) == expected, (r, k, delta)


def test_extension_guard_refuses_before_any_span(monkeypatch):
    def no_span(*args):
        raise AssertionError("span built past the extension guards")

    monkeypatch.setattr(sys.modules["convdist.construct"], "xor_span", no_span)
    start = time.perf_counter()
    # (24593, 2, 13): r = 17 steps over a span priced at 2^24 words, 17 * 2^24 > 2^28
    with pytest.raises(ValueError, match=r"k-dim extension: 17 steps over a 2\^24-word span exceed the step guard"):
        construct(24593, 2, 13)
    # (49153, 2, 14): 2^16 messages x 768 words, rounded up to 2^10, is 2^26 words
    with pytest.raises(ValueError, match="26 extension span bits exceed the memory guard"):
        construct(49153, 2, 14)
    assert time.perf_counter() - start < 1


def test_delta_11_extension_stays_small():
    # (6145, 2, 11): one extra column read off the span of 8191 messages
    # over 6144 canonical columns, 96 words each.  The
    # child reads its peak RSS from VmHWM: Linux carries the forking
    # process's RSS into ru_maxrss across exec, so ru_maxrss would report
    # the test runner's size.
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


def test_readme_quick_example(capsys):
    # each print in the README's Python example shows its output as a comment
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        readme = fh.read()
    example = re.search(r"Quick example:\n\n```python\n(.*?)```", readme, re.S).group(1)
    shown = [
        line.split("#", 1)[1].strip()
        for line in example.splitlines()
        if line.startswith("print(")
    ]
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
