"""Property tests: the structural predicates against the k x k minors, the
batch column-distance kernel against the trellis, the values a code keeps
against a fresh code, and the code file format round trip and parser
robustness."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convdist.cli import code_to_json_dict, format_code_file, parse_code_file
from convdist.convcode import (
    ConvCode,
    _min_weights,
    _stacked_code,
    column_distances_exhaustive,
    column_distances_trellis,
    free_distance,
    internal_degree,
    is_delay_free,
    is_noncatastrophic,
    row_weight_bounds,
)
from convdist.gf2core import BitMatrix, span_weights, transpose, xor_span
from convdist.optsearch import _stacked_rows
from poly_oracle import PolyMatrix, k_minors, poly_gcd

PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


@st.composite
def codes(draw):
    """A k x n generator matrix G_0..G_mu, k <= n <= 7, k <= 4, mu <= 4,
    with G_mu != 0; any rank."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 7))
    mu = draw(st.integers(0, 4))
    row = st.integers(0, (1 << n) - 1)
    coeffs = [BitMatrix(n, tuple(draw(row) for _ in range(k))) for _ in range(mu + 1)]
    assume(mu == 0 or not coeffs[-1].is_zero())
    return ConvCode(n, k, tuple(coeffs), 0)


def minors_of(c):
    return [m for m in k_minors(PolyMatrix.from_coeffs(c.coeffs)) if not m.is_zero()]


@PROPERTY_SETTINGS
@given(codes())
def test_internal_degree_matches_minors(c):
    minors = minors_of(c)
    expected = max(m.degree for m in minors) if minors else None
    assert internal_degree(c) == expected


@PROPERTY_SETTINGS
@given(codes())
def test_noncatastrophic_matches_minor_gcd(c):
    minors = minors_of(c)
    if not minors:
        with pytest.raises(ValueError, match="rank deficient"):
            is_noncatastrophic(c)
        return
    g = minors[0]
    for m in minors[1:]:
        g = poly_gcd(g, m)
    assert is_noncatastrophic(c) == (g.bits == 1)


def analyses(c):
    """Every public analysis of the delay-free code c, by name, as functions
    of a code equal to c.  For a non-catastrophic c the free distance sits
    between a trellis call that ends before the step where its search stops
    and one that ends past it, so each order of the analyses runs it after
    one of them and before the other."""
    jmax = c.mu + 1
    out = {"trellis": lambda x: column_distances_trellis(x, jmax)}
    if is_noncatastrophic(c):
        probe = ConvCode(c.n, c.k, c.coeffs, c.delta)
        free_distance(probe)
        stop = len(probe._run[1])  # steps the search took: d_0..d_{stop - 1}
        out["trellis, short of the stop"] = lambda x: column_distances_trellis(x, max(stop - 2, 0))
        out["free distance"] = free_distance
        out["trellis, past the stop"] = lambda x: column_distances_trellis(x, stop)
    out.update({
        "exhaustive, shallow": lambda x: column_distances_exhaustive(x, c.mu // 2),
        "exhaustive, full": lambda x: column_distances_exhaustive(x, c.mu),
        "bounds": lambda x: row_weight_bounds(x, jmax),
        "noncatastrophic": is_noncatastrophic,
    })
    return out


# each example runs every analysis three times over, the free distance of
# memory-16 codes among them
@settings(PROPERTY_SETTINGS, max_examples=100)
@given(codes())
def test_kept_values_leave_every_answer_alone(c):
    """Each analysis answers the same on a fresh code as on one that has run
    all the others, whichever order built the kept tables."""
    assume(is_delay_free(c))

    def fresh():
        return ConvCode(c.n, c.k, c.coeffs, c.delta)

    todo = analyses(fresh())
    want = {name: f(fresh()) for name, f in todo.items()}
    for order in (list(todo), list(todo)[::-1]):
        code = fresh()
        for _ in range(2):
            assert {name: todo[name](code) for name in order} == want, order


@st.composite
def tube_batches(draw):
    """A batch of up to four sorted multisets of n column tubes of one
    (n, k, delta) space, and a jmax."""
    k = draw(st.integers(1, 2))
    delta = draw(st.integers(0, 4 if k == 1 else 2))
    n = draw(st.integers(k, 5))
    tube = st.integers(0, (1 << (k * (delta + 1))) - 1)
    multiset = st.lists(tube, min_size=n, max_size=n).map(sorted)
    batch = draw(st.lists(multiset, min_size=1, max_size=4))
    return n, k, delta, draw(st.integers(0, delta + 3)), batch


@PROPERTY_SETTINGS
@given(tube_batches())
def test_batch_kernel_matches_trellis(case):
    n, k, delta, jmax, batch = case
    height = k * (delta + 1)
    codes = [_stacked_code(transpose(tubes, height), n, k, delta) for tubes in batch]
    keep = [is_delay_free(c) for c in codes]
    assume(any(keep))
    tubes = np.array([t for t, ok in zip(batch, keep) if ok], dtype=np.int64)
    window = [e * k + r for e in range(min(jmax, delta), -1, -1) for r in range(k)]
    rows = _stacked_rows(tubes, height)[:, window]
    profiles = _min_weights(span_weights(xor_span(rows.T, n), np.uint8), k, jmax)
    for code, profile in zip([c for c, ok in zip(codes, keep) if ok], profiles):
        assert [int(d) for d in profile] == column_distances_trellis(code, jmax)


# comments may hold any character str.splitlines splits on
line_breaks = st.sampled_from("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
comment_text = st.text(
    st.characters(blacklist_categories=("Cs",)) | line_breaks, max_size=20
)


@PROPERTY_SETTINGS
@given(codes(), st.lists(comment_text, max_size=3))
def test_code_file_round_trip(c, comments):
    delta = internal_degree(c)
    assume(delta is not None)
    code = ConvCode(c.n, c.k, c.coeffs, delta)
    assert parse_code_file(format_code_file(code, comments)) == code
    assert parse_code_file(json.dumps(code_to_json_dict(code))) == code


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats() | st.text("01 x", max_size=8),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)
json_codes = st.dictionaries(
    st.sampled_from(["n", "k", "delta", "G", "x"]), json_values, max_size=5
).map(json.dumps)


@st.composite
def mutated_code_files(draw):
    """A code file, text or JSON, with a drawn (often wrong) degree and up
    to three random splices."""
    c = draw(codes())
    code = ConvCode(c.n, c.k, c.coeffs, draw(st.integers(0, 4)))
    if draw(st.booleans()):
        text = format_code_file(code)
    else:
        text = json.dumps(code_to_json_dict(code))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:i] + draw(st.text('01 \n#{}[]",:x-', max_size=2)) + text[i + cut :]
    return text


@PROPERTY_SETTINGS
@given(st.text() | json_codes | mutated_code_files())
def test_parser_gives_code_or_value_error(text):
    try:
        code = parse_code_file(text)
    except ValueError:
        return
    assert isinstance(code, ConvCode)
    assert internal_degree(code) == code.delta
