import json
import re
import time

import pytest

from convdist import convcode
from convdist.cli import format_code_file, main, parse_code_file
from convdist.construct import REFERENCE_TABLES, construct, stack_to_code
from convdist.convcode import (
    ConvCode, column_distances_trellis, distance_profile, is_noncatastrophic,
)
from convdist.gf2core import BitMatrix
from convdist.optsearch import optimal_codes_bruteforce, verify_optimal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCodeFileFormat:
    def test_round_trip(self, tmp_path):
        for params in [(4, 1, 2), (7, 1, 2), (12, 2, 2), (7, 2, 3)]:
            code, _ = construct(*params)
            text = format_code_file(code, comments=["round trip"])
            back = parse_code_file(text)
            assert back == code

    def test_comment_line_breaks_stay_comments(self):
        code, _ = construct(4, 1, 2)
        text = format_code_file(code, comments=["x\x85y"])
        assert "# x\n# y\n" in text
        assert parse_code_file(text) == code

    def test_json_input(self):
        code, _ = construct(4, 1, 2)
        blob = json.dumps(
            {"n": 4, "k": 1, "delta": 2, "G": [g.row_strings() for g in code.coeffs]}
        )
        assert parse_code_file(blob) == code

    def test_degree_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            parse_code_file("2 1 2\n11\n10\n")

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            parse_code_file("# only comments\n")
        with pytest.raises(ValueError):
            parse_code_file("2 1\n11\n10\n")
        with pytest.raises(ValueError):
            parse_code_file("2 1 1\n11\n1x\n")

    @pytest.mark.parametrize("params", [(1, 1, 32767), (64, 1, 4095)])
    def test_deepest_constructed_codes_parse(self, params):
        # the deepest stacks the construction guard admits at n = 1 and 64
        code, _ = construct(*params)
        assert parse_code_file(format_code_file(code)) == code

    def test_long_code_takes_linear_time(self):
        # every row/column and int/string conversion on the way is linear in n
        t0 = time.monotonic()
        code, _ = construct(200_000, 1, 3)
        back = parse_code_file(format_code_file(code))
        assert back == code
        assert is_noncatastrophic(back)
        assert time.monotonic() - t0 < 3.0


def assert_one_line_error(capsys, path):
    for command in ("check", "profile"):
        rc, _, err = run(capsys, command, str(path))
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1


def test_deep_file_is_priced_before_its_rows_are_read(tmp_path, capsys):
    # 10^6 + 1 rows, each summed into a row of G(z) of 10^6 + 1 bits
    path = tmp_path / "deep.txt"
    path.write_text("1 1 1000000\n" + "1\n" * 1_000_001)
    t0 = time.monotonic()
    rc, out, err = run(capsys, "check", str(path))
    assert time.monotonic() - t0 < 1.0
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "code-file bits exceed the memory guard" in err


class TestMalformedHeaders:
    def test_zero_k(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("3 0 1\n111\n")
        with pytest.raises(ValueError, match="k=0"):
            parse_code_file(path.read_text())
        assert_one_line_error(capsys, path)

    def test_json_without_k(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 2, "delta": 1, "G": [["11"], ["10"]]}))
        with pytest.raises(ValueError, match="lacks k"):
            parse_code_file(path.read_text())
        assert_one_line_error(capsys, path)

    @pytest.mark.parametrize(
        "text",
        [
            "2 x 1\n11\n10\n",
            "2 1.5 1\n11\n10\n",
            json.dumps({"n": 2, "k": 1.5, "delta": 1, "G": [["11"], ["10"]]}),
            json.dumps({"n": 2, "k": True, "delta": 1, "G": [["11"], ["10"]]}),
            json.dumps({"n": 2, "k": None, "delta": 1, "G": [["11"], ["10"]]}),
        ],
    )
    def test_non_integer_field(self, tmp_path, capsys, text):
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="not an integer"):
            parse_code_file(text)
        assert_one_line_error(capsys, path)

    @pytest.mark.parametrize(
        "k, blocks, message",
        [
            # regrouped, this would be the valid (2, 1, 1) code 11 + 10z
            (1, [["11", "10"], []], "G[0] must hold k=1 rows, not 2"),
            # regrouped, this would be two full blocks of a wrong degree
            (2, [["11"], ["10", "01", "11"]], "G[0] must hold k=2 rows, not 1"),
        ],
    )
    def test_json_block_of_the_wrong_size(self, tmp_path, capsys, k, blocks, message):
        text = json.dumps({"n": 2, "k": k, "delta": 1, "G": blocks})
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_code_file(text)
        assert_one_line_error(capsys, path)


class TestConstructCommand:
    def test_stdout_and_file_agree(self, tmp_path, capsys):
        out_path = tmp_path / "code.txt"
        rc, stdout, _ = run(capsys, "construct", "4", "1", "2")
        assert rc == 0
        rc2, _, _ = run(capsys, "construct", "4", "1", "2", "--out", str(out_path))
        assert rc2 == 0
        assert out_path.read_text() == stdout

    def test_json_output_is_byte_stable(self, capsys):
        rc1, out1, _ = run(capsys, "construct", "7", "1", "2", "--json", "--quiet")
        rc2, out2, _ = run(capsys, "construct", "7", "1", "2", "--json", "--quiet")
        assert rc1 == rc2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["n"] == 7 and payload["provenance"].startswith("table-backed")

    def test_extension_search_guard(self, capsys):
        t0 = time.monotonic()
        rc, _, err = run(capsys, "construct", "5", "2", "30")
        assert time.monotonic() - t0 < 1.0
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "guard" in err

    def test_rank_deficient_stack_is_refused_in_words(self, capsys):
        # the greedy columns of (4, 4, 1) give a G(z) of rank below k = 4,
        # which has no internal degree
        rc, out, err = run(capsys, "construct", "4", "4", "1")
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "G(z) has rank below k" in err and "None" not in err

    def test_deep_rate_1_n_is_built_in_closed_form(self, capsys):
        t0 = time.monotonic()
        rc, out, _ = run(capsys, "construct", "3", "1", "40", "--quiet")
        assert time.monotonic() - t0 < 5.0
        assert rc == 0
        assert parse_code_file(out) == construct(3, 1, 40)[0]

    def test_format_option_is_gone(self, capsys):
        rc, out, _ = run(capsys, "construct", "4", "1", "2", "--format", "json")
        assert rc == 1 and out == ""

    def test_unbuildable_parameters(self, capsys):
        rc, _, err = run(capsys, "construct", "0", "1", "1")
        assert rc == 1
        assert "error" in err

    @pytest.mark.parametrize("params", [("3", "5", "1"), ("4", "2", "3")])
    def test_refused_parameters_write_nothing(self, tmp_path, capsys, params):
        # k > n, and a k > 1 extension whose columns fall below degree delta
        path = tmp_path / "c.txt"
        rc, out, err = run(capsys, "construct", *params, "--out", str(path))
        assert rc == 1 and out == "" and not path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("params", [
        ("10000000000", "1", "1"),
        ("2", "1", "1000000000"),
        ("1", "1", "1000000"),
        ("64", "1", "1000000"),
    ])
    def test_stack_past_the_memory_guard_is_refused_at_once(self, capsys, params):
        # 2 rows of 10^10 bits, or 10^9 + 1 rows of 2 bits; and 10^6 + 1 rows
        # of n bits, each summed into a row of G(z) of (10^6 + 1)*n bits
        t0 = time.monotonic()
        rc, out, err = run(capsys, "construct", *params, "--quiet")
        assert time.monotonic() - t0 < 0.1
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "stack bits exceed the memory guard" in err

    def test_text_past_the_memory_guard_is_refused(self, tmp_path, capsys):
        # 5 rows of 2^24 + 1 characters: the stack is admitted, its text is not
        path = tmp_path / "c.txt"
        t0 = time.monotonic()
        rc, out, err = run(capsys, "construct", "16777217", "1", "4", "--out", str(path))
        assert time.monotonic() - t0 < 1.0
        assert rc == 1 and out == "" and not path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "code-file text bits exceed the memory guard" in err


class TestProfileCommand:
    def test_profile_with_free(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        run(capsys, "construct", "4", "1", "2", "--out", str(path), "--quiet")
        rc, out, _ = run(capsys, "profile", str(path), "--free", "--json")
        assert rc == 0
        rep = json.loads(out)
        assert rep["profile"] == [4, 6, 8, 8, 8, 8, 8, 8]
        assert rep["free_distance"] == 8
        assert rep["mdp"] is False

    def test_mdp_past_jmax(self, tmp_path, capsys):
        # (4,1,2): L = 2 > jmax, and the profile to L is cheap
        path = tmp_path / "c.txt"
        run(capsys, "construct", "4", "1", "2", "--out", str(path), "--quiet")
        rc, out, _ = run(capsys, "profile", str(path), "--jmax", "1", "--json")
        assert rc == 0
        assert json.loads(out)["mdp"] is False
        # (2,1,22): L = 44, whose profile every guard refuses; d_0..d_5 is
        # answered and mdp is left unknown
        run(capsys, "construct", "2", "1", "22", "--out", str(path), "--quiet")
        rc, out, err = run(capsys, "profile", str(path), "--jmax", "5", "--json")
        assert rc == 0, err
        rep = json.loads(out)
        assert rep["profile"] == column_distances_trellis(parse_code_file(path.read_text()), 5)
        assert rep["mdp"] is None

    # trellis: a code the trellis takes at a small jmax; auto: a code past
    # the trellis state guard, where the automatic choice is the exhaustive
    # oracle.  Either way the step guard refuses before any work.
    @pytest.mark.parametrize(
        "text,picks",
        [("2 1 25\n11\n" + "00\n" * 24 + "10\n", "exhaustive"), (None, "trellis")],
        ids=["auto", "trellis"],
    )
    def test_step_guard_refuses_a_huge_jmax_at_once(self, tmp_path, capsys, text, picks):
        path = tmp_path / "c.txt"
        if text is None:
            run(capsys, "construct", "4", "1", "2", "--out", str(path), "--quiet")
        else:
            path.write_text(text)
        assert distance_profile(parse_code_file(path.read_text()), 3).method == picks
        t0 = time.monotonic()
        rc, out, err = run(capsys, "profile", str(path), "--jmax", "1000000000")
        assert time.monotonic() - t0 < 1.0
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "step guard" in err

    def test_step_guard_refuses_a_long_free_distance_search(self, tmp_path, capsys, monkeypatch):
        # every excursion of a memory-10 code takes at least 11 steps; the
        # guard is cut to 10 steps of 2^12 branch updates, which still
        # admits the profile to jmax = 2
        path = tmp_path / "c.txt"
        run(capsys, "construct", "2", "1", "10", "--out", str(path), "--quiet")
        monkeypatch.setattr(convcode, "STEP_WORK_GUARD", 10 << 12)
        rc, _, err = run(capsys, "profile", str(path), "--jmax", "2")
        assert rc == 0, err
        t0 = time.monotonic()
        rc, out, err = run(capsys, "profile", str(path), "--jmax", "2", "--free")
        assert time.monotonic() - t0 < 1.0
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "11 steps of 2^12 branch updates exceed the step guard" in err

    def test_free_of_catastrophic_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 1\n11\n11\n")
        rc, _, err = run(capsys, "profile", str(path), "--free")
        assert rc == 1
        assert "catastrophic" in err


class TestCheckCommand:
    def test_good_code(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        run(capsys, "construct", "7", "2", "3", "--out", str(path), "--quiet")
        rc, out, _ = run(capsys, "check", str(path), "--json")
        assert rc == 0
        rep = json.loads(out)
        assert rep["noncatastrophic"] and rep["delay_free"]
        assert rep["row_degrees"] == [2, 1]

    def test_catastrophic_code_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 1\n11\n11\n")
        rc, out, _ = run(capsys, "check", str(path))
        assert rc == 2
        assert "noncatastrophic: false" in out

    def test_rank_deficient_file_is_refused_in_words(self, tmp_path, capsys):
        path = tmp_path / "rd.txt"
        path.write_text("2 2 0\n11\n11\n")
        rc, out, err = run(capsys, "check", str(path))
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "G(z) has rank below k" in err and "None" not in err


class TestBoundsCommand:
    def test_bounds_with_code(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        run(capsys, "construct", "4", "1", "2", "--out", str(path), "--quiet")
        rc, out, _ = run(
            capsys, "bounds", "4", "1", "2", "--in", str(path), "--jmax", "4", "--json"
        )
        assert rc == 0
        rep = json.loads(out)
        assert rep["singleton"] == 12 and rep["L"] == 2
        assert rep["weight_lower"] == rep["weight_upper"] == [4, 6, 8, 8, 8]

    def test_parameter_mismatch(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        run(capsys, "construct", "4", "1", "2", "--out", str(path), "--quiet")
        rc, _, err = run(capsys, "bounds", "4", "1", "1", "--in", str(path))
        assert rc == 1 and "match" in err

    def test_rejects_n_le_k(self, capsys):
        rc, _, _ = run(capsys, "bounds", "2", "2", "1")
        assert rc == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["4", "1", "-1"], "n=4, k=1, delta=-1 name no code: need 1 <= k <= n and delta >= 0"),
            (["4", "1", "2", "--jmax", "-1"], "jmax must be >= 0"),
        ],
        ids=["delta", "jmax"],
    )
    def test_rejects_negative_delta_and_jmax(self, tmp_path, capsys, argv, message):
        path = tmp_path / "c.txt"
        run(capsys, "construct", "4", "1", "2", "--out", str(path), "--quiet")
        for extra in ([], ["--in", str(path)]):
            rc, out, err = run(capsys, "bounds", *argv, *extra)
            assert rc == 1 and out == ""
            assert err == f"error: {message}\n"

    def test_step_guard_refuses_a_huge_jmax_at_once(self, capsys):
        t0 = time.monotonic()
        rc, out, err = run(capsys, "bounds", "4", "1", "2", "--jmax", "1000000000")
        assert time.monotonic() - t0 < 1.0
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "step guard" in err

    def test_deep_code_meets_the_table_guard(self, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        path.write_text("2 1 25\n11\n" + "00\n" * 24 + "10\n")
        t0 = time.monotonic()
        rc, out, err = run(
            capsys, "bounds", "2", "1", "25", "--in", str(path), "--jmax", "25"
        )
        assert time.monotonic() - t0 < 1.0
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "guard" in err


class TestVerifyOptimalCommand:
    def test_optimal_construction(self, capsys):
        rc, out, _ = run(capsys, "verify-optimal", "--params", "2", "1", "1")
        assert rc == 0
        assert "unique up to column permutation" in out

    def test_suboptimal_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 1\n11\n11\n")
        rc, out, _ = run(capsys, "verify-optimal", str(path))
        assert rc == 2
        assert "not optimal" in out

    def test_deep_code_meets_the_message_guard(self, capsys):
        t0 = time.monotonic()
        rc, _, err = run(capsys, "verify-optimal", "--params", "2", "1", "40")
        assert time.monotonic() - t0 < 5.0
        assert rc == 1
        assert "message bits exceed the exhaustion guard" in err

    def test_work_guard_refuses_before_enumerating(self, capsys):
        t0 = time.monotonic()
        rc, out, err = run(capsys, "verify-optimal", "--params", "2", "1", "11")
        assert time.monotonic() - t0 < 5.0
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "work guard" in err

    @pytest.mark.parametrize("delta", ["100000", "1000000"])
    def test_params_are_priced_before_the_code_is_built(self, capsys, delta):
        t0 = time.monotonic()
        rc, out, err = run(capsys, "verify-optimal", "--params", "3", "1", delta)
        assert time.monotonic() - t0 < 0.1
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_two_verdicts(self, capsys):
        rc, out, _ = run(capsys, "verify-optimal", "--params", "5", "1", "2", "--json")
        assert rc == 2
        got = json.loads(out)
        assert got["optimal"] is False
        assert got["optimal_through_delta"] is True
        rc, out, _ = run(capsys, "verify-optimal", "--params", "5", "1", "2")
        assert rc == 2
        assert "optimal through delta = 2 (d_0..d_2)" in out.splitlines()
        rc, out, _ = run(capsys, "verify-optimal", "--params", "4", "1", "4")
        assert rc == 3
        assert "optimal through delta = 4 (d_0..d_4)" in out.splitlines()

    def test_not_optimal_through_delta(self, tmp_path, capsys):
        # d_0, d_1 = (2, 2), where the (2,1,1) construction reaches (2, 3)
        path = tmp_path / "bad.txt"
        path.write_text("2 1 1\n11\n11\n")
        rc, out, _ = run(capsys, "verify-optimal", str(path))
        assert rc == 2
        assert "not optimal through delta = 1 (d_0..d_1)" in out.splitlines()

    def test_negative_horizon_is_refused(self, capsys):
        rc, out, err = run(
            capsys, "verify-optimal", "--params", "2", "1", "1", "--horizon", "-1"
        )
        assert rc == 1 and out == ""
        assert err == "error: horizon must be >= 0\n"

    def test_requires_an_input(self, capsys):
        rc, _, err = run(capsys, "verify-optimal")
        assert rc == 1

    def test_refuses_a_file_and_params_together(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        run(capsys, "construct", "4", "1", "2", "--out", str(path), "--quiet")
        rc, out, err = run(capsys, "verify-optimal", str(path), "--params", "5", "1", "2")
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestReproduceAndUsage:
    def test_reproduce_ws3(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "ws3")
        assert rc == 0
        assert "reproduced" in out

    @pytest.mark.parametrize("table", list(REFERENCE_TABLES))
    def test_reproduce_json_is_only_json(self, capsys, table):
        rc, out, _ = run(capsys, "reproduce", table, "--json")
        assert rc == 0
        assert json.loads(out) == {"table": table, "match": True}

    def test_reproduce_mismatch(self, capsys, monkeypatch):
        recompute, _ = REFERENCE_TABLES["ws3"]
        monkeypatch.setitem(REFERENCE_TABLES, "ws3", (recompute, (0,) * 7))
        rc, out, err = run(capsys, "reproduce", "ws3")
        assert rc == 2 and "reproduced" not in out
        assert err.startswith("MISMATCH: ") and err.count("\n") == 1
        rc, out, _ = run(capsys, "reproduce", "ws3", "--json")
        assert rc == 2
        assert json.loads(out) == {"table": "ws3", "match": False}

    def test_reproduce_delta2(self, capsys):
        rc, out, _ = run(capsys, "reproduce", "delta2-cases")
        assert rc == 0

    def test_unknown_subcommand(self, capsys):
        rc, _, _ = run(capsys, "frobnicate")
        assert rc == 1

    def test_help_exits_zero(self, capsys):
        rc, _, _ = run(capsys, "--help")
        assert rc == 0


def refusals(capsys, calls, argvs):
    """The message of each call's ValueError, and of each CLI run's
    one-line error, which must exit 1 with nothing on stdout."""
    messages = []
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        messages.append(str(exc.value))
    for argv in argvs:
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        messages.append(err[len("error: ") : -1])
    return messages


class TestOneMessagePerRule:
    @pytest.mark.parametrize(
        "n,k,delta,rows,message",
        [
            (2, 1, 2, ["11", "10"], "declared degree 2 is not the internal degree 1"),
            (
                2, 2, 0, ["10", "10"],
                "declared degree 0 is not an internal degree: G(z) has rank below k",
            ),
        ],
        ids=["internal_degree_1", "rank_below_k"],
    )
    def test_declared_degree_is_the_internal_degree(
        self, tmp_path, capsys, n, k, delta, rows, message
    ):
        text = f"{n} {k} {delta}\n" + "".join(f"{r}\n" for r in rows)
        blocks = [rows[i : i + k] for i in range(0, len(rows), k)]
        blob = json.dumps({"n": n, "k": k, "delta": delta, "G": blocks})
        coeffs = tuple(map(BitMatrix.from_strings, blocks))
        stack = BitMatrix.from_strings(rows + ["0" * n] * (delta + k - len(rows)))
        path = tmp_path / "c.txt"
        path.write_text(text)
        messages = refusals(
            capsys,
            [
                lambda: parse_code_file(text),
                lambda: parse_code_file(blob),
                lambda: stack_to_code(stack, k, delta),
                lambda: verify_optimal(ConvCode(n, k, coeffs, delta)),
            ],
            [["check", str(path)], ["verify-optimal", str(path)]],
        )
        assert messages == [message] * 6

    @pytest.mark.parametrize("n,k,delta", [(2, 3, 1), (0, 1, 1), (4, 1, -1)])
    def test_parameters_name_a_code(self, tmp_path, capsys, n, k, delta):
        nkd = [str(n), str(k), str(delta)]
        path = tmp_path / "c.txt"
        path.write_text(" ".join(nkd) + "\n" + "1" * max(n, 1) + "\n")
        messages = refusals(
            capsys,
            [
                lambda: construct(n, k, delta),
                lambda: optimal_codes_bruteforce(n, k, delta, 2),
                lambda: parse_code_file(path.read_text()),
            ],
            [
                ["construct", *nkd],
                ["verify-optimal", "--params", *nkd],
                ["bounds", *nkd],
                ["check", str(path)],
            ],
        )
        message = f"n={n}, k={k}, delta={delta} name no code: need 1 <= k <= n and delta >= 0"
        assert messages == [message] * 7


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "{code}", "--free"],
        ["check", "{code}"],
        ["bounds", "5", "1", "2", "--in", "{code}"],
        ["verify-optimal", "{code}"],
        ["reproduce", "ws3"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_report_prints_once_per_mode(tmp_path, capsys, argv):
    # the (5,1,2) construction loses at j = 4, so verify-optimal exits 2
    path = tmp_path / "c.txt"
    run(capsys, "construct", "5", "1", "2", "--out", str(path), "--quiet")
    argv = [arg.format(code=path) for arg in argv]
    rc, out, _ = run(capsys, *argv)
    assert out
    for mode in (["--json"], ["--json", "--quiet"]):
        rc_json, out, _ = run(capsys, *argv, *mode)
        assert rc_json == rc
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)
    rc_quiet, out, _ = run(capsys, *argv, "--quiet")
    assert rc_quiet == rc and out == ""
