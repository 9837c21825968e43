"""Command-line front end and the on-disk code file format.

Exit codes: 0 success/verified, 1 usage or resource error, 2 verification
failure, 3 inconclusive tie at the search horizon.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import convcode as cc
from . import optsearch as opt
from .construct import (
    DELTA2_S2_EXPECTED,
    DELTA2_S3_EXPECTED,
    OPT_ROWS_D3,
    WS3_EXPECTED,
    WT4_EXPECTED,
    _expand_d4,
    _residual_code_profile,
    construct as build_code,
    recursive_partial_simplex_4,
)
from .gf2core import BitMatrix
from .simplex import m_fold, partial_simplex


# ---------------------------------------------------------------------------
# Code file format: header "n k delta", then (mu+1) blocks of k rows of
# 0/1 characters (leftmost character is coordinate 0). '#' starts a comment.


def format_code_file(code: cc.ConvCode, comments=()) -> str:
    lines = [f"# ({code.n},{code.k},{code.delta}) binary convolutional code"]
    lines += [f"# {piece}" for c in comments for piece in c.splitlines() or [""]]
    lines.append(f"{code.n} {code.k} {code.delta}")
    for g in code.coeffs:
        lines.append("")
        lines.extend(g.row_strings())
    return "\n".join(lines) + "\n"


def code_to_json_dict(code: cc.ConvCode, **extra) -> dict:
    d = {
        "n": code.n,
        "k": code.k,
        "delta": code.delta,
        "G": [g.row_strings() for g in code.coeffs],
    }
    d.update(extra)
    return d


def _header_int(value) -> int:
    """An integer header field, as a JSON int or a decimal string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"header field {value!r} is not an integer")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"header field {value!r} is not an integer") from None


def parse_code_file(text: str) -> cc.ConvCode:
    """Parse the text (or JSON) code format, cross-checking the degree.

    The declared delta must match the internal degree of G(z), the largest
    degree of its k x k minors; a mismatch is a hard error.  Every malformed
    input raises ValueError.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        d = json.loads(text)
        missing = [key for key in ("n", "k", "delta", "G") if key not in d]
        if missing:
            raise ValueError(f"JSON code lacks {', '.join(missing)}")
        header = [d["n"], d["k"], d["delta"]]
        if not isinstance(d["G"], list) or not all(isinstance(b, list) for b in d["G"]):
            raise ValueError("JSON 'G' must be a list of row lists")
        rows = [r for block in d["G"] for r in block]
    else:
        lines = [
            ln.strip()
            for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")
        ]
        if not lines:
            raise ValueError("empty code file")
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError("header must be 'n k delta'")
        rows = lines[1:]
    n, k, delta = (_header_int(x) for x in header)
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if len(rows) % k:
        raise ValueError(f"{len(rows)} coefficient rows is not a multiple of k={k}")
    for r in rows:
        if not isinstance(r, str) or len(r) != n or set(r) - {"0", "1"}:
            raise ValueError(f"bad coefficient row {r!r}")
    coeffs = tuple(
        BitMatrix.from_strings(rows[i : i + k]) for i in range(0, len(rows), k)
    )
    code = cc.ConvCode(n, k, coeffs, delta)
    measured = cc.internal_degree(code)
    if measured != delta:
        raise ValueError(
            f"declared degree {delta} does not match re-derived degree {measured}"
        )
    return code


def _emit_json(d: dict) -> None:
    print(json.dumps(d, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_construct(args) -> int:
    code, plan = build_code(args.n, args.k, args.delta)
    provenance = plan.provenance
    if args.json or args.format == "json":
        payload = json.dumps(
            code_to_json_dict(code, provenance=provenance),
            sort_keys=True,
            separators=(",", ":"),
        )
        text = payload + "\n"
    else:
        text = format_code_file(code, comments=[f"construction: {provenance}"])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not args.quiet:
        print(f"construction: {provenance}", file=sys.stderr)
    return 0


def _profile_report(code: cc.ConvCode, jmax: int, method: str, want_free: bool):
    noncat = cc.is_noncatastrophic(code)
    free = None
    if want_free:
        if not noncat:
            raise ValueError(
                "free distance is a limit that a catastrophic code need not attain"
            )
        free = cc.free_distance(code)
    profile = cc.distance_profile(code, jmax, method=method)
    report = {
        "n": code.n,
        "k": code.k,
        "delta": code.delta,
        "profile": list(profile.values),
        "free_distance": free,
        "method": profile.method,
        "delay_free": cc.is_delay_free(code),
        "row_reduced": cc.is_row_reduced(code),
        "noncatastrophic": noncat,
        "generic_row_degrees": cc.has_generic_row_degrees(code),
        "column_bounds": [cc.column_bound(code.n, code.k, j) for j in range(jmax + 1)],
    }
    if code.n > code.k:
        L = cc.L_value(code.n, code.k, code.delta)
        if jmax >= L:
            report["mdp"] = profile.values[L] == cc.column_bound(code.n, code.k, L)
        else:
            report["mdp"] = cc.is_mdp(code)
    return report


def cmd_profile(args) -> int:
    with open(args.infile) as fh:
        code = parse_code_file(fh.read())
    jmax = args.jmax if args.jmax is not None else code.delta + 5
    report = _profile_report(code, jmax, args.method, args.free)
    if args.json:
        _emit_json(report)
    elif not args.quiet:
        print(f"(n,k,delta) = ({code.n},{code.k},{code.delta})")
        print("j    : " + " ".join(f"{j:4d}" for j in range(jmax + 1)))
        print("d_j^c: " + " ".join(f"{v:4d}" for v in report["profile"]))
        if report["free_distance"] is not None:
            print(f"free distance: {report['free_distance']}")
    return 0


def cmd_check(args) -> int:
    with open(args.infile) as fh:
        code = parse_code_file(fh.read())
    internal = cc.internal_degree(code)
    external = cc.external_degree(code)
    flags = {
        "delay_free": cc.is_delay_free(code),
        "row_reduced": internal == external,
        "noncatastrophic": cc.is_noncatastrophic(code),
        "generic_row_degrees": cc.has_generic_row_degrees(code),
    }
    info = {
        "n": code.n,
        "k": code.k,
        "delta": code.delta,
        "row_degrees": cc.row_degrees(code),
        "external_degree": external,
        "internal_degree": internal,
        **flags,
    }
    if args.json:
        _emit_json(info)
    elif not args.quiet:
        for key, val in info.items():
            print(f"{key}: {str(val).lower() if isinstance(val, bool) else val}")
    return 0 if flags["delay_free"] and flags["noncatastrophic"] else 2


def cmd_bounds(args) -> int:
    if args.n <= args.k or args.k < 1:
        raise ValueError("bounds need n > k >= 1")
    jmax = args.jmax if args.jmax is not None else args.delta + 5
    out = {
        "n": args.n,
        "k": args.k,
        "delta": args.delta,
        "singleton": cc.singleton_bound(args.n, args.k, args.delta),
        "L": cc.L_value(args.n, args.k, args.delta),
        "column_bounds": [cc.column_bound(args.n, args.k, j) for j in range(jmax + 1)],
    }
    if args.infile:
        with open(args.infile) as fh:
            code = parse_code_file(fh.read())
        if (code.n, code.k, code.delta) != (args.n, args.k, args.delta):
            raise ValueError("code file parameters do not match the arguments")
        rep = cc.row_weight_bounds(code, jmax)
        out["weight_lower"] = list(rep.lower)
        out["weight_upper"] = list(rep.upper)
        out["weight_cap"] = list(rep.cap)
    if args.json:
        _emit_json(out)
    elif not args.quiet:
        for key, val in out.items():
            print(f"{key}: {val}")
    return 0


def cmd_verify_optimal(args) -> int:
    if args.infile:
        with open(args.infile) as fh:
            code = parse_code_file(fh.read())
    elif args.params:
        code, _ = build_code(*args.params)
    else:
        raise ValueError("give a code file or --params n k delta")
    verdict = opt.verify_optimal(code, args.horizon)
    if args.json:
        _emit_json(
            {
                "optimal": verdict.optimal,
                "optimal_through_delta": verdict.optimal_through_delta,
                "horizon": verdict.horizon,
                "tie_at_horizon": verdict.ties_at_horizon,
                "witness": None
                if verdict.witness is None
                else code_to_json_dict(verdict.witness),
            }
        )
    elif not args.quiet:
        claim = "optimal" if verdict.optimal_through_delta else "not optimal"
        print(f"{claim} through delta = {code.delta} (d_0..d_{code.delta})")
        if not verdict.optimal:
            print("not optimal; a better code to this horizon:")
            sys.stdout.write(format_code_file(verdict.witness))
        elif verdict.ties_at_horizon:
            print(f"optimal up to horizon {verdict.horizon}, with ties")
        else:
            print(f"optimal up to horizon {verdict.horizon} (unique up to column permutation)")
    if not verdict.optimal:
        return 2
    return 3 if verdict.ties_at_horizon else 0


# ---------------------------------------------------------------------------
# Table reproduction


def _reproduce_ws3(quiet: bool):
    res = opt.search_optimal_row(m_fold(partial_simplex(3), 2))
    got = res.profile[:7]
    if not quiet:
        print("s    : " + " ".join(f"{s:2d}" for s in range(1, 8)))
        print("wt^s : " + " ".join(f"{v:2d}" for v in got))
    return got == WS3_EXPECTED, got, WS3_EXPECTED


def _reproduce_wt4(quiet: bool):
    res = opt.search_optimal_row(recursive_partial_simplex_4())
    got = res.profile[:15]
    if not quiet:
        print("t    : " + " ".join(f"{t:2d}" for t in range(1, 16)))
        print("wt^t : " + " ".join(f"{v:2d}" for v in got))
    return got == WT4_EXPECTED, got, WT4_EXPECTED


def _reproduce_opt_rows_d3(quiet: bool):
    res = opt.search_optimal_row(m_fold(partial_simplex(3), 2))
    got = tuple(sorted(v.to_string() for v in res.optimal_rows))
    if not quiet:
        for row in got:
            print(row)
    return got == tuple(sorted(OPT_ROWS_D3)), got, tuple(sorted(OPT_ROWS_D3))


def _reproduce_opt_rows_d4(quiet: bool):
    """For each of the 8 optimal bottom rows at dimension 4, search all 2^16
    candidate rows at dimension 5.  The search ties on the whole weight
    profile; among the tied rows, the ones in quarter-repeated form
    (h1 h1 h2 h2) — the form that keeps the recursive column layout
    extendable — must be exactly the expansions of the same 8 optimal rows,
    for 64 codes in total."""
    expected = tuple(sorted(_expand_d4(r) for r in OPT_ROWS_D3))
    total = 0
    for g3 in OPT_ROWS_D3:
        res = opt.search_optimal_row(recursive_partial_simplex_4(g3))
        rows = [v.to_string() for v in res.optimal_rows]
        got = tuple(
            sorted(r for r in rows if r[0:4] == r[4:8] and r[8:12] == r[12:16])
        )
        total += len(got)
        if got != expected:
            return False, got, expected
    if not quiet:
        for row in expected:
            print(row)
        print(f"total optimal codes: {total}")
    return total == 64, total, 64


def _reproduce_delta2_cases(quiet: bool):
    ok = True
    results = {}
    for (x, y), expected in DELTA2_S2_EXPECTED.items():
        got = _residual_code_profile(["11", "10", f"{x}{y}"])
        results[f"s=2 (x,y)=({x},{y})"] = (got, expected)
        ok = ok and got == expected
    for rows, expected in DELTA2_S3_EXPECTED.items():
        got = _residual_code_profile(list(rows))
        results[f"s=3 rows {'/'.join(rows)}"] = (got, expected)
        ok = ok and got == expected
    if not quiet:
        for label, (got, expected) in results.items():
            mark = "ok" if got == expected else "MISMATCH"
            print(f"{label}: profile {got[0]} free {got[1]} [{mark}]")
    return ok, results, None


def cmd_reproduce(args) -> int:
    dispatch = {
        "ws3": _reproduce_ws3,
        "wt4": _reproduce_wt4,
        "opt-rows-d3": _reproduce_opt_rows_d3,
        "opt-rows-d4": _reproduce_opt_rows_d4,
        "delta2-cases": _reproduce_delta2_cases,
    }
    ok, got, expected = dispatch[args.table](args.quiet and not args.json)
    if args.json:
        _emit_json({"table": args.table, "match": ok})
    if not ok:
        if not args.quiet:
            print(f"MISMATCH: got {got!r}, expected {expected!r}", file=sys.stderr)
        return 2
    if not args.quiet and not args.json:
        print(f"{args.table}: reproduced")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="suppress chatter")
    p = argparse.ArgumentParser(
        prog="convdist",
        description="Binary convolutional codes with optimal column distances",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", parents=[common])
    pc.add_argument("n", type=int)
    pc.add_argument("k", type=int)
    pc.add_argument("delta", type=int)
    pc.add_argument("--out", metavar="PATH")
    pc.add_argument("--format", choices=["text", "json"], default="text")
    pc.set_defaults(func=cmd_construct)

    pp = sub.add_parser("profile", parents=[common])
    pp.add_argument("infile", metavar="IN")
    pp.add_argument("--jmax", type=int)
    pp.add_argument("--method", choices=["auto", "exhaustive", "trellis"], default="auto")
    pp.add_argument("--free", action="store_true", help="also compute the free distance")
    pp.set_defaults(func=cmd_profile)

    pk = sub.add_parser("check", parents=[common])
    pk.add_argument("infile", metavar="IN")
    pk.set_defaults(func=cmd_check)

    pb = sub.add_parser("bounds", parents=[common])
    pb.add_argument("n", type=int)
    pb.add_argument("k", type=int)
    pb.add_argument("delta", type=int)
    pb.add_argument("--jmax", type=int)
    pb.add_argument("--in", dest="infile", metavar="PATH")
    pb.set_defaults(func=cmd_bounds)

    pv = sub.add_parser("verify-optimal", parents=[common])
    pv.add_argument("infile", nargs="?", metavar="IN")
    pv.add_argument("--params", type=int, nargs=3, metavar=("N", "K", "DELTA"))
    pv.add_argument("--horizon", type=int)
    pv.set_defaults(func=cmd_verify_optimal)

    pr = sub.add_parser("reproduce", parents=[common])
    pr.add_argument(
        "table",
        choices=["ws3", "wt4", "delta2-cases", "opt-rows-d3", "opt-rows-d4"],
    )
    pr.set_defaults(func=cmd_reproduce)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
