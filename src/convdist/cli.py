"""Command-line front end and the on-disk code file format.

Exit codes: 0 success/verified, 1 usage or resource error, 2 verification
failure, 3 inconclusive tie at the search horizon.

Every subcommand but `construct`, which writes a code file, returns (exit
status, report, text lines); `main` prints the report as one JSON line under
--json, else the lines unless --quiet.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import convcode as cc
from . import optsearch as opt
from .construct import REFERENCE_TABLES, construct as build_code
from .gf2core import BitMatrix, guard_table


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

    The header must name a code (`convcode.check_parameters`), and the
    declared delta must be the internal degree of G(z), the largest degree
    of its k x k minors (`convcode.check_degree`).  Every malformed
    input raises ValueError, a JSON block of G that does not hold exactly k
    rows among them.  Packing G(z) takes time in proportion to its
    (mu+1)*k rows times (mu+1)*n bits, so once the header and the row count
    are known, and before any row is checked, the file is priced as that
    many rows, rounded down to a power of two, of that width: every code
    that `construct` admits is admitted here too.
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
        sizes = [len(block) for block in d["G"]]
        rows = [r for block in d["G"] for r in block]
    else:
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
        if not lines:
            raise ValueError("empty code file")
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError("header must be 'n k delta'")
        rows, sizes = lines[1:], []
    n, k, delta = (_header_int(x) for x in header)
    cc.check_parameters(n, k, delta)
    if bad := [i for i, size in enumerate(sizes) if size != k]:
        raise ValueError(f"JSON block G[{bad[0]}] must hold k={k} rows, not {sizes[bad[0]]}")
    if len(rows) % k:
        raise ValueError(f"{len(rows)} coefficient rows is not a multiple of k={k}")
    guard_table(len(rows).bit_length() - 1, len(rows) // k * n, "code-file")
    for r in rows:
        if not isinstance(r, str) or len(r) != n or set(r) - {"0", "1"}:
            raise ValueError(f"bad coefficient row {r!r}")
    coeffs = tuple(
        BitMatrix.from_strings(rows[i : i + k]) for i in range(0, len(rows), k)
    )
    code = cc.ConvCode(n, k, coeffs, delta)
    cc.check_degree(code)
    return code


# compact, byte-stable JSON
_JSON = {"sort_keys": True, "separators": (",", ":")}


def _read_code(path: str) -> cc.ConvCode:
    with open(path) as fh:
        return parse_code_file(fh.read())


def _key_lines(report: dict) -> list:
    """One `key: value` line per entry, with booleans in lower case."""
    return [f"{k}: {str(v).lower() if isinstance(v, bool) else v}" for k, v in report.items()]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_construct(args):
    code, provenance = build_code(args.n, args.k, args.delta)
    # the file holds (mu+1)*k rows of n characters, of 8 bits each
    guard_table((len(code.coeffs) * code.k - 1).bit_length(), 8 * code.n, "code-file text")
    if args.json:
        text = json.dumps(code_to_json_dict(code, provenance=provenance), **_JSON) + "\n"
    else:
        text = format_code_file(code, comments=[f"construction: {provenance}"])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not args.quiet:
        print(f"construction: {provenance}", file=sys.stderr)
    return 0, None, []


def _flags(code: cc.ConvCode, external: int) -> dict:
    """The four structural flags of a parsed code.  `parse_code_file` has
    proved that its internal degree is delta, so it is row-reduced exactly
    when its external degree is delta too."""
    return {
        "delay_free": cc.is_delay_free(code),
        "row_reduced": external == code.delta,
        "noncatastrophic": cc.is_noncatastrophic(code),
        "generic_row_degrees": cc.has_generic_row_degrees(code),
    }


def _mdp(code: cc.ConvCode, values: tuple) -> Optional[bool]:
    """Whether d_L meets the generic bound: read off `values` when they reach
    L, else from a profile to L if its guards admit one, else None."""
    L = cc.L_value(code.n, code.k, code.delta)
    if L < len(values):
        return values[L] == cc.column_bound(code.n, code.k, L)
    try:
        return cc.is_mdp(code)
    except ValueError:  # a guard refused the profile to L before any work
        return None


def _profile_report(code: cc.ConvCode, jmax: int, want_free: bool):
    profile = cc.distance_profile(code, jmax)
    flags = _flags(code, cc.external_degree(code))
    if want_free and not flags["noncatastrophic"]:
        raise ValueError("free distance is a limit that a catastrophic code need not attain")
    report = {
        "n": code.n,
        "k": code.k,
        "delta": code.delta,
        "profile": list(profile.values),
        "free_distance": cc.free_distance(code) if want_free else None,
        "method": profile.method,
        **flags,
        "column_bounds": [cc.column_bound(code.n, code.k, j) for j in range(jmax + 1)],
    }
    if code.n > code.k:
        report["mdp"] = _mdp(code, profile.values)
    return report


def cmd_profile(args):
    code = _read_code(args.infile)
    jmax = args.jmax if args.jmax is not None else code.delta + 5
    report = _profile_report(code, jmax, args.free)
    lines = [
        f"(n,k,delta) = ({code.n},{code.k},{code.delta})",
        "j    : " + " ".join(f"{j:4d}" for j in range(jmax + 1)),
        "d_j^c: " + " ".join(f"{v:4d}" for v in report["profile"]),
    ]
    if report["free_distance"] is not None:
        lines.append(f"free distance: {report['free_distance']}")
    return 0, report, lines


def cmd_check(args):
    code = _read_code(args.infile)
    degrees = cc.row_degrees(code)
    external = sum(degrees)
    flags = _flags(code, external)
    info = {
        "n": code.n,
        "k": code.k,
        "delta": code.delta,
        "row_degrees": degrees,
        "external_degree": external,
        "internal_degree": code.delta,
        **flags,
    }
    return (0 if flags["delay_free"] and flags["noncatastrophic"] else 2), info, _key_lines(info)


def cmd_bounds(args):
    cc.check_parameters(args.n, args.k, args.delta)
    jmax = args.jmax if args.jmax is not None else args.delta + 5
    cc.check_jmax(jmax)
    out = {
        "n": args.n,
        "k": args.k,
        "delta": args.delta,
        "singleton": cc.singleton_bound(args.n, args.k, args.delta),
        "L": cc.L_value(args.n, args.k, args.delta),
        "column_bounds": [cc.column_bound(args.n, args.k, j) for j in range(jmax + 1)],
    }
    if args.infile:
        code = _read_code(args.infile)
        if (code.n, code.k, code.delta) != (args.n, args.k, args.delta):
            raise ValueError("code file parameters do not match the arguments")
        rep = cc.row_weight_bounds(code, jmax)
        out["weight_lower"] = list(rep.lower)
        out["weight_upper"] = list(rep.upper)
        out["weight_cap"] = list(rep.cap)
    return 0, out, _key_lines(out)


def cmd_verify_optimal(args):
    if (args.infile is None) == (args.params is None):
        raise ValueError("give either a code file or --params n k delta")
    if args.infile:
        code = _read_code(args.infile)
    else:
        n, k, delta = args.params
        opt.price_search(n, k, delta, delta + 5 if args.horizon is None else args.horizon)
        code, _ = build_code(n, k, delta)
    verdict = opt.verify_optimal(code, args.horizon)
    report = {
        "optimal": verdict.optimal,
        "optimal_through_delta": verdict.optimal_through_delta,
        "horizon": verdict.horizon,
        "tie_at_horizon": verdict.ties_at_horizon,
        "witness": None if verdict.witness is None else code_to_json_dict(verdict.witness),
    }
    claim = "optimal" if verdict.optimal_through_delta else "not optimal"
    lines = [f"{claim} through delta = {code.delta} (d_0..d_{code.delta})"]
    if not verdict.optimal:
        lines.append("not optimal; a better code to this horizon:")
        return 2, report, lines + format_code_file(verdict.witness).splitlines()
    if verdict.ties_at_horizon:
        return 3, report, lines + [f"optimal up to horizon {verdict.horizon}, with ties"]
    lines.append(f"optimal up to horizon {verdict.horizon} (unique up to column permutation)")
    return 0, report, lines


def cmd_reproduce(args):
    recompute, expected = REFERENCE_TABLES[args.table]
    got = recompute()
    report, lines = {"table": args.table, "match": got == expected}, [f"{args.table}: {got}"]
    if got != expected:
        if not args.quiet:
            print(f"MISMATCH: got {got!r}, expected {expected!r}", file=sys.stderr)
        return 2, report, lines
    return 0, report, lines + [f"{args.table}: reproduced"]


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
    pc.set_defaults(func=cmd_construct)

    pp = sub.add_parser("profile", parents=[common])
    pp.add_argument("infile", metavar="IN")
    pp.add_argument("--jmax", type=int)
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
    pr.add_argument("table", choices=list(REFERENCE_TABLES))
    pr.set_defaults(func=cmd_reproduce)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        status, report, lines = args.func(args)
        if args.json and report is not None:
            print(json.dumps(report, **_JSON))
        elif lines and not args.quiet:
            print("\n".join(lines))
        return status
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
