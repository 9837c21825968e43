"""Seeded job batches for the three workloads and the CLI session, with the
checks on every result.

A workload is a fixed list of jobs built from the seed before timing starts;
convdist receives only the generated codes and parameters. Each job is one
user-level task (profile one code, verify one code, one row search, or one
CLI call) and raises CheckFailed when a result is wrong.

The seed chooses inputs inside fixed strata (for example one n from each
sub-band of a range, for a fixed list of (k, delta) slots), so that two seeds
give different inputs of near-equal total cost.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import convdist as cd


# Tables from the paper, kept here so the checks do not depend on where the
# package stores its own copies: the eight optimal delta=3 bottom rows and
# the optimal prefix weight profiles wt^s at delta=3 and wt^t at delta=4.
OPT_ROWS_D3 = (
    "00011110", "00101101", "01001011", "01111000",
    "10000111", "10110100", "11010010", "11100001",
)
WS3 = (0, 0, 0, 1, 1, 2, 3)
WT4 = (0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 4, 5, 6, 7)


class CheckFailed(Exception):
    """A job's result contradicts the paper or an independent oracle."""


def check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], None]
    # CLI jobs: argv, expected exit code and working directory, so the
    # traced run can replay the same call in-process through cli.main.
    argv: Optional[list] = None
    exit_code: int = 0
    cwd: Optional[str] = None


def _bands(rng, lo, hi, count):
    """One value from each of `count` equal sub-bands of [lo, hi]."""
    edges = [lo + (hi - lo + 1) * i // count for i in range(count + 1)]
    return [rng.randrange(edges[i], max(edges[i] + 1, edges[i + 1])) for i in range(count)]


# ---------------------------------------------------------------------------
# Construction pipeline: deep_memory and wide_rate_k


def _check_paper_profile(n, k, delta, tr, free):
    jmax = len(tr) - 1
    if k == 1:
        if n % (1 << delta) == 0:
            pred = cd.predicted_profile_rate_1_n(n, delta, jmax)
            check(tuple(tr) == pred.values, f"profile {tr} != rate-1/n formula {pred.values}")
            check(free == pred.free_distance, f"free distance {free} != {pred.free_distance}")
        else:
            bound = cd.near_optimal_bound_profile(n, delta, delta).values
            check(
                all(tr[j] >= bound[j] for j in range(delta + 1)),
                f"d_0..d_delta {tr[:delta + 1]} below near-optimal bound {bound}",
            )
    elif n % ((1 << delta) * ((1 << k) - 1)) == 0:
        pred = cd.predicted_profile_k_dim(n, k, delta, jmax)
        check(tuple(tr) == pred.values, f"profile {tr} != k-dim formula {pred.values}")


def _check_bounds(code, values):
    rep = cd.row_weight_bounds(code, len(values) - 1)
    for j, d in enumerate(values):
        check(
            rep.lower[j] <= d <= rep.upper[j] <= rep.cap[j],
            f"d_{j}={d} outside weight bounds [{rep.lower[j]}, {rep.upper[j]}]",
        )
        check(d <= cd.column_bound(code.n, code.k, j), f"d_{j}={d} above the column bound")


def _pipeline(n, k, delta, ex_jmax):
    def run():
        code, _ = cd.construct(n, k, delta)
        check((code.n, code.k, code.delta) == (n, k, delta), "wrong parameters")
        check(cd.is_delay_free(code), "construction not delay-free")
        check(cd.is_row_reduced(code), "construction not row-reduced")
        check(cd.is_noncatastrophic(code), "construction catastrophic")
        tr = cd.column_distances_trellis(code, delta + 5)
        ex = cd.column_distances_exhaustive(code, ex_jmax)
        check(ex == tr[: ex_jmax + 1], f"exhaustive {ex} != trellis {tr}")
        free = cd.free_distance(code)
        check(tr[-1] <= free, f"d_{delta + 5}={tr[-1]} exceeds free distance {free}")
        _check_bounds(code, tr)
        _check_paper_profile(n, k, delta, tr, free)

    return Job("pipeline", f"({n},{k},{delta})", run)


# A workload's jobs fall into cost strata: f below the median stratum (2a + 1
# jobs), g between it and the tail stratum (2b + 1 jobs) and t above it. With
# t + b = 10 and f = g + b + 11 the median job is the middle of the median
# stratum and the tail job (10 beyond it) the middle of the tail stratum, so
# neither metric moves from stratum to stratum with the seed. The n ranges of
# the median and tail strata are ones where the cost is nearly flat in n.

# (delta, jobs, n range); k = 1, so every code takes the near-optimal
# construction with its O(4^delta) column search.
DEEP_SLOTS = (
    (5, 5, (2, 40)), (6, 6, (2, 40)), (7, 6, (2, 40)),  # f = 17
    (8, 11, (8, 17)),  # median stratum
    (9, 2, (10, 22)),  # g = 2; n from 24 to 33 costs as much as delta = 10
    (10, 9, (10, 30)),  # tail stratum
    (11, 4, (2, 40)), (12, 1, (2, 40)), (13, 1, (2, 40)),  # t = 6
)


def deep_memory(rng, workdir):
    return [
        _pipeline(n, 1, delta, 8)
        for delta, count, (lo, hi) in DEEP_SLOTS
        for n in _bands(rng, lo, hi, count)
    ]


def _wide_job(n, k, delta):
    return _pipeline(n, k, delta, min(delta + 5, 18 // k - 1))


# (k, delta, jobs, n range) drawn by the seed, next to fixed codes. The fixed
# ones are exact k-partial-simplex multiples, whose profiles have closed
# forms, and the dearest codes, which are fixed so that the batch's total
# cost is near-equal across seeds.
WIDE_STRATA = (
    ([(12, 2, 1)], [(2, 1, 7, (13, 24)), (2, 2, 8, (12, 19))]),  # f = 16
    ([(24, 2, 2)], [(2, 2, 8, (25, 33))]),  # median stratum
    ([], [(3, 1, 1, (8, 9)), (4, 1, 1, (6, 7))]),  # g = 2
    ([(24, 2, 3)], [(2, 3, 6, (25, 31))]),  # tail stratum
    (  # t = 7
        [(14, 3, 1), (28, 3, 1), (11, 4, 2)],
        [(3, 2, 2, (10, 13)), (2, 4, 1, (17, 22)), (4, 1, 1, (10, 11))],
    ),
)


def wide_rate_k(rng, workdir):
    """Cost grows with C(n, k): k = 2..4, delta = 1..4, n up to 33 (28 at
    k = 3). All lengths stay clear of the short ones where the construction
    is catastrophic."""
    params = []
    for fixed, drawn in WIDE_STRATA:
        params += fixed
        for k, delta, count, (lo, hi) in drawn:
            params += [(n, k, delta) for n in _bands(rng, lo, hi, count)]
    return [_wide_job(*p) for p in params]


# ---------------------------------------------------------------------------
# bruteforce: optimality verification, row searches and a random-code sweep

VERIFY_PARAMS = (
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 1), (3, 1, 2), (4, 1, 1), (5, 1, 1),
)
# Left out: (3,1,3), (3,2,1), (4,1,2), (5,1,2) and (6,1,1). Each takes 0.3 s
# to 4 s, and together they would make a pass too long for a run to sample
# every job many times. (2,1,4) still exercises the rule for codes that are
# not optimal to the horizon delta + 5.


def _verify(n, k, delta):
    def run():
        code, _ = cd.construct(n, k, delta)
        verdict = cd.verify_optimal(code)
        if not verdict.optimal:
            # The paper proves optimal d_0..d_delta, not lexicographic
            # optimality to the default horizon delta + 5.
            mine = cd.column_distances_exhaustive(code, delta)
            best = cd.column_distances_exhaustive(verdict.witness, delta)
            check(mine == best, f"witness beats d_0..d_delta: {best} > {mine}")

    return Job("verify", f"({n},{k},{delta})", run)


def _d4_top(g3):
    s3_2 = cd.m_fold(cd.partial_simplex(3), 2)
    return cd.vstack([cd.hstack([s3_2, s3_2]), cd.BitMatrix.from_strings([g3 + g3])])


def _row_search_d3():
    res = cd.search_optimal_row(cd.m_fold(cd.partial_simplex(3), 2))
    check(res.evaluated == 256, f"evaluated {res.evaluated} rows")
    check(tuple(res.profile[:7]) == WS3, f"wt^s {res.profile[:7]} != {WS3}")
    rows = sorted(v.to_string() for v in res.optimal_rows)
    check(rows == sorted(OPT_ROWS_D3), f"optimal rows {rows}")


def _row_search_d4(g3):
    def run():
        res = cd.search_optimal_row(_d4_top(g3))
        check(res.evaluated == 1 << 16, f"evaluated {res.evaluated} rows")
        check(tuple(res.profile[:15]) == WT4, f"wt^t {res.profile[:15]} != {WT4}")
        # Among the tied rows, the quarter-repeated ones (h1 h1 h2 h2) must be
        # exactly the expansions of the eight delta=3 rows.
        rows = [v.to_string() for v in res.optimal_rows]
        got = sorted(r for r in rows if r[0:4] == r[4:8] and r[8:12] == r[12:16])
        want = sorted(r[:4] * 2 + r[4:] * 2 for r in OPT_ROWS_D3)
        check(got == want, f"structured optimal rows {got}")

    return Job("row_search", f"d4 top {g3}", run)


def _random_code(rng, k, degree):
    """A delay-free (n, k, degree) code with random coefficients, n in k+1..6.

    The declared degree is the internal degree, as for any generator matrix
    read from outside; the matrix need not be row-reduced.
    """
    while True:
        n = rng.randint(k + 1, 6)
        top = rng.randint(-(-degree // k), degree)
        coeffs = [cd.BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(k)))
                  for _ in range(top + 1)]
        if coeffs[-1].is_zero():
            continue
        code = cd.ConvCode(n, k, tuple(coeffs), degree)
        if cd.is_delay_free(code) and cd.internal_degree(code) == degree:
            return code


def _sweep(code):
    def run():
        jmax = code.delta + 4
        ex = cd.column_distances_exhaustive(code, jmax)
        tr = cd.column_distances_trellis(code, jmax)
        check(ex == tr, f"exhaustive {ex} != trellis {tr}")
        _check_bounds(code, ex)

    return Job("sweep", f"random ({code.n},{code.k},{code.delta})", run)


# (k, degree) -> random codes in the sweep. The k = 1, degree 4 stratum is
# the median stratum: its cost barely depends on the draw, and 45 jobs lie
# on either side of it. The k = 2, degree 4 stratum is the tail stratum:
# 7 jobs, with 7 dearer ones (four verifications and three row searches)
# above it.
SWEEP_COUNTS = {
    (1, 0): 8, (1, 1): 8, (1, 2): 8, (1, 3): 8, (1, 4): 71,
    (2, 0): 6, (2, 1): 6, (2, 2): 12, (2, 3): 15, (2, 4): 7,
}


def bruteforce(rng, workdir):
    jobs = [_verify(*p) for p in VERIFY_PARAMS]
    jobs.append(Job("row_search", "d3 top", _row_search_d3))
    # the eight delta = 4 tops cost the same; the seed picks three
    jobs += [_row_search_d4(g3) for g3 in rng.sample(OPT_ROWS_D3, 3)]
    for (k, degree), count in SWEEP_COUNTS.items():
        jobs += [_sweep(_random_code(rng, k, degree)) for _ in range(count)]
    return jobs


# ---------------------------------------------------------------------------
# cli_session: one CLI subprocess per job. It is not a workload of its own;
# every traced run measures the CLI layer on one pass of it.


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, cwd):
    """Run `python -m convdist.cli argv` in a child; wait for it to end."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.run(
        [sys.executable, "-m", "convdist.cli", *argv],
        cwd=cwd, env=cli_env(root), capture_output=True, text=True, timeout=150,
    )


def _cli_job(argv, cwd, exit_code, check_output):
    def run():
        proc = run_cli(argv, cwd)
        check(
            proc.returncode == exit_code,
            f"exit {proc.returncode}, expected {exit_code}: {proc.stderr.strip()[-200:]}",
        )
        check_output(proc.stdout)

    return Job(f"cli.{argv[0]}", " ".join(argv), run, argv, exit_code, cwd)


def _code_session(n, k, delta, cwd):
    """construct -> profile --free -> check -> bounds --in on one code."""
    code, _ = cd.construct(n, k, delta)
    jmax = delta + 5
    rows = [s for g in code.coeffs for s in g.row_strings()]
    profile = list(cd.distance_profile(code, jmax).values)
    free = cd.free_distance(code)
    rep = cd.row_weight_bounds(code, jmax)
    fname = f"code_{n}_{k}_{delta}.txt"

    def code_file(_stdout):
        with open(os.path.join(cwd, fname)) as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        check(lines[0].split() == [str(n), str(k), str(delta)], f"header {lines[0]!r}")
        check(lines[1:] == rows, "code file differs from the library's construction")

    def profile_out(stdout):
        got = json.loads(stdout)
        check(got["profile"] == profile, f"CLI profile {got['profile']} != {profile}")
        check(got["free_distance"] == free, f"CLI free distance {got['free_distance']} != {free}")

    def check_out(stdout):
        got = json.loads(stdout)
        check(got["delay_free"] and got["row_reduced"] and got["noncatastrophic"], f"flags {got}")
        check(got["internal_degree"] == delta, f"internal degree {got['internal_degree']}")

    def bounds_out(stdout):
        got = json.loads(stdout)
        check(
            (got["weight_lower"], got["weight_upper"], got["weight_cap"])
            == (list(rep.lower), list(rep.upper), list(rep.cap)),
            "CLI weight bounds differ from the library's",
        )

    nkd = [str(n), str(k), str(delta)]
    return [
        _cli_job(["construct", *nkd, "--out", fname], cwd, 0, code_file),
        _cli_job(["profile", fname, "--free", "--json"], cwd, 0, profile_out),
        _cli_job(["check", fname, "--json"], cwd, 0, check_out),
        _cli_job(["bounds", *nkd, "--in", fname, "--json"], cwd, 0, bounds_out),
    ]


def _cli_verify(n, k, delta, cwd):
    verdict = cd.verify_optimal(cd.construct(n, k, delta)[0])
    exit_code = 2 if not verdict.optimal else 3 if verdict.ties_at_horizon else 0

    def out(stdout):
        got = json.loads(stdout)
        check(got["optimal"] == verdict.optimal, f"CLI verdict {got['optimal']}")

    return _cli_job(
        ["verify-optimal", "--params", str(n), str(k), str(delta), "--json"], cwd, exit_code, out
    )


def _cli_reproduce(table, cwd):
    def out(stdout):
        # the table itself is printed before the JSON line
        last = stdout.splitlines()[-1]
        check(json.loads(last) == {"table": table, "match": True}, f"reproduce {table}: {last!r}")

    return _cli_job(["reproduce", table, "--json"], cwd, 0, out)


# (k, delta) -> n range for the four coded sessions; k = 3 makes the minors
# in parse_code_file and the profile report visible next to start-up.
CLI_SLOTS = {(1, 2): (5, 15), (1, 4): (17, 31), (2, 3): (12, 24), (3, 1): (10, 18)}
CLI_VERIFY = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (4, 1, 1))


def cli_session(rng, workdir):
    cwd = str(workdir)
    jobs = []
    for (k, delta), (lo, hi) in CLI_SLOTS.items():
        jobs += _code_session(rng.randint(lo, hi), k, delta, cwd)
    for params in rng.sample(CLI_VERIFY, 2):
        jobs.append(_cli_verify(*params, cwd))
    for table in ("ws3", "opt-rows-d3", "delta2-cases", "wt4"):
        jobs.append(_cli_reproduce(table, cwd))
    return jobs


def build(name, rng, workdir):
    return {
        "deep_memory": deep_memory,
        "wide_rate_k": wide_rate_k,
        "bruteforce": bruteforce,
    }[name](rng, workdir)


# ---------------------------------------------------------------------------
# Minimal calls for library layers a workload's traced pass did not reach:
# a traced run must report every per-layer metric; see README.md.


def probe_jobs():
    code, _ = cd.construct(4, 1, 2)
    return {
        "construct": lambda: cd.construct(4, 1, 2),
        "convcode.trellis": lambda: cd.column_distances_trellis(code, 7),
        "convcode.exhaustive": lambda: cd.column_distances_exhaustive(code, 7),
        "convcode.predicates": lambda: cd.is_noncatastrophic(code),
        "convcode.free_distance": lambda: cd.free_distance(code),
        "convcode.bounds": lambda: cd.row_weight_bounds(code, 7),
        "optsearch.verify": lambda: cd.verify_optimal(cd.construct(2, 1, 1)[0]),
        "optsearch.row_search": _row_search_d3,
    }
