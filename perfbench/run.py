"""convdist benchmark: one seeded workload per run, every result checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The package is imported from the checkout's src/, never from an installed
copy. A run repeats its workload's job batch ("pass") while the next pass
still fits in --seconds, with at least one pass of each kind. With --trace 0
it reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes, then runs one traced pass of the seeded CLI session, reports
the per-layer metrics and writes the spans to perfbench/out/. The last line
of standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; any failed check makes the exit code 1. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("deep_memory", "wide_rate_k", "bruteforce")
SETUP_SAMPLES = 11
# Untraced passes after the first run a job that took under REPEAT_S several
# times back to back, at most REPEAT_MAX: a short job needs many samples for
# its fastest one to miss the host's bursts of interference.
REPEAT_S = 0.002
REPEAT_MAX = 8
CLI_COMMANDS = ("construct", "profile", "check", "bounds", "verify-optimal", "reproduce")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_convdist():
    """Import convdist from this checkout's src/, or exit with an error."""
    if not (SRC / "convdist" / "__init__.py").is_file():
        sys.exit(f"error: no convdist package under {SRC}")
    sys.path.insert(0, str(SRC))
    import convdist

    where = Path(convdist.__file__).resolve().parent
    if where != (SRC / "convdist").resolve():
        sys.exit(f"error: convdist imported from {where}, not from {SRC}")
    return convdist


def host_ref_ms():
    """A fixed pure-Python loop: a diagnostic of host speed, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(convdist, seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "convdist_path": str(Path(convdist.__file__).resolve().parent),
    }


def setup_sample():
    """Wall time of a fresh interpreter's `import convdist`."""
    import workloads

    # Captured output makes the wait end on the child's pipes closing; a
    # bare wait with a timeout polls, in steps of up to 50 ms.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import convdist"], env=workloads.cli_env(str(ROOT)),
                   cwd=str(ROOT), capture_output=True, check=True, timeout=120)
    return time.perf_counter() - t0


class Pass:
    """One run of the job batch: wall time, per-job latencies and failures."""

    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0
        self.latencies = []  # each job's fastest run in this pass
        self.runs = 0  # job runs, repeats included
        self.failures = []  # failed jobs
        self.problems = []  # in-process replays that disagree with the CLI run
        self.tracer = None
        self.replay = {}  # job index -> seconds in the in-process cli.main


def run_job(job, index, tracer, failures):
    if tracer is not None:
        tracer.job = index
        tracer.open_span(job.kind)
    t0 = time.perf_counter()
    try:
        job.run()
        ok = True
    except Exception as exc:  # any error is a failed job; the run goes on
        failures.append(f"{job.kind} {job.label}: {type(exc).__name__}: {exc}")
        ok = False
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close_span()
    return dt, ok


def replay_cli(job, index, tracer, problems):
    """The same argv in-process through convdist.cli.main, as a cli.main span."""
    from convdist import cli

    tracer.job = index
    sink = io.StringIO()
    cwd = os.getcwd()
    os.chdir(job.cwd)
    tracer.open_span("cli.main")
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(job.argv))
    finally:
        dt = time.perf_counter() - t0
        tracer.close_span()
        os.chdir(cwd)
    if rc != job.exit_code:
        problems.append(f"cli.main {job.label}: exit {rc}, expected {job.exit_code}")
    return dt


def run_pass(jobs, traced, repeats=None):
    """Run every job once, or `repeats[i]` times back to back. A traced pass
    runs each job once, records spans and then replays each CLI job
    in-process; the replays are not part of the pass's wall time."""
    import tracing

    p = Pass(traced)
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for i, job in enumerate(jobs):
            best = math.inf
            for _ in range(repeats[i] if repeats else 1):
                dt, ok = run_job(job, i, tracer, p.failures)
                best = min(best, dt)
                p.runs += 1
                if not ok:
                    break
            p.latencies.append(best)
        p.wall = time.perf_counter() - t0
        if tracer is not None:
            for i, job in enumerate(jobs):
                if job.argv is not None:
                    p.replay[i] = replay_cli(job, i, tracer, p.problems)
    finally:
        if tracer is not None:
            tracer.uninstall()
    p.tracer = tracer
    return p


def run_passes(jobs, seconds, trace):
    """Passes while the next one fits in `seconds`; traced runs alternate
    untraced and traced passes, need one of each and run every job once
    per pass, so their counts repeat. Untraced runs repeat short jobs from
    the second pass on (see REPEAT_S), and time fresh `import convdist`
    between passes, spread evenly over the run, SETUP_SAMPLES in all."""
    passes, setup = [], []
    repeats = None
    if not trace:
        setup_sample()  # the first call may compile bytecode
    cpus = sorted(os.sched_getaffinity(0))
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        # One CPU of a shared host can run slow for seconds while the other
        # does not, and a process tends to stay on the CPU it started on:
        # each pass runs on the next CPU, so every job's fastest run can
        # come from whichever CPU was fast.
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        passes.append(run_pass(jobs, traced, repeats))
        if not trace and repeats is None:
            repeats = [min(REPEAT_MAX, max(1, math.ceil(REPEAT_S / lat)))
                       for lat in passes[0].latencies]
        if not trace and len(setup) < SETUP_SAMPLES * (time.perf_counter() - t0) / seconds:
            setup.append(setup_sample())
        kinds = {p.traced for p in passes}
        elapsed = time.perf_counter() - t0
        longest = max(p.wall + sum(p.replay.values()) for p in passes)
        if kinds == ({False, True} if trace else {False}) and elapsed + longest > seconds:
            break
    os.sched_setaffinity(0, cpus)
    while setup and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    return passes, setup


def job_latencies(passes):
    """Each job's fastest run over the passes, sorted."""
    return sorted(min(lat) for lat in zip(*(p.latencies for p in passes)))


def end_to_end(passes, setup):
    """Times are each job's fastest run: on a shared host interference only
    adds time, and comes in bursts and spells, so the fastest of many runs
    spread over the run is the steadiest estimate of a job's cost. wall_s
    sums these per job: a whole pass rarely misses every burst, but each
    job's fastest run usually does."""
    plain = [p for p in passes if not p.traced]
    lat = job_latencies(plain)
    n = len(lat)
    beyond = min(10, n - 1)  # the highest percentile with 10 jobs beyond it
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "wall_s": (sum(lat), "s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": (lat[n - 1 - beyond] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "wall_s": f"sum over {n} jobs of each one's fastest run in {len(plain)} passes",
        "job_p50_ms": f"over {n} jobs, each its fastest run in {len(plain)} passes",
        "job_tail_ms": f"p{100.0 * (n - beyond) / n:.1f} of {n} jobs, {beyond} beyond it",
        "setup_s": f"median of {len(setup)} samples between passes",
    }
    return metrics, notes


def cli_times(p):
    """(subcommand, subprocess seconds, start-up seconds) per CLI job of a
    traced pass; start-up is the subprocess time minus the in-process time."""
    return [
        (name[4:], end - start, end - start - p.replay[job])
        for name, start, end, parent, job in p.tracer.spans
        if parent is None and job in p.replay and name != "cli.main"
    ]


def per_layer(passes, session):
    """Per-layer metrics from the traced passes. A library layer the
    workload does not reach is measured by one minimal probe call after the
    passes. The CLI layer is measured on `session`, a traced pass of the
    seeded CLI session with a tracer of its own."""
    import tracing
    import workloads

    traced = [p for p in passes if p.traced]
    totals = [p.tracer.layer_totals() for p in traced]
    counts = [dict(p.tracer.counts) for p in traced]
    problems = []
    calls = [{name: c for name, (_, c) in t.items()} for t in totals]
    if any(c != counts[0] for c in counts) or any(c != calls[0] for c in calls):
        problems.append("computed counts differ between traced passes of one seed")

    missing = [layer for layer in tracing.LAYERS if layer not in totals[0]]
    probes = workloads.probe_jobs()
    probe = tracing.Tracer()
    probe.job = "probe"
    probe.install()
    try:
        for layer in missing:
            probes[layer]()
    finally:
        probe.uninstall()
    probe_totals = probe.layer_totals()
    cli = cli_times(session)

    metrics = {}
    for layer, fns in tracing.LAYERS.items():
        if layer in totals[0]:
            busy = statistics.median(t[layer][0] for t in totals)
            n_calls, cnt = totals[0][layer][1], counts[0]
        else:
            (busy, n_calls), cnt = probe_totals[layer], probe.counts
        metrics[f"{layer}.busy_s"] = (busy, "s")
        metrics[f"{layer}.calls"] = (n_calls, "count")
        for _, _, counter, _ in fns:
            if counter:
                metrics[f"{layer}.{counter}"] = (cnt.get(f"{layer}.{counter}", 0), "count")
    for c in CLI_COMMANDS:
        metrics[f"cli.{c}.p50_ms"] = (statistics.median(t[1] for t in cli if t[0] == c) * 1e3, "ms")
    metrics["cli.main.busy_s"] = (sum(session.replay.values()), "s")
    metrics["cli.startup_s"] = (statistics.median(t[2] for t in cli), "s")
    # Each traced pass against the untraced pass just before it, so that a
    # slow spell of the host falls on both sides of most pairs.
    pairs = [b.wall - a.wall for a, b in zip(passes, passes[1:]) if b.traced and not a.traced]
    metrics["trace.overhead_s"] = (statistics.median(pairs), "s")
    return metrics, problems, missing, probe.spans


def write_spans(workload, seed, env, passes, session, probe_spans):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "env": env,
        "span_fields": ["name", "start", "end", "parent", "job"],
        "passes": [p.tracer.spans for p in passes if p.traced],
        "cli_session": session.tracer.spans,
        "probe": probe_spans,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


def run_workload(args):
    convdist = import_convdist()
    # workloads and tracing import convdist, so they load only after the
    # checkout's src/ is on the path.
    import workloads

    env = environment(convdist, args.seed)
    env["host_ref_ms_start"] = host_ref_ms()

    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.build(args.workload, random.Random(args.seed), workdir)
    passes, setup = run_passes(jobs, args.seconds, bool(args.trace))

    if args.trace:
        # No workload runs the CLI; one traced pass of the seeded CLI
        # session measures that layer.
        session = run_pass(workloads.cli_session(random.Random(args.seed), workdir), True)
        passes_and_session = passes + [session]
    else:
        passes_and_session = passes

    failures = [f for p in passes_and_session for f in p.failures + p.problems]
    attempted = sum(p.runs for p in passes_and_session)
    failed = sum(len(p.failures) for p in passes_and_session)
    notes = {}
    if args.trace:
        metrics, problems, probed, probe_spans = per_layer(passes, session)
        failures += problems
        if probed:
            notes["probed"] = ", ".join(probed)
    else:
        metrics, notes = end_to_end(passes, setup)
    shutil.rmtree(workdir, ignore_errors=True)
    env["host_ref_ms_end"] = host_ref_ms()

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes of {len(jobs)} jobs")
    print("pass walls (s, * traced): " + " ".join(
        f"{p.wall:.3f}{'*' if p.traced else ''}" for p in passes))
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        path = write_spans(args.workload, args.seed, env, passes, session, probe_spans)
        print(f"spans written to {path.relative_to(ROOT)}")
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    if "probed" in notes:
        print(f"library layers not reached by this workload, measured by one probe call: "
              f"{notes['probed']}")
    correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process, so peak_rss_mb stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"error: workload {name} printed no result (exit {proc.returncode})")
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
