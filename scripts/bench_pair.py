#!/usr/bin/env python3
"""A/B benchmark of a parent commit against HEAD, in alternating pairs.

    python3 scripts/bench_pair.py --parent REV --tag TAG --seconds S \\
        [--first-seed N] WORKLOAD:PAIRS [WORKLOAD:PAIRS ...]

The parent and HEAD are exported with `git archive` into temporary
directories.  Pair i of a workload runs the unmodified perfbench/run.py of
each on seed first-seed + i; the side that runs first alternates.
BENCH_<TAG>.json, at the root of the checkout, holds both commits and the
tree ids of their src/ (which an amended commit keeps), every run's metrics
and `env` line, each side's operations attempted and failed over all its
runs and whether every run was correct and, per end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the pairs the change won
and a verdict (see `verdict`).  Standard library only."""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def rev_parse(*revs):
    return subprocess.run(["git", "rev-parse", *revs], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.split()


def run(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit(f"error: {workload} seed {seed} in {tree} exited {proc.returncode}: {proc.stderr[-300:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def verdict(entry, pairs, bound):
    """`gain` when the change wins at least 9 in 10 of the pairs and its
    median beats the parent's by more than the parent's interquartile range;
    `worse` when its median is worse by more than `bound`, a fraction of the
    parent's median; `unresolved` when the parent's interquartile range is
    wider than that fraction and the change does not win every pair; else
    `same`."""
    parent, change, won = entry["parent"], entry["change"], entry["pairs_won"]
    sign = 1 if entry["better"] == "lower" else -1
    worse_by = sign * (change["median"] - parent["median"])
    spread, allowed = parent["q3"] - parent["q1"], bound * abs(parent["median"])
    if 10 * won >= 9 * pairs and -worse_by > spread:
        return "gain"
    if worse_by > allowed:
        return "worse"
    if spread > allowed and won < pairs:
        return "unresolved"
    return "same"


def summary(runs, metrics):
    """Each side's `attempted` and `failed` summed over its runs and whether
    every run was `correct`; then, per metric of BENCHMARK.json's
    `end_to_end` list, each side's median and quartiles, the pairs the
    change won and the verdict."""
    out = {"pairs": len(runs)}
    for side in SIDES:
        out[side] = {
            "attempted": sum(r[side]["attempted"] for r in runs),
            "failed": sum(r[side]["failed"] for r in runs),
            "correct": all(r[side]["correct"] for r in runs),
        }
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(values["parent"], values["change"]))
        out[name] = {"better": better, "pairs_won": won}
        for side, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            out[name][side] = {"median": statistics.median(vals), "q1": q1, "q3": q3}
        out[name]["verdict"] = verdict(out[name], len(runs), metric["bound"])
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("plan", nargs="+", metavar="WORKLOAD:PAIRS")
    args = p.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commits = dict(zip(SIDES, rev_parse(args.parent + "^{commit}", "HEAD^{commit}")))
    src_trees = dict(zip(SIDES, rev_parse(*(c + ":src" for c in commits.values()))))
    doc = {**commits, "src_trees": src_trees, "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        for side, tree in trees.items():
            subprocess.run(["git", "archive", "-o", f"{tree}.tar", commits[side]], cwd=ROOT, check=True)
            shutil.unpack_archive(f"{tree}.tar", tree)
        for item in args.plan:
            workload, pairs = item.split(":")
            runs = []
            for i in range(int(pairs)):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {side: run(trees[side], workload, args.first_seed + i, args.seconds) for side in order}
                runs.append({"first": order[0], **pair})
                print(workload, args.first_seed + i, {s: pair[s]["metrics"]["wall_s"]["value"] for s in SIDES}, flush=True)
            doc["workloads"][workload] = {"summary": summary(runs, metrics), "runs": runs}
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")


if __name__ == "__main__":
    main()
