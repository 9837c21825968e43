"""Check that the benchmark's counts repeat and its metric names are stable.

    python3 perfbench/selfcheck.py

For each workload, runs the traced benchmark for one second twice with seed 1
and once with seed 2. Every count metric (unit "count": span counts and the
computed state_steps, messages, minors, codes and rows_evaluated) must be
identical between the two seed-1 runs, and seed 2 must report the same metric
names. The untraced runs of seeds 1 and 2 must report the same names too.
Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"
SEED_A, SEED_B = 1, 2
SECONDS = 1


def metrics(workload, seed, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


def main():
    ok = True
    for w in WORKLOAD_NAMES:
        first = metrics(w, SEED_A, 1)
        again = metrics(w, SEED_A, 1)
        other = metrics(w, SEED_B, 1)
        counts = {k: v["value"] for k, v in first.items() if v["unit"] == "count"}
        differ = [k for k, v in counts.items() if again[k]["value"] != v]
        names_ok = set(first) == set(other) and set(metrics(w, SEED_A, 0)) == set(
            metrics(w, SEED_B, 0)
        )
        print(f"{w}: {len(counts)} counts, differing at seed {SEED_A}: {differ or 'none'}; "
              f"metric names equal across seeds: {names_ok}")
        ok &= not differ and names_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
