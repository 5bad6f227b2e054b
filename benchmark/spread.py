"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --workload corpus-1d --seeds 1-10

Runs benchmark/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per metric, the median, the quartiles from
statistics.quantiles(values, n=4), and the interquartile range as a share
of the median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in _seeds(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({time.monotonic() - start:.0f} s): correct={result['correct']} "
              f"failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']}: median {statistics.median(v):.4f} {m['unit']}, "
              f"q1 {q1:.4f}, q3 {q3:.4f}, spread {(q3 - q1) / statistics.median(v):.3f} "
              f"(bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
