"""SHA-256 digests of the benchmark workloads' task results.

For each workload and seed, runs the workload's setup and one pass of its
tasks in a temporary directory, then prints one line per task: workload,
seed, task label and the SHA-256 of the task's canonical result.  The
canonical form writes dict keys (tuples too) as strings, in sorted order,
and floats by ``float.hex``, so two checkouts print the same lines exactly
when every task result is bit-identical:

    python scripts/task_digest.py --workload corpus-1d pairing-2d --seeds 1-3

The workloads are read from benchmark/workloads.py, unchanged.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from workloads import WORKLOADS  # noqa: E402


def canonical(value):
    """value with floats as hex strings and mappings as sorted [key, value]
    lists, keys as strings: JSON that two equal results print alike."""
    if isinstance(value, dict):
        return sorted([str(k), canonical(v)] for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "item"):  # a numpy scalar
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    return value


def digest(value) -> str:
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def parse_seeds(text: str) -> list:
    """'1-3' -> [1, 2, 3]; comma-separated seeds and ranges, as '1,4-5'."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def task_digests(name: str, seed: int) -> list:
    """(task label, digest) of one pass of the workload at the seed."""
    with tempfile.TemporaryDirectory() as work:
        workload = WORKLOADS[name](seed, Path(work))
        workload.setup()
        return [(task.label, digest(task.run())) for task in workload.tasks()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                    default=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=parse_seeds, default=[1],
                    help="seeds, as 1-3 or 1,4 (default 1)")
    args = ap.parse_args(argv)
    for name in args.workload:
        for seed in args.seeds:
            for label, hexdigest in task_digests(name, seed):
                print(f"{name}\t{seed}\t{label}\t{hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
