"""ptdiff benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload corpus-1d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ptdiff is imported from ./src.
Each run starts fresh single-threaded processes (BLAS thread counts set to
1 in the child environment only), each with its own empty kernel cache
(PTDIFF_CACHE) and report directory under ./.bench_tmp, removed at exit:

* Setup-only processes (see SETUP_MIN), then one run process that sets
  up once more and runs passes over the workload's task list for
  --seconds.  setup_s is the median of these setup times, each the CPU
  time of a fresh process until its first task could start.
* --trace 0: end-to-end metrics from untraced passes.  run_s is the median
  CPU time of a pass.  setup_s and run_s are rescaled to a reference speed
  by speed probes that sample the shared host while the work runs (see
  speedprobe.py); raw CPU and wall times stay in the run record.
  peak_rss_mb is the run process's ru_maxrss.
* --trace 1: per-layer metrics from the run process with ptdiff's layers
  wrapped by benchmark/tracer.py; counts and times cover setup plus the
  first pass, which is traced.

Every task is checked against its oracle; failures count in "failed".
The last line of standard output is the JSON result.  See README.md for
the workloads and the layer to end-to-end map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup-only processes per run, before the run process adds one more
# sample: at least SETUP_MIN, then more while less than SETUP_TARGET_S of
# setup has been measured, up to SETUP_MAX
SETUP_MIN, SETUP_MAX, SETUP_TARGET_S = 2, 6, 8.0  # seconds of wall time
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from metrics import end_to_end, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def _child_env(cache: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PTDIFF_CACHE=str(cache), PYTHONHASHSEED="0")
    return env


def _spawn(args, mode: str, work: Path, deadline: float) -> dict:
    """One fresh child process with its own empty kernel cache."""
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace if mode == "run" else 0), "--mode", mode,
           "--work", str(work), "--result", str(result)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=_child_env(work / "cache"),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=str(work))
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {args.workload} passed the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result.exists():
        tail = err.decode(errors="replace")[-2000:]
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ptdiff").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # a plain source checkout; see source_digest
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ptdiff" / "__init__.py").is_file():
        print(f"error: no ptdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        samples = []
        while len(samples) < SETUP_MIN or (len(samples) < SETUP_MAX and sum(
                s["setup_wall_s"] for s in samples) < SETUP_TARGET_S):
            samples.append(_spawn(args, "setup", work / f"setup{len(samples)}", deadline))
        run = _spawn(args, "run", work / "run", deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is using it
    samples.append(run)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": _commit(), "source_digest": _source_digest(),
              "nproc": os.cpu_count(), "cpu_model": _cpu_model(), **run["versions"],
              "kernel_cache": run["kernel_cache"],
              "setup_samples_cpu_s": [s["setup_s"] for s in samples],
              "setup_samples_ref_s": [s.get("setup_ref_s") for s in samples],
              "setup_samples_wall_s": [s["setup_wall_s"] for s in samples],
              "passes": [{"cpu_s": c, "wall_s": w, "traced": t} for c, t, w in run["passes"]],
              "passes_ref_s": run["pass_ref_s"], "run_probes": run.get("probes")}
    print("machine+run record: " + json.dumps(record))
    for label, times in zip(run["tasks"], zip(*run["task_times"])):
        print(f"task {label}: median {statistics.median(times):.3f} s over {len(times)} passes")
    if args.trace:
        setup = run["setup_trace"]
        for name in sorted(setup["total"], key=setup["total"].get, reverse=True)[:8]:
            print(f"setup span {name}: {setup['calls'][name]} calls, "
                  f"{setup['total'][name]:.3f} s, self {setup['self'][name]:.3f} s")
    for line in run["failures"] + run["problems"]:
        print("FAIL " + line.replace("\n", " | "))
    if args.trace:
        metrics, table, problems = per_layer(args.workload, run)
        run["problems"] += problems
        for line in problems:
            print("FAIL " + line)
        for name, value, unit in table:
            print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    else:
        metrics = end_to_end(samples, run)
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    failed = len(run["failures"])
    result = {"correct": failed == 0 and not run["problems"],
              "attempted": run["attempted"], "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
