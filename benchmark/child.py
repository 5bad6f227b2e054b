"""One benchmark process: set up a workload, then run its task list.

Started by run.py in a fresh interpreter.  ``--mode setup`` stops once the
first task could start; ``--mode run`` then runs passes over the task list
while the next one is expected to end within ``--seconds``, and at least
MIN_PASSES of them.  With ``--trace 1`` the odd passes run traced and the
even ones untraced, which gives the tracing overhead and a check that
tracing changes no result.  An untraced process runs speed probes
(speedprobe.py) from before setup to its last pass, so that its setup and
pass times can be rescaled to the reference speed.  The outcome is
written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
from speedprobe import SpeedProbe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 3  # a median, and a traced pass on each side of an untraced one


def _cpu_seconds():
    """CPU time of this process, all threads, plus any child it waited for."""
    t = os.times()  # 10 ms ticks; process_time has the full resolution
    return time.process_time() + t.children_user + t.children_system


def _run_pass(tasks):
    """Run every task once: (wall s, CPU s, per-task wall s, results, errors)."""
    results, errors, times = [], [], []
    start, cpu = time.monotonic(), _cpu_seconds()
    for task in tasks:
        t0 = time.monotonic()
        try:
            results.append(task.run())
            errors.append(None)
        except Exception:
            results.append(None)
            errors.append(traceback.format_exc(limit=3))
        times.append(time.monotonic() - t0)
    return time.monotonic() - start, _cpu_seconds() - cpu, times, results, errors


def _delta(after, before):
    return {key: {name: value - before[key].get(name, 0) for name, value in table.items()}
            for key, table in after.items()}


def _counts_only(snapshot):
    return {"calls": snapshot["calls"], "counts": snapshot["counts"]}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    cache = Path(os.environ["PTDIFF_CACHE"])
    cache_at_start = len(tracing.kernel_files(cache))
    workload = WORKLOADS[args.workload](args.seed, Path(args.work))
    tracer = probe = None
    if args.trace:
        tracer = tracing.Tracer(cache)
        tracing.install(tracer)
    else:  # the probes would land in the traced spans' times
        probe = SpeedProbe(workload.SPEED_PROBE)
        probe.start()
    workload.setup()
    out = {"setup_s": _cpu_seconds(), "setup_wall_s": time.monotonic() - args.spawned,
           "kernel_cache": {"files_at_start": cache_at_start,
                            "files_after_setup": len(tracing.kernel_files(cache))}}
    if probe is not None:
        out["setup_ref_s"] = probe.to_reference(out["setup_s"], (0, 0.0), probe.reading())
    if args.mode == "run":
        out.update(_run(workload, args, tracer, probe))
    if probe is not None:
        probe.stop()
        out["probes"] = dict(zip(("count", "cpu_s"), probe.reading()))
    import numpy
    import scipy
    import sympy
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__, "sympy": sympy.__version__}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(out))
    return 0


def _run(workload, args, tracer, probe):
    tasks = workload.tasks()
    passes = []  # (CPU seconds, traced, wall seconds)
    pass_ref_s = []  # per pass, CPU seconds at the reference speed (untraced runs)
    task_times = []  # per pass, seconds per task
    first = None  # results of the first pass
    problems = []  # run-level defects: nondeterminism, trace gaps
    failures = []
    attempted = 0
    setup_trace = tracer.snapshot() if tracer else None
    pass1_trace = None
    start = time.monotonic()
    while len(passes) < MIN_PASSES or \
            time.monotonic() - start + passes[-1][2] <= args.seconds:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            if passes:
                tracing.install(tracer)
            before = tracer.snapshot()
        reading = probe.reading() if probe is not None else None
        elapsed, cpu, times, results, errors = _run_pass(tasks)
        if probe is not None:
            pass_ref_s.append(probe.to_reference(cpu, reading, probe.reading()))
        if traced:
            tracer.uninstall()
            counts = _counts_only(_delta(tracer.snapshot(), before))
            if pass1_trace is None:
                pass1_trace, pass1_counts = tracer.snapshot(), counts
            elif counts != pass1_counts:
                problems.append(f"traced pass {len(passes) + 1} counts differ "
                                f"from the first traced pass")
        passes.append((cpu, traced, elapsed))
        task_times.append(times)
        for task, result, error in zip(tasks, results, errors):
            attempted += 1
            message = error if error is not None else task.check(result)
            if message is not None:
                failures.append(f"pass {len(passes)}: {task.label}: {message}")
        if first is None:
            first = results
        elif results != first:
            problems.append(f"pass {len(passes)} results differ from pass 1")
    out = {"passes": passes, "pass_ref_s": pass_ref_s, "attempted": attempted,
           "failures": failures, "problems": problems, "tasks": [t.label for t in tasks],
           "task_times": task_times}
    if tracer is not None:
        out["trace"] = pass1_trace
        out["setup_trace"] = setup_trace
    return out


if __name__ == "__main__":
    sys.exit(main())
