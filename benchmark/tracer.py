"""Layer tracing for the traced benchmark run, installed from outside ptdiff.

The tracer wraps public functions and methods of the ``ptdiff`` modules.
Each wrapped call is a span (name, start, end, parent).  Spans are folded
into per-name totals as they close: inclusive time, self time (duration
minus the part covered by child spans) and call counts.  Counts that come
from arguments and return values (points, cells, atoms, ...) are added at
the same boundary.

``from .x import f`` copies a binding, so a function is patched in every
``ptdiff`` module whose namespace holds the original object, after every
module has been imported.  ``uninstall`` restores every binding and checks
that no wrapper is left, so untraced passes run the program unmodified.
A binding the scan misses shows as a layer with no calls, which
metrics.REQUIRED_CALLS turns into a failed run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path


class TraceError(RuntimeError):
    """A wrapper outlived uninstall, so an untraced pass would be traced."""


class Tracer:
    def __init__(self, cache_dir: Path):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [name, start, child_time]
        self._patches = []  # (owner, attribute, original)
        self.cache_dir = cache_dir  # PTDIFF_CACHE, for cold-build detection

    # -- spans ---------------------------------------------------------

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def nearest(self, names):
        for frame in reversed(self._stack):
            if frame[0] in names:
                return frame[0]
        return None

    def snapshot(self):
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": dict(self.counts)}

    # -- patching ------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(tracer, args, kwargs) if before else None
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after:
                after(tracer, args, kwargs, result, state)
            return result

        return wrapper

    def patch_function(self, module_name, attr, name, before=None, after=None):
        """Wrap module.attr and rebind it in every ptdiff module holding it."""
        original = getattr(importlib.import_module(module_name), attr)
        self.rebind(original, self._wrap(original, name, before, after))

    def rebind(self, original, wrapper):
        for owner in _ptdiff_modules():
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def patch_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, before, after))

    def uninstall(self):
        """Restore every binding; fails if a wrapper is still bound anywhere."""
        wrappers = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            wrappers.append(getattr(owner, attr))
            setattr(owner, attr, original)
        left = [f"{owner.__name__}.{key}" for owner in _ptdiff_modules()
                for key, value in vars(owner).items() if any(value is w for w in wrappers)]
        if left:
            raise TraceError("wrappers still bound after uninstall: " + ", ".join(left))


def _ptdiff_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "ptdiff" or n.startswith("ptdiff."))]


# -- counters at each boundary -------------------------------------------

def _core_eval_after(t, args, kwargs, result, state):
    t.counts["cores.core_eval.points"] += int(len(result))


def _eval_deriv_after(t, args, kwargs, result, state):
    t.counts["testfn.eval_deriv.atom_evals"] += len(args[0].atoms)


def _eval_expr_after(t, args, kwargs, result, state):
    t.counts["funcexpr.eval_expr.points"] += int(len(result))


def _patch_integrate_box(tracer):
    """integrate_box with its integrand run in a child span.

    The integrand span makes the quadrature's self time exclude the
    integrand, and counts the points it is evaluated on.
    """
    original = importlib.import_module("ptdiff.quadrature").integrate_box
    signature = inspect.signature(original)
    name = "quadrature.integrate_box"

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        f = bound.arguments["f"]
        config = bound.arguments["config"]

        def integrand(pts):
            tracer.counts[name + ".integrand_points"] += int(len(pts))
            tracer.enter("quadrature.integrand")
            try:
                return f(pts)
            finally:
                tracer.leave()

        bound.arguments["f"] = integrand
        tracer.enter(name)
        try:
            value, err, cells = original(*bound.args, **bound.kwargs)
        except Exception as exc:
            # strict budget exhaustion: the call happened and is unresolved
            tracer.counts[name + ".unresolved"] += 1
            tracer.counts[name + ".cells"] += getattr(exc, "cells", 0)
            raise
        finally:
            tracer.leave()
        tracer.counts[name + ".cells"] += cells
        if err > max(config.abs_floor, config.rel_tol * abs(value)):
            tracer.counts[name + ".unresolved"] += 1
        return value, err, cells

    tracer.rebind(original, wrapper)


def _pair_before(t, args, kwargs):
    outer = not t.inside("distribution.pair")
    if outer and t.nearest(("jetestimator.classify", "jetestimator.estimate_jet")) \
            == "jetestimator.classify":
        t.counts["jetestimator.classify.pairs"] += 1
    return outer


def _pair_after(t, args, kwargs, result, outer):
    if outer:
        t.counts["distribution.pair.outer_calls"] += 1
        t.counts["distribution.pair.outer_cells"] += result.quadrature_cells


def _classify_after(fn):
    signature = inspect.signature(fn)

    def after(t, args, kwargs, report, state):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        cfg = bound.arguments["config"]
        floor = cfg.confirm_floor * report.scale * 1e-6
        t.counts["jetestimator.classify.usable_radii"] += sum(
            1 for e, z in zip(report.envelope, report.noise) if e > max(z, floor))
    return after


def kernel_files(cache_dir: Path):
    """Names of the kernel files in a PTDIFF_CACHE directory."""
    return {p.name for p in (cache_dir / "kernels").glob("*.json")}


def _build_kernel_before(t, args, kwargs):
    return kernel_files(t.cache_dir)


def _build_kernel_after(t, args, kwargs, result, before):
    if kernel_files(t.cache_dir) - before:
        t.counts["momentkernel.build_kernel.cold_builds"] += 1


def _partition_after(t, args, kwargs, result, state):
    t.counts["whitney.partition.centers"] += int(result.centers.shape[0])


POLYJET_METHODS = ("eval", "derivative", "recenter", "truncate", "__add__",
                   "scale", "coeff_map", "coefficient")


def install(tracer: Tracer):
    """Wrap every traced boundary of ptdiff."""
    import ptdiff
    # a module imported after patching would copy wrappers that uninstall
    # cannot see, so every module is loaded first
    for info in pkgutil.iter_modules(ptdiff.__path__):
        importlib.import_module(f"ptdiff.{info.name}")
    from ptdiff import jetestimator, testfn, tensor, whitney

    patch = tracer.patch_function
    patch("ptdiff.cores", "core_eval", "cores.core_eval", after=_core_eval_after)
    patch("ptdiff.funcexpr", "eval_expr", "funcexpr.eval_expr", after=_eval_expr_after)
    _patch_integrate_box(tracer)
    patch("ptdiff.distribution", "pair", "distribution.pair",
          before=_pair_before, after=_pair_after)
    patch("ptdiff.jetestimator", "classify", "jetestimator.classify",
          after=_classify_after(jetestimator.classify))
    patch("ptdiff.jetestimator", "estimate_jet", "jetestimator.estimate_jet")
    patch("ptdiff.momentkernel", "build_kernel", "momentkernel.build_kernel",
          before=_build_kernel_before, after=_build_kernel_after)
    patch("ptdiff.testfn", "make_dictionary", "testfn.make_dictionary")
    patch("ptdiff.testfn", "seminorm", "testfn.seminorm")
    patch("ptdiff.corpus", "get_item", "corpus.get_item")
    patch("ptdiff.poincare", "measure_kappa", "poincare.measure_kappa")
    patch("ptdiff.poincare", "verify", "poincare.verify")
    patch("ptdiff.whitney", "extend", "whitney.extend")
    patch("ptdiff.whitney", "partition_of_unity", "whitney.partition_of_unity",
          after=_partition_after)
    patch("ptdiff.whitney", "empirical_hoelder", "whitney.empirical_hoelder")
    patch("ptdiff.tensor", "opnorm_bounds", "tensor.opnorm_bounds")
    patch("ptdiff.cli", "main", "cli.main")
    tracer.patch_method(testfn.TestFn, "eval_deriv", "testfn.eval_deriv",
                        after=_eval_deriv_after)
    tracer.patch_method(whitney.WhitneyExtension, "eval", "whitney.eval")
    for attr in POLYJET_METHODS:
        tracer.patch_method(tensor.PolyJet, attr, "tensor.PolyJet")
