"""The benchmark tracer finds every traced boundary of ptdiff.

The traced benchmark run wraps named functions and methods from outside
the package (benchmark/tracer.py).  Renaming or moving one of them breaks
that run, and so does a layer that benchmark/metrics.py requires but no
call reaches any more; these tests make the suite fail instead.  They read
benchmark/ and change nothing there.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from ptdiff import (JetField, PolyJet, QuadratureConfig, cores, jetestimator, poincare,
                    tensor, testfn, whitney)
from ptdiff.tensor import MultiIndex

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _boundaries(tracer_module):
    """(owner, attribute) of the boundaries checked here, read from the owner's own dict."""
    out = [(tensor.PolyJet, attr) for attr in tracer_module.POLYJET_METHODS]
    out += [(cores, "core_eval"), (tensor, "opnorm_bounds"),
            (testfn.TestFn, "eval_deriv"), (whitney.WhitneyExtension, "eval")]
    return out


def test_install_then_uninstall(tmp_path):
    tracer_module = _load_tracer()
    boundaries = _boundaries(tracer_module)
    originals = [vars(owner)[attr] for owner, attr in boundaries]
    tracer = tracer_module.Tracer(tmp_path)
    try:
        tracer_module.install(tracer)
        for (owner, attr), original in zip(boundaries, originals):
            assert vars(owner)[attr] is not original, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(boundaries, originals):
        assert vars(owner)[attr] is original, f"{attr} was not restored"


def test_batched_eval_deriv_calls_traced_core_eval(tmp_path):
    # the batched path must look core_eval up on the cores module, where
    # the tracer rebinds it; a local binding would leave the layer empty
    phi = next(c for c in testfn._candidate_stream(2, 1, 0) if c.label == "plateau_w0.2")
    pts = np.random.default_rng(2).uniform(-1.1, 1.1, size=(500, 2))
    active = 0
    for a in phi.atoms:
        u = (pts - np.asarray(a.center)) / a.radius
        active += int(np.sum(np.sum(u ** 2, axis=1) < 1.0 - cores.BOUNDARY_CLAMP))
    assert 0 < active < len(phi.atoms) * len(pts)
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer(tmp_path)
    try:
        tracer_module.install(tracer)
        phi.eval_deriv(MultiIndex((1, 0)), pts)
    finally:
        tracer.uninstall()
    assert tracer.calls["testfn.eval_deriv"] == 1
    assert tracer.calls["cores.core_eval"] >= 1
    assert tracer.counts["cores.core_eval.points"] == active


def test_benchmark_view_of_test_functions(tmp_path):
    # the benchmark reads test functions through .atoms: its reference
    # pairing takes each atom's center, radius and coeff[0], and the tracer
    # counts an eval_deriv call's atoms
    plateau = next(c for c in testfn._candidate_stream(2, 1, 0) if c.label == "plateau_w0.2")
    phi = plateau.rescale([0.1, -0.2], 0.5).scaled_by(2.0)
    atoms = phi.atoms
    assert len(atoms) == len(plateau.atoms) > 1
    for t, center, radius, coeff in zip(atoms, phi.centers, phi.radii, phi.coeffs):
        assert (t.center, t.radius, t.coeff[0]) == (tuple(center), radius, coeff[0])
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer(tmp_path)
    try:
        tracer_module.install(tracer)
        phi.eval_deriv(MultiIndex((0, 0)), np.zeros((3, 2)))
    finally:
        tracer.uninstall()
    assert tracer.counts["testfn.eval_deriv.atom_evals"] == len(atoms)


def test_seminorm_calls_traced_eval_deriv_and_core_eval(tmp_path):
    # on pairing-2d seminorm is the only caller of eval_deriv, whose layer
    # the traced run requires; a one-ball function evaluated by any other
    # route would leave it empty
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer(tmp_path)
    plateau = next(c for c in testfn._candidate_stream(2, 1, 0) if c.label == "plateau_w0.2")
    calls = []  # per function, its (eval_deriv, core_eval) calls
    try:
        tracer_module.install(tracer)
        for phi in (testfn.standard_bump(2), plateau):
            before = [tracer.calls[name] for name in ("testfn.eval_deriv", "cores.core_eval")]
            testfn.seminorm(phi, 1)
            calls.append([tracer.calls[name] - b for name, b in
                          zip(("testfn.eval_deriv", "cores.core_eval"), before)])
    finally:
        tracer.uninstall()
    assert tracer.calls["testfn.seminorm"] == 2
    for eval_deriv, core_eval in calls:
        # the grid, then at least one local refinement
        assert eval_deriv >= 2 and core_eval >= eval_deriv


def test_2d_dictionary_calls_traced_seminorm_eval_deriv_and_core_eval(tmp_path):
    # on pairing-2d only the dictionary build calls seminorm and eval_deriv,
    # whose layers the traced run requires: make_dictionary must call
    # seminorm by its module name, and seminorm refine through eval_deriv
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer(tmp_path)
    try:
        tracer_module.install(tracer)
        testfn.make_dictionary(2, 1, 0, 15, 0)
    finally:
        tracer.uninstall()
    assert tracer.calls["testfn.make_dictionary"] == 1
    for name in ("testfn.seminorm", "testfn.eval_deriv", "cores.core_eval"):
        assert tracer.calls[name] >= 1, name
    required = _load_metrics().REQUIRED_CALLS["pairing-2d"]
    assert {"testfn.seminorm", "testfn.eval_deriv", "cores.core_eval"} <= set(required)


def _load_metrics():
    spec = importlib.util.spec_from_file_location("benchmark_metrics",
                                                  TRACER.parent / "metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_calls(tmp_path, run):
    """The tracer's per-layer call counts of run()."""
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer(tmp_path)
    try:
        tracer_module.install(tracer)
        run()
    finally:
        tracer.uninstall()
    return tracer.calls


# Each workload below has one caller of a layer that metrics.REQUIRED_CALLS
# requires: verify of distribution.pair on corpus-1d, scaled_pairing of it on
# pairing-2d, and the gate's one-pair recomputation of tensor.opnorm_bounds
# and the traced PolyJet methods on whitney-1d.  Moving those calls to
# another function leaves the layer empty, and a traced run then fails.

def test_verify_calls_traced_pair(tmp_path, corpus, kernel_cache, dict_cache):
    assert "distribution.pair" in _load_metrics().REQUIRED_CALLS["corpus-1d"]
    T = corpus["sin4"].build()
    probes = dict_cache(1, 1, 0, 4, 0)
    calls = _traced_calls(tmp_path, lambda: poincare.verify(
        T, 1, 0, [0.0], kernel_cache(1, 2), probes, kappa=1.0))
    assert calls["poincare.verify"] == 1
    assert calls["distribution.pair"] >= 1


def test_scaled_pairing_calls_traced_pair(tmp_path, corpus):
    assert "distribution.pair" in _load_metrics().REQUIRED_CALLS["pairing-2d"]
    T = corpus["gauss2d"].build()
    a = np.array([0.1, -0.2])
    loose = QuadratureConfig(rel_tol=1e-6, abs_floor=1e-10, max_cells=2 ** 7)
    calls = _traced_calls(tmp_path, lambda: jetestimator.scaled_pairing(
        T, PolyJet.zero(2, 1, a), a, 0, testfn.standard_bump(2), 0.5, loose, strict=False))
    assert calls["distribution.pair"] == 1


def test_extend_calls_traced_opnorm_bounds_and_polyjet(tmp_path):
    required = _load_metrics().REQUIRED_CALLS["whitney-1d"]
    assert "tensor.opnorm_bounds" in required and "tensor.PolyJet" in required
    points = (0.1, 0.4, 0.7)
    jets = tuple(PolyJet(1, 1, [p], 2, [math.sin(p), math.cos(p), -math.sin(p)])
                 for p in points)
    F = JetField(tuple((p,) for p in points), jets, 2, 1.0)
    calls = _traced_calls(tmp_path, lambda: whitney.extend(F, max_level=6))
    assert calls["whitney.extend"] == 1
    assert calls["tensor.opnorm_bounds"] >= 1 and calls["tensor.PolyJet"] >= 1


def test_sequence_eval_is_one_traced_call(tmp_path):
    # every derivative of a sequence comes from one traced eval call
    points = (0.1, 0.4, 0.7)
    jets = tuple(PolyJet(1, 1, [p], 2, [math.sin(p), math.cos(p), -math.sin(p)])
                 for p in points)
    ext = whitney.extend(JetField(tuple((p,) for p in points), jets, 2, 1.0), max_level=6)
    X = np.linspace(0.0, 0.8, 9)[:, None]
    calls = _traced_calls(tmp_path, lambda: ext.eval(X, [MultiIndex((m,)) for m in range(3)]))
    assert calls["whitney.eval"] == 1
