"""The benchmark tracer finds every traced boundary of ptdiff.

The traced benchmark run wraps named functions and methods from outside
the package (benchmark/tracer.py).  Renaming or moving one of them breaks
that run; this test makes the suite fail instead.  It reads benchmark/
and changes nothing there.
"""

import importlib.util
from pathlib import Path

from ptdiff import tensor, testfn, whitney

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _boundaries(tracer_module):
    """(owner, attribute) of the boundaries checked here, read from the owner's own dict."""
    out = [(tensor.PolyJet, attr) for attr in tracer_module.POLYJET_METHODS]
    out += [(tensor, "opnorm_bounds"), (testfn.TestFn, "eval_deriv"),
            (whitney.WhitneyExtension, "eval")]
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
