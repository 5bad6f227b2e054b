"""Shared fixtures: kernels, probe dictionaries, corpus, fast configs."""

import math

import numpy as np
import pytest

from ptdiff import (ClassifierConfig, JetConfig, QuadratureConfig,
                    build_kernel, load_corpus, make_dictionary)


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def kernel_cache():
    cache = {}

    def get(n, k):
        if (n, k) not in cache:
            cache[(n, k)] = build_kernel(n, k)
        return cache[(n, k)]

    return get


@pytest.fixture(scope="session")
def dict_cache():
    cache = {}

    def get(n=1, d=1, i=0, size=10, seed=0):
        key = (n, d, i, size, seed)
        if key not in cache:
            cache[key] = make_dictionary(*key)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def fast_classifier():
    """Reduced-resolution classifier configuration for battery tests."""

    def make(n=1, levels=None, dict_size=8, seed=0, tight_quad=False):
        if levels is None:
            levels = 10 if n == 1 else 8
        if tight_quad:
            quad = QuadratureConfig(rel_tol=1e-11, abs_floor=1e-16,
                                    max_cells=2 ** 13)
        else:
            quad = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-15,
                                    max_cells=2 ** 11)
        return ClassifierConfig(
            levels=levels, dict_size=dict_size, seed=seed, quad=quad,
            jet_config=JetConfig(levels=8))

    return make


def dense_directional_max(values, degree):
    """max over 4,096 equispaced unit v of |psi(v, ..., v)| for 2-D order-degree tensors.

    values has shape (npts, degree + 1, d), rows in xi_set(2, degree) order:
    (degree, 0), (degree - 1, 1), ..., (0, degree).  An independent dense
    reference for the operator norms: no refinement, only many directions.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    a = np.arange(degree, -1, -1)
    weights = np.array([math.comb(degree, int(e)) for e in a], dtype=float)
    npts, _, d = values.shape
    flat = values.transpose(0, 2, 1).reshape(npts * d, degree + 1)
    best = np.zeros(npts)  # squared norms
    for s in range(0, len(thetas), 128):  # 128 directions at a time bound memory
        t = thetas[s:s + 128, None]
        mono = weights * np.cos(t) ** a * np.sin(t) ** (degree - a)  # (t, N)
        sq = np.square((flat @ mono.T).reshape(npts, d, -1)).sum(axis=1)
        best = np.maximum(best, sq.max(axis=1))
    return np.sqrt(best)


_REPORT_LINES = []


def _line(name: str, ok: bool, detail: str) -> str:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    return f"[{status}] {name}{suffix}"


def report_line(name: str, ok: bool, detail: str = "") -> None:
    line = _line(name, ok, detail)
    _REPORT_LINES.append(line)
    print(line)


_MODULE_OUTCOMES = {"passed": 0, "failed": 0}  # tests outside test_acceptance.py


def pytest_collectreport(report):
    if report.failed and not report.nodeid.endswith("test_acceptance.py"):
        _MODULE_OUTCOMES["failed"] += 1


def pytest_runtest_logreport(report):
    if report.nodeid.split("::")[0].endswith("test_acceptance.py"):
        return
    if report.failed:
        _MODULE_OUTCOMES["failed"] += 1
    elif report.when == "call" and report.passed:
        _MODULE_OUTCOMES["passed"] += 1


def _invariant_battery() -> None:
    """The acceptance line of the per-module property batteries (tensor
    algebra, probe dictionaries, parsing, quadrature, pairing, kernels,
    classifier, scaling, partitions): it passes when every module test of
    this session that ran passed, and at least one ran."""
    passed, failed = _MODULE_OUTCOMES["passed"], _MODULE_OUTCOMES["failed"]
    _REPORT_LINES.append(_line("invariant battery", failed == 0 and passed > 0,
                               f"{passed} module tests passed, {failed} failed"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _REPORT_LINES:
        _invariant_battery()
        terminalreporter.section("acceptance criteria")
        for line in _REPORT_LINES:
            terminalreporter.write_line(line)
