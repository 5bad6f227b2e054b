"""Shared fixtures: kernels, probe dictionaries, corpus, fast configs."""

import math
import os

import numpy as np
import pytest

from ptdiff import (ClassifierConfig, JetConfig, QuadratureConfig,
                    build_kernel, load_corpus, make_dictionary)


def pytest_configure(config):
    # kernels built by the suite go to pytest's cache directory, not to
    # ~/.cache/ptdiff: nothing is written outside the checkout, and later
    # runs still find them
    cache = getattr(config, "cache", None)
    if "PTDIFF_CACHE" not in os.environ and cache is not None:
        os.environ["PTDIFF_CACHE"] = str(cache.mkdir("ptdiff-kernels"))


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


def report_line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{status}] {name}{suffix}"
    _REPORT_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _REPORT_LINES:
            terminalreporter.write_line(line)
