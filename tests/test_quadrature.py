"""Adaptive Gauss-Legendre quadrature: oracles, error bounds, budget handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptdiff import QuadratureConfig, QuadratureNonConvergence, integrate_box, quadrature

BUMP_MASS_1D = 0.4439938161680793  # int_{-1}^{1} exp(1/(x^2-1)) dx


def bump(pts):
    s = pts[:, 0] ** 2
    out = np.zeros(len(pts))
    inside = s < 1.0
    out[inside] = np.exp(1.0 / (s[inside] - 1.0))
    return out


class TestOracles:
    def test_bump_mass(self):
        v, e, _ = integrate_box(bump, [-1.0], [1.0])
        assert v == pytest.approx(BUMP_MASS_1D, abs=1e-12)
        assert abs(v - BUMP_MASS_1D) <= max(e, 1e-12)

    def test_polynomial_exact(self):
        v, e, _ = integrate_box(lambda p: p[:, 0] ** 4, [0.0], [2.0])
        assert v == pytest.approx(32.0 / 5.0, rel=1e-13)

    def test_gaussian_2d(self):
        v, _, _ = integrate_box(
            lambda p: np.exp(-p[:, 0] ** 2 - p[:, 1] ** 2),
            [-8.0, -8.0], [8.0, 8.0])
        assert v == pytest.approx(math.pi, rel=1e-9)

    def test_constant_along_split_axis(self):
        # integrand independent of the widest axis x: the cell's values
        # show that y is the unresolved axis, so the halves that estimate
        # its error are taken along y, though x is 100 times wider
        def f(p):
            return np.sin(3.0 * p[:, 1]) ** 2
        v, _, _ = integrate_box(f, [0.0, 0.0], [100.0, 1.0])
        exact = 100.0 * (0.5 - math.sin(6.0) / 12.0)
        assert v == pytest.approx(exact, rel=1e-9)

    def test_split_coordinates_kink(self):
        v, _, _ = integrate_box(lambda p: np.abs(p[:, 0]), [-1.0], [1.0],
                                split_coords=[[0.0]])
        assert v == pytest.approx(1.0, rel=1e-13)

    def test_empty_box(self):
        v, e, c = integrate_box(bump, [1.0], [1.0])
        assert (v, e, c) == (0.0, 0.0, 0)


ROOT_MASS = 2.0 / 3.0 * (0.3 ** 1.5 + 0.7 ** 1.5)  # int_0^1 |x - 0.3|^(1/2) dx


class TestSplitAxis:
    """A cell bisects along the axis that its own Gauss-Legendre values
    leave unresolved, whatever its widths."""

    @pytest.mark.parametrize("hi, rough", [([1.0, 100.0], 0), ([100.0, 1.0], 1),
                                           ([10.0, 10.0, 1.0], 2)])
    def test_splits_along_the_rough_axis(self, monkeypatch, hi, rough):
        # |x_rough - 0.3|^(1/2) with no cut declared: constant along the
        # wider axes, so every split is along the narrow rough one, within
        # a budget that a split along the wide axes would exhaust
        axes = []
        halves = quadrature._halves

        def spy(lo, hi, axis):
            axes.append(np.broadcast_to(axis, len(lo)).copy())
            return halves(lo, hi, axis)
        monkeypatch.setattr(quadrature, "_halves", spy)
        v, e, cells = integrate_box(lambda p: np.abs(p[:, rough] - 0.3) ** 0.5,
                                    [0.0] * len(hi), hi, config=QuadratureConfig(max_cells=256))
        assert cells > 20 and all(np.all(a == rough) for a in axes)
        exact = ROOT_MASS * math.prod(hi) / hi[rough]
        assert abs(v - exact) <= e <= 1e-10 * exact

    def test_frozen_by_the_width_of_its_split_axis(self, monkeypatch):
        # the cells at the cusp halve in x until half their x-width is
        # below min_width, and are frozen there though 100 wide in y
        cells = []
        cell_values = quadrature._cell_values

        def spy(f, lo, hi, job, disks, axis=None):
            cells.append(hi - lo)
            return cell_values(f, lo, hi, job, disks, axis)
        monkeypatch.setattr(quadrature, "_cell_values", spy)
        config = QuadratureConfig(max_cells=256, min_width=1e-3)
        v, e, _ = integrate_box(lambda p: np.abs(p[:, 0] - 0.3) ** 0.5, [0.0, 0.0],
                                [1.0, 100.0], config=config)
        width = np.concatenate(cells)
        assert np.all(width[:, 1] == 100.0)
        assert width[:, 0].min() == 2.0 ** -9  # its half, 2^-10, is below 1e-3
        exact = 100.0 * ROOT_MASS
        assert abs(v - exact) <= e and e > config.rel_tol * exact  # the frozen error


class TestBudget:
    def test_nonconvergence_strict(self):
        cfg = QuadratureConfig(rel_tol=1e-14, abs_floor=0.0, max_cells=8,
                               min_width=0.0)
        with pytest.raises(QuadratureNonConvergence) as exc:
            integrate_box(lambda p: np.sin(50.0 / (p[:, 0] + 1.001)), [-1.0], [1.0],
                          config=cfg)
        assert exc.value.cells >= 8
        assert math.isfinite(exc.value.value)

    def test_nonconvergence_nonstrict_returns(self):
        cfg = QuadratureConfig(rel_tol=1e-14, abs_floor=0.0, max_cells=8,
                               min_width=0.0)
        v, e, c = integrate_box(lambda p: np.sin(50.0 / (p[:, 0] + 1.001)),
                                [-1.0], [1.0], config=cfg, strict=False)
        assert e > 0.0

    def test_oscillatory_with_width_floor(self):
        # sin(1/x)-type integrand: geometric refinement toward 0, honest bound
        def f(p):
            x = p[:, 0]
            out = np.zeros_like(x)
            nz = x != 0.0
            out[nz] = x[nz] ** 2 * np.sin(1.0 / x[nz])
            return out
        v, e, _ = integrate_box(f, [0.0], [1.0], split_coords=[[0.0]],
                                config=QuadratureConfig(max_cells=2 ** 14),
                                strict=False)
        # reference frozen from two independent evaluations: the substitution
        # t = 1/x (integral of sin(t)/t^4 on [1, inf)) and composite dyadic
        # quadrature, both giving 0.2865295 to 8 digits
        assert v == pytest.approx(0.2865295360, abs=1e-6)

    @given(st.floats(-2, 2), st.floats(0.1, 2), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_linearity_and_bound(self, shift, width, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=2)

        def f(p):
            return np.cos(p[:, 0] + shift)

        def g(p):
            return p[:, 0] ** 2

        lo, hi = [shift], [shift + width]
        v1, e1, _ = integrate_box(f, lo, hi)
        v2, e2, _ = integrate_box(g, lo, hi)
        v3, e3, _ = integrate_box(lambda p: a * f(p) + b * g(p), lo, hi)
        assert v3 == pytest.approx(a * v1 + b * v2,
                                   abs=1e-10 * (1 + abs(a) + abs(b)))
