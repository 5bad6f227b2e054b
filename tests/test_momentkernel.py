"""Moment-matching kernels: residuals, polynomial reproduction, caching."""

import json
import math

import numpy as np
import pytest

from ptdiff import (MomentKernel, MultiIndex, PolyJet, build_kernel, seminorm,
                    xi_set)
from ptdiff.momentkernel import (RESIDUAL_GATE, VERIFY_QUAD, _angular_moment,
                                 _verify_residuals, verify_reproduction)
from ptdiff.quadrature import integrate_box
from ptdiff.tensor import zero_index


def residuals_one_at_a_time(n, k, fn):
    """The residuals with one integrate_box call per multi-index."""
    out = {}
    for m in range(k):
        for xi in xi_set(n, m):
            def f(pts, xi=xi):
                x = pts
                if n == 2:
                    rho, th = pts[:, 0], pts[:, 1]
                    x = np.stack([rho * np.cos(th), rho * np.sin(th)], axis=1)
                vals = fn(x)[:, 0] * (pts[:, 0] if n == 2 else 1.0)
                for j, e in enumerate(xi.entries):
                    if e:
                        vals = vals * x[:, j] ** e
                return vals
            lo, hi = ([0.0, 0.0], [1.0, 2.0 * np.pi]) if n == 2 else ([-1.0] * n, [1.0] * n)
            v, _, _ = integrate_box(f, lo, hi, (), VERIFY_QUAD)
            out[xi.entries] = abs(v - (1.0 if xi.order == 0 else 0.0))
    return out


def random_poly(rng, n, degree):
    coeffs = {xi.entries: rng.normal(size=1) for m in range(degree + 1)
              for xi in xi_set(n, m)}
    return PolyJet.from_coeff_map(n, [0.0] * n, coeffs, target_dim=1)


class TestResiduals:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
                                     (2, 1), (2, 2), (2, 3), (2, 4), (2, 5)])
    def test_all_orders_below_gate(self, kernel_cache, n, k):
        kernel = kernel_cache(n, k)
        assert kernel.moment_residuals, "no residuals recorded"
        worst = max(kernel.moment_residuals.values())
        assert worst <= RESIDUAL_GATE

    def test_residual_set_covers_all_moments(self, kernel_cache):
        kernel = kernel_cache(1, 4)
        expected = {xi.entries for m in range(4) for xi in xi_set(1, m)}
        assert set(kernel.moment_residuals) == expected

    @pytest.mark.parametrize("n,k", [(1, 3), (1, 5), (2, 2), (2, 4)])
    def test_one_engine_call_matches_one_integral_at_a_time(self, kernel_cache, n, k):
        # the lockstep engine gives each job the value it has alone
        fn = kernel_cache(n, k).testfn
        assert _verify_residuals(n, k, fn) == residuals_one_at_a_time(n, k, fn)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            build_kernel(1, 0)
        with pytest.raises(ValueError):
            build_kernel(1, 6)
        with pytest.raises(ValueError):
            build_kernel(3, 2)


class TestAngularMoment:
    def test_against_scipy_beta(self):
        from scipy.special import beta
        # every (a, b) = (2p, 2q) that a moment system up to MAX_DEGREE uses
        for p in range(5):
            for q in range(5 - p):
                want = 2.0 * beta(p + 0.5, q + 0.5)
                got = _angular_moment(p, q)
                assert abs(got - want) <= 2 * np.spacing(want), (p, q)

    def test_exact_rational_times_pi(self):
        assert _angular_moment(0, 0) == 2.0 * math.pi
        assert _angular_moment(1, 0) == math.pi
        assert _angular_moment(1, 1) == 0.25 * math.pi
        assert _angular_moment(2, 1) == 0.125 * math.pi


class TestReproduction:
    def test_random_polynomials(self, kernel_cache):
        # 20 probes spread over all kernels: 3 per 1-D degree, 1 per 2-D degree
        rng = np.random.default_rng(2)
        checks = []
        for k in range(1, 6):
            checks.extend((1, k) for _ in range(3))
        for k in range(1, 6):
            checks.append((2, k))
        assert len(checks) == 20
        for n, k in checks:
            kernel = kernel_cache(n, k)
            Q = random_poly(rng, n, k - 1)
            x = rng.uniform(-0.5, 0.5, size=n)
            r = float(rng.uniform(0.05, 0.5))
            defect = verify_reproduction(kernel, Q, x, r)
            scale = max(1.0, abs(Q.eval(x)[0]))
            assert defect <= 1e-8 * scale, (n, k, r)

    def test_degree_k_negative_control(self, kernel_cache):
        # a degree-k polynomial is NOT reproduced: the defect scales like r^k
        kernel = kernel_cache(1, 2)
        Q = PolyJet.from_coeff_map(1, [0.0], {(0,): 0.0, (1,): 0.0, (2,): 2.0})
        d1 = verify_reproduction(kernel, Q, [0.3], 0.2)
        d2 = verify_reproduction(kernel, Q, [0.3], 0.1)
        assert d1 > 1e-6
        assert d2 / d1 == pytest.approx(0.25, rel=0.05)

    def test_unit_mass_small_scale(self, kernel_cache):
        kernel = kernel_cache(1, 3)
        Q = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0})
        assert verify_reproduction(kernel, Q, [0.0], 0.1) <= 1e-10


class TestScaling:
    def test_scaled_supnorm(self, kernel_cache):
        # nu^0(Phi_r) = r^{-n} nu^0(Phi)
        for n in (1, 2):
            kernel = kernel_cache(n, 2)
            base = seminorm(kernel.testfn, 0)
            scaled = seminorm(kernel.scaled(0.5), 0)
            assert scaled == pytest.approx(2.0 ** n * base, rel=1e-3)

    def test_deriv_supnorms_match_seminorm(self, kernel_cache):
        for kernel in (kernel_cache(1, 3), kernel_cache(2, 2)):
            for i in range(0, 3):
                assert kernel.deriv_supnorms[i] == pytest.approx(
                    seminorm(kernel.testfn, i), rel=1e-6)

    def test_scaled_derivative_supnorm(self, kernel_cache):
        # sup||D^i Phi_r|| = r^{-n-i} sup||D^i Phi||
        kernel = kernel_cache(1, 2)
        r = 0.25
        for i in (0, 1, 2):
            got = seminorm(kernel.scaled(r), i)
            ref = r ** (-1 - i) * kernel.deriv_supnorms[i]
            assert got == pytest.approx(ref, rel=1e-2)

    def test_invalid_scale(self, kernel_cache):
        with pytest.raises(ValueError):
            kernel_cache(1, 2).scaled(0.0)


class TestCache:
    def test_roundtrip(self, tmp_path):
        k1 = build_kernel(1, 2, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        k2 = build_kernel(1, 2, cache_dir=tmp_path)
        xs = np.linspace(-0.9, 0.9, 7)[:, None]
        np.testing.assert_array_equal(k1.testfn(xs), k2.testfn(xs))

    def test_corrupted_cache_rebuilds(self, tmp_path):
        build_kernel(1, 2, cache_dir=tmp_path)
        path = next(tmp_path.glob("*.json"))
        payload = json.loads(path.read_text())
        payload["coeffs"][0][1] *= 3.0  # poison the mass coefficient
        path.write_text(json.dumps(payload))
        kernel = build_kernel(1, 2, cache_dir=tmp_path)
        assert max(kernel.moment_residuals.values()) <= RESIDUAL_GATE

    def test_truncated_entry_rewritten_whole(self, tmp_path):
        build_kernel(1, 2, cache_dir=tmp_path)
        path = next(tmp_path.glob("*.json"))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # a write cut short
        build_kernel(1, 2, cache_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert json.loads(path.read_text())["coeffs"] == json.loads(text)["coeffs"]

    def test_cache_key_distinguishes_orders(self, kernel_cache):
        assert kernel_cache(1, 2).cache_key() != kernel_cache(1, 3).cache_key()
