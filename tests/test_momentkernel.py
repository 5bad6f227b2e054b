"""Moment-matching kernels: residuals, polynomial reproduction, sup norms."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptdiff import (MomentKernel, MultiIndex, PolyJet, build_kernel, momentkernel,
                    seminorm, xi_set)
from ptdiff.momentkernel import (MAX_SUPNORM_ORDER, RESIDUAL_GATE, VERIFY_QUAD,
                                 _angular_moment, _verify_residuals,
                                 verify_reproduction)
from ptdiff.quadrature import integrate_box
from ptdiff.tensor import zero_index


def residuals_one_at_a_time(n, k, fn):
    """The residuals with one integrate_box call per multi-index."""
    out = {}
    for m in range(k):
        for xi in xi_set(n, m):
            def f(pts, xi=xi):
                x = pts
                if n == 2:  # (s, t) in the unit square onto s (cos 2 pi t, sin 2 pi t)
                    s, angle = pts[:, 0], 2.0 * np.pi * pts[:, 1]
                    x = np.stack([np.cos(angle) * s, np.sin(angle) * s], axis=1)
                vals = fn(x)[:, 0]
                for j, e in enumerate(xi.entries):
                    if e:
                        vals = vals * x[:, j] ** e
                # the Jacobian after the monomials, as the engine applies it
                return vals * (2.0 * np.pi * pts[:, 0]) if n == 2 else vals
            lo, hi = ([0.0, 0.0], [1.0, 1.0]) if n == 2 else ([-1.0] * n, [1.0] * n)
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

    def test_other_dimensions(self):
        # S^0 is two points; S^2 has area 4 pi, x^2 averages 1/3 over it,
        # x^2 y^2 1/15 and x^4 1/5
        assert _angular_moment(0) == _angular_moment(3) == 2.0
        assert _angular_moment(0, 0, 0) == 4.0 * math.pi
        for half, share in (((1, 0, 0), 3), ((1, 1, 0), 15), ((2, 0, 0), 5)):
            assert math.isclose(_angular_moment(*half), 4.0 * math.pi / share, rel_tol=1e-15)


class TestRadialMoment:
    @staticmethod
    def _own_bump_integrand(p):
        """The radial integrand with its own bump formula and clamp, as it
        was before it called cores.core_eval: the reference."""
        def g(pts):
            rho = pts[:, 0]
            out = np.zeros_like(rho)
            inside = rho ** 2 < 1.0 - 1e-12
            out[inside] = rho[inside] ** p * np.exp(1.0 / (rho[inside] ** 2 - 1.0))
            return out
        return g

    def test_bit_identical_to_own_bump_formula(self):
        for p in range(16):
            want = integrate_box(self._own_bump_integrand(p), [0.0], [1.0], (),
                                 momentkernel.MOMENT_QUAD)
            assert momentkernel._radial_moment.__wrapped__(p) == want[:2], p


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
            scaled = seminorm(kernel.directed(np.zeros(n), 0.5), 0)
            assert scaled == pytest.approx(2.0 ** n * base, rel=1e-3)

    def test_deriv_supnorms_match_seminorm(self, kernel_cache):
        for kernel in (kernel_cache(1, 3), kernel_cache(2, 2)):
            for i in range(0, 3):
                assert kernel.deriv_supnorm(i) == pytest.approx(
                    seminorm(kernel.testfn, i), rel=1e-6)

    def test_scaled_derivative_supnorm(self, kernel_cache):
        # sup||D^i Phi_r|| = r^{-n-i} sup||D^i Phi||
        kernel = kernel_cache(1, 2)
        r = 0.25
        for i in (0, 1, 2):
            got = seminorm(kernel.directed([0.0], r), i)
            ref = r ** (-1 - i) * kernel.deriv_supnorm(i)
            assert got == pytest.approx(ref, rel=1e-2)

    def test_invalid_scale(self, kernel_cache):
        with pytest.raises(ValueError):
            kernel_cache(1, 2).directed([0.0], 0.0)


# sup ||D^i Phi||, i = 0..4, as the kernel files stored them when every
# build computed them; kernels of degrees 2j - 1 and 2j are one function
STORED_SUPNORMS = {
    (1, 2): (0.8285688398691055, 1.7982900814975429, 17.454471931764047,
             419.8253395866316, 18729.74275908683),
    (1, 3): (1.5688387740067788, 3.9503075195366613, 36.796556829352795,
             1072.289557345903, 52798.89159335534),
    (1, 5): (2.277878955070079, 7.585379667964667, 62.77833092499522,
             1966.8715937095321, 117104.51955286661),
    (2, 2): (0.7885737797126774, 1.711486657923328, 16.61200149677682,
             399.56047138326187, 17825.43442108335),
    (2, 3): (2.3768853952302633, 5.510820891088874, 41.165437897368975,
             1224.8896595291333, 60967.537489129085),
}


def counting_seminorm(monkeypatch):
    """Count the seminorm calls the kernel module makes; returns the count list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return seminorm(*args, **kwargs)

    monkeypatch.setattr(momentkernel, "seminorm", counted)
    return calls


class TestSupnorms:
    def test_build_computes_none(self, monkeypatch):
        calls = counting_seminorm(monkeypatch)
        build_kernel(2, 2)
        build_kernel(2, 2)
        assert calls == []

    @pytest.mark.parametrize("n,k", sorted(STORED_SUPNORMS))
    def test_equal_to_stored_values(self, kernel_cache, n, k):
        kernel = kernel_cache(n, k)
        got = tuple(kernel.deriv_supnorm(i) for i in range(MAX_SUPNORM_ORDER + 1))
        assert got == STORED_SUPNORMS[(n, k)]

    def test_memoized_per_kernel_object(self, monkeypatch):
        calls = counting_seminorm(monkeypatch)
        built = build_kernel(1, 3)
        first = built.deriv_supnorm(2)
        assert calls == [2]
        assert built.deriv_supnorm(2) == first
        assert calls == [2]
        # a kernel built again evaluates again, to the same value: the work
        # one command does never depends on the commands run before it
        loaded = build_kernel(1, 3)
        assert loaded.deriv_supnorm(2) == first
        assert calls == [2, 2]

    def test_order_out_of_range(self, kernel_cache):
        with pytest.raises(ValueError):
            kernel_cache(1, 2).deriv_supnorm(MAX_SUPNORM_ORDER + 1)


ROOT = Path(__file__).resolve().parents[1]


def env_with_home(home):
    """This process's environment with HOME at home and ./src importable."""
    env = dict(os.environ, HOME=str(home))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


class TestCache:
    def test_suite_without_cache_plugin_writes_nothing_under_home(self, tmp_path):
        # kernels are built in the process: a session writes nothing under
        # HOME, with or without pytest's cache plugin
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_momentkernel.py::TestScaling::test_invalid_scale"],
            cwd=ROOT, env=env_with_home(tmp_path), capture_output=True, text=True)
        assert out.returncode == 0, out.stdout + out.stderr
        assert not any(tmp_path.iterdir())

    def test_jet_with_unusable_home_writes_only_its_reports(self, tmp_path):
        # HOME under a regular file: no directory can be made there, even
        # by root.  The command builds its kernel in the process and writes
        # only under --out
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cwd, out_dir = tmp_path / "cwd", tmp_path / "out"
        cwd.mkdir()
        out = subprocess.run(
            [sys.executable, "-m", "ptdiff.cli", "jet", "--item", "exp", "--point", "0",
             "--k", "1", "--out", str(out_dir)],
            cwd=cwd, env=env_with_home(blocker / "home"), capture_output=True, text=True)
        assert out.returncode == 0, out.stdout + out.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cwd", "out"]
        assert not any(cwd.iterdir())
        assert blocker.read_text() == "a file, not a directory"
        assert [p.name for p in out_dir.iterdir()] == ["jet_exp.json"]
