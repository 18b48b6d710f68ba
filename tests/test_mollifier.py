import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from slowflow import ScalarField, derive, integrate, make_grid, mollifier, sup_norm
from slowflow.analysis import strong_mean_distance
from slowflow.fieldgen import gaussian_bump
from slowflow.mollifier import (kernel_grid_mass, kernel_on_grid, make_kernel, mollify,
                                mollify_derivative)

from oracles import convolve_direct

# frozen oracle (Gauss-Legendre 400-node quadrature of the profile integral,
# agreeing with adaptive quadrature to 8e-16):
#   I = int_0^1 exp(1/(s^2-1)) s^2 ds = 0.0351007383764877
#   A = 1/(4 pi I)                    = 2.2671167396083267
ORACLE_A = 2.2671167396083267


def _profile_integral_oracle(k):
    x, w = np.polynomial.legendre.leggauss(400)
    s = 0.5 * (x + 1.0)
    return 0.5 * float(np.sum(w * k.profile(s * s) * s * s))


class TestKernel:
    def test_normalization_constant(self):
        k = make_kernel(1.0)
        assert k.normalization == pytest.approx(ORACLE_A, rel=1e-12)

    def test_radial_normalization_invariant(self):
        k = make_kernel(0.5)
        assert 4 * np.pi * _profile_integral_oracle(k) == pytest.approx(1.0, abs=1e-10)

    def test_profile_support_and_sign(self):
        k = make_kernel(1.0)
        s = np.linspace(0, 2, 101)
        vals = k.profile(s)
        assert np.all(vals >= 0)
        assert np.all(vals[s >= 1.0] == 0.0)

    def test_normalization_is_computed_once(self, monkeypatch):
        make_kernel(0.5)
        calls, rule = [], mollifier._gauss_panels

        def counting_rule(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(mollifier, "_gauss_panels", counting_rule)
        k = make_kernel(0.7)
        assert calls == []
        assert k.normalization == make_kernel(0.5).normalization

    def test_normalization_agrees_with_adaptive_quadrature(self):
        val, _ = quad(lambda s: np.exp(1.0 / (s * s - 1.0)) * s * s, 0.0, 1.0,
                      epsabs=1e-14, epsrel=1e-14)
        assert mollifier._normalization() == pytest.approx(1.0 / (4.0 * np.pi * val),
                                                           rel=1e-14)

    def test_normalization_rule_is_exact_on_polynomials_and_converges_on_the_bump(self):
        # 32-point panels integrate degree <= 63 exactly; the bump's integral
        # is the frozen oracle I above
        s, w = mollifier._gauss_panels(0.0, 1.0, 8, 32)
        assert np.sum(w * 64.0 * s ** 63) == pytest.approx(1.0, rel=1e-14)
        I = np.sum(w * np.exp(1.0 / (s * s - 1.0)) * s * s)
        assert I == pytest.approx(0.0351007383764877, rel=1e-14)

    def test_import_loads_no_scipy_integrate(self):
        code = ("import sys, slowflow, slowflow.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
        src = str(Path(mollifier.__file__).parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_profile_orders(self):
        k = make_kernel(1.0)
        s = np.linspace(-0.5, 1.5, 201)
        lam, d1, d2 = (k.profile(s, order) for order in (0, 1, 2))
        inside = s < 1.0
        np.testing.assert_array_equal(d1[inside], -lam[inside] / (s[inside] - 1.0) ** 2)
        assert np.all(d1[~inside] == 0.0) and np.all(d2[~inside] == 0.0)
        # centered difference of lam' against lam''
        ds = 1e-6
        x = np.array([0.0, 0.3, 0.6])
        fd = (k.profile(x + ds, 1) - k.profile(x - ds, 1)) / (2 * ds)
        np.testing.assert_allclose(k.profile(x, 2), fd, rtol=1e-6)
        with pytest.raises(ValueError, match="order"):
            k.profile(s, 3)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            make_kernel(0.0)
        with pytest.raises(ValueError, match="epsilon"):
            make_kernel(-1.0)

    def test_grid_mass_converges_fast(self):
        # midpoint mass of the raw sampled kernel: the profile is smooth with
        # a flat (but non-analytic) support edge, so the error falls rapidly
        # but sub-spectrally: measured 1.9e-4 at eps/h = 8, 2.5e-6 at 16
        g = make_grid(64, 4.0)
        err8 = abs(kernel_grid_mass(make_kernel(8 * g.h), g) - 1.0)
        err16 = abs(kernel_grid_mass(make_kernel(16 * g.h), g) - 1.0)
        assert err8 <= 5e-4
        assert err16 <= 1e-5
        assert err16 < err8 / 10.0


class TestMollify:
    def test_constant_preserved_in_interior(self):
        g = make_grid(32, 4.0)
        k = make_kernel(1.0)
        c = ScalarField(g, np.full((32,) * 3, 3.7))
        m = mollify(c, k)
        margin = int(np.ceil(k.epsilon / g.h))
        inner = (slice(margin, 32 - margin),) * 3
        np.testing.assert_allclose(m.samples[inner], 3.7, rtol=1e-13)

    def test_half_space_indicator_away_from_interface(self):
        g = make_grid(32, 4.0)
        k = make_kernel(0.5)
        X1, _, _ = g.meshgrid()
        u = ScalarField(g, (X1 > 0).astype(float))
        m = mollify(u, k)
        # interior cells more than eps past the interface (and away from the
        # box boundary, where zero-padding bites)
        margin = int(np.ceil(k.epsilon / g.h)) + 1
        mask = np.zeros((32,) * 3, dtype=bool)
        inner = slice(margin, 32 - margin)
        mask[inner, inner, inner] = True
        pos = mask & (X1 > k.epsilon + g.h)
        neg = mask & (X1 < -(k.epsilon + g.h))
        np.testing.assert_allclose(m.samples[pos], 1.0, atol=1e-12)
        np.testing.assert_allclose(m.samples[neg], 0.0, atol=1e-12)

    def test_matches_direct_sum(self):
        g = make_grid(24, 3.0)
        k = make_kernel(0.5)
        U = gaussian_bump(g, width=0.7)
        a = mollify(U, k)
        b = convolve_direct(U.samples, kernel_on_grid(k, g), g.h)
        assert np.abs(a.samples - b).max() <= 1e-12

    def test_under_resolved_error(self):
        g = make_grid(16, 4.0)
        with pytest.raises(ValueError, match="under-resolved"):
            mollify(gaussian_bump(g, width=1.0), make_kernel(0.9 * g.h))

    def test_norm_never_increases(self, rng):
        g = make_grid(24, 4.0)
        k = make_kernel(0.8)
        for _ in range(5):
            U = ScalarField(g, rng.standard_normal((24,) * 3))
            m = mollify(U, k)
            assert integrate(m, m) <= integrate(U, U) * (1 + 1e-10)

    def test_min_max_bounds_in_interior(self, rng):
        g = make_grid(24, 4.0)
        k = make_kernel(0.8)
        U = ScalarField(g, rng.standard_normal((24,) * 3))
        m = mollify(U, k)
        margin = int(np.ceil(k.epsilon / g.h)) + 1
        inner = (slice(margin, 24 - margin),) * 3
        assert m.samples[inner].max() <= U.samples.max() + 1e-12
        assert m.samples[inner].min() >= U.samples.min() - 1e-12

    def test_self_adjoint(self):
        g = make_grid(32, 4.0)
        k = make_kernel(0.7)
        U = gaussian_bump(g, width=0.8)
        V = gaussian_bump(g, width=1.0, center=(0.4, -0.3, 0.2))
        lhs = integrate(mollify(U, k), V)
        rhs = integrate(U, mollify(V, k))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_strong_convergence_along_halving(self):
        g = make_grid(64, 4.0)
        U = gaussian_bump(g, width=0.8)
        dists = [strong_mean_distance(mollify(U, make_kernel(eps)), U)
                 for eps in (1.0, 0.5, 0.25)]
        assert dists[0] > dists[1] > dists[2] > 0

    def test_uniform_convergence_for_continuous_field(self):
        # sup |V_eps - V| on an inner sub-box shrinks along the eps halving
        g = make_grid(64, 4.0)
        V = gaussian_bump(g, width=0.8)
        inner = (slice(16, 48),) * 3
        sups = []
        for eps in (1.0, 0.5, 0.25):
            m = mollify(V, make_kernel(eps))
            sups.append(np.abs(m.samples - V.samples)[inner].max())
        assert sups[0] > sups[1] > sups[2]


class TestMollifyDerivative:
    def test_constant_has_zero_first_derivatives(self):
        g = make_grid(32, 4.0)
        k = make_kernel(1.0)
        c = ScalarField(g, np.full((32,) * 3, 2.0))
        for mi in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            d = mollify_derivative(c, k, mi)
            margin = int(np.ceil(k.epsilon / g.h)) + 1
            inner = (slice(margin, 32 - margin),) * 3
            np.testing.assert_allclose(d.samples[inner], 0.0, atol=1e-12)

    def test_order_three_rejected(self, gauss32):
        k = make_kernel(1.0)
        with pytest.raises(ValueError, match="l\\+m\\+n"):
            mollify_derivative(gauss32, k, (1, 1, 1))

    def test_commutes_with_derive_at_h2_rate(self):
        k = make_kernel(1.0)
        sups = []
        for n in (32, 64):
            g = make_grid(n, 4.0)
            U = gaussian_bump(g, width=0.8)
            delta = derive(mollify(U, k), 1) - mollify_derivative(U, k, (1, 0, 0))
            sups.append(sup_norm(delta))
        assert sups[0] / sups[1] > 3.0

    def test_mixed_derivative_matches_difference_of_first(self):
        # the a != b term of the sampled kernel: d1 d2 (K * U) against the
        # centered x2-difference of d1 (K * U), converging at the h^2 rate
        k = make_kernel(1.0)
        sups = []
        for n in (32, 64):
            g = make_grid(n, 4.0)
            U = gaussian_bump(g, width=0.8, center=(0.2, -0.3, 0.1))
            mixed = mollify_derivative(U, k, (1, 1, 0))
            delta = derive(mollify_derivative(U, k, (1, 0, 0)), 2) - mixed
            sups.append(sup_norm(delta) / sup_norm(mixed))
        assert sups[0] / sups[1] > 3.0 and sups[1] < 0.05

    def test_second_derivative_consistent_under_refinement(self):
        # the twice-differentiated profile has sharp radial structure near the
        # support edge; the convergent regime needs eps/h >= 8
        k = make_kernel(1.0)
        sups = []
        for n in (64, 128):
            g = make_grid(n, 4.0)
            U = gaussian_bump(g, width=0.8)
            a = mollify_derivative(U, k, (2, 0, 0))
            b = derive(derive(mollify(U, k), 1), 1)
            sups.append(sup_norm(a - b))
        assert sups[0] / sups[1] > 2.5
