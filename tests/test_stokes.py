import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from slowflow import (ScalarField, VectorField3, divergence, first_order_diagnostics,
                      flow_energy, integrate, make_grid, sample_diagnostics, stokes, sup_norm)
from slowflow.convolve import SpectralAccumulator, convolve_offsets, newton_kernel
from slowflow.fieldgen import (gradient_pulse_forcing, ramped_forcing,
                               random_solenoidal, solenoidal_gaussian,
                               solenoidal_gaussian_laplacian,
                               solenoidal_pulse_forcing)
from slowflow.stokes import (FLOOR_FACTOR, SQRT_PI, FlowState, FluidParams, ForcingField,
                             _duhamel_rule, _erf, _heat_apply, _heat_factor,
                             forced_response, heat_propagate, oseen_tensor_eval,
                             pressure_field, residual_check, solve_linearized)

from oracles import convolve_direct

PAR = FluidParams(1.0, 1.0)


def _zero_forcing(grid):
    zero = VectorField3.zeros(grid)
    return ForcingField(grid, lambda t: zero)


def _phi_from_quadrature(r, nu_tau):
    """Oracle route for Phi: radial integral of the one-dimensional heat profile
    E(alpha) = exp(-alpha^2/(4 nu tau)) / (4 pi^{3/2} sqrt(nu tau)), by adaptive
    quadrature.  Equals erf(r/(2 sqrt(nu tau)))/(4 pi r)."""
    c = 1.0 / (4.0 * SQRT_PI ** 3 * np.sqrt(nu_tau))
    val, _ = quad(lambda a: np.exp(-a * a / (4.0 * nu_tau)), 0.0, r,
                  epsabs=1e-14, epsrel=1e-13)
    return c * val / r


def heat_kernel_on_grid(grid, nu_t):
    """Frozen 3D oracle for the heat step: the unit-mass separable kernel
    k(x) k(y) k(z) / h^3 of ``stokes._heat_factor`` as one offset kernel, and
    its radius R, for comparison through a 3D convolution."""
    k, R = _heat_factor(grid, nu_t)
    K = k[:, None, None] * k[None, :, None] * k[None, None, :]
    return K / grid.cell_volume, R


def _heat_apply_by_tensordot(arrays, grid, nu_t):
    """Frozen reference for ``stokes._heat_apply``: the same Toeplitz factor T,
    applied by one tensordot and moveaxis per axis."""
    k, R = _heat_factor(grid, nu_t)
    lag = np.subtract.outer(np.arange(grid.n), np.arange(grid.n))
    T = np.where(np.abs(lag) <= R, k[np.clip(lag + R, 0, 2 * R)], 0.0)
    out = list(arrays)
    for ax in (2, 1, 0):
        out = [np.moveaxis(np.tensordot(T, a, axes=(1, ax)), 0, ax) for a in out]
    return out


class TestFluidParams:
    @pytest.mark.parametrize("nu,rho", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (np.inf, 1.0)])
    def test_rejects_bad_constants(self, nu, rho):
        with pytest.raises(ValueError):
            FluidParams(nu, rho)


class TestHeatPropagate:
    def test_zero_stays_zero(self, grid32):
        u = heat_propagate(VectorField3.zeros(grid32), PAR, 0.7)
        assert sup_norm(u) == 0.0

    def test_t_zero_is_identity(self, grid32):
        u0 = solenoidal_gaussian(grid32, width=1.0)
        u = heat_propagate(u0, PAR, 0.0)
        assert all(np.array_equal(a.samples, b.samples)
                   for a, b in zip(u.components, u0.components))
        # u0's own samples, read-only
        assert all(np.shares_memory(a.samples, b.samples) and not a.samples.flags.writeable
                   for a, b in zip(u.components, u0.components))

    def test_gaussian_closed_form(self, grid32):
        X1, X2, X3 = grid32.meshgrid()
        r2 = X1 ** 2 + X2 ** 2 + X3 ** 2
        u0 = VectorField3.from_arrays(grid32, np.exp(-r2 / 2),
                                      np.zeros_like(r2), np.zeros_like(r2))
        ut = heat_propagate(u0, PAR, 0.5)
        st2 = 1.0 + 2 * 0.5
        exact = st2 ** -1.5 * np.exp(-r2 / (2 * st2))
        assert np.abs(ut.u1.samples - exact).max() / exact.max() < 1e-6

    def test_constant_preserved_where_resolved(self, grid32):
        c = 2.5
        u0 = VectorField3.from_arrays(grid32, np.full((32,) * 3, c),
                                      np.zeros((32,) * 3), np.zeros((32,) * 3))
        ut = heat_propagate(u0, PAR, 0.1)
        sigma = np.sqrt(2 * PAR.nu * 0.1)
        margin = int(np.ceil(8 * sigma / grid32.h)) + 2
        inner = (slice(margin, 32 - margin),) * 3
        np.testing.assert_allclose(ut.u1.samples[inner], c, rtol=1e-12)

    def test_under_resolved_rejected(self, grid32):
        u0 = solenoidal_gaussian(grid32, width=1.0)
        with pytest.raises(ValueError, match="under-resolved"):
            heat_propagate(u0, PAR, 1e-4)
        with pytest.raises(ValueError, match="t must be >= 0"):
            heat_propagate(u0, PAR, -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, grid16, t):
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            heat_propagate(solenoidal_gaussian(grid16, width=1.0), PAR, t)

    def test_overflowing_kernel_width_names_nu_t(self, grid16):
        # 4 nu t overflows: a ValueError naming nu*t, not an overflow warning or an
        # OverflowError, for a float t and for a Duhamel node's numpy-scalar nu tau
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^heat kernel width overflows at nu\*t = 1e\+308$"):
                heat_propagate(solenoidal_gaussian(grid16, width=1.0), PAR, 1e308)
            with pytest.raises(ValueError, match=r"nu\*t = 4\.5e\+307"):
                _heat_factor(grid16, np.float64(0.9e308) * np.float64(0.5))
        assert _heat_factor(grid16, 4e307)[1] == grid16.n - 1  # finite 4 nu t: the widest kernel

    @pytest.mark.parametrize("t", [0.1, 0.25, 6.0])  # 6.0 clips the radius at n-1
    def test_separable_path_matches_3d_convolution(self, grid16, t):
        u0 = solenoidal_gaussian(grid16, width=1.0)
        u = heat_propagate(u0, PAR, t)
        K, R = heat_kernel_on_grid(grid16, PAR.nu * t)
        assert (R == grid16.n - 1) == (t == 6.0)
        for a, c in zip(u.components, u0.components):
            ref = convolve_offsets(c.samples, K, grid16.h)
            np.testing.assert_allclose(a.samples, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("n", [16, 24, 40])
    def test_separable_operator_matches_tensordot_reference(self, n, rng):
        g = make_grid(n, 4.0)
        arrays = [rng.standard_normal((n,) * 3) for _ in range(3)]
        radii = []
        for nu_t in (1e-4, 2e-3, 0.02, 0.2, 100.0):  # the last clips R at n - 1
            radii.append(_heat_factor(g, nu_t)[1])
            for a, ref in zip(_heat_apply(arrays, g, nu_t),
                              _heat_apply_by_tensordot(arrays, g, nu_t)):
                assert a.flags.c_contiguous
                np.testing.assert_array_equal(a, ref)
        assert radii == sorted(set(radii)) and radii[-1] == n - 1

    def test_solvers_match_tensordot_reference(self, monkeypatch):
        g, par = make_grid(24, 4.0), FluidParams(0.25, 1.0)
        u0 = solenoidal_gaussian(g, width=0.9)
        F = gradient_pulse_forcing(g, width=1.0, t_scale=0.5)

        def solve():
            return [heat_propagate(u0, par, 0.15)] + [
                forced_response(F, par, 0.15, assume_solenoidal=s) for s in (False, True)]
        new = solve()
        monkeypatch.setattr(stokes, "_heat_apply", _heat_apply_by_tensordot)
        for a, ref in zip(new, solve()):
            for x, y in zip(a.components, ref.components):
                np.testing.assert_array_equal(x.samples, y.samples)

    def test_kernel_mass_is_one(self, grid32):
        K, _ = heat_kernel_on_grid(grid32, 0.3)
        assert K.sum() * grid32.cell_volume == pytest.approx(1.0, rel=1e-14)

    def test_semigroup(self, grid32):
        u0 = solenoidal_gaussian(grid32, width=1.0)
        a = heat_propagate(heat_propagate(u0, PAR, 0.3), PAR, 0.2)
        b = heat_propagate(u0, PAR, 0.5)
        scale = sup_norm(b)
        assert max(np.abs(x.samples - y.samples).max()
                   for x, y in zip(a.components, b.components)) < 1e-6 * scale

    def test_divergence_preserved(self, grid32):
        u0 = solenoidal_gaussian(grid32, width=1.0)
        ut = heat_propagate(u0, PAR, 0.4)
        assert sup_norm(divergence(ut)) <= sup_norm(divergence(u0)) * 1.05 + 1e-12

    def test_linearity(self, grid32):
        a = solenoidal_gaussian(grid32, width=1.0)
        b = solenoidal_gaussian(grid32, width=0.7, center=(0.5, 0.0, -0.3))
        lhs = heat_propagate(a + 2.0 * b, PAR, 0.3)
        rhs = heat_propagate(a, PAR, 0.3) + 2.0 * heat_propagate(b, PAR, 0.3)
        assert max(np.abs(x.samples - y.samples).max()
                   for x, y in zip(lhs.components, rhs.components)) < 1e-12

    def test_contraction_of_diagnostics(self, grid32):
        u0 = solenoidal_gaussian(grid32, width=1.0)
        ut = heat_propagate(u0, PAR, 0.5)
        assert sup_norm(ut) <= sup_norm(u0) * (1 + 1e-12)
        assert flow_energy(ut) <= flow_energy(u0) * (1 + 1e-12)
        assert (first_order_diagnostics(ut, 0.5).J1
                <= first_order_diagnostics(u0, 0.0).J1 * (1 + 1e-10))


class TestOseenTensor:
    def test_symmetric(self):
        T = oseen_tensor_eval([0.3, -0.2, 0.5], 0.7, PAR)
        np.testing.assert_array_equal(T, T.T)

    def test_rejects_singular_point_and_bad_tau(self):
        with pytest.raises(ValueError, match="r = 0"):
            oseen_tensor_eval([0.0, 0.0, 0.0], 0.5, PAR)
        with pytest.raises(ValueError, match="tau"):
            oseen_tensor_eval([1.0, 0.0, 0.0], 0.0, PAR)

    def test_far_field_cubic_decay(self):
        rs = np.geomspace(0.5, 8.0, 12)
        vals = [np.abs(oseen_tensor_eval([r, 0.0, 0.0], 0.05, PAR)).max() for r in rs]
        slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.2)

    def test_decay_bound_constant_finite(self):
        # the empirical A in |T_ij| < A / (r^2 + nu tau)^{3/2} over a batch
        disps = [np.array([r, 0.3, -0.2]) for r in (0.2, 0.5, 1.0, 3.0)]
        A = max(np.abs(oseen_tensor_eval(dx, tau, PAR)).max() * (dx @ dx + PAR.nu * tau) ** 1.5
                for dx in disps for tau in (0.05, 0.3, 1.0))
        assert np.isfinite(A) and A > 0

    def test_erf_is_within_two_ulp_of_scipy_special(self):
        x = np.linspace(0.1, 30.0, 100_001)
        np.testing.assert_array_max_ulp(_erf(x), erf(x), maxulp=2)
        for v in (0.1, 0.73, 2.5, 5.9, 30.0):
            got = _erf(np.float64(v))
            assert np.shape(got) == ()
            np.testing.assert_array_max_ulp(got, erf(v), maxulp=2)

    def test_potential_matches_adaptive_quadrature(self):
        for r, tau in ((0.5, 0.2), (2.0, 1.0), (0.05, 0.3)):
            nu_tau = PAR.nu * tau
            closed = erf(r / (2 * np.sqrt(nu_tau))) / (4 * np.pi * r)
            assert _phi_from_quadrature(r, nu_tau) == pytest.approx(closed, rel=1e-12)

    def test_tensor_matches_hessian_of_quadrature_potential(self):
        # independent oracle: numerical Hessian of the quadrature-evaluated
        # potential plus the Gaussian bulk term
        r0 = np.array([0.5, 0.3, -0.4])
        tau = 0.4
        nu_tau = PAR.nu * tau
        step = 1e-4

        def phi(p):
            return _phi_from_quadrature(float(np.sqrt(np.sum(p * p))), nu_tau)

        H = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                e_i = np.eye(3)[i] * step
                e_j = np.eye(3)[j] * step
                H[i, j] = (phi(r0 + e_i + e_j) - phi(r0 + e_i - e_j)
                           - phi(r0 - e_i + e_j) + phi(r0 - e_i - e_j)) / (4 * step ** 2)
        r = np.sqrt(np.sum(r0 * r0))
        gamma = np.exp(-r * r / (4 * nu_tau)) / (4 * np.pi * nu_tau) ** 1.5
        expected = np.eye(3) * gamma + H
        T = oseen_tensor_eval(r0, tau, PAR)
        np.testing.assert_allclose(T, expected, rtol=2e-5, atol=1e-8)

    def test_projector_mass_on_balls(self):
        # the tensor integrates conditionally: over centered boxes the Gaussian
        # part carries mass 1 and the dipole part exactly -1/3 per diagonal
        # entry, so the lattice sum tends to (2/3) delta_ij
        g = make_grid(48, 6.0)
        tau = 0.2
        total = np.zeros((3, 3))
        off = g.offsets(g.n // 2)
        OX, OY, OZ = np.meshgrid(off, off, off, indexing="ij")
        R = np.sqrt(OX ** 2 + OY ** 2 + OZ ** 2)
        c = g.n // 2
        R[c, c, c] = 1.0
        from slowflow.stokes import _oseen_profiles
        f1, f2 = _oseen_profiles(R, PAR.nu * tau)
        f2c = f2.copy()
        f2c[c, c, c] = 0.0
        units = (OX / R, OY / R, OZ / R)
        for i in range(3):
            for j in range(3):
                K = (f1 if i == j else 0.0) + units[i] * units[j] * f2c
                total[i, j] = np.sum(K) * g.cell_volume
        np.testing.assert_allclose(total, np.eye(3) * total[0, 0], atol=1e-12)
        assert total[0, 0] == pytest.approx(2.0 / 3.0, abs=0.01)


class TestForcedResponse:
    def test_zero_forcing_gives_zero(self, grid16):
        u = forced_response(_zero_forcing(grid16), PAR, 0.5)
        assert sup_norm(u) < 1e-14

    def test_requires_forcing_and_positive_time(self, grid16):
        with pytest.raises(ValueError, match="empty forcing"):
            forced_response(None, PAR, 0.5)
        for t in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="t must be > 0"):
                forced_response(_zero_forcing(grid16), PAR, t)

    def test_below_floor_rejected(self, grid16):
        with pytest.raises(ValueError, match="under-resolved"):
            forced_response(_zero_forcing(grid16), PAR, 1e-6)

    def test_small_time_identity_action(self):
        g = make_grid(24, 4.0)
        F = solenoidal_pulse_forcing(g, width=1.0, t_scale=1e9)
        X0 = F.at(0.0)
        errs = []
        for t in (0.05, 0.025):
            u = forced_response(F, PAR, t)
            errs.append(max(np.abs(a.samples - t * b.samples).max()
                            for a, b in zip(u.components, X0.components))
                        / (t * sup_norm(X0)))
        assert errs[0] < 0.15
        assert errs[1] < 0.7 * errs[0]  # O(t)

    def test_solenoidal_fast_path_agrees(self):
        g = make_grid(20, 4.0)
        F = solenoidal_pulse_forcing(g, width=1.0, t_scale=0.5)
        a = forced_response(F, PAR, 0.1, assume_solenoidal=False)
        b = forced_response(F, PAR, 0.1, assume_solenoidal=True)
        scale = sup_norm(a)
        assert max(np.abs(x.samples - y.samples).max()
                   for x, y in zip(a.components, b.components)) < 0.02 * scale

    def test_gradient_forcing_mostly_projected_out(self):
        g = make_grid(24, 4.0)
        F = gradient_pulse_forcing(g, width=1.0, t_scale=1e9)
        u = forced_response(F, PAR, 0.1)
        assert sup_norm(u) < 0.2 * 0.1 * sup_norm(F.at(0.0))

    def test_manufactured_solution(self):
        g = make_grid(24, 4.0)
        nu = 0.5
        par = FluidParams(nu, 1.0)
        shape = solenoidal_gaussian(g, width=0.9)
        lap = solenoidal_gaussian_laplacian(g, width=0.9)
        F = ramped_forcing(g, shape, lap, nu, 0.4)
        for assume_solenoidal in (True, False):
            u = forced_response(F, par, 0.4, assume_solenoidal=assume_solenoidal)
            err = max(np.abs(a.samples - b.samples).max()
                      for a, b in zip(u.components, shape.components))
            assert err / sup_norm(shape) < 0.02

    def test_gradient_pulse_projected_out_at_h2_rate(self):
        # the exact response to an irrotational forcing is 0: what is left is
        # the O(h^2) error of the discrete Leray projection
        par = FluidParams(0.25, 1.0)
        res = []
        for n in (24, 48):
            F = gradient_pulse_forcing(make_grid(n, 4.0), width=1.0, t_scale=0.5)
            res.append(sup_norm(forced_response(F, par, 0.15)) / sup_norm(F.at(0.0)))
        assert res[0] < 0.02
        assert res[0] / res[1] > 3.0

    @staticmethod
    def _heat_sum_by_3d_convolution(F, par, t):
        """The Duhamel heat sum with one 3D FFT convolution per node and
        component, on the nodes and weights of the shared rule plus the
        trapezoid sliver below the floor; returns H and the unit-mass kernel
        radius of each node."""
        g = F.grid
        tau_min = g.h ** 2 / (FLOOR_FACTOR * par.nu)
        H = [0.5 * tau_min * (a.samples + b.samples)
             for a, b in zip(F.at(t).components, F.at(t - tau_min).components)]
        radii = []
        for tau, w in zip(*_duhamel_rule(t, g.h, par.nu)):
            K, R = heat_kernel_on_grid(g, par.nu * tau)
            radii.append(R)
            for acc, c in zip(H, F.at(t - tau).components):
                acc += w * convolve_offsets(c.samples, K, g.h)
        return H, radii

    @pytest.mark.parametrize("case", ["forced_duhamel", "clipped_radius"])
    def test_heat_sum_matches_3d_convolution_oracle(self, case, grid16):
        if case == "forced_duhamel":  # the benchmark's grid, viscosity and time
            g, par, t = make_grid(24, 4.0), FluidParams(0.25, 1.0), 0.15
        else:  # the box clips the widest node where its tail is still ~1e-3 of its peak
            g, par, t = grid16, PAR, 2.0
        shape = solenoidal_gaussian(g, width=0.9)
        ramp = ramped_forcing(g, shape, solenoidal_gaussian_laplacian(g, width=0.9), par.nu, 0.4)
        grad = gradient_pulse_forcing(g, width=1.0, t_scale=0.5)
        F = ForcingField(g, lambda s: ramp.at(s) + grad.at(s))
        ref, radii = self._heat_sum_by_3d_convolution(F, par, t)
        assert (radii[-1] == g.n - 1) == (case == "clipped_radius")
        u = forced_response(F, par, t, assume_solenoidal=True)
        sup = max(np.abs(r).max() for r in ref)
        for a, r in zip(u.components, ref):
            np.testing.assert_allclose(a.samples, r, rtol=0, atol=1e-12 * sup)

    @pytest.mark.parametrize("assume_solenoidal,expected",
                             [(False, 1), (True, 0), ("solve", 2), ("solve-3-times", 6)])
    def test_only_the_projection_makes_3d_transforms(self, monkeypatch, assume_solenoidal,
                                                     expected):
        """One Newton convolution for the projection; a forced solve adds one
        for the pressure at each output time, and transforms the Newton
        kernel once for all of them (``expected`` counts field transforms)."""
        calls = {"kernel_fft": 0, "field_fft": 0}
        for name in calls:
            def counting(self, a, _name=name, _orig=getattr(SpectralAccumulator, name)):
                calls[_name] += 1
                return _orig(self, a)
            monkeypatch.setattr(SpectralAccumulator, name, counting)
        g = make_grid(24, 4.0)  # the forced_duhamel benchmark settings: 8 nodes
        F = gradient_pulse_forcing(g, width=1.0, t_scale=0.5)
        par = FluidParams(0.25, 1.0)
        if assume_solenoidal == "solve":
            solve_linearized(VectorField3.zeros(g), F, par, [0.15])
        elif assume_solenoidal == "solve-3-times":
            solve_linearized(VectorField3.zeros(g), F, par, [0.05, 0.1, 0.15])
        else:
            forced_response(F, par, 0.15, assume_solenoidal=assume_solenoidal)
        assert calls == {"kernel_fft": min(expected, 1), "field_fft": expected}

    def test_forced_solve_samples_the_forcing_once_per_node_and_time(self, count_forcing_samples):
        # the forced_duhamel benchmark settings: 8 nodes, then X(t - tau_min)
        # and X(t) for the below-floor sliver; the pressure and the state's
        # forcing terms reuse X(t)
        g, par = make_grid(24, 4.0), FluidParams(0.25, 1.0)
        F = count_forcing_samples(gradient_pulse_forcing(g, width=1.0, t_scale=0.5))
        sampled = count_forcing_samples.times
        solve_linearized(VectorField3.zeros(g), F, par, [0.15])
        assert len(sampled) == len(_duhamel_rule(0.15, g.h, par.nu)[0]) + 2 == 10

    def test_duhamel_rule_reads_the_cached_gauss_legendre_table(self, monkeypatch):
        # the rule as first written, with a fresh leggauss table per call;
        # once the cache holds the table, no call rebuilds it
        t, h, nu = 0.15, 1 / 3, 0.25
        a, b = np.log(h * h / (FLOOR_FACTOR * nu)), np.log(t)
        panels = int(np.ceil(stokes.PANELS_PER_DECADE * (b - a) / np.log(10.0)))
        x, w = np.polynomial.legendre.leggauss(stokes.GAUSS_POINTS)
        half = 0.5 * (b - a) / panels
        taus = np.exp((a + half * (2 * np.arange(panels) + 1))[:, None] + half * x).ravel()
        _duhamel_rule(t, h, nu)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)
        got = _duhamel_rule(t, h, nu)
        assert got[0].tobytes() == taus.tobytes()
        assert got[1].tobytes() == (half * np.tile(w, panels) * taus).tobytes()


class TestPressure:
    def test_zero_forcing(self, grid16):
        p = pressure_field(VectorField3.zeros(grid16), PAR)
        assert sup_norm(p) == 0.0

    def test_gradient_forcing_recovers_potential(self):
        errs = []
        for n in (32, 64):
            g = make_grid(n, 8.0)
            X1, X2, X3 = g.meshgrid()
            phi = np.exp(-(X1 ** 2 + X2 ** 2 + X3 ** 2) / 2)
            Xg = VectorField3.from_arrays(g, -X1 * phi, -X2 * phi, -X3 * phi)
            p = pressure_field(Xg, PAR)
            errs.append(np.abs(p.samples - PAR.rho * phi).max() / phi.max())
        assert errs[0] < 0.12
        assert errs[0] / errs[1] > 3.0  # O(h^2)

    def test_solenoidal_forcing_gives_small_pressure(self):
        sups = []
        for n in (24, 48):
            g = make_grid(n, 8.0)
            Xs = solenoidal_gaussian(g, width=1.0)
            sups.append(sup_norm(pressure_field(Xs, PAR)))
        assert sups[0] < 0.05 * 1.0  # C*h with small constant
        assert sups[0] / sups[1] > 2.0

    def test_newton_convolution_matches_direct_sum(self, rng, full_lattice):
        g = make_grid(16, 4.0)
        N = newton_kernel(g)
        f = rng.standard_normal((16,) * 3)
        a = convolve_offsets(f, N, g.h)
        b = convolve_direct(f, full_lattice(N), g.h)
        np.testing.assert_allclose(a, b, atol=1e-12 * np.abs(b).max())

    def test_matches_direct_sum_of_newton_potential_of_divergence(self, grid16, rng,
                                                                   full_lattice):
        X = VectorField3.from_arrays(grid16, *rng.standard_normal((3, 16, 16, 16)))
        ref = -PAR.rho * convolve_direct(divergence(X).samples, full_lattice(newton_kernel(grid16)),
                                         grid16.h)
        p = pressure_field(X, PAR).samples
        np.testing.assert_allclose(p, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_rejects_nan(self, grid16):
        bad = np.zeros((16,) * 3)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            pressure_field(VectorField3.from_arrays(grid16, bad, bad, bad), PAR)


class TestFlowState:
    def test_rejects_negative_time(self, grid16):
        with pytest.raises(ValueError, match="t must be >= 0"):
            FlowState(-0.1, VectorField3.zeros(grid16), ScalarField.zeros(grid16))

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_rejects_non_finite_time(self, grid16, t):
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            FlowState(t, VectorField3.zeros(grid16), ScalarField.zeros(grid16))

    def test_rejects_pressure_on_another_grid(self, grid16):
        with pytest.raises(ValueError, match="share one grid"):
            FlowState(0.0, VectorField3.zeros(grid16), ScalarField.zeros(make_grid(16, 8.0)))


class TestSolveLinearized:
    def test_initial_data_check_builds_each_first_derivative_once(self, count_stencils, grid32):
        u0 = solenoidal_gaussian(grid32, width=1.0)
        calls = count_stencils()
        solve_linearized(u0, None, PAR, [0.0, 0.5])
        assert calls == [1] * 9  # J1 and the divergence share one pass

    def test_zero_initial_data_skips_the_check(self, count_stencils, grid16):
        # a zero field passes the check trivially, so a solve from rest takes
        # no stencil for it, and its states are those of the direct operators
        calls = count_stencils()
        states = solve_linearized(VectorField3.zeros(grid16), None, PAR, [0.0, 0.5])
        assert calls == []
        assert not any(c.samples.any() for s in states for c in (*s.u.components, s.p))
        F = solenoidal_pulse_forcing(grid16, width=1.0, t_scale=0.5)
        [state] = solve_linearized(VectorField3.zeros(grid16), F, PAR, [0.2])
        in_solve = len(calls)
        calls.clear()
        u, p = forced_response(F, PAR, 0.2), pressure_field(F.at(0.2), PAR)
        assert in_solve == len(calls) > 0  # the projection's and the pressure's only
        assert [c.samples.tobytes() for c in (*state.u.components, state.p)] == \
            [c.samples.tobytes() for c in (*u.components, p)]

    def test_reduces_to_heat_without_forcing(self, grid32):
        u0 = solenoidal_gaussian(grid32, width=1.0)
        states = solve_linearized(u0, None, PAR, [0.0, 0.5])
        direct = heat_propagate(u0, PAR, 0.5)
        assert max(np.abs(a.samples - b.samples).max()
                   for a, b in zip(states[1].u.components, direct.components)) == 0.0
        assert sup_norm(states[1].p) == 0.0

    def test_reduces_to_forced_from_rest(self):
        g = make_grid(20, 4.0)
        F = solenoidal_pulse_forcing(g, width=1.0, t_scale=0.5)
        states = solve_linearized(VectorField3.zeros(g), F, PAR, [0.2])
        direct = forced_response(F, PAR, 0.2)
        assert max(np.abs(a.samples - b.samples).max()
                   for a, b in zip(states[0].u.components, direct.components)) == 0.0

    def test_rejects_non_solenoidal_initial_data(self, grid32):
        X1, _, _ = grid32.meshgrid()
        r2 = sum(c ** 2 for c in grid32.meshgrid())
        u0 = VectorField3.from_arrays(grid32, X1 * np.exp(-r2 / 2),
                                      np.zeros_like(X1), np.zeros_like(X1))
        with pytest.raises(ValueError, match="solenoidal"):
            solve_linearized(u0, None, PAR, [0.0, 0.5])

    @pytest.mark.parametrize("make_u0,accepted", [
        (lambda g: gradient_pulse_forcing(g).at(0.0), False),
        (lambda g: solenoidal_gaussian(g, width=1.0), True),
        (VectorField3.zeros, True),  # J1 = 0: nothing to compare against
    ], ids=["gradient", "solenoidal", "zero"])
    def test_solenoidal_check(self, grid16, make_u0, accepted):
        u0 = make_u0(grid16)
        if accepted:
            assert len(solve_linearized(u0, None, PAR, [0.0, 0.5])) == 2
        else:
            with pytest.raises(ValueError, match="^u0 is not solenoidal within tolerance$"):
                solve_linearized(u0, None, PAR, [0.0, 0.5])

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.15, 0.25, 0.5, 2.0])
    def test_solenoidal_check_matches_a_separate_pass(self, grid16, alpha):
        # the verdict of the deleted stand-alone check, from divided derivatives:
        # ||div u0|| <= DIV_RTOL J1(u0), on a vortex plus alpha times a gradient
        grad = gradient_pulse_forcing(grid16).at(0.0)
        u0 = solenoidal_gaussian(grid16, width=1.0) + grad * alpha
        div = divergence(u0)
        ratio = np.sqrt(integrate(div, div)) / first_order_diagnostics(u0, 0.0).J1
        assert abs(ratio / stokes.DIV_RTOL - 1) > 1e-3  # clear of the threshold
        if ratio <= stokes.DIV_RTOL:
            assert len(solve_linearized(u0, None, PAR, [0.0, 0.5])) == 2
        else:
            with pytest.raises(ValueError, match="^u0 is not solenoidal within tolerance$"):
                solve_linearized(u0, None, PAR, [0.0, 0.5])

    def test_initial_state_is_a_read_only_view_of_u0(self, count_stencils, grid16):
        u0 = random_solenoidal(grid16, seed=3)
        calls = count_stencils()
        s0 = solve_linearized(u0, None, PAR, [0.0, 0.5])[0]
        assert len(calls) == 9  # the check, which is also s0's first-order pass
        for a, b in zip(s0.u.components, u0.components):
            assert np.shares_memory(a.samples, b.samples)
            assert not a.samples.flags.writeable and b.samples.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.samples[0, 0, 0] = 1.0
        got = s0.first_order
        assert len(calls) == 9
        copied = VectorField3(*(ScalarField(grid16, np.array(c.samples, order="C"))
                                for c in u0.components))
        want = first_order_diagnostics(copied, 0.0)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert s0.diagnostics == sample_diagnostics(copied, 0.0)
        assert s0.first_order is not s0.diagnostics  # cached before the full pass

    def test_f_ordered_u0_moves_the_initial_diagnosis_by_round_off(self, grid16):
        # the t = 0 state keeps u0's layout; only the order of the sums moves
        u0 = random_solenoidal(grid16, seed=5)
        uf = VectorField3(*(ScalarField(grid16, np.asfortranarray(c.samples))
                            for c in u0.components))
        got = solve_linearized(uf, None, PAR, [0.0])[0].diagnostics
        want = sample_diagnostics(u0, 0.0)
        assert (got.V, got.D1) == (want.V, want.D1)
        assert [got.W, got.J1, got.J2] == pytest.approx([want.W, want.J1, want.J2], rel=1e-14)

    def test_unforced_states_share_one_read_only_zero_pressure(self, grid16):
        for u0 in (solenoidal_gaussian(grid16, width=1.0), VectorField3.zeros(grid16)):
            states = solve_linearized(u0, None, PAR, [0.0, 0.25, 0.5])
            p = states[0].p
            assert all(s.p is p for s in states) and not p.samples.any()
            with pytest.raises(ValueError, match="read-only"):
                p.samples += 1.0

    def test_forced_initial_pressure_is_the_forcings(self, count_forcing_samples):
        # p(t) = -rho N * div X(t) at t = 0 too, from the one X(0) that also
        # gives the state its forcing terms
        g, par = make_grid(24, 4.0), FluidParams(0.25, 1.0)
        F = count_forcing_samples(gradient_pulse_forcing(g, width=1.0, amplitude=0.5,
                                                         t_scale=0.5))
        states = solve_linearized(VectorField3.zeros(g), F, par, [0.0, 0.05, 0.1])
        assert count_forcing_samples.times.count(0.0) == 1
        p0 = pressure_field(F.at(0.0), par)
        assert states[0].p.samples.tobytes() == p0.samples.tobytes()
        assert sup_norm(p0) > 0
        assert states[0].forcing_terms(F).norm == np.sqrt(flow_energy(F.at(0.0)))

    def test_rejects_bad_times(self, grid32):
        u0 = solenoidal_gaussian(grid32, width=1.0)
        with pytest.raises(ValueError, match="times"):
            solve_linearized(u0, None, PAR, [0.5, 0.2])
        with pytest.raises(ValueError, match="times"):
            solve_linearized(u0, None, PAR, [-0.1, 0.2])

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_rejects_non_finite_times(self, grid16, t):
        u0 = solenoidal_gaussian(grid16, width=1.0)
        with pytest.raises(ValueError, match="times must be strictly increasing and >= 0, and finite"):
            solve_linearized(u0, None, PAR, [0.0, t])

    def test_superposition_linearity(self):
        g = make_grid(20, 4.0)
        u0 = solenoidal_gaussian(g, width=1.0)
        F = solenoidal_pulse_forcing(g, width=0.8, t_scale=0.5)
        both = solve_linearized(u0, F, PAR, [0.25])[0]
        heat_only = solve_linearized(u0, None, PAR, [0.25])[0]
        forced_only = solve_linearized(VectorField3.zeros(g), F, PAR, [0.25])[0]
        recomposed = heat_only.u + forced_only.u
        assert max(np.abs(a.samples - b.samples).max()
                   for a, b in zip(both.u.components, recomposed.components)) < 1e-12


class TestResidualCheck:
    def test_exact_heat_solution_converges(self):
        reps = []
        for n, dt in ((24, 0.1), (48, 0.05)):
            g = make_grid(n, 8.0)
            u0 = solenoidal_gaussian(g, width=1.0)
            t0 = 0.5
            s0 = FlowState(t0, heat_propagate(u0, PAR, t0), ScalarField.zeros(g))
            s1 = FlowState(t0 + dt, heat_propagate(u0, PAR, t0 + dt), ScalarField.zeros(g))
            reps.append(residual_check(s1, s0, None, PAR))
        assert reps[0].passed and reps[1].passed
        assert reps[1].metadata["relative_to_terms"] < reps[0].metadata["relative_to_terms"]

    def test_zero_state_zero_residual(self, grid16):
        z = VectorField3.zeros(grid16)
        s0 = FlowState(0.0, z, ScalarField.zeros(grid16))
        s1 = FlowState(0.1, z, ScalarField.zeros(grid16))
        r = residual_check(s1, s0, None, PAR)
        assert r.passed and r.lhs == 0.0

    def test_corrupted_state_detected(self, grid32, rng):
        u0 = solenoidal_gaussian(grid32, width=1.0)
        s0 = FlowState(0.5, heat_propagate(u0, PAR, 0.5), ScalarField.zeros(grid32))
        u_bad = heat_propagate(u0, PAR, 0.6)
        noisy = ScalarField(grid32, u_bad.u1.samples + rng.normal(0, 0.5, (32,) * 3))
        s1 = FlowState(0.6, VectorField3(noisy, u_bad.u2, u_bad.u3), ScalarField.zeros(grid32))
        r = residual_check(s1, s0, None, PAR)
        assert not r.passed

    def test_rejects_non_positive_dt(self, grid16):
        z = VectorField3.zeros(grid16)
        s = FlowState(0.1, z, ScalarField.zeros(grid16))
        with pytest.raises(ValueError, match="dt"):
            residual_check(s, s, None, PAR)
