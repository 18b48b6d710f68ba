import numpy as np
import pytest

from slowflow import (ScalarField, VectorField3, derive, divergence, integrate,
                      make_grid)
from slowflow.analysis import (SequenceProbe, convolution_bound_check,
                               hardy_check, lower_semicontinuity_check,
                               quasi_derivative_residual,
                               quasi_divergence_residual,
                               representation_reconstruct, schwarz_check,
                               strong_mean_distance, time_minkowski_check,
                               weak_pairing_probe)
from slowflow.convolve import convolve_offsets, dipole_kernels
from slowflow.fieldgen import (gaussian_bump, gaussian_mixture, sin_probe,
                               solenoidal_gaussian)
from slowflow.mollifier import kernel_on_grid, make_kernel, mollify

PI32 = np.pi ** 1.5


class TestSchwarz:
    def test_equality_for_proportional(self, gauss32):
        r = schwarz_check(gauss32, 2.0 * gauss32)
        assert r.passed
        assert r.margin == pytest.approx(0.0, abs=1e-9 * r.rhs)

    def test_orthogonal_pair(self, grid32):
        odd = ScalarField.from_function(grid32, lambda x, y, z: x * np.exp(-(x * x + y * y + z * z) / 2))
        even = gaussian_bump(grid32, width=1.0)
        r = schwarz_check(odd, even)
        assert r.passed
        assert abs(r.lhs) <= 1e-20 * r.rhs

    def test_random_pairs_always_pass(self, grid16, rng):
        for _ in range(10):
            a = ScalarField(grid16, rng.standard_normal((16,) * 3))
            b = ScalarField(grid16, rng.standard_normal((16,) * 3))
            r = schwarz_check(a, b)
            assert r.passed
            assert r.margin > 0


class TestTimeMinkowski:
    def test_time_constant_equality(self, grid16):
        f = gaussian_bump(grid16, width=0.8)
        times = [0.0, 0.5, 1.0, 1.5]
        r = time_minkowski_check([f] * 4, times)
        assert r.passed
        assert r.lhs == pytest.approx(r.rhs, rel=1e-12)

    def test_separable_positive_profile_equality(self, grid16):
        f = gaussian_bump(grid16, width=0.8)
        times = np.linspace(0.0, 1.0, 5)
        fields = [ScalarField(grid16, (1.0 + t * t) * f.samples) for t in times]
        r = time_minkowski_check(fields, times)
        assert r.passed
        assert r.lhs == pytest.approx(r.rhs, rel=1e-12)

    def test_sign_flip_strict_inequality(self, grid16):
        f = gaussian_bump(grid16, width=0.8)
        times = np.linspace(0.0, 1.0, 5)
        fields = [ScalarField(grid16, np.cos(3 * np.pi * t) * f.samples) for t in times]
        r = time_minkowski_check(fields, times)
        assert r.passed
        assert r.margin > 0.1 * r.rhs

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            time_minkowski_check([], [])

    def test_mixed_grids_rejected(self, grid16):
        # same n, other L: the samples would add, the cell volumes differ
        f = gaussian_bump(grid16, width=0.8)
        g = gaussian_bump(make_grid(16, 5.0), width=0.8)
        with pytest.raises(ValueError, match="grid mismatch"):
            time_minkowski_check([f, g], [0.0, 1.0])

    @pytest.mark.parametrize("times", [[1.0, 0.0], [0.0, 0.5, 0.5]])
    def test_times_must_strictly_increase(self, grid16, times):
        # [1, 0] would read lhs = ||f|| against rhs = -||f||, a false FAIL
        f = gaussian_bump(grid16, width=0.8)
        with pytest.raises(ValueError, match="strictly increasing"):
            time_minkowski_check([f] * len(times), times)


class TestConvolutionBound:
    def test_mollifier_kernel_contracts(self, grid32, gauss32):
        W = kernel_on_grid(make_kernel(1.0), grid32)
        r = convolution_bound_check(W, gauss32)
        assert r.passed
        # unit kernel mass: the convolution cannot gain energy
        assert r.lhs <= integrate(gauss32, gauss32) * (1 + 1e-12)

    def test_zero_field(self, grid32):
        W = kernel_on_grid(make_kernel(1.0), grid32)
        r = convolution_bound_check(W, ScalarField.zeros(grid32))
        assert r.passed
        assert r.lhs == 0.0

    def test_point_mass_limit_saturates(self):
        g = make_grid(48, 4.0)
        U = gaussian_bump(g, width=1.0)
        W = kernel_on_grid(make_kernel(2.5 * g.h), g)
        r = convolution_bound_check(W, U)
        assert r.passed
        assert r.lhs >= 0.9 * r.rhs  # margin shrinks as the kernel sharpens

    def test_rejects_non_integrable(self, gauss32):
        bad = np.ones((5, 5, 5))
        bad[2, 2, 2] = np.inf
        with pytest.raises(ValueError, match="integrable"):
            convolution_bound_check(bad, gauss32)


class TestStrongMeanDistance:
    def test_identical_is_zero(self, gauss32):
        assert strong_mean_distance(gauss32, gauss32) == 0.0

    def test_constant_offset(self, grid16):
        U = gaussian_bump(grid16, width=0.8)
        Us = ScalarField(grid16, U.samples + 0.25)
        vol = (2 * grid16.L) ** 3
        assert strong_mean_distance(Us, U) == pytest.approx(0.25 ** 2 * vol, rel=1e-12)

    def test_mollified_distances_decrease(self):
        g = make_grid(64, 4.0)
        U = gaussian_bump(g, width=0.8)
        d = [strong_mean_distance(mollify(U, make_kernel(e)), U) for e in (1.0, 0.5, 0.25)]
        assert d[0] > d[1] > d[2] > 0


class TestWeakPairing:
    def _family(self, grid, indices):
        return [SequenceProbe("sin", n, sin_probe(grid, n)) for n in indices]

    def test_oscillatory_pairings_decay(self):
        g = make_grid(128, 2.0)
        A = gaussian_bump(g, width=0.35, center=(0.4, 0.2, -0.3))
        res = weak_pairing_probe(self._family(g, [1, 2, 4, 8, 16]), A)
        mags = np.abs(res.pairings)
        ns = np.array([1, 2, 4, 8, 16])
        slope = np.polyfit(np.log(ns), np.log(mags), 1)[0]
        assert slope <= -0.8
        assert res.norms_bounded

    def test_constant_family(self, grid16):
        U = gaussian_bump(grid16, width=0.8)
        A = gaussian_bump(grid16, width=1.0, center=(0.3, 0.0, 0.0))
        fam = [SequenceProbe("const", n, U) for n in (1, 2, 3)]
        res = weak_pairing_probe(fam, A)
        assert np.ptp(res.pairings) == 0.0
        assert res.pairings[0] == pytest.approx(integrate(U, A))

    def test_vanishing_perturbation(self, grid16, rng):
        U = gaussian_bump(grid16, width=0.8)
        A = gaussian_bump(grid16, width=1.0)
        noise = ScalarField(grid16, rng.standard_normal((16,) * 3))
        fam = [SequenceProbe("pert", n, U + (1.0 / n) * noise) for n in (1, 2, 4, 8, 16)]
        res = weak_pairing_probe(fam, A)
        target = integrate(U, A)
        errs = np.abs(np.array(res.pairings) - target)
        assert errs[-1] < errs[0] / 10

    def test_strictly_increasing_indices_required(self, grid16):
        U = gaussian_bump(grid16, width=0.8)
        fam = [SequenceProbe("bad", n, U) for n in (1, 2, 2)]
        with pytest.raises(ValueError, match="increasing"):
            weak_pairing_probe(fam, U)


class TestLowerSemicontinuity:
    def test_identical_family_equality(self, grid16):
        U = gaussian_bump(grid16, width=0.8)
        fam = [SequenceProbe("id", n, U) for n in (1, 2, 3)]
        r = lower_semicontinuity_check(fam, U)
        assert r.passed
        assert r.lhs == pytest.approx(r.rhs, rel=1e-12)

    def test_oscillation_energy_margin(self):
        g = make_grid(64, 2.0)
        U = gaussian_bump(g, width=0.4)
        fam = [SequenceProbe("osc", n, U + sin_probe(g, n)) for n in (4, 8, 16, 32)]
        r = lower_semicontinuity_check(fam, U)
        assert r.passed
        # margin approaches the oscillation energy of sin over the box
        osc = integrate(sin_probe(g, 32), sin_probe(g, 32))
        assert r.margin == pytest.approx(osc, rel=0.15)

    def test_strong_convergence_shrinks_margin(self):
        # a strongly converging family saturates the inequality: the margin of
        # the finite-tail proxy tends to zero as the tail deepens
        g = make_grid(128, 4.0)
        U = gaussian_bump(g, width=0.8)
        eps_all = (2.0, 1.0, 0.5, 0.25, 0.125)
        probes = [SequenceProbe("moll", k, mollify(U, make_kernel(eps)))
                  for k, eps in enumerate(eps_all, start=1)]
        margins = [abs(lower_semicontinuity_check(probes[:m], U).margin)
                   for m in (3, 4, 5)]
        assert margins[0] > margins[1] > margins[2]
        assert margins[2] <= 0.1 * integrate(U, U)

    def test_needs_three_probes(self, grid16):
        U = gaussian_bump(grid16, width=0.8)
        with pytest.raises(ValueError, match="3"):
            lower_semicontinuity_check([SequenceProbe("x", 1, U)], U)

    def test_grid_mismatch_rejected(self, grid16):
        U = gaussian_bump(grid16, width=0.8)
        V = gaussian_bump(make_grid(16, 5.0), width=0.8)
        fam = [SequenceProbe("id", n, V) for n in (1, 2, 3)]
        with pytest.raises(ValueError, match="grid mismatch"):
            lower_semicontinuity_check(fam, U)


class TestRepresentation:
    def test_zero_reconstructs_zero(self, grid16):
        rec, rep = representation_reconstruct(ScalarField.zeros(grid16))
        assert np.all(rec.samples == 0.0)
        assert rep.passed

    def test_gaussian_within_budget(self):
        g = make_grid(32, 8.0)
        _, rep = representation_reconstruct(gaussian_bump(g, width=1.0))
        assert rep.passed
        assert rep.lhs < 0.10

    def test_matches_sum_of_dipole_convolutions(self, grid16):
        U = gaussian_bump(grid16, width=0.8, center=(0.3, 0.2, -0.1))
        ref = sum(convolve_offsets(derive(U, ax + 1).samples, K, grid16.h)
                  for ax, K in enumerate(dipole_kernels(grid16)))
        rec, _ = representation_reconstruct(U)
        np.testing.assert_allclose(rec.samples, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


class TestHardy:
    def test_gaussian_matches_radial_oracle(self):
        # oracle values by one-dimensional radial quadrature:
        # lhs -> 2 pi^{3/2}, rhs -> 6 pi^{3/2}
        g = make_grid(128, 8.0)
        r = hardy_check(gaussian_bump(g, width=1.0))
        assert r.passed
        assert r.lhs == pytest.approx(2 * PI32, rel=0.01)
        assert r.rhs == pytest.approx(6 * PI32, rel=0.01)
        assert 3 * r.lhs / r.rhs == pytest.approx(1.0, rel=0.01)

    def test_zero_field(self, grid16):
        r = hardy_check(ScalarField.zeros(grid16))
        assert r.passed
        assert r.lhs == 0.0 and r.rhs == 0.0

    def test_random_mixtures_pass(self, rng):
        g = make_grid(48, 8.0)
        for _ in range(20):
            u = gaussian_mixture(g, rng, n_bumps=3, width_range=(0.7, 1.3))
            assert hardy_check(u).passed


class TestQuasiDerivatives:
    def test_discrete_derivative_near_exact(self):
        g = make_grid(32, 6.0)
        U = gaussian_bump(g, width=0.9)
        a = gaussian_bump(g, width=0.8, center=(0.3, -0.2, 0.4))
        res = quasi_derivative_residual(U, derive(U, 1), 1, a)
        # discrete integration by parts is exact up to boundary noise
        assert abs(res) <= 1e-10

    def test_analytic_derivative_h2_rate(self):
        vals = []
        for n in (24, 48):
            g = make_grid(n, 6.0)
            X1, _, _ = g.meshgrid()
            U = gaussian_bump(g, width=0.9)
            dU = ScalarField(g, -(X1 / 0.9 ** 2) * U.samples)
            a = gaussian_bump(g, width=0.8, center=(0.3, -0.2, 0.4))
            vals.append(abs(quasi_derivative_residual(U, dU, 1, a)))
        assert vals[0] / vals[1] > 3.0

    def test_perturbed_derivative_detected(self):
        g = make_grid(24, 6.0)
        U = gaussian_bump(g, width=0.9)
        a = gaussian_bump(g, width=0.8)
        one = ScalarField(g, np.ones((24,) * 3))
        wrong = derive(U, 1) + one
        res = quasi_derivative_residual(U, wrong, 1, a)
        vol_a = integrate(one, a)
        assert res == pytest.approx(vol_a, rel=1e-6)

    def test_zero_is_zero(self, grid16):
        z = ScalarField.zeros(grid16)
        assert quasi_derivative_residual(z, z, 1, gaussian_bump(grid16, width=0.8)) == 0.0

    def test_grid_mismatch(self, grid16, grid32):
        U = gaussian_bump(grid32, width=1.0)
        a = gaussian_bump(grid16, width=0.8)
        with pytest.raises(ValueError, match="grid mismatch"):
            quasi_derivative_residual(U, U, 1, a)


class TestQuasiDivergence:
    def test_discrete_divergence_near_exact(self):
        g = make_grid(32, 6.0)
        u = solenoidal_gaussian(g, width=0.9) + VectorField3.from_functions(
            g,
            lambda x, y, z: np.exp(-(x * x + y * y + z * z)),
            lambda x, y, z: 0 * x, lambda x, y, z: 0 * x)
        a = gaussian_bump(g, width=0.8, center=(0.2, 0.3, -0.1))
        res = quasi_divergence_residual(u, divergence(u), a)
        assert abs(res) <= 1e-10

    def test_solenoidal_with_zero_theta(self):
        vals = []
        for n in (24, 48):
            g = make_grid(n, 6.0)
            u = solenoidal_gaussian(g, width=0.9)
            a = gaussian_bump(g, width=0.8, center=(0.3, 0.2, -0.1))
            vals.append(abs(quasi_divergence_residual(u, ScalarField.zeros(g), a)))
        # The continuous residual is 0 (U is solenoidal); a is off-centre so the
        # discrete O(h^2) term does not cancel by symmetry down to round-off.
        assert vals[1] > 1e-10, f"residual {vals[1]:.3e} is round-off, not an O(h^2) signal"
        assert vals[0] / vals[1] > 3.0  # residual is pure O(h^2) divergence noise

    def test_unit_theta_zero_field(self, grid16):
        a = gaussian_bump(grid16, width=0.8)
        one = ScalarField(grid16, np.ones((16,) * 3))
        res = quasi_divergence_residual(VectorField3.zeros(grid16), one, a)
        assert res == pytest.approx(integrate(one, a), rel=1e-12)
