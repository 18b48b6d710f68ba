import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from slowflow import (ScalarField, VectorField3, derive, divergence,
                      first_order_diagnostics, flow_energy, integrate, make_grid,
                      sample_diagnostics, sup_norm)
from slowflow import fields
from slowflow.stokes import FlowState, ForcingField
from slowflow import fieldgen
from slowflow.fieldgen import gaussian_bump, solenoidal_gaussian

PI32 = np.pi ** 1.5  # oracle: (int e^{-r^2} dr)^3 = pi^{3/2}


class TestMakeGrid:
    def test_basic_spacing(self):
        g = make_grid(8, 4.0)
        assert g.h == 1.0
        assert g.n ** 3 == 512
        assert make_grid(64, 8.0).h == 0.25

    def test_cell_centers(self):
        g = make_grid(8, 4.0)
        ax = g.axis()
        assert ax[0] == -4.0 + 0.5
        assert ax[-1] == 4.0 - 0.5

    @pytest.mark.parametrize("n,L", [(7, 4.0), (6, 4.0), (9, 1.0)])
    def test_rejects_odd_or_tiny_n(self, n, L):
        with pytest.raises(ValueError, match="even"):
            make_grid(n, L)

    def test_rejects_bad_L(self):
        with pytest.raises(ValueError, match="L"):
            make_grid(16, 0.0)
        with pytest.raises(ValueError, match="L"):
            make_grid(16, -2.0)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            make_grid(16.0, 4.0)


class TestIntegrate:
    def test_constant_field_gives_volume(self):
        g = make_grid(8, 4.0)
        one = ScalarField(g, np.ones((8, 8, 8)))
        assert integrate(one, one) == pytest.approx(512.0)

    def test_gaussian_matches_radial_oracle(self):
        g = make_grid(64, 8.0)
        U = gaussian_bump(g, width=1.0)
        assert integrate(U, U) == pytest.approx(PI32, abs=1e-6)

    def test_grid_mismatch(self, gauss32):
        other = gaussian_bump(make_grid(16, 8.0), width=1.0)
        with pytest.raises(ValueError, match="grid mismatch"):
            integrate(gauss32, other)

    def test_symmetric_and_bilinear(self, grid32, rng):
        a = ScalarField(grid32, rng.standard_normal((32,) * 3))
        b = ScalarField(grid32, rng.standard_normal((32,) * 3))
        c = ScalarField(grid32, rng.standard_normal((32,) * 3))
        assert integrate(a, b) == integrate(b, a)
        lhs = integrate(a + 2.0 * b, c)
        rhs = integrate(a, c) + 2.0 * integrate(b, c)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDerive:
    def test_linear_field_exact(self):
        g = make_grid(16, 4.0)
        U = ScalarField.from_function(g, lambda x, y, z: x)
        d = derive(U, 1)
        np.testing.assert_allclose(d.samples, 1.0, atol=1e-12)

    def test_sine_matches_analytic_with_h2_rate(self):
        errs = []
        for n in (32, 64):
            g = make_grid(n, 8.0)
            U = ScalarField.from_function(g, lambda x, y, z: np.sin(x))
            d = derive(U, 1)
            X1, _, _ = g.meshgrid()
            interior = (slice(2, n - 2),) * 3
            errs.append(np.abs(d.samples - np.cos(X1))[interior].max())
        assert errs[0] / errs[1] > 3.0  # O(h^2)

    def test_second_derivative(self):
        g = make_grid(48, 8.0)
        U = ScalarField.from_function(g, lambda x, y, z: x * x)
        d2 = derive(U, 1, order=2)
        np.testing.assert_allclose(d2.samples, 2.0, atol=1e-9)

    def test_invalid_axis_and_order(self, gauss32):
        with pytest.raises(ValueError, match="order"):
            derive(gauss32, 1, order=3)
        with pytest.raises(ValueError, match="axis"):
            derive(gauss32, 4)


class TestDivergence:
    def test_rotational_field_is_free(self):
        g = make_grid(16, 4.0)
        u = VectorField3.from_functions(g, lambda x, y, z: y,
                                        lambda x, y, z: -x,
                                        lambda x, y, z: 0.0 * x)
        np.testing.assert_allclose(divergence(u).samples, 0.0, atol=1e-12)

    def test_linear_field(self):
        g = make_grid(16, 4.0)
        u = VectorField3.from_functions(g, lambda x, y, z: x,
                                        lambda x, y, z: y,
                                        lambda x, y, z: z)
        np.testing.assert_allclose(divergence(u).samples, 3.0, atol=1e-11)

    def test_curl_is_solenoidal_at_h2_rate(self):
        sups = []
        for n in (24, 48):
            g = make_grid(n, 8.0)
            u = solenoidal_gaussian(g, width=1.2)
            sups.append(sup_norm(divergence(u)))
        assert sups[0] / sups[1] > 3.0


class TestSupNorm:
    def test_zero(self, grid32):
        assert sup_norm(VectorField3.zeros(grid32)) == 0.0

    def test_sine_component(self):
        g = make_grid(64, 8.0)
        u = VectorField3.from_functions(g, lambda x, y, z: np.sin(x),
                                        lambda x, y, z: 0 * x, lambda x, y, z: 0 * x)
        assert sup_norm(u) == pytest.approx(1.0, abs=0.01)

    def test_gaussian_peak_at_nearest_center(self, grid32, gauss32):
        xc = grid32.h / 2.0
        expected = np.exp(-3 * xc * xc / 2.0)
        assert sup_norm(gauss32) == pytest.approx(expected, rel=1e-12)


class TestSeminorm:
    def test_zero(self, grid32):
        assert first_order_diagnostics(VectorField3.zeros(grid32), 0.0).J1 == 0.0
        assert sample_diagnostics(VectorField3.zeros(grid32), 0.0).J2 == 0.0

    def test_sine_gradient_energy(self):
        # J1^2 of (sin x1, 0, 0) ~ k^2 * W for k = 1
        g = make_grid(64, 8.0)
        u = VectorField3.from_functions(g, lambda x, y, z: np.sin(x),
                                        lambda x, y, z: 0 * x, lambda x, y, z: 0 * x)
        W = flow_energy(u)
        # k = 1; box-edge asymmetry of sin^2 vs cos^2 and the O(h^2) stencil
        # damping both enter at the percent level
        assert first_order_diagnostics(u, 0.0).J1 ** 2 == pytest.approx(W, rel=0.08)

    def test_gaussian_matches_analytic_gradient(self):
        g = make_grid(96, 8.0)
        zero = lambda x, y, z: 0 * x
        u = VectorField3.from_functions(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2),
                                        zero, zero)
        X1, X2, X3 = g.meshgrid()
        r2 = X1 ** 2 + X2 ** 2 + X3 ** 2
        grad_sq = r2 * np.exp(-r2)  # |grad e^{-r^2/2}|^2
        expected = np.sqrt(np.sum(grad_sq) * g.cell_volume)
        assert first_order_diagnostics(u, 0.0).J1 == pytest.approx(expected, rel=0.01)

    def test_absolute_homogeneity(self, grid32, rng):
        comps = [ScalarField(grid32, rng.standard_normal((32,) * 3)) for _ in range(3)]
        u = VectorField3(*comps)
        scaled, s = sample_diagnostics(-2.5 * u, 0.0), sample_diagnostics(u, 0.0)
        for J in ("J1", "J2"):
            assert getattr(scaled, J) == pytest.approx(2.5 * getattr(s, J), rel=1e-12)
        assert sup_norm(-2.5 * u) == pytest.approx(2.5 * sup_norm(u), rel=1e-12)


class TestDiagnostics:
    def test_translation_invariance(self):
        # a compact bump shifted by whole cells gives identical norms
        g = make_grid(32, 8.0)
        u = solenoidal_gaussian(g, width=0.7)
        shifted = VectorField3.from_arrays(
            g, *(np.roll(c.samples, (3, -2, 1), axis=(0, 1, 2)) for c in u.components))
        s0 = sample_diagnostics(u, 0.0)
        s1 = sample_diagnostics(shifted, 0.0)
        assert s1.V == pytest.approx(s0.V, rel=1e-13)
        assert s1.W == pytest.approx(s0.W, rel=1e-12)
        assert s1.J1 == pytest.approx(s0.J1, rel=1e-10)
        assert s1.D1 == pytest.approx(s0.D1, rel=1e-10)

    def test_sample_nonnegative(self, grid32):
        u = solenoidal_gaussian(grid32, width=1.0)
        s = sample_diagnostics(u, 0.5)
        assert s.t == 0.5
        assert min(s.W, s.J1, s.J2, s.V, s.D1) >= 0.0

    def test_finite_enforced(self, grid32):
        bad = np.ones((32,) * 3)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScalarField(grid32, bad)

    def test_component_grid_consistency(self, grid32):
        a = ScalarField.zeros(grid32)
        b = ScalarField.zeros(make_grid(16, 8.0))
        with pytest.raises(ValueError, match="share"):
            VectorField3(a, a, b)


def _brute_force_derivatives(u, m):
    """All ordered m-th derivatives of all components, each built from scratch."""
    out = []
    for c in u.components:
        for a in (1, 2, 3):
            if m == 1:
                out.append(derive(c, a).samples)
                continue
            for b in (1, 2, 3):
                out.append(derive(c, a, order=2).samples if a == b
                           else derive(derive(c, a), b).samples)
    return out


def _gaussian_x(n):
    """u = (e^{-r^2/2}, 0, 0) on [-8, 8]^3."""
    g = make_grid(n, 8.0)
    zero = lambda x, y, z: 0 * x
    return VectorField3.from_functions(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2),
                                       zero, zero)


def _swapped_axis_derive(a, axis, order, h):
    """The stencil as first written (fresh temporaries on a swapped-axis view),
    frozen here as the oracle of the in-place kernel."""
    a = a.swapaxes(0, axis)
    out = np.empty_like(a)
    if order == 1:
        out[1:-1] = (a[2:] - a[:-2]) / (2 * h)
        out[0] = (-3 * a[0] + 4 * a[1] - a[2]) / (2 * h)
        out[-1] = (3 * a[-1] - 4 * a[-2] + a[-3]) / (2 * h)
    else:
        out[1:-1] = (a[2:] - 2 * a[1:-1] + a[:-2]) / h ** 2
        out[0] = (2 * a[0] - 5 * a[1] + 4 * a[2] - a[3]) / h ** 2
        out[-1] = (2 * a[-1] - 5 * a[-2] + 4 * a[-3] - a[-4]) / h ** 2
    return out.swapaxes(0, axis)


def _layouts(rng, n):
    """One n^3 array as C-contiguous, F-contiguous and a sliced (strided) view."""
    base = rng.standard_normal((n + 3,) * 3)
    view = base[1:n + 1, 2:n + 2, :n]
    return {"C": np.ascontiguousarray(view), "F": np.asfortranarray(view), "sliced": view}


def _layout(a):
    return a.flags.c_contiguous, a.flags.f_contiguous, a.strides


class TestDerivativePass:
    @pytest.mark.parametrize("n", [8, 10, 24, 40])
    def test_in_place_stencil_matches_swapped_axis_formula(self, rng, n):
        h = 0.7 / n
        for name, a in _layouts(rng, n).items():
            for axis in range(3):
                for order in (1, 2):
                    want = _swapped_axis_derive(a, axis, order, h)
                    got = fields._derive_array(a, axis, order, h)
                    np.testing.assert_array_equal(got, want, err_msg=f"{name} {axis} {order}")
                    assert _layout(got) == _layout(want), (name, axis, order)

    def test_norms_allocate_one_workspace(self, rng):
        # 2 arrays: the first difference and one second-order difference; a 3D
        # temporary per stencil or per reduction would push the peak past 3 n^3
        n = 40
        u = VectorField3.from_arrays(make_grid(n, 5.0),
                                     *(rng.standard_normal((n,) * 3) for _ in range(3)))
        fields._norms(u, 2)
        tracemalloc.start()
        try:
            fields._norms(u, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n ** 3 * 8

    def test_reductions_run_as_over_fresh_arrays(self, rng):
        # against sums over freshly built, divided derivatives: D1, W and the
        # speed are exact (rounded division is monotone), and J1, J2, scaled
        # once at the end, agree to round-off on values spread over 12 decades
        g = make_grid(24, 3.0)
        arrays = [rng.standard_normal((24,) * 3) * 10.0 ** rng.uniform(-6, 6, (24,) * 3)
                  for _ in range(3)]
        for conv in (np.ascontiguousarray, np.asfortranarray):
            u = VectorField3.from_arrays(g, *(conv(a) for a in arrays))
            s1 = s2 = D1 = 0.0
            for c in u.components:
                firsts = [_swapped_axis_derive(c.samples, ax, 1, g.h) for ax in range(3)]
                for d in firsts:
                    s1 += np.sum(d ** 2)
                    D1 = max(D1, float(np.abs(d).max()))
                for ax in range(3):
                    s2 += np.sum(_swapped_axis_derive(c.samples, ax, 2, g.h) ** 2)
                for ax, bx in ((0, 1), (0, 2), (1, 2)):
                    s2 += 2 * np.sum(_swapped_axis_derive(firsts[ax], bx, 1, g.h) ** 2)
            (J1, J2), got_D1 = fields._norms(u, 2)
            assert J1 == pytest.approx(np.sqrt(s1 * g.cell_volume), rel=1e-13, abs=0)
            assert J2 == pytest.approx(np.sqrt(s2 * g.cell_volume), rel=1e-13, abs=0)
            assert got_D1 == D1
            assert flow_energy(u) == float(sum(np.sum(c.samples ** 2) for c in u.components)
                                           * g.cell_volume)
            np.testing.assert_array_equal(u.speed_squared(),
                                          sum(c.samples ** 2 for c in u.components))

    @pytest.mark.parametrize("n", [24, 40])
    @pytest.mark.parametrize("decades", [0, 12])
    def test_energy_and_speed_take_one_squaring_pass(self, rng, n, decades):
        # W and V from one squaring pass per component are bit for bit those of
        # flow_energy and sup_norm, and so are a forcing's ||X|| and sup|X|,
        # also with components of different layouts
        g = make_grid(n, 3.0)
        arrays = [rng.standard_normal((n,) * 3) * 10.0 ** rng.uniform(-decades / 2, decades / 2,
                                                                         (n,) * 3)
                  for _ in range(3)]
        for layouts in ((np.ascontiguousarray,) * 3, (np.asfortranarray,) * 3,
                        (np.asfortranarray, np.ascontiguousarray, np.asfortranarray)):
            u = VectorField3.from_arrays(g, *(f(a) for f, a in zip(layouts, arrays)))
            s = sample_diagnostics(u, 0.0)
            assert s.W == flow_energy(u)
            assert s.V == sup_norm(u)
            X = ForcingField(g, lambda t: u)
            terms = FlowState(0.0, VectorField3.zeros(g), ScalarField.zeros(g)).forcing_terms(X)
            assert terms.norm == np.sqrt(flow_energy(u)) and terms.sup == sup_norm(u)

    @pytest.mark.parametrize("n", [16, 24, 40])
    @pytest.mark.parametrize("decades", [0, 12])
    def test_first_order_diagnostics_equal_the_full_pass_bit_for_bit(self, rng, n, decades):
        g = make_grid(n, 3.0)
        u = VectorField3.from_arrays(g, *(
            rng.standard_normal((n,) * 3) * 10.0 ** rng.uniform(-decades / 2, decades / 2, (n,) * 3)
            for _ in range(3)))
        first, full = first_order_diagnostics(u, 0.25), sample_diagnostics(u, 0.25)
        assert first._fields == ("t", "W", "J1", "V", "D1")
        assert all(getattr(first, k) == getattr(full, k) for k in first._fields)

    def test_diagnostics_do_not_depend_on_the_blas_thread_count(self):
        # a BLAS dot product sums in an order set by its thread count; on 40^3
        # values spread over 12 decades that changes the last bits of J1 or J2
        script = ("import numpy as np; from slowflow import VectorField3, make_grid, "
                  "sample_diagnostics; rng = np.random.default_rng(0); "
                  "u = VectorField3.from_arrays(make_grid(40, 3.0), *(rng.standard_normal("
                  "(40,) * 3) * 10.0 ** rng.uniform(-6, 6, (40,) * 3) for _ in range(3))); "
                  "print([float(x).hex() for x in sample_diagnostics(u, 0.0)])")
        src = str(Path(fields.__file__).parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_matches_brute_force_oracle(self, rng):
        g = make_grid(24, 3.0)
        u = VectorField3.from_arrays(g, *(rng.standard_normal((24,) * 3) for _ in range(3)))
        vol = g.cell_volume
        J = {m: np.sqrt(sum(np.sum(d ** 2) for d in _brute_force_derivatives(u, m)) * vol)
             for m in (1, 2)}
        D1 = max(np.abs(d).max() for d in _brute_force_derivatives(u, 1))
        s, first = sample_diagnostics(u, 0.25), first_order_diagnostics(u, 0.25)
        assert s.W == pytest.approx(sum(np.sum(c.samples ** 2) for c in u.components) * vol,
                                    rel=1e-13)
        assert s.V == pytest.approx(np.sqrt(u.speed_squared().max()), rel=1e-13)
        assert s.J1 == pytest.approx(J[1], rel=1e-13)
        assert s.J2 == pytest.approx(J[2], rel=1e-13)
        assert s.D1 == pytest.approx(D1, rel=1e-13)
        assert first.J1 == pytest.approx(J[1], rel=1e-13)
        assert first.D1 == pytest.approx(D1, rel=1e-13)
        # each stencil acts along its axis in place of axis 0 of a transposed
        # copy: same values, and the result keeps the input's C layout
        a = u.u1.samples
        for axis in range(3):
            for order in (1, 2):
                got = fields._derive_array(a, axis, order, g.h)
                moved = np.ascontiguousarray(np.moveaxis(a, axis, 0))
                want = np.moveaxis(fields._derive_array(moved, 0, order, g.h), 0, axis)
                assert got.flags.c_contiguous
                np.testing.assert_array_equal(got, want)

    def test_j2_matches_closed_form_at_h2_rate(self):
        # sum_ab int (d_a d_b f)^2 = int (lap f)^2 = (15/4) pi^{3/2} for
        # f = e^{-r^2/2}; counting each mixed derivative once reads ~10% low
        exact = np.sqrt(15.0 / 4.0 * PI32)
        errs = [abs(sample_diagnostics(_gaussian_x(n), 0.0).J2 / exact - 1) for n in (64, 96)]
        assert errs[1] < 0.02
        assert errs[0] / errs[1] > 2.0

    def test_d1_matches_closed_form(self):
        u = _gaussian_x(96)
        X1, X2, X3 = u.grid.meshgrid()
        e = np.exp(-(X1 ** 2 + X2 ** 2 + X3 ** 2) / 2)
        exact = max(np.abs(X * e).max() for X in (X1, X2, X3))  # |d_i e^{-r^2/2}|
        assert sample_diagnostics(u, 0.0).D1 == pytest.approx(exact, rel=0.015)

    def test_each_distinct_derivative_is_built_once(self, count_stencils, grid32):
        u = solenoidal_gaussian(grid32, width=1.0)
        calls = count_stencils()
        sample_diagnostics(u, 0.0)
        assert len(calls) == 27  # per component: 3 first, 3 pure, 3 mixed
        calls.clear()
        first_order_diagnostics(u, 0.0)
        assert calls == [1] * 9


def _curl_gaussian_by_meshgrid(grid, width, center, axis_vec, amplitude):
    # frozen copy of the full-meshgrid sampler the broadcast one replaced
    X1, X2, X3 = grid.meshgrid()
    cx, cy, cz = center
    dx, dy, dz = X1 - cx, X2 - cy, X3 - cz
    g = amplitude * np.exp(-(dx ** 2 + dy ** 2 + dz ** 2) / (2.0 * width ** 2))
    gx, gy, gz = -dx / width ** 2 * g, -dy / width ** 2 * g, -dz / width ** 2 * g
    e1, e2, e3 = axis_vec
    return (gy * e3 - gz * e2, gz * e1 - gx * e3, gx * e2 - gy * e1)


def _laplacian_curl_by_meshgrid(grid, width, center, axis_vec, amplitude):
    # frozen copy of the full-meshgrid sampler the broadcast one replaced
    X1, X2, X3 = grid.meshgrid()
    cx, cy, cz = center
    dx, dy, dz = X1 - cx, X2 - cy, X3 - cz
    r2 = dx ** 2 + dy ** 2 + dz ** 2
    w2 = width ** 2
    g = amplitude * np.exp(-r2 / (2.0 * w2))
    lap_g_over_g = r2 / w2 ** 2 - 3.0 / w2
    gx = (2.0 * dx / w2 ** 2 - lap_g_over_g * dx / w2) * g
    gy = (2.0 * dy / w2 ** 2 - lap_g_over_g * dy / w2) * g
    gz = (2.0 * dz / w2 ** 2 - lap_g_over_g * dz / w2) * g
    e1, e2, e3 = axis_vec
    return (gy * e3 - gz * e2, gz * e1 - gx * e3, gx * e2 - gy * e1)


def _gradient_pulse_by_meshgrid(grid, width, amplitude):
    # frozen copy of the full-meshgrid X(0) of gradient_pulse_forcing
    X1, X2, X3 = grid.meshgrid()
    phi = amplitude * np.exp(-(X1 ** 2 + X2 ** 2 + X3 ** 2) / (2.0 * width ** 2))
    return (-X1 / width ** 2 * phi, -X2 / width ** 2 * phi, -X3 / width ** 2 * phi)


def _bump_by_meshgrid(grid, width, center, amplitude):
    # frozen copy of gaussian_bump on full coordinate arrays
    cx, cy, cz = center
    w2 = 2.0 * width * width
    return ScalarField.from_function(grid, lambda x, y, z: amplitude * np.exp(
        -((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / w2)).samples


def _ramp_sample(shape, lap_shape, nu, t_ramp, t):
    # frozen copy of the hand-written ramped_forcing sampler
    q = np.sin(0.5 * np.pi * t / t_ramp) ** 2
    qp = (0.5 * np.pi / t_ramp) * np.sin(np.pi * t / t_ramp)
    return [qp * s.samples - nu * q * l.samples
            for s, l in zip(shape.components, lap_shape.components)]


def _pulse_sample(arrays, t_scale, t):
    # frozen copy of the hand-written pulse sampler
    q = np.exp(-t / t_scale)
    return [q * a for a in arrays]


@pytest.mark.parametrize("n", [24, 40, 64])
def test_broadcast_samplers_equal_the_meshgrid_formulas(n):
    # each cell takes the same operations in the same order from 1D
    # coordinates as from full coordinate arrays, and from the terms of
    # _separable as from the hand-written samplers: equal bit for bit
    g = make_grid(n, 4.0)
    args = (g, 0.9, (0.3, -0.2, 0.1), (0.2, 0.5, -0.84), 1.3)
    for sampler, frozen in ((fieldgen._curl_gaussian_arrays, _curl_gaussian_by_meshgrid),
                            (fieldgen._gaussian_laplacian_curl, _laplacian_curl_by_meshgrid)):
        for a, b in zip(sampler(*args), frozen(*args)):
            assert a.shape == (n,) * 3 and a.flags.c_contiguous
            np.testing.assert_array_equal(a, b)
    for width, center, amplitude in ((0.9, (0.3, -0.2, 0.1), 1.3), (1.0, (0.0, 0.0, 0.0), -0.7)):
        got = gaussian_bump(g, width, center, amplitude).samples
        assert got.tobytes() == _bump_by_meshgrid(g, width, center, amplitude).tobytes()
    X = fieldgen.gradient_pulse_forcing(g, width=0.8, amplitude=1.2, t_scale=0.5).at(0.0)
    for c, b in zip(X.components, _gradient_pulse_by_meshgrid(g, 0.8, 1.2)):
        np.testing.assert_array_equal(c.samples, b)
    shape = solenoidal_gaussian(g, width=0.9, axis_vec=(0.2, 0.5, -0.84))
    lap = fieldgen.solenoidal_gaussian_laplacian(g, width=0.9, axis_vec=(0.2, 0.5, -0.84))
    ramp = fieldgen.ramped_forcing(g, shape, lap, 0.37, 0.4)
    grad = fieldgen.gradient_pulse_forcing(g, width=0.8, amplitude=1.2, t_scale=0.5)
    vortex = fieldgen.solenoidal_pulse_forcing(g, width=0.9, amplitude=1.3, t_scale=0.7,
                                               axis_vec=(0.2, 0.5, -0.84))
    grad_0 = _gradient_pulse_by_meshgrid(g, 0.8, 1.2)
    vortex_0 = _curl_gaussian_by_meshgrid(g, 0.9, (0.0, 0.0, 0.0), (0.2, 0.5, -0.84), 1.3)
    for t in (0.013, 0.15, 0.4, 1.7):
        for F, want in ((ramp, _ramp_sample(shape, lap, 0.37, 0.4, t)),
                        (grad, _pulse_sample(grad_0, 0.5, t)),
                        (vortex, _pulse_sample(vortex_0, 0.7, t))):
            for c, b in zip(F.at(t).components, want):
                assert c.samples.tobytes() == b.tobytes()


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan])
def test_gaussians_reject_a_width_that_is_not_positive(grid32, width):
    # width -1 gave the width-1 bump, width 0 an all-zero field after 0/0
    for make in (gaussian_bump, solenoidal_gaussian, fieldgen.solenoidal_gaussian_laplacian):
        with pytest.raises(ValueError, match="^width must be > 0"):
            make(grid32, width)


def test_sparse_meshgrid_broadcasts_to_the_full_one(grid32):
    for s, f in zip(grid32.meshgrid(sparse=True), grid32.meshgrid()):
        np.testing.assert_array_equal(np.broadcast_to(s, f.shape), f)
