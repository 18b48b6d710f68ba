import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

from slowflow import ScalarField, VectorField3, convolve, derive, make_grid, mollifier
from slowflow.analysis import convolution_bound_check, representation_reconstruct
from slowflow.convolve import (Octant, SpectralAccumulator, convolve_direct,
                               convolve_offsets, convolver, dipole_kernels,
                               gauss_legendre_cell_average,
                               inverse_square_weights, newton_kernel,
                               offset_lattice)
from slowflow.fieldgen import gaussian_bump, gradient_pulse_forcing
from slowflow.mollifier import make_kernel, mollify, mollify_derivative
from slowflow.stokes import FluidParams, solve_linearized


def test_fft_matches_direct_sum(rng):
    g = make_grid(16, 4.0)
    field = rng.standard_normal((16,) * 3)
    kernel = rng.standard_normal((7, 7, 7))
    a = convolve_offsets(field, kernel, g.h)
    b = convolve_direct(field, kernel, g.h)
    np.testing.assert_allclose(a, b, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("radius", [6, 7])
def test_fft_matches_direct_sum_for_wide_asymmetric_kernels(rng, radius):
    # R = n-2 and n-1 sit at the padding limit P >= n + R; R = 7 has the odd
    # bound n + R = 15 and pads to the even P = 16.  A random kernel has no
    # symmetry that could hide a flipped or shifted window.
    g = make_grid(8, 2.0)
    field = rng.standard_normal((8,) * 3)
    kernel = rng.standard_normal((2 * radius + 1,) * 3)
    a = convolve_offsets(field, kernel, g.h)
    b = convolve_direct(field, kernel, g.h)
    np.testing.assert_allclose(a, b, atol=1e-12 * np.abs(b).max())


def test_kernel_offsets_beyond_the_box_are_dropped(rng):
    # offsets |k| >= n connect no two cells, so a kernel of radius n+1 acts
    # like its central radius-(n-1) part
    g = make_grid(8, 2.0)
    field = rng.standard_normal((8,) * 3)
    kernel = rng.standard_normal((19,) * 3)
    a = convolve_offsets(field, kernel, g.h)
    b = convolve_direct(field, kernel[2:-2, 2:-2, 2:-2], g.h)
    np.testing.assert_allclose(a, b, atol=1e-12 * np.abs(b).max())
    c = convolve_direct(field, kernel, g.h)
    np.testing.assert_allclose(a, c, atol=1e-12 * np.abs(c).max())


def test_convolver_transforms_the_kernel_once(rng, monkeypatch):
    g = make_grid(16, 4.0)
    kernel = rng.standard_normal((9, 9, 9))
    fields = [rng.standard_normal((16,) * 3) for _ in range(3)]
    calls = []
    orig = SpectralAccumulator.kernel_fft
    monkeypatch.setattr(SpectralAccumulator, "kernel_fft",
                        lambda self, k: calls.append(1) or orig(self, k))
    apply = convolver(kernel, g.n, g.h)
    results = [apply(f) for f in fields]
    assert len(calls) == 1
    monkeypatch.undo()
    for f, r in zip(fields, results):
        np.testing.assert_array_equal(r, convolve_offsets(f, kernel, g.h))


def _full_box_convolution(samples, kernel, h):
    """The engine before pruning and centring: full-box rfftn / irfftn of both
    operands zero-padded to P^3, P = next_fast_len(n + R) (odd allowed), then
    the window [R, R + n)."""
    n, R = samples.shape[0], (kernel.shape[0] - 1) // 2
    P = sfft.next_fast_len(n + R)
    out = sfft.irfftn(sfft.rfftn(samples, s=(P,) * 3) * sfft.rfftn(kernel, s=(P,) * 3),
                      s=(P,) * 3)
    keep = slice(R, R + n)
    return out[keep, keep, keep] * h ** 3


@pytest.mark.parametrize("n, radius", [(8, 7), (16, 4), (24, 23)])
def test_pruned_transforms_match_the_full_box_path(rng, n, radius):
    # the engine pads to P = 16, 20 and 48 and keeps [0, n) of a centred
    # kernel; the oracle pads to 15 (odd), 20 and 48 and keeps [R, R + n)
    field = rng.standard_normal((n,) * 3)
    kernel = rng.standard_normal((2 * radius + 1,) * 3)
    a = convolve_offsets(field, kernel, 0.25)
    ref = _full_box_convolution(field, kernel, 0.25)
    np.testing.assert_allclose(a, ref, rtol=0, atol=1e-14 * np.abs(ref).max())


def test_multi_kernel_accumulator_matches_a_sum_of_direct_convolutions(full_lattice):
    # representation_reconstruct sums three dipole convolutions (R = n - 1,
    # P = 16 at n = 8, DST-I along each odd axis) before one inverse transform
    g = make_grid(8, 2.0)
    u = gaussian_bump(g, width=0.5)
    rec, _ = representation_reconstruct(u)
    ref = sum(convolve_direct(derive(u, axis + 1).samples, full_lattice(K), g.h)
              for axis, K in enumerate(dipole_kernels(g)))
    np.testing.assert_allclose(rec.samples, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_repeated_applies_leave_the_kernel_transform_intact(rng, monkeypatch):
    g = make_grid(16, 4.0)
    kernel = rng.standard_normal((9, 9, 9))
    field = rng.standard_normal((16,) * 3)
    kept = []
    orig = SpectralAccumulator.kernel_fft
    monkeypatch.setattr(SpectralAccumulator, "kernel_fft",
                        lambda self, k: kept.append(orig(self, k)) or kept[-1])
    apply = convolver(kernel, g.n, g.h)
    pristine = [(odd, T.copy()) for odd, T in kept[0]]
    first = apply(field)
    for _ in range(3):
        np.testing.assert_array_equal(apply(field), first)
    assert [odd for odd, _ in kept[0]] == [odd for odd, _ in pristine]
    for (_, T), (_, T0) in zip(kept[0], pristine):
        np.testing.assert_array_equal(T, T0)


@pytest.mark.parametrize("shape", [(7, 7, 5), (6, 6, 6), (7, 7), (7, 7, 7, 1)])
def test_kernel_must_be_an_odd_cube(rng, shape):
    # a non-cube kernel would put the FFT window at the wrong offset
    g = make_grid(8, 2.0)
    field = rng.standard_normal((8,) * 3)
    kernel = rng.standard_normal(shape)
    match = "3D cube of odd side.*" + re.escape(str(shape))
    with pytest.raises(ValueError, match=match):
        convolve_offsets(field, kernel, g.h)
    with pytest.raises(ValueError, match=match):
        convolve_direct(field, kernel, g.h)
    with pytest.raises(ValueError, match=match):
        convolution_bound_check(kernel, ScalarField(g, field))


def test_accumulator_rejects_a_kernel_of_another_shape(rng):
    acc = SpectralAccumulator(8, 3, 0.25)
    with pytest.raises(ValueError, match=re.escape("(7, 7, 5)")):
        acc.kernel_fft(rng.standard_normal((7, 7, 5)))


@pytest.mark.parametrize("n, radius", [(24, 23), (24, 5), (40, 1), (64, 63), (8, 7), (14, 13)])
def test_accumulator_pads_tightly(n, radius):
    # the smallest even fast length >= n + R: DCT-I needs an even period, so
    # the odd bounds n + R = 15 and 27 pad to 16 and 28
    P = SpectralAccumulator(n, radius, 0.1).P
    assert P == 2 * sfft.next_fast_len((n + radius + 1) // 2)
    assert P % 2 == 0 and P >= n + radius
    assert all(sfft.next_fast_len(m) != m for m in range(n + radius, P) if m % 2 == 0)


def test_cell_average_exact_for_polynomials():
    assert gauss_legendre_cell_average(lambda x, y, z: 1.0 + 0 * x, np.zeros(3)) == pytest.approx(1.0)
    # int of x^2 over centered unit interval = 1/12
    assert gauss_legendre_cell_average(lambda x, y, z: x * x, np.zeros(3)) == pytest.approx(1.0 / 12.0)


def test_inverse_square_weights_match_exact_cell_averages():
    # the midpoint + curvature form used far from the origin should agree
    # with brute-force cell averages of 1/r^2
    g = make_grid(32, 8.0)
    W = inverse_square_weights(g)
    h = g.h
    i0 = g.n // 2
    for off in [(5, 2, 1), (7, 0, 0), (4, 4, 4), (9, 3, 2)]:
        center = (np.array(off) + 0.5) * h
        exact = gauss_legendre_cell_average(
            lambda x, y, z: 1.0 / (x * x + y * y + z * z), center / h, m=24) / (h * h)
        got = W[i0 + off[0], i0 + off[1], i0 + off[2]]
        assert got == pytest.approx(exact, rel=2e-5)


def test_dipole_kernels_are_odd(full_lattice):
    g = make_grid(12, 3.0)  # small but valid even grid
    Ks = dipole_kernels(g)
    for axis, K in enumerate(Ks):
        assert K.odd_axis == axis and K.samples.shape == (g.n,) * 3
        assert not K.samples.take(0, axis).any()  # the odd axis's offset-0 plane
        F = full_lattice(K)
        np.testing.assert_allclose(F + np.flip(F, axis=axis), 0.0, atol=1e-15)
        for other in {0, 1, 2} - {axis}:
            np.testing.assert_array_equal(F, np.flip(F, axis=other))
        c = g.n - 1
        assert F[c, c, c] == 0.0


def test_newton_kernel_symmetric_and_positive(full_lattice):
    g = make_grid(12, 3.0)
    N = newton_kernel(g)
    assert N.odd_axis is None and N.samples.shape == (g.n,) * 3
    assert np.all(N.samples > 0)
    F = full_lattice(N)
    for axis in range(3):
        np.testing.assert_allclose(F, np.flip(F, axis=axis), atol=1e-15)
    # far cells agree with the point kernel
    c = g.n - 1
    r = 5 * g.h
    assert F[c + 5, c, c] == N.samples[5, 0, 0] == pytest.approx(1.0 / (4 * np.pi * r), rel=1e-4)


@pytest.mark.parametrize("n", [8, 14, 22, 24, 28])
def test_octant_spectra_match_rfftn_of_the_centred_full_lattice(full_lattice, n):
    # formerly odd P = 15, 27 and 48; now P = 16, 28 and 48, and P/2 = 14, 22
    # and 28 carry a factor 7 or 11.  Each offset m of the full lattice goes to
    # index m mod P of the box, one rfftn transforms it.  The engine keeps the
    # frequencies 0..P/2 of each axis as one real octant T, the DFT being T
    # times -i per odd axis (the other frequencies mirror these)
    g = make_grid(n, 2.0)
    acc = SpectralAccumulator(n, n - 1, g.h)
    M = acc.P // 2
    pos = np.arange(-(n - 1), n) % acc.P
    for K in [newton_kernel(g)] + dipole_kernels(g):
        box = np.zeros((acc.P,) * 3)
        box[np.ix_(pos, pos, pos)] = full_lattice(K)
        ref = sfft.rfftn(box)[:M + 1, :M + 1]
        [(odd, got)] = acc.kernel_fft(K)
        assert odd == tuple(ax == K.odd_axis for ax in range(3))
        assert got.shape == ref.shape and np.isrealobj(got)
        np.testing.assert_allclose((-1j) ** sum(odd) * got, ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())


def _kernel_families(g, R, rng):
    """Newton, the 3 dipoles, a mollifier kernel, its d/dx1 and d2/dx1dx3
    kernels and a random cube, all of radius R, with their parity-part counts."""
    octants = [Octant(K.samples[:R + 1, :R + 1, :R + 1], K.odd_axis)
               for K in [newton_kernel(g)] + dipole_kernels(g)]
    k = make_kernel((R - 1.5) * g.h)  # support radius ceil(R - 1.5) + 1 = R cells
    cubes = [mollifier._sampled(k, g, axes) for axes in ((), (0,), (0, 2))]
    cubes.append(rng.standard_normal((2 * R + 1,) * 3))
    return [(K, 1) for K in octants + cubes[:3]] + [(cubes[3], 8)]


@pytest.mark.parametrize("n, radius", [(8, 7), (14, 13), (8, 4), (14, 4), (16, 4), (22, 4),
                                       (28, 4)])
def test_matrix_transforms_match_the_direct_sum_for_every_kernel_family(rng, n, radius):
    # R = n - 1 only up to n = 14: the direct sum takes 1-3 s per dense kernel
    # at n = 22-28, where the sparse kernels of the next test reach R = n - 1
    g = make_grid(n, n / 4.0)
    field = rng.standard_normal((n,) * 3)
    for K, parts in _kernel_families(g, radius, rng):
        acc = SpectralAccumulator(n, radius, g.h)
        assert len(acc.kernel_fft(K)) == parts
        a = convolve_offsets(field, K, g.h)
        b = convolve_direct(field, K, g.h)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("n", [8, 14, 16, 22, 28])
def test_matrix_transforms_match_the_direct_sum_at_full_radius(rng, n):
    # sparse random kernels reach the padding limit R = n - 1 cheaply: an
    # octant of each parity (even, odd along axis 0, 1 or 2; zero at offset 0
    # of its odd axis) and a cube with all 8 parity parts, each nonzero at its
    # extreme offsets
    R = n - 1
    field = rng.standard_normal((n,) * 3)

    def sparse(shape, odd=None):
        K = rng.standard_normal(shape) * (rng.random(shape) < 0.02)
        K[-1, -1, -1] = K[1, -1, 1] = K[-1, 1, -1] = 1.0
        if odd is None:
            K[0, 0, 0] = 1.0
        else:
            K.swapaxes(0, odd)[0] = 0.0
        return K
    kernels = [Octant(sparse((R + 1,) * 3, odd), odd) for odd in (None, 0, 1, 2)]
    kernels.append(sparse((2 * R + 1,) * 3))
    for K in kernels:
        a = convolve_offsets(field, K, 0.25)
        b = convolve_direct(field, K, 0.25)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("n", [32, 48])
def test_a_newton_apply_holds_less_than_one_padded_cube(rng, n):
    # the axis-2 pass runs in slabs of about 512 rows (P = 64 and 96 here, so
    # a slab is a few planes): the peak of all arrays an apply holds at once,
    # field spectrum included, stays below the P^3 doubles of one padded box
    g = make_grid(n, 4.0)
    apply = convolver(newton_kernel(g), n, g.h)
    field = rng.standard_normal((n,) * 3)
    P = SpectralAccumulator(n, n - 1, g.h).P
    tracemalloc.start()
    try:
        out = apply(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n,) * 3
    assert peak < 8 * P ** 3


def test_no_convolution_calls_numpy_fft(monkeypatch, rng):
    # every convolution runs on matrix products: a forced solve (projection
    # and pressure), the representation check and the mollifier
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.fft called")
    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, refuse)
    g = make_grid(16, 4.0)
    F = gradient_pulse_forcing(g, width=1.0, t_scale=0.5)
    [state] = solve_linearized(VectorField3.zeros(g), F, FluidParams(0.25, 1.0), [0.15])
    rec, _ = representation_reconstruct(gaussian_bump(g, width=1.0))
    U = mollify(gaussian_bump(g, width=1.0), make_kernel(4 * g.h))
    dU = mollify_derivative(U, make_kernel(4 * g.h), (1, 0, 1))
    for a in (state.p.samples, state.u.components[0].samples, rec.samples, U.samples, dU.samples):
        assert np.all(np.isfinite(a)) and np.abs(a).max() > 0


def test_fft_matches_direct_sum_at_full_radius_on_n14(rng, full_lattice):
    # R = n - 1 = 13 pads to P = 28 (formerly 27): a random kernel through the
    # centred rfftn path, and the Newton octant through the DCT-I path
    g = make_grid(14, 3.5)
    field = rng.standard_normal((14,) * 3)
    kernel, N = rng.standard_normal((27,) * 3), newton_kernel(g)
    for fast, dense in ((kernel, kernel), (N, full_lattice(N))):
        a = convolve_offsets(field, fast, g.h)
        b = convolve_direct(field, dense, g.h)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("odd_axis", [None, 0, 1, 2])
def test_offset_lattice_reflects_an_octant_as_the_oracle_does(rng, full_lattice, odd_axis):
    octant = Octant(rng.standard_normal((5,) * 3), odd_axis)
    got = offset_lattice(octant)
    assert got.shape == (9,) * 3
    np.testing.assert_array_equal(got, full_lattice(octant))
    cube = rng.standard_normal((7,) * 3)
    assert offset_lattice(cube) is cube


def test_octant_and_its_full_lattice_give_identical_direct_sums_and_bounds(rng, full_lattice):
    g = make_grid(8, 2.0)
    U = ScalarField(g, rng.standard_normal((8,) * 3))
    for K in [newton_kernel(g)] + dipole_kernels(g):
        F = full_lattice(K)
        np.testing.assert_array_equal(convolve_direct(U.samples, K, g.h),
                                      convolve_direct(U.samples, F, g.h))
        assert vars(convolution_bound_check(K, U)) == vars(convolution_bound_check(F, U))


# The start-up contract needs a fresh interpreter: this module imports scipy.fft
# itself.  A meta-path finder refuses every scipy import, so a command that
# reached scipy would fail instead of loading it.
NO_SCIPY = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")

    sys.meta_path.insert(0, NoScipy())

    import numpy as np

    import slowflow.cli
    from slowflow import convolve

    tmp, seen = Path(sys.argv[1]), {}
    base = {"grid": {"n": 16, "L": 4.0}, "times": {"start": 0.0, "end": 0.5, "count": 3},
            "forcing": {"generator": "solenoidal_pulse"}}
    for command, extra in (("solve", {}), ("verify", {"checks": list(slowflow.cli.VERIFY_CHECKS)}),
                           ("mollify-study", {"epsilons": [2.0, 1.0]}),
                           ("convergence-study", {"grids": [16, 24]})):
        (tmp / f"{command}.json").write_text(json.dumps(dict(base, **extra)))
        seen[command] = slowflow.cli.main([command, "--config", str(tmp / f"{command}.json"),
                                           "--out", str(tmp / command)])
    seen["scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    rng = np.random.default_rng(3)
    u, K = rng.standard_normal((8, 8, 8)), rng.standard_normal((5, 5, 5))
    seen["oracle"] = bool(np.allclose(convolve.convolve_offsets(u, K, 0.3),
                                      convolve.convolve_direct(u, K, 0.3), rtol=1e-12, atol=1e-12))
    print(json.dumps(seen))
""")


def test_no_command_imports_scipy(tmp_path):
    src = str(Path(convolve.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", NO_SCIPY, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # verify exits 1 by design: its negative control must fail
    assert [seen[c] for c in ("solve", "verify", "mollify-study", "convergence-study")] == [0, 1, 0, 0]
    assert seen["scipy"] == []
    assert seen["oracle"]


def test_fast_len_is_scipys_next_fast_len():
    assert [convolve._fast_len(m) for m in range(1, 4097)] == \
        [sfft.next_fast_len(m) for m in range(1, 4097)]
