"""Named analytic field generators: decaying test data, solenoidal velocities,
time-modulated forcings, and the cusp target for the modulus probe.

Every generator returns exactly sampled closed-form fields (derivatives are
analytic, never finite-differenced), so generated data can serve as reference
in solver tests.  One closed form, ``_gaussian``, serves every Gaussian (the
bump, the curl-Gaussian vortex, its Laplacian, the gradient pulse), and one
sampler, ``_separable``, every forcing X(t) = sum_j q_j(t) S_j.
"""

import numpy as np

from .fields import ScalarField, VectorField3
from .stokes import ForcingField

__all__ = [
    "gaussian_bump", "gaussian_mixture", "solenoidal_gaussian",
    "random_solenoidal", "sin_probe", "cusp_flow",
    "INITIAL_GENERATORS", "FORCING_GENERATORS",
]


def _gaussian(grid, width, center, amplitude):
    """Sparse offsets d = x - c and g = a exp(-|d|^2 / (2 w^2)), in one n^3 array (w > 0)."""
    if not width > 0:
        raise ValueError(f"width must be > 0, got {width}")
    d = [X - c for X, c in zip(grid.meshgrid(sparse=True), center)]
    g = d[0] ** 2 + d[1] ** 2 + d[2] ** 2
    np.exp(np.divide(np.negative(g, out=g), 2.0 * width * width, out=g), out=g)
    return d, np.multiply(g, amplitude, out=g)


def _cross(grad, e):
    """grad f x e for a constant direction e, written over grad's z and x arrays."""
    (gx, gy, gz), (e1, e2, e3) = grad, e
    c1, scratch = gy * e3, np.empty_like(gx)
    c1 -= np.multiply(gz, e2, out=scratch)
    for a, ea, b, eb in ((gz, e1, gx, e3), (gx, e2, gy, e1)):
        np.subtract(np.multiply(a, ea, out=a), np.multiply(b, eb, out=scratch), out=a)
    return c1, gz, gx


def gaussian_bump(grid, width=1.0, center=(0.0, 0.0, 0.0), amplitude=1.0):
    return ScalarField(grid, _gaussian(grid, width, center, amplitude)[1])


def gaussian_mixture(grid, rng, n_bumps=3, width_range=(0.6, 1.4), center_radius=None,
                     amplitude=1.0):
    """Random sum of Gaussian bumps, centers well inside the box."""
    if center_radius is None:
        center_radius = grid.L / 4.0
    total = np.zeros((grid.n,) * 3)
    for _ in range(n_bumps):
        c = rng.uniform(-center_radius, center_radius, size=3)
        w = rng.uniform(*width_range)
        a = amplitude * rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        total += gaussian_bump(grid, w, c, a).samples
    return ScalarField(grid, total)


def _curl_gaussian_arrays(grid, width, center, axis_vec, amplitude):
    """curl(g e) = grad g x e for a Gaussian bump g and constant direction e (solenoidal)."""
    d, g = _gaussian(grid, width, center, amplitude)  # g becomes the z derivative
    grad = [-x / width ** 2 * g for x in d[:2]] + [np.multiply(g, -d[2] / width ** 2, out=g)]
    return _cross(grad, axis_vec)


def solenoidal_gaussian(grid, width=1.0, center=(0.0, 0.0, 0.0),
                        axis_vec=(0.0, 0.0, 1.0), amplitude=1.0):
    """Divergence-free single-vortex field: curl of a Gaussian vector potential."""
    a = _curl_gaussian_arrays(grid, width, center, axis_vec, amplitude)
    return VectorField3.from_arrays(grid, *a)


def random_solenoidal(grid, seed=0, n_vortices=4, width_range=(0.7, 1.3), amplitude=1.0):
    """Seeded superposition of randomly placed and oriented vortices."""
    if not (n_vortices >= 1 and seed >= 0):
        raise ValueError(f"n_vortices must be >= 1 and seed >= 0, got {n_vortices} and {seed}")
    rng = np.random.default_rng(seed)
    parts = [np.zeros((grid.n,) * 3) for _ in range(3)]
    for _ in range(n_vortices):
        c = rng.uniform(-grid.L / 4.0, grid.L / 4.0, size=3)
        w = rng.uniform(*width_range)
        e = rng.normal(size=3)
        e /= np.sqrt(np.sum(e ** 2))
        a = amplitude * rng.uniform(0.3, 1.0)
        for part, comp in zip(parts, _curl_gaussian_arrays(grid, w, c, e, a)):
            part += comp
    return VectorField3.from_arrays(grid, *parts)


def sin_probe(grid, index):
    """Oscillatory probe sin(index * x1)."""
    return ScalarField.from_function(grid, lambda x, y, z: np.sin(index * x))


def cusp_flow(grid, delta, window):
    """Solenoidal velocity with a gradient of exact r^{1/2} modulus at the origin.

    Stream potential psi = x1 * F(r^2), F(s) = (s + delta^2)^{3/4}
    * exp(-s^2/(4 w^4)); returns (u, lap_u), both analytic.
    """
    X1, X2, X3 = grid.meshgrid()
    S = X1 ** 2 + X2 ** 2 + X3 ** 2
    d2 = delta * delta
    w4 = window ** 4
    P = (S + d2) ** 0.75
    P1 = 0.75 * (S + d2) ** -0.25
    P2 = -0.1875 * (S + d2) ** -1.25
    P3 = 0.234375 * (S + d2) ** -2.25
    E = np.exp(-S * S / (4.0 * w4))
    E1 = -(S / (2.0 * w4)) * E
    E2 = (S * S / (4.0 * w4 * w4) - 1.0 / (2.0 * w4)) * E
    E3 = (-S ** 3 / (8.0 * w4 ** 3) + 3.0 * S / (4.0 * w4 * w4)) * E
    F = P * E
    F1 = P1 * E + P * E1
    F2 = P2 * E + 2.0 * P1 * E1 + P * E2
    F3 = P3 * E + 3.0 * P2 * E1 + 3.0 * P1 * E2 + P * E3
    zero = np.zeros_like(F)
    u = VectorField3.from_arrays(grid, 2.0 * X1 * X2 * F1, -(F + 2.0 * X1 ** 2 * F1), zero)
    # Lap psi = 10 x1 F' + 4 s x1 F'' ; Lap u = (d2 Lap psi, -d1 Lap psi, 0)
    d2_lap = 28.0 * X1 * X2 * F2 + 8.0 * X1 * X2 * S * F3
    d1_lap = 10.0 * F1 + 4.0 * S * F2 + 28.0 * X1 ** 2 * F2 + 8.0 * X1 ** 2 * S * F3
    lap_u = VectorField3.from_arrays(grid, d2_lap, -d1_lap, zero)
    return u, lap_u


def ramped_forcing(grid, shape, lap_shape, nu, t_ramp):
    """Forcing whose exact response from rest is q(t) * shape, with
    q = sin^2(pi t / (2 t_ramp)) ramping from 0 to 1: q' shape - nu q lap_shape."""
    return _separable(grid, [
        (lambda t: (0.5 * np.pi / t_ramp) * np.sin(np.pi * t / t_ramp),
         [c.samples for c in shape.components]),
        (lambda t: -nu * np.sin(0.5 * np.pi * t / t_ramp) ** 2,
         [c.samples for c in lap_shape.components])])


def _gaussian_laplacian_curl(grid, width, center, axis_vec, amplitude):
    """Componentwise Laplacian of the curl-Gaussian field (analytic)."""
    d, g = _gaussian(grid, width, center, amplitude)
    w2 = width ** 2
    # Lap(curl(g e)) = curl(Lap(g) e) = grad(Lap g) x e
    lap_g_over_g = (d[0] ** 2 + d[1] ** 2 + d[2] ** 2) / w2 ** 2 - 3.0 / w2
    # d/dx_i (Lap g) = [2 x_i / w^4 - lap_g_over_g * x_i / w^2] g
    return _cross([(2.0 * x / w2 ** 2 - lap_g_over_g * x / w2) * g for x in d], axis_vec)


def solenoidal_gaussian_laplacian(grid, width=1.0, center=(0.0, 0.0, 0.0),
                                  axis_vec=(0.0, 0.0, 1.0), amplitude=1.0):
    a = _gaussian_laplacian_curl(grid, width, center, axis_vec, amplitude)
    return VectorField3.from_arrays(grid, *a)


def _separable(grid, terms):
    """Forcing X(t) = sum_j q_j(t) S_j from the terms (q_j, S_j), each S_j three
    arrays: per component one product per term and one add per later term."""

    def sampler(t):
        (q, S), *rest = [(q_j(t), S_j) for q_j, S_j in terms]
        out = [q * s for s in S]
        for q, S in rest:
            for o, s in zip(out, S):
                o += q * s
        return VectorField3.from_arrays(grid, *out)
    return ForcingField(grid, sampler)


def _pulse_forcing(grid, arrays, t_scale):
    """Forcing q(t) * arrays with q = exp(-t / t_scale)."""
    return _separable(grid, [(lambda t: np.exp(-t / t_scale), arrays)])


def gradient_pulse_forcing(grid, width=1.0, amplitude=1.0, t_scale=1.0):
    """Irrotational forcing X = q(t) grad(phi), phi a Gaussian bump."""
    if not (width > 0 and t_scale > 0):
        raise ValueError(f"width and t_scale must be > 0, got {width} and {t_scale}")
    d, phi = _gaussian(grid, width, (0.0, 0.0, 0.0), amplitude)
    return _pulse_forcing(grid, [-x / width ** 2 * phi for x in d], t_scale)


def solenoidal_pulse_forcing(grid, width=1.0, amplitude=1.0, t_scale=1.0,
                             axis_vec=(0.0, 0.0, 1.0)):
    """Divergence-free forcing: time-damped curl-Gaussian."""
    if not (width > 0 and t_scale > 0):
        raise ValueError(f"width and t_scale must be > 0, got {width} and {t_scale}")
    base = _curl_gaussian_arrays(grid, width, (0.0, 0.0, 0.0), axis_vec, amplitude)
    return _pulse_forcing(grid, base, t_scale)


# --- named registries for experiment configs -------------------------------
# name -> (builder, {param: type}); a config's params are checked against the
# type table and bound to the builder as keywords (see cli), so the builders'
# own defaults are the only defaults

INITIAL_GENERATORS = {
    "zero": (VectorField3.zeros, {}),
    "solenoidal_gaussian": (solenoidal_gaussian, {"width": float, "amplitude": float}),
    "random_solenoidal": (random_solenoidal,
                          {"seed": int, "n_vortices": int, "amplitude": float}),
}

FORCING_GENERATORS = {
    "none": (lambda grid: None, {}),
    "solenoidal_pulse": (solenoidal_pulse_forcing,
                         {"width": float, "amplitude": float, "t_scale": float}),
    "gradient_pulse": (gradient_pulse_forcing,
                       {"width": float, "amplitude": float, "t_scale": float}),
}

