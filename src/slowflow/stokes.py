"""Explicit solution operators for the linearized incompressible flow equations.

The unforced problem is solved by Gaussian-kernel convolution (heat
semigroup); the forced problem by the Duhamel integral of the unsteady-Stokes
fundamental tensor

    T_ij(z, tau) = delta_ij * G(r, tau) + d_i d_j Phi(r, tau),
    G(r, tau)    = exp(-r^2 / (4 nu tau)) / (4 pi nu tau)^{3/2},
    Phi(r, tau)  = erf(r / (2 sqrt(nu tau))) / (4 pi r),

and the pressure by the Newtonian potential p = -rho N * (div X) of the
forcing, N = 1/(4 pi r).  Phi = N * G, so T * X = G * (P X) with
P X = X + grad(N * div X) the Leray projection, whose Newton convolution the
pressure shares.  P commutes with G, so the Duhamel integral is P applied
once to a heat-only sum, taken by Gauss-Legendre panels in log tau; T itself
is evaluated pointwise only by ``oseen_tensor_eval``.  The heat step and every
Duhamel node apply G through one separable operator, ``_heat_apply``: three
matrix products on views of each array, no 3D transform per node.  A solve
transforms the grid-only Newton kernel once, for every output time's
projection and pressure.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import fields
from .convolve import _gauss_panels, convolver, newton_kernel
from .fields import ScalarField, VectorField3, derive, divergence
from .report import make_report

__all__ = [
    "FluidParams", "FlowState", "ForcingField",
    "heat_propagate",
    "oseen_tensor_eval", "oseen_decay_constant",
    "forced_response", "pressure_field", "solve_linearized", "residual_check",
]

SQRT_PI = np.sqrt(np.pi)
_erf = np.vectorize(math.erf, otypes=[np.float64])  # elementwise, from the standard library
# Duhamel quadrature: Gauss-Legendre panels per decade of tau and points per
# panel, and the resolution floor below which T acts as the identity (kernel
# radius < h/4).
PANELS_PER_DECADE = 1.5
GAUSS_POINTS = 4
FLOOR_FACTOR = 32.0
# solve_linearized accepts u0 when ||div u0|| <= DIV_RTOL * J1(u0)
DIV_RTOL = 0.2

ForcingTerms = namedtuple("ForcingTerms", "norm sup work")  # ||X||, sup|X|, (u, X)


@dataclass(frozen=True)
class FluidParams:
    nu: float
    rho: float

    def __post_init__(self):
        if not np.isfinite(self.nu) or self.nu <= 0:
            raise ValueError("nu must be > 0")
        if not np.isfinite(self.rho) or self.rho <= 0:
            raise ValueError("rho must be > 0")


@dataclass(frozen=True)
class FlowState:
    """Immutable velocity/pressure snapshot at time t, diagnosed as deep as it is read."""

    t: float
    u: VectorField3
    p: ScalarField

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.u.grid != self.p.grid:
            raise ValueError("velocity and pressure must share one grid")

    @property
    def grid(self):
        return self.u.grid

    @cached_property
    def diagnostics(self):
        """W, J1, J2, V and D1 of u from one 27-stencil pass, taken on first use."""
        return fields.sample_diagnostics(self.u, self.t)

    @cached_property
    def first_order(self):
        """W, J1, V and D1 of u: the diagnostics if taken, else a 9-stencil pass."""
        return self.__dict__.get("diagnostics") or fields.first_order_diagnostics(self.u, self.t)

    def forcing_terms(self, forcing):
        """||X||, sup|X| and the work rate (u, X) of X = forcing.at(t) (zeros for no forcing)
        from one sample, the solve's own if it took one, kept until another forcing asks."""
        if forcing is None:
            return ForcingTerms(0.0, 0.0, 0.0)
        kept = self.__dict__.get("_forcing_terms")
        return kept[1] if kept and kept[0] is forcing else self._keep(forcing, forcing.at(self.t))

    def _keep(self, forcing, X):
        """Keep the terms of X, forcing's sample at t, as 3 floats and that forcing."""
        work = sum(float(np.sum(a.samples * b.samples))
                   for a, b in zip(self.u.components, X.components)) * self.grid.cell_volume
        terms = ForcingTerms(math.sqrt(fields.flow_energy(X)), fields.sup_norm(X), work)
        self.__dict__["_forcing_terms"] = (forcing, terms)
        return terms


class ForcingField:
    """Time-indexed body force, sampled on demand at quadrature nodes."""

    def __init__(self, grid, sampler: Callable[[float], VectorField3]):
        self.grid = grid
        self._sampler = sampler

    @classmethod
    def zero(cls, grid):
        z = VectorField3.zeros(grid)
        return cls(grid, lambda t: z)

    def at(self, t):
        X = self._sampler(float(t))
        if X.grid != self.grid:
            raise ValueError("forcing sampler returned a field on the wrong grid")
        return X


def _heat_factor(grid, nu_t):
    """1D factor k and radius R of the truncated heat kernel K = k(x) k(y) k(z),
    up to the 1/h^3 of the unit-mass kernel.  R spans 8 widths sqrt(2 nu t),
    clipped to [1, n-1]."""
    R = max(1, min(grid.n - 1, int(np.ceil(8.0 * np.sqrt(2.0 * nu_t) / grid.h)) + 1))
    off = grid.offsets(R)
    p = np.exp(-off * off / (4.0 * nu_t))
    return p / p.sum(), R


def _heat_apply(arrays, grid, nu_t):
    """The unit-mass kernel k(x) k(y) k(z) / h^3 of ``_heat_factor`` applied to
    each array: k along each axis as an n x n banded Toeplitz matrix T, by three
    matrix products on reshaped views that move no axis and return C order."""
    k, R = _heat_factor(grid, nu_t)
    n = grid.n
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    T = np.where(np.abs(lag) <= R, k[np.clip(lag + R, 0, 2 * R)], 0.0)
    out = []
    for a in arrays:
        a = (a.reshape(n * n, n) @ T.T).reshape(n, n, n)  # axis 2
        a = np.matmul(T, a)  # axis 1, batched over axis 0
        out.append((T @ a.reshape(n, n * n)).reshape(n, n, n))  # axis 0
    return out


def heat_propagate(u0, params, t):
    """Evolve u0 for time t under pure diffusion: the Gaussian kernel of
    variance 2*nu*t per axis, truncated at 8 widths and rescaled to exact unit
    discrete mass, so its weights are a convex combination (sup and energy
    contract, constants are preserved exactly), applied by ``_heat_apply``
    (no 3D transform)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return VectorField3(*(c.copy() for c in u0.components))
    grid = u0.grid
    # resolution floor: at least one sample inside one kernel standard width
    if np.sqrt(2.0 * params.nu * t) < 0.5 * grid.h:
        raise ValueError("under-resolved: heat kernel width sqrt(2 nu t) < h/2")
    return VectorField3.from_arrays(
        grid, *_heat_apply([c.samples for c in u0.components], grid, params.nu * t))


def _oseen_radial(x):
    """g(x) = erf(x)/x^3 - (2/sqrt(pi)) exp(-x^2)/x^2, series-protected near 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = x < 0.1
    xs = x[small]
    x2 = xs * xs
    out[small] = (2.0 / SQRT_PI) * (2.0 / 3.0 - 0.4 * x2 + x2 ** 2 / 7.0 - x2 ** 3 / 27.0)
    xl = x[~small]
    out[~small] = _erf(xl) / xl ** 3 - (2.0 / SQRT_PI) * np.exp(-xl * xl) / xl ** 2
    return out


def _oseen_profiles(r, nu_tau):
    """Isotropic and anisotropic radial weights of T at distance r.

    T_ij = delta_ij f1(r) + zhat_i zhat_j f2(r);
    f1 = G + Phi'/r, f2 = Phi'' - Phi'/r.
    """
    a = 2.0 * np.sqrt(nu_tau)
    x = np.asarray(r, dtype=np.float64) / a
    e = np.exp(-x * x)
    g = _oseen_radial(x)
    c = 1.0 / (4.0 * np.pi * a ** 3)
    gamma = e / (SQRT_PI ** 3 * a ** 3)
    phi_p_over_r = -c * g
    phi_pp = c * (2.0 * g - (4.0 / SQRT_PI) * e)
    return gamma + phi_p_over_r, phi_pp - phi_p_over_r


def oseen_tensor_eval(dx, tau, params):
    """Fundamental tensor at displacement dx and time lag tau > 0 (3x3, symmetric)."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    dx = np.asarray(dx, dtype=np.float64)
    r = float(np.sqrt(np.sum(dx * dx)))
    if r == 0.0:
        raise ValueError("r = 0 is singular; evaluate off the source point")
    f1, f2 = _oseen_profiles(r, params.nu * tau)
    zhat = dx / r
    return np.eye(3) * float(f1) + np.outer(zhat, zhat) * float(f2)


def oseen_decay_constant(displacements, taus, params):
    """Empirical A in |T_ij| < A / (r^2 + nu tau)^{3/2} over an evaluation batch."""
    best = 0.0
    for dx in displacements:
        for tau in taus:
            T = oseen_tensor_eval(dx, tau, params)
            r2 = float(np.sum(np.asarray(dx, float) ** 2))
            best = max(best, float(np.abs(T).max()) * (r2 + params.nu * tau) ** 1.5)
    return best


def _duhamel_rule(t, h, nu):
    """Time-lag nodes tau_k and weights of the integral over [h^2/(32 nu), t]:
    composite GAUSS_POINTS-point Gauss-Legendre panels, PANELS_PER_DECADE per
    decade, in s = log tau, so the weights are w_k tau_k.  Gauss panels carry
    no penalty at the hard endpoint tau = t, where a trapezoid rule stays
    second order (Trefethen & Weideman, SIAM Rev. 56:385, 2014)."""
    a, b = np.log(h * h / (FLOOR_FACTOR * nu)), np.log(t)
    if a >= b:
        raise ValueError("under-resolved final subinterval: t below the quadrature floor")
    panels = max(1, int(np.ceil(PANELS_PER_DECADE * (b - a) / np.log(10.0))))
    s, w = _gauss_panels(a, b, panels, GAUSS_POINTS)
    taus = np.exp(s)
    return taus, w * taus


def forced_response(X, params, t, assume_solenoidal=False):
    """Duhamel superposition of propagated forcing snapshots up to time t.

    T*X = G*(P X), where P X = X + grad(N * div X) is the Leray projection
    and N = 1/(4 pi r); P commutes with the heat kernel, so the node loop
    sums only the heat part H = sum_k w_k G(tau_k) * X(t - tau_k), each term by
    ``_heat_apply`` (no 3D transform per node), and P is applied once to H by
    one Newton convolution (skipped under ``assume_solenoidal``).  Time-lag nodes
    and weights come from ``_duhamel_rule``, Gauss-Legendre panels in log tau
    from the floor h^2/(32 nu) up to t; below the floor the heat kernel acts
    as the identity.
    """
    if X is None:
        raise ValueError("empty forcing")
    if t <= 0:
        raise ValueError("t must be > 0")
    g = X.grid
    return _duhamel(X, X.at(t), params, t,
                    None if assume_solenoidal else convolver(newton_kernel(g), g.n, g.h))


def _duhamel(X, X_t, params, t, newton):
    """``forced_response`` from the caller's sample X_t = X(t), projected by the
    Newton convolution ``newton`` (None: not projected)."""
    grid = X.grid
    nu = params.nu
    H = [np.zeros((grid.n,) * 3) for _ in range(3)]
    for tau, w in zip(*_duhamel_rule(t, grid.h, nu)):
        Xf = X.at(t - tau)
        for acc, a in zip(H, _heat_apply([c.samples for c in Xf.components], grid, nu * tau)):
            acc += np.multiply(a, w, out=a)  # a is fresh: scaled in place

    # below-floor sliver [0, tau_min]: identity action, trapezoid rule
    tau_min = grid.h ** 2 / (FLOOR_FACTOR * nu)
    H = VectorField3.from_arrays(grid, *(
        a + 0.5 * tau_min * (x.samples + y.samples)
        for a, x, y in zip(H, X_t.components, X.at(t - tau_min).components)))
    if newton is not None:
        pot = ScalarField(grid, newton(divergence(H).samples))
        H = H + VectorField3(*(derive(pot, ax) for ax in (1, 2, 3)))
    return H


def pressure_field(X_t, params):
    """Newtonian-potential pressure p = -rho N * (div X) of the forcing at one
    time, by the projection's Newton convolution (X must decay inside the box)."""
    g = X_t.grid
    return _pressure(X_t, params, convolver(newton_kernel(g), g.n, g.h))


def _pressure(X_t, params, newton):
    return ScalarField(X_t.grid, -params.rho * newton(divergence(X_t).samples))


def _check_solenoidal(u0):
    """Reject u0 whose divergence L2 norm exceeds DIV_RTOL times its gradient
    seminorm J1; the 9 undivided first differences feed both, one at a time."""
    sq, div, d = 0, 0, None
    for i, c in enumerate(u0.components):
        for ax in range(3):
            d = fields._difference(c.samples, ax, 1, fields._like(c.samples, d))
            sq += fields._sum_squares(d)
            if ax == i:
                div = div + d
    if sq > 0 and np.sqrt(fields._sum_squares(div)) > DIV_RTOL * np.sqrt(sq):
        raise ValueError("u0 is not solenoidal within tolerance")


def solve_linearized(u0, X, params, times, assume_solenoidal=False):
    """Superpose the diffusive and forced responses at each requested time.

    u0 must be (discretely) solenoidal: the L2 norm of its divergence must not
    exceed DIV_RTOL times its gradient seminorm.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing and >= 0")
    grid = u0.grid
    u0_is_zero = all(not c.samples.any() for c in u0.components)
    if not u0_is_zero:  # a zero field passes trivially
        _check_solenoidal(u0)
    newton = (convolver(newton_kernel(grid), grid.n, grid.h)
              if X is not None and any(times) else None)
    states = []
    for t in times:
        u = VectorField3.zeros(grid) if u0_is_zero else heat_propagate(u0, params, t)
        if X is None or t == 0:
            states.append(FlowState(t=t, u=u, p=ScalarField.zeros(grid)))
            continue
        X_t = X.at(t)  # feeds the sliver, the pressure and the state's forcing terms
        u = u + _duhamel(X, X_t, params, t, None if assume_solenoidal else newton)
        states.append(FlowState(t=t, u=u, p=_pressure(X_t, params, newton)))
        states[-1]._keep(X, X_t)
    return states


def residual_check(state, state_prev, X_t, params, tol=None):
    """Field residual of the linearized momentum equation over a state pair.

    Spatial terms are evaluated on the midpoint average of the two states, the
    time derivative by the difference quotient; X_t is the forcing at the
    midpoint time.  Reports the sup residual against ``tol`` (default: half of
    the largest term magnitude), with the L2 residual in metadata.
    """
    dt = state.t - state_prev.t
    if dt <= 0:
        raise ValueError("states must be ordered with dt > 0")
    grid = state.grid
    nu, rho = params.nu, params.rho
    sup_terms = []
    res_max = 0.0
    res_l2_sq = 0.0
    pm = ScalarField(grid, 0.5 * (state.p.samples + state_prev.p.samples))
    for i in range(3):
        um = 0.5 * (state.u.components[i].samples + state_prev.u.components[i].samples)
        um_f = ScalarField(grid, um)
        lap = sum(derive(um_f, ax, 2).samples for ax in (1, 2, 3))
        dudt = (state.u.components[i].samples - state_prev.u.components[i].samples) / dt
        gradp = derive(pm, i + 1).samples
        Xi = X_t.components[i].samples if X_t is not None else 0.0
        R = nu * lap - dudt - gradp / rho + Xi
        res_max = max(res_max, float(np.abs(R).max()))
        res_l2_sq += float(np.sum(R ** 2) * grid.cell_volume)
        sup_terms.extend([
            float(np.abs(nu * lap).max()), float(np.abs(dudt).max()),
            float(np.abs(gradp / rho).max()),
            float(np.abs(Xi).max()) if X_t is not None else 0.0,
        ])
    denom = max(max(sup_terms), 1e-300)
    if tol is None:
        tol = 0.5 * denom
    return make_report(
        "linearized-residual", res_max, float(tol), 0.0,
        {"residual_l2": float(np.sqrt(res_l2_sq)), "dt": dt, "h": grid.h,
         "relative_to_terms": res_max / denom},
    )
