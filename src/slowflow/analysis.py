"""Numerical certification of inner-product inequalities, convergence probes,
the gradient-representation identity, and weak-derivative residuals.

Identity checks tolerate C*h^2 discretization noise; true inequalities of the
discrete inner product are accepted at relative machine tolerance only.
"""

from dataclasses import dataclass

import numpy as np

from .convolve import (convolve_offsets, convolver, dipole_kernels, inverse_square_weights,
                       offset_lattice)
from .fields import ScalarField, derive, integrate
from .report import make_report

__all__ = [
    "SequenceProbe", "WeakPairingResult",
    "schwarz_check", "time_minkowski_check", "convolution_bound_check",
    "strong_mean_distance", "weak_pairing_probe", "lower_semicontinuity_check",
    "representation_reconstruct", "hardy_check",
    "quasi_derivative_residual", "quasi_divergence_residual",
]

# machine tolerance for true inequalities of the discrete inner product
INEQ_RTOL = 1e-12
# reconstruction error budget scales as REPR_TOL_C * h (calibrated on a
# 32/48/64 refinement study of a unit Gaussian; recorded in the report)
REPR_TOL_C = 0.3


@dataclass(frozen=True)
class SequenceProbe:
    """One member of an indexed field family, e.g. U*_n."""

    label: str
    index: int
    field: ScalarField


def _check_family(family, grid):
    """Strictly increasing probe indices, every probe on ``grid``."""
    idx = [p.index for p in family]
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("probe indices must be strictly increasing")
    if any(p.field.grid != grid for p in family):
        raise ValueError("grid mismatch")


def schwarz_check(U, V):
    """(integral of U V)^2 <= integral of U^2 * integral of V^2."""
    lhs = integrate(U, V) ** 2
    rhs = integrate(U, U) * integrate(V, V)
    tol = INEQ_RTOL * max(abs(lhs), abs(rhs), 1e-300)
    return make_report("schwarz", lhs, rhs, tol,
                       {"grid_n": U.grid.n, "grid_L": U.grid.L})


def time_minkowski_check(fields, times):
    """norm of the time integral <= time integral of the norms (trapezoid)."""
    times = np.asarray(times, dtype=np.float64)
    if len(fields) == 0 or times.size == 0:
        raise ValueError("empty time grid")
    if len(fields) != times.size:
        raise ValueError("fields and times must have equal length")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("grid mismatch")
    acc = np.zeros((grid.n,) * 3)
    norms = np.array([np.sqrt(integrate(f, f)) for f in fields])
    for k in range(len(fields) - 1):
        dt = times[k + 1] - times[k]
        acc += 0.5 * dt * (fields[k].samples + fields[k + 1].samples)
    total = ScalarField(grid, acc)
    lhs = np.sqrt(integrate(total, total))
    rhs = float(np.trapezoid(norms, times))
    tol = INEQ_RTOL * max(abs(lhs), abs(rhs), 1e-300)
    return make_report("time-minkowski", lhs, rhs, tol,
                       {"samples": int(times.size), "t": float(times[-1])})


def convolution_bound_check(kernel, U):
    """L2 norm squared of (kernel * U) <= (L1 mass of kernel)^2 * L2 norm squared of U.

    ``kernel`` is an offset-lattice array (a 3D cube of odd side) or an Octant.
    """
    kernel = np.asarray(offset_lattice(kernel), dtype=np.float64)
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel must be integrable (finite samples)")
    h = U.grid.h
    conv = ScalarField(U.grid, convolve_offsets(U.samples, kernel, h))
    lhs = integrate(conv, conv)
    mass_abs = float(np.abs(kernel).sum() * h ** 3)
    rhs = mass_abs ** 2 * integrate(U, U)
    tol = INEQ_RTOL * max(abs(lhs), abs(rhs), 1e-300)
    return make_report("convolution-bound", lhs, rhs, tol, {"kernel_l1": mass_abs})


def strong_mean_distance(Ustar, U):
    """Squared L2 distance, the strong-convergence gauge."""
    d = Ustar - U
    return integrate(d, d)


@dataclass
class WeakPairingResult:
    """Pairings against a fixed square-summable field, plus norm boundedness."""

    pairings: list
    norm_squares: list

    @property
    def norms_bounded(self):
        return bool(np.all(np.isfinite(self.norm_squares)))


def weak_pairing_probe(family, A):
    _check_family(family, A.grid)
    pairings = [integrate(p.field, A) for p in family]
    norm_squares = [integrate(p.field, p.field) for p in family]
    return WeakPairingResult(pairings, norm_squares)


def lower_semicontinuity_check(family, U):
    """integral of U^2 <= min over the tail of integral of U*^2.

    Finite-sample proxy: the tail is the second half of the family (at least
    the last three probes).
    """
    if len(family) < 3:
        raise ValueError("need at least 3 probes")
    _check_family(family, U.grid)
    lhs = integrate(U, U)
    norms = [integrate(p.field, p.field) for p in family]
    tail = norms[len(norms) // 2:] if len(norms) >= 6 else norms[-3:]
    rhs = float(min(tail))
    tol = max(1e-9 * max(abs(lhs), abs(rhs)), 1e-300)
    return make_report("lower-semicontinuity", lhs, rhs, tol,
                       {"tail_size": len(tail), "norms": norms})


def representation_reconstruct(u):
    """Rebuild u from its gradient through the dipole-kernel integral.

    Returns (reconstruction, report); the report compares the relative L2
    error against a budget that scales as O(h).
    """
    if not np.all(np.isfinite(u.samples)):
        raise ValueError("u must be finite")
    grid = u.grid
    apply = convolver(dipole_kernels(grid), grid.n, grid.h)
    rec = apply(*(derive(u, ax).samples for ax in (1, 2, 3)))
    rec_field = ScalarField(grid, rec)
    num = np.sqrt(np.sum((rec - u.samples) ** 2))
    den = np.sqrt(np.sum(u.samples ** 2))
    rel = float(num / den) if den > 0 else 0.0
    tol_budget = REPR_TOL_C * grid.h
    report = make_report("representation-identity", rel, tol_budget, 0.0,
                         {"grid_n": grid.n, "h": grid.h, "tol_coefficient": REPR_TOL_C})
    return rec_field, report


def hardy_check(u):
    """integral of u^2/r^2 <= 4 * integral of |grad u|^2 (r measured from 0).

    The 1/r^2 weight uses cell-averaged values near the origin vertex.
    """
    grid = u.grid
    W = inverse_square_weights(grid)
    lhs = float(np.sum(u.samples ** 2 * W) * grid.cell_volume)
    rhs = 4.0 * sum(integrate(d, d) for d in (derive(u, ax) for ax in (1, 2, 3)))
    tol = INEQ_RTOL * max(abs(lhs), abs(rhs), 1e-300)
    return make_report("hardy", lhs, rhs, tol,
                       {"grid_n": grid.n, "ratio": lhs / rhs if rhs else 0.0})


def quasi_derivative_residual(U, U_i, axis, a):
    """integral of [U da/dy_i + U_i a]; ~0 certifies U_i as the weak derivative."""
    if U.grid != U_i.grid or U.grid != a.grid:
        raise ValueError("grid mismatch")
    da = derive(a, axis)
    return integrate(U, da) + integrate(U_i, a)


def quasi_divergence_residual(U, theta, a):
    """integral of [theta a + U_i da/dy_i]; ~0 certifies theta as the weak divergence."""
    if theta.grid != a.grid or U.grid != a.grid:
        raise ValueError("grid mismatch")
    total = integrate(theta, a)
    for comp, ax in zip(U.components, (1, 2, 3)):
        total += integrate(comp, derive(a, ax))
    return total
