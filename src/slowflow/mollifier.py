"""Compactly supported smoothing kernel and its convolution calculus.

The radial profile is lam(s) = A exp(1/(s - 1)) for 0 <= s < 1 and 0 for
s >= 1, with A fixed by the normalization 4 pi * int_0^1 lam(sigma^2) sigma^2
dsigma = 1.  The three-dimensional kernel is lam(r^2/eps^2)/eps^3, support
radius eps, unit mass.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .convolve import convolve_direct, convolve_offsets
from .fields import ScalarField

__all__ = ["MollifierKernel", "make_kernel", "mollify", "mollify_derivative",
           "kernel_on_grid", "kernel_grid_mass", "mollify_direct"]


@dataclass(frozen=True)
class MollifierKernel:
    """Radial profile lam(r^2/eps^2)/eps^3 with computed normalization A."""

    epsilon: float
    normalization: float

    def profile(self, s, order=0):
        """lam(s) (order 0: smooth, nonnegative, zero for s >= 1) or its first or
        second derivative in s: lam' = -lam/(s-1)^2, lam'' = lam (1/(s-1)^4 + 2/(s-1)^3)."""
        if order not in (0, 1, 2):
            raise ValueError("profile order must be 0, 1 or 2")
        s = np.asarray(s, dtype=np.float64)
        out = np.zeros_like(s)
        inside = s < 1.0
        d = s[inside] - 1.0
        with np.errstate(divide="ignore"):
            lam = self.normalization * np.exp(1.0 / d)
        if order == 1:
            lam = -lam / d ** 2
        elif order == 2:
            lam = lam * (1.0 / d ** 4 + 2.0 / d ** 3)
        out[inside] = lam
        return out

    def __call__(self, r):
        """Kernel value lam(r^2/eps^2)/eps^3 at radius r."""
        r = np.asarray(r, dtype=np.float64)
        return self.profile((r / self.epsilon) ** 2) / self.epsilon ** 3


@lru_cache(maxsize=None)
def _normalization():
    """A, which does not depend on eps: computed and checked once per process."""
    val, _ = integrate.quad(lambda s: np.exp(1.0 / (s * s - 1.0)) * s * s,
                            0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    A = 1.0 / (4.0 * np.pi * val)
    # invariant: 4 pi int_0^1 lam(s^2) s^2 ds = 1 to 1e-10
    k = MollifierKernel(1.0, A)
    chk, _ = integrate.quad(lambda s: k.profile(s * s) * s * s, 0.0, 1.0,
                            epsabs=1e-13, epsrel=1e-13)
    if abs(4.0 * np.pi * chk - 1.0) > 1e-10:
        raise RuntimeError("kernel normalization failed")
    return A


def make_kernel(epsilon):
    """Kernel with support radius epsilon; A solves the radial normalization."""
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    return MollifierKernel(float(epsilon), _normalization())


def _offsets(grid, k):
    """Offset meshgrid of the kernel's support box, its |z|^2 and radius R."""
    R = min(grid.n - 1, int(np.ceil(k.epsilon / grid.h)) + 1)
    off = grid.offsets(R)
    O = np.meshgrid(off, off, off, indexing="ij")
    return O, O[0] ** 2 + O[1] ** 2 + O[2] ** 2, R


def kernel_on_grid(k, grid, normalized=True):
    """Kernel sampled at lattice offsets; optionally renormalized to unit
    discrete mass so convolution weights form an exact convex combination."""
    _, R2, R = _offsets(grid, k)
    W = k.profile(R2 / k.epsilon ** 2) / k.epsilon ** 3
    if normalized:
        W = W / (W.sum() * grid.cell_volume)
    return W, R


def kernel_grid_mass(k, grid):
    """Raw midpoint mass h^3 * sum of the sampled kernel (no renormalization)."""
    W, _ = kernel_on_grid(k, grid, normalized=False)
    return float(W.sum() * grid.cell_volume)


def _check_resolved(U, k):
    if k.epsilon < 2.0 * U.grid.h:
        raise ValueError("under-resolved kernel: epsilon < 2h")


def mollify(U, k):
    """Convolution of U with the kernel (U taken as 0 outside the box)."""
    _check_resolved(U, k)
    W, _ = kernel_on_grid(k, U.grid)
    return ScalarField(U.grid, convolve_offsets(U.samples, W, U.grid.h))


def mollify_direct(U, k):
    """Direct-sum reference path (oracle for the FFT route; small grids)."""
    _check_resolved(U, k)
    W, _ = kernel_on_grid(k, U.grid)
    return ScalarField(U.grid, convolve_direct(U.samples, W, U.grid.h))


def mollify_derivative(U, k, multi_index):
    """Convolution of U with an analytically differentiated kernel.

    multi_index = (l, m, n) with 1 <= l + m + n <= 2: derivatives are applied
    to the kernel profile, never to U.
    """
    _check_resolved(U, k)
    mi = tuple(int(v) for v in multi_index)
    if len(mi) != 3 or any(v < 0 for v in mi) or not (1 <= sum(mi) <= 2):
        raise ValueError("multi_index must have 1 <= l+m+n <= 2")
    grid = U.grid
    O, R2, _ = _offsets(grid, k)
    eps = k.epsilon
    s = R2 / eps ** 2
    d1 = k.profile(s, 1)
    # d/dx_i [lam(|x|^2/eps^2)] = lam'(s) * 2 x_i / eps^2
    if sum(mi) == 1:
        W = d1 * (2.0 * O[mi.index(1)] / eps ** 2) / eps ** 3
    else:
        d2 = k.profile(s, 2)
        if 2 in mi:
            xa = O[mi.index(2)]
            W = (d2 * (2.0 * xa / eps ** 2) ** 2 + d1 * (2.0 / eps ** 2)) / eps ** 3
        else:
            a, b = [i for i, v in enumerate(mi) if v == 1]
            W = d2 * (2.0 * O[a] / eps ** 2) * (2.0 * O[b] / eps ** 2) / eps ** 3
    return ScalarField(grid, convolve_offsets(U.samples, W, grid.h))
