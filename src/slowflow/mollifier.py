"""Compactly supported smoothing kernel and its convolution calculus.

The radial profile is lam(s) = A exp(1/(s - 1)) for 0 <= s < 1 and 0 for
s >= 1, with A fixed by the normalization 4 pi * int_0^1 lam(sigma^2) sigma^2
dsigma = 1.  The three-dimensional kernel is lam(r^2/eps^2)/eps^3, support
radius eps, unit mass.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convolve import _gauss_panels, convolve_offsets
from .fields import ScalarField

__all__ = ["MollifierKernel", "make_kernel", "mollify", "mollify_derivative",
           "kernel_on_grid", "kernel_grid_mass"]


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
        lam = self.normalization * np.exp(1.0 / d)
        if order == 1:
            lam = -lam / d ** 2
        elif order == 2:
            lam = lam * (1.0 / d ** 4 + 2.0 / d ** 3)
        out[inside] = lam
        return out


@lru_cache(maxsize=None)
def _normalization():
    """A, which does not depend on eps: computed and checked once per process by
    composite Gauss-Legendre, 8 panels of 32 points on [0, 1] (smooth integrands:
    faster than any power of the node count; Trefethen, SIAM Rev. 50:67, 2008)."""
    s, w = _gauss_panels(0.0, 1.0, 8, 32)
    A = 1.0 / (4.0 * np.pi * float(np.sum(w * (np.exp(1.0 / (s * s - 1.0)) * s * s))))
    # invariant: 4 pi int_0^1 lam(s^2) s^2 ds = 1 to 1e-10
    lam = MollifierKernel(1.0, A).profile(s * s)
    if abs(4.0 * np.pi * np.sum(w * (lam * s * s)) - 1.0) > 1e-10:
        raise RuntimeError("kernel normalization failed")
    return A


def make_kernel(epsilon):
    """Kernel with support radius epsilon; A solves the radial normalization."""
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    return MollifierKernel(float(epsilon), _normalization())


def _sampled(k, grid, axes):
    """d^alpha [lam(|z|^2/eps^2)/eps^3] at the lattice offsets of the kernel's
    support box, alpha the (at most two, ascending) axes in ``axes``.  With
    g_a = 2 z_a/eps^2, d_a = lam' g_a and d_a d_b = lam'' g_a g_b + [a = b] lam' 2/eps^2."""
    eps = k.epsilon
    off = grid.offsets(min(grid.n - 1, int(np.ceil(eps / grid.h)) + 1))
    z = np.meshgrid(off, off, off, indexing="ij")
    s = (z[0] ** 2 + z[1] ** 2 + z[2] ** 2) / eps ** 2
    W = k.profile(s, len(axes))
    for a in axes:
        W = W * (2.0 * z[a] / eps ** 2)
    if len(axes) == 2 and axes[0] == axes[1]:
        W = W + k.profile(s, 1) * (2.0 / eps ** 2)
    return W / eps ** 3


def kernel_on_grid(k, grid, normalized=True):
    """Kernel sampled at lattice offsets; optionally renormalized to unit
    discrete mass so convolution weights form an exact convex combination."""
    W = _sampled(k, grid, ())
    return W / (W.sum() * grid.cell_volume) if normalized else W


def kernel_grid_mass(k, grid):
    """Raw midpoint mass h^3 * sum of the sampled kernel (no renormalization)."""
    return float(kernel_on_grid(k, grid, normalized=False).sum() * grid.cell_volume)


def _check_resolved(U, k):
    if k.epsilon < 2.0 * U.grid.h:
        raise ValueError("under-resolved kernel: epsilon < 2h")


def mollify(U, k):
    """Convolution of U with the kernel (U taken as 0 outside the box)."""
    _check_resolved(U, k)
    return ScalarField(U.grid, convolve_offsets(U.samples, kernel_on_grid(k, U.grid), U.grid.h))


def mollify_derivative(U, k, multi_index):
    """Convolution of U with an analytically differentiated kernel.

    multi_index = (l, m, n) with 1 <= l + m + n <= 2: derivatives are applied
    to the kernel profile, never to U.
    """
    _check_resolved(U, k)
    mi = tuple(multi_index)
    if (len(mi) != 3 or any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0
                            for v in mi) or not (1 <= sum(mi) <= 2)):
        raise ValueError("multi_index must be 3 nonnegative integers with 1 <= l+m+n <= 2")
    W = _sampled(k, U.grid, tuple(a for a, v in enumerate(mi) for _ in range(v)))
    return ScalarField(U.grid, convolve_offsets(U.samples, W, U.grid.h))
