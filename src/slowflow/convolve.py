"""Offset-lattice convolutions and singular-kernel cell averages.

A kernel is sampled at lattice offsets z = k*h, |k| <= R per axis (odd-shaped
array, center = offset 0) or, if even or odd along each axis, as the
``Octant`` of offsets 0..R.  The convolution out(x) = h^3 * sum_y K(x - y) U(y)
treats U as zero outside the box.  One FFT engine, ``SpectralAccumulator``,
serves every FFT convolution; ``convolver`` transforms a kernel once for many
fields, and a direct-sum path exists for oracle comparisons on small grids.
Every transform is numpy.fft's (``sfft``), so the module loads no scipy.

Free-space padding (Hockney & Eastwood): a kernel centred in a cyclic box
(offset m at index m mod P) gives the linear result on the window [0, n) once
P >= n + R, and P is the smallest even fast length >= n + R.  Field transforms
skip the lines the padding leaves zero or the crop discards.  A general kernel
takes one rfftn; an octant kernel a DCT-I per even axis and -i times a DST-I
per odd one, of length P/2 + 1, each one unscaled inverse real FFT of length P
(Martucci, IEEE Trans. Signal Process. 42:1038, 1994): n^3 samples, not
(2n - 1)^3, and an even kernel's spectrum is real.

Kernels with an integrable singularity at an offset are represented by their
exact cell averages near the singular point (scale-invariant constants,
computed once by quadrature) and by midpoint values elsewhere.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import count, product

import numpy as np

sfft = np.fft

# Integral of 1/|z|^2 over the unit corner cube [0,1]^3 (octant recursion +
# Gauss-Legendre; agrees with the Bailey-Borwein box integral B3(-2)).
CORNER_CUBE_INV_R2 = 1.9185177746113493
# Integral of 1/|z| over the unit corner cube [0,1]^3 (box integral B3(-1)).
CORNER_CUBE_INV_R = 1.1900386819102190
# Half-width in cells of the block of exact cell averages around a singularity.
NEAR = 3


def fft_workers():
    """Thread count of the FFTs: 1, as numpy.fft runs on one thread."""
    return 1


def _fast_len(m):
    """The smallest 2,3,5,7,11-smooth integer >= m (scipy.fft.next_fast_len's rule)."""
    def rough(k):
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        return k
    return next(k for k in count(m) if rough(k) == 1)


# A kernel even along every axis but odd_axis (odd there; None: even in all),
# by its samples at the offsets 0..R of each axis.
Octant = namedtuple("Octant", "samples odd_axis", defaults=(None,))


def _crop_to_box(kernel, n):
    """The kernel and its radius, cropped to R <= n - 1: offsets beyond n - 1
    never connect two cells of the box, so the crop is exact."""
    if isinstance(kernel, Octant):
        return kernel._replace(samples=kernel.samples[:n, :n, :n]), min(len(kernel.samples), n) - 1
    shape = np.shape(kernel)
    if len(shape) != 3 or len(set(shape)) != 1 or shape[0] % 2 == 0:
        raise ValueError(f"kernel must be a 3D cube of odd side, got shape {shape}")
    R = (shape[0] - 1) // 2
    inner = slice(max(0, R - n + 1), R + n)
    return kernel[inner, inner, inner], min(R, n - 1)


def convolver(kernel, n, h):
    """f -> h^3 * K * f for fields on an n^3 grid, with the kernel cropped and
    transformed once for every call."""
    kernel, R = _crop_to_box(kernel, n)
    kernel_fft = SpectralAccumulator(n, R, h).kernel_fft(kernel)

    def apply(samples):
        acc = SpectralAccumulator(n, R, h)
        acc.add(acc.field_fft(samples), kernel_fft)
        return acc.extract()
    return apply


def convolve_offsets(samples, kernel, h):
    """h^3 * linear convolution of a field with an offset kernel (odd cube or octant)."""
    return convolver(kernel, samples.shape[0], h)(samples)


class SpectralAccumulator:
    """Accumulate sums of kernel convolutions in the spectral domain.

    All kernels must share one offset radius R; transforms are padded to the
    even P >= n + R of the module docstring, and the inverse runs once."""

    def __init__(self, n, radius_cells, h):
        self.n, self.R, self.h = n, int(radius_cells), h
        self.P = 2 * _fast_len((n + self.R + 1) // 2)
        self._acc = None

    def field_fft(self, samples):
        # last axis first, into the n^2 data lines of the zeroed spectrum; then
        # axis 1 on the n data planes only, and axis 0
        n, P = self.n, self.P
        out = np.zeros((P, P, P // 2 + 1), complex)
        sfft.rfft(samples, n=P, axis=2, out=out[:n, :n])
        sfft.fft(out[:n], axis=1, out=out[:n])
        return sfft.fft(out, axis=0, out=out)

    def kernel_fft(self, kernel):
        """The half spectrum of the kernel centred in the P^3 box.  An octant takes
        a DCT-I or DST-I per axis, axis 0 first; axes 0 and 1 then reach length P
        by K^[P - k] = +-K^[k].  Real if even, -i times real if odd."""
        octant = isinstance(kernel, Octant)
        shape = np.shape(kernel.samples if octant else kernel)
        if shape != (self.R + 1 if octant else 2 * self.R + 1,) * 3:
            raise ValueError(f"kernel shape {shape} does not match radius {self.R}")
        P, M = self.P, self.P // 2
        if not octant:
            box = np.pad(kernel, (0, P - shape[0]))  # offset m at index m + R
            return sfft.rfftn(np.roll(box, -self.R, axis=(0, 1, 2)))
        odd, S = kernel.odd_axis, kernel.samples
        for ax in (0, 1, 2):  # DCT-I of S, or DST-I as that of -i*S: one unscaled
            # irfft along the last axis, where the complex cast moves axis ax
            S = np.multiply(S.transpose(1, 2, 0), -1j if ax == odd else 1 + 0j, order="C")
            S = sfft.irfft(S, n=P, norm="forward")[..., :M + 1]
        S = S if odd is None else -1j * S
        out = np.empty((P, P, M + 1), S.dtype)
        out[:M + 1, :M + 1] = S
        np.multiply(S[M - 1:0:-1], 1 - 2 * (odd == 0), out=out[M + 1:, :M + 1])
        np.multiply(out[:, M - 1:0:-1], 1 - 2 * (odd == 1), out=out[:, M + 1:])
        return out

    def add(self, field_fft, kernel_fft):
        term = field_fft * kernel_fft
        self._acc = term if self._acc is None else np.add(self._acc, term, out=self._acc)

    def extract(self):
        """The accumulated sum cropped to the box, each axis pass keeping only
        the window; empties the accumulator, whose transform it overwrites."""
        acc, self._acc = self._acc, None
        keep = slice(0, self.n)
        acc = sfft.ifft(acc, axis=0, out=acc)[keep]
        acc = sfft.ifft(acc, axis=1, out=acc)[:, keep]
        acc = sfft.irfft(acc, n=self.P, axis=2)
        return acc[..., keep] * self.h ** 3


def offset_lattice(kernel):
    """The kernel as a (2R+1)^3 offset lattice: an Octant reflected about offset
    0 along each axis (negated along its odd axis), any other kernel as given."""
    if not isinstance(kernel, Octant):
        return kernel
    k = abs(np.arange(1 - len(kernel.samples), len(kernel.samples)))  # offsets -R..R
    K = kernel.samples[np.ix_(k, k, k)]
    if kernel.odd_axis is not None:
        K.swapaxes(0, kernel.odd_axis)[:len(k) // 2] *= -1
    return K


def convolve_direct(samples, kernel, h):
    """Direct-sum reference convolution (small grids / small kernels only)."""
    n = samples.shape[0]
    kernel, R = _crop_to_box(offset_lattice(kernel), n)
    out = np.zeros_like(samples)
    for di, dj, dk in product(range(-R, R + 1), repeat=3):
        w = kernel[di + R, dj + R, dk + R]
        if w == 0.0:
            continue
        src = tuple(slice(max(0, -d), min(n, n - d)) for d in (di, dj, dk))
        dst = tuple(slice(max(0, d), min(n, n + d)) for d in (di, dj, dk))
        out[dst] += w * samples[src]
    return out * h ** 3


@lru_cache(maxsize=None)
def _gauss_legendre(m):
    """Read-only Gauss-Legendre nodes and weights of the m-point rule on [-1, 1]."""
    xg, wg = np.polynomial.legendre.leggauss(m)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def _gauss_panels(a, b, panels, m):
    """Nodes and weights of composite m-point Gauss-Legendre on equal panels of [a, b]."""
    x, w = _gauss_legendre(m)
    half = 0.5 * (b - a) / panels
    nodes = (a + half * (2 * np.arange(panels) + 1))[:, None] + half * x
    return nodes.ravel(), half * np.tile(w, panels)


def gauss_legendre_cell_average(fn, center, m=16):
    """Average of fn over the unit cube centered at ``center`` (GL m^3 rule)."""
    xg, wg = _gauss_legendre(m)
    pts = [center[d] + 0.5 * xg for d in range(3)]
    W = wg[:, None, None] * wg[None, :, None] * wg[None, None, :]
    X, Y, Z = np.meshgrid(*pts, indexing="ij")
    return float(np.sum(W * fn(X, Y, Z)) / 8.0)


def _cell_average_block(fn, cells, symmetry, exact, shift=0.0):
    """Read-only block of unit-h averages of fn over the unit cubes centered at
    (i, j, k) + shift, i, j, k in ``cells``.  ``symmetry`` maps a cell to its
    key; each key is integrated once, or taken from ``exact``."""
    avgs = dict(exact)
    block = np.empty((len(cells),) * 3)
    for idx in product(range(len(cells)), repeat=3):
        key = symmetry(*(cells[m] for m in idx))
        if key not in avgs:
            avgs[key] = gauss_legendre_cell_average(fn, np.array(key, float) + shift)
        block[idx] = avgs[key]
    block.flags.writeable = False
    return block


@lru_cache(maxsize=None)
def _lattice_cell_averages():
    """Unit-h cell averages of 1/(4 pi |z|) over the cells centered at integer
    offsets 0 <= k <= NEAR per axis, as a read-only (NEAR + 1)^3 octant block.
    The offset-0 cell uses the exact centered-cube integral; values scale as
    1/h.  Each distinct sorted offset triple is integrated once."""
    return _cell_average_block(
        lambda x, y, z: 1.0 / (4.0 * np.pi * np.sqrt(x * x + y * y + z * z)),
        range(NEAR + 1), lambda *k: tuple(sorted(k)),
        # centered unit cube = 8 corner half-cubes, each (1/4) of B3(-1)
        {(0, 0, 0): 8 * 0.25 * CORNER_CUBE_INV_R / (4.0 * np.pi)})


@lru_cache(maxsize=None)
def _dipole_cell_averages():
    """Unit-h cell averages of z1/(4 pi |z|^3) over the cells centered at
    integer offsets 0 <= k <= NEAR per axis, as a read-only (NEAR + 1)^3 octant
    block.  Odd in z1: the cells of the z1 = 0 plane average to exactly zero.
    Values scale as 1/h^2; the z2 and z3 kernels are this block with axes permuted."""
    return _cell_average_block(
        lambda x, y, z: x / (4.0 * np.pi * (x * x + y * y + z * z) ** 1.5),
        range(NEAR + 1), lambda i, j, k: (i, *sorted((j, k))),
        {(0, j, k): 0.0 for j in range(NEAR + 1) for k in range(j, NEAR + 1)})


@lru_cache(maxsize=None)
def _half_offset_inv_r2_averages():
    """Unit-h cell averages of 1/|z|^2 over the cells [i,i+1]x[j,j+1]x[k,k+1],
    -NEAR <= i, j, k < NEAR, as a read-only (2 NEAR)^3 block.

    This is the corner-singularity layout (origin at a cell vertex, as on an
    even cell-centered grid).  The eight corner cells use the exact corner-cube
    integral.  Values scale as 1/h^2.
    """
    return _cell_average_block(
        lambda x, y, z: 1.0 / (x * x + y * y + z * z), range(-NEAR, NEAR),
        lambda *k: tuple(sorted(m if m >= 0 else -1 - m for m in k)),  # first-octant mirror
        {(0, 0, 0): CORNER_CUBE_INV_R2}, shift=0.5)


def inverse_square_weights(grid):
    """Cell-averaged samples of 1/|y|^2 on the grid (origin at the center vertex).

    Far cells use the midpoint value plus the (h^2/24) Laplacian correction
    (the second-order term of the exact cell average); cells within ``NEAR``
    of the origin use exact averages.
    """
    X1, X2, X3 = grid.meshgrid()
    R2 = X1 ** 2 + X2 ** 2 + X3 ** 2
    h = grid.h
    W = 1.0 / R2 + (h * h / 12.0) / R2 ** 2
    sl = slice(grid.n // 2 - NEAR, grid.n // 2 + NEAR)
    W[sl, sl, sl] = _half_offset_inv_r2_averages() / (h * h)
    return W


def _octant_lattice(grid):
    """Octant offsets 0..n-1, |z|^2 (offset 0 set to 1) and the near-block slice."""
    off = grid.h * np.arange(grid.n)
    o2 = off ** 2
    R2 = o2[:, None, None] + o2[None, :, None] + o2[None, None, :]
    R2[0, 0, 0] = 1.0
    return off, R2, slice(0, NEAR + 1)


def newton_kernel(grid):
    """Octant kernel of the Newtonian potential 1/(4 pi r), even in every axis."""
    _, R2, sl = _octant_lattice(grid)
    K = 1.0 / (4.0 * np.pi * np.sqrt(R2))
    K[sl, sl, sl] = _lattice_cell_averages() / grid.h
    return Octant(K)


def dipole_kernels(grid):
    """Octant kernels K_i(z) = z_i/(4 pi |z|^3), i = 1,2,3, K_i odd in axis i.

    The kernel is harmonic away from 0 (midpoint values are 4th-order cell
    averages there); near cells use exact averages, the singular cell is 0.
    """
    off, R2, sl = _octant_lattice(grid)
    denom = 4.0 * np.pi * R2 ** 1.5
    near_block = _dipole_cell_averages() / (grid.h * grid.h)
    kernels = []
    for comp in range(3):
        K = off.reshape([-1 if ax == comp else 1 for ax in range(3)]) / denom
        K[sl, sl, sl] = np.moveaxis(near_block, 0, comp)
        kernels.append(Octant(K, comp))
    return kernels
