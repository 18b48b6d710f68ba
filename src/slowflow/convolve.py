"""Offset-lattice convolutions and singular-kernel cell averages.

A kernel is sampled at lattice offsets z = k*h, |k| <= R per axis (odd-shaped
array, center = offset 0) or, if even or odd along each axis, as the
``Octant`` of offsets 0..R.  The convolution out(x) = h^3 * sum_y K(x - y) U(y)
treats U as zero outside the box.  ``convolver`` is the one entry point: it
transforms one kernel, or several of one radius, once for many fields, and
its engine ``SpectralAccumulator`` sums their products before one inverse.

Free-space padding (Hockney & Eastwood): a kernel centred in a cyclic box
(offset m at index m mod P) gives the linear result on the window [0, n) once
P >= n + R; P is the smallest even such size (DCT-I and DST-I parts need an
even period, and a matrix transform costs more as P grows).  Every transform
is a dense real matrix applied by ``matmul`` (BLAS): along an axis, the P cos
and sin rows of the DFT of a line zero-padded from n to P, and the n x P
inverse on the window.  A kernel part even or odd along each axis has the real
spectrum T, its octant's DCT-I along even axes and DST-I along odd ones, of
size (P/2 + 1)^3 (Martucci, IEEE Trans. Signal Process. 42:1038, 1994); the
DFT is T times -i per odd axis, which swaps cos and sin rows.  An odd cube is
the sum of its nonzero parity parts, at most 8.

Kernels with an integrable singularity at an offset are represented by their
exact cell averages near the singular point (scale-invariant constants,
computed once by quadrature) and by midpoint values elsewhere.
"""

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import product

import numpy as np

sfft = np.fft  # not called; perfbench's traced run patches this name to count transforms

# Integral of 1/|z|^2 over the unit corner cube [0,1]^3 (octant recursion +
# Gauss-Legendre; agrees with the Bailey-Borwein box integral B3(-2)).
CORNER_CUBE_INV_R2 = 1.9185177746113493
# Integral of 1/|z| over the unit corner cube [0,1]^3 (box integral B3(-1)).
CORNER_CUBE_INV_R = 1.1900386819102190
# Half-width in cells of the block of exact cell averages around a singularity.
NEAR = 3


def fft_workers():
    """1, for the benchmark's record: convolutions run on BLAS threads, set outside slowflow."""
    return 1


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


def convolver(kernels, n, h):
    """(f_1, ..., f_k) -> h^3 * sum_i K_i * f_i for fields on an n^3 grid, with
    one inverse transform per call.  ``kernels`` is one kernel or a list of
    kernels of one radius, each cropped and transformed once for every call."""
    kernels = kernels if isinstance(kernels, list) else [kernels]  # an Octant is a tuple
    cropped = [_crop_to_box(K, n) for K in kernels]
    R = cropped[0][1]
    acc = SpectralAccumulator(n, R, h)
    spectra = [acc.kernel_fft(K) for K, _ in cropped]  # its shape check rejects mixed radii

    def apply(*fields):
        acc = SpectralAccumulator(n, R, h)
        for samples, T in zip(fields, spectra, strict=True):
            acc.add(acc.field_fft(samples), T)
        return acc.extract()
    return apply


def convolve_offsets(samples, kernel, h):
    """h^3 * linear convolution of a field with an offset kernel (odd cube or octant)."""
    return convolver(kernel, samples.shape[0], h)(samples)


class SpectralAccumulator:
    """Accumulate sums of kernel convolutions in the spectral domain.

    All kernels must share one offset radius R; transforms are padded to the
    smallest even P >= n + R, and the inverse runs once."""

    def __init__(self, n, radius_cells, h):
        self.n, self.R, self.h = n, int(radius_cells), h
        self.P = n + self.R + (n + self.R) % 2
        self._acc = None

    def field_fft(self, samples):
        """Axes 0 and 1 transformed, (P, P, n); ``add`` transforms axis 2."""
        F = _trig(self.P, self.n)[2]
        return (F @ np.matmul(F, samples).reshape(self.n, -1)).reshape(self.P, self.P, -1)

    def kernel_fft(self, kernel):
        """(odd per axis, T) of each parity part: a cube's nonzero ones, at most 8."""
        octant, R = isinstance(kernel, Octant), self.R
        shape = np.shape(kernel.samples if octant else kernel)
        if shape != (R + 1 if octant else 2 * R + 1,) * 3:
            raise ValueError(f"kernel shape {shape} does not match radius {R}")
        if octant:
            parts = [(tuple(ax == kernel.odd_axis for ax in range(3)), kernel.samples)]
        else:
            parts = [((), kernel)]
            for ax in range(3):  # offsets m >= 0, offsets -m added or subtracted
                parts = [(odd + (sign < 0,), 0.5 * (p.take(range(R, 2 * R + 1), ax)
                                                     + sign * p.take(range(R, -1, -1), ax)))
                         for odd, p in parts for sign in (1.0, -1.0)]
            parts = [part for part in parts if part[1].any()] or parts[:1]
        rows = [a * np.where(np.arange(R + 1) > 0, 2.0, 1.0) for a in _trig(self.P, R + 1)[:2]]
        # cos (sin) rows along even (odd) axes, axis 0 first: each appends its frequency axis
        return [(odd, reduce(lambda T, o: np.tensordot(T, rows[o], (0, 1)), odd, p))
                for odd, p in parts]

    def add(self, field_fft, kernel_fft):
        """Add field times kernel, back in space along axis 2 (the forward pass, the
        product, the inverse, per slab of axis-0 rows); consumes ``field_fft``."""
        n, P, M = self.n, self.P, self.P // 2
        F, inv = _trig(P, n)[2:]
        k = np.concatenate([np.arange(M + 1), np.arange(1, M)])  # the frequency of each row
        step = max(1, 512 // P)  # slabs of about 512 matrix rows
        for i, (odd, T) in enumerate(kernel_fft):  # the last part overwrites field_fft
            Z, out = field_fft, field_fft if i == len(kernel_fft) - 1 else np.empty((P, P, n))
            for ax in np.flatnonzero(odd[:2]):
                Z = _times_minus_i(Z, ax)
            inv2 = -_times_minus_i(inv, 0) if odd[2] else inv  # axis 2's swap S: S^T = -S
            for j in range(0, P, step):
                W = (Z[j:j + step].reshape(-1, n) @ F.T).reshape(-1, P, P)
                W *= T[k[j:j + step]].take(k, axis=2).take(k, axis=1)
                np.matmul(W.reshape(-1, P), inv2, out=out[j:j + step].reshape(-1, n))
            self._acc = out if self._acc is None else np.add(self._acc, out, out=self._acc)

    def extract(self):
        """The sum on the box, transformed back along axes 1 and 0; empties the accumulator."""
        acc, self._acc, n, inv = self._acc, None, self.n, _trig(self.P, self.n)[3].T
        return np.matmul(inv * self.h ** 3, (inv @ acc.reshape(self.P, -1)).reshape(n, self.P, n))


@lru_cache(maxsize=None)
def _trig(P, m):
    """Read-only cos and sin of 2 pi k x / P (k = 0..P/2, x < m; sin 0 at k x = 0 mod
    P/2), the P x m transform of a line padded from m to P (cos rows, then sin
    rows for 0 < k < P/2) and its inverse's transpose, rows weighted 2/P or 1/P."""
    j = np.arange(P // 2 + 1)[:, None] * np.arange(m) % P
    cos, sin = np.cos(2.0 * np.pi / P * j), np.sin(2.0 * np.pi / P * j) * (j % (P // 2) > 0)
    F = np.concatenate([cos, sin[1:-1]])
    inv = F * np.where(np.arange(P) % (P // 2) == 0, 1.0 / P, 2.0 / P)[:, None]
    cos.flags.writeable = sin.flags.writeable = F.flags.writeable = inv.flags.writeable = False
    return cos, sin, F, inv


def _times_minus_i(a, axis):
    """-i times a spectrum along ``axis`` (its kernel 0 at k = 0, P/2): a signed half roll."""
    M = a.shape[axis] // 2
    a = np.roll(a, M, axis)
    a.swapaxes(0, axis)[:M] *= -1.0
    return a


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
