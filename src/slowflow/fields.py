"""Cell-centered cubic grids, sampled fields, derivatives, and flow diagnostics.

The computational domain is the cube [-L, L]^3 sampled at n cell centers per
axis (midpoint quadrature, weight h^3 per cell).  All fields are expected to
decay well inside the box; boundary stencils are one-sided and see ~zero data.

Stencils on different axes commute exactly (each acts on one tensor factor of
the grid, boundary rows included), so each mixed second derivative is built
once and J2 counts it twice, for the ordered pairs (a, b) and (b, a).

Samples are C-contiguous float64, so a stencil runs its centered interior
as one pass over flat memory, the neighbours along the axis a fixed stride B
apart; a cell whose flat neighbours at +-B are not its axis neighbours lies in
one of the two boundary layers, which the one-sided formulas rewrite.  The
diagnostics take undivided differences into 2 workspaces and scale each norm
once at the end: D1 is exact (rounded division is monotone), J1 and J2 match
the divided derivatives to round-off.  Their sums of squares run on einsum,
never on BLAS, whose summation order depends on its thread count.  With a
divergence tolerance, the first-order pass is also the solver's solenoidal check.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid3", "ScalarField", "VectorField3", "DiagnosticsSample", "FirstOrderSample",
    "make_grid", "integrate", "derive", "divergence", "sup_norm", "flow_energy",
    "first_order_diagnostics", "sample_diagnostics",
]


@dataclass(frozen=True)
class Grid3:
    """Uniform cell-centered grid on [-L, L]^3: n cells per axis, spacing h = 2L/n."""

    n: int
    L: float

    @property
    def h(self):
        return 2.0 * self.L / self.n

    @property
    def cell_volume(self):
        return self.h ** 3

    def axis(self):
        """Cell-center coordinates along one axis: -L + (k + 1/2) h."""
        return -self.L + (np.arange(self.n) + 0.5) * self.h

    def meshgrid(self, sparse=False):
        """Coordinate arrays X1, X2, X3; sparse: shapes (n,1,1), (1,n,1), (1,1,n)."""
        ax = self.axis()
        return np.meshgrid(ax, ax, ax, indexing="ij", sparse=sparse)

    def offsets(self, radius_cells):
        """Lattice-offset coordinates k*h for |k| <= radius_cells."""
        return self.h * np.arange(-radius_cells, radius_cells + 1)


def make_grid(n, L):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("n must be an even integer >= 8")
    if n < 8 or n % 2 != 0:
        raise ValueError("n must be even >= 8")
    if not np.isfinite(L) or L <= 0:
        raise ValueError("L must be > 0")
    return Grid3(int(n), float(L))


@dataclass
class ScalarField:
    """Real samples of a function at the cell centers of a Grid3.

    ``samples`` is C-contiguous float64 of shape (n, n, n), indexed [i1, i2, i3]: a C
    float64 input is shared (a read-only view too), any other copied once; reassigning
    it later skips these checks.  The canonical flat order (files, checksums) is
    x1-fastest, i.e. ``samples.ravel(order="F")``.
    """

    grid: Grid3
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        shape = (self.grid.n,) * 3
        if self.samples.shape != shape:
            raise ValueError(f"samples must have shape {shape}, got {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    @classmethod
    def from_function(cls, grid, fn):
        X1, X2, X3 = grid.meshgrid()
        return cls(grid, fn(X1, X2, X3))

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.n,) * 3))

    def __add__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.samples + other.samples)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.samples - other.samples)

    def __mul__(self, c):
        return ScalarField(self.grid, self.samples * float(c))

    __rmul__ = __mul__


@dataclass
class VectorField3:
    """Three scalar components u1, u2, u3 on one shared grid."""

    u1: ScalarField
    u2: ScalarField
    u3: ScalarField

    def __post_init__(self):
        if not (self.u1.grid == self.u2.grid == self.u3.grid):
            raise ValueError("vector components must share one grid")

    @property
    def grid(self):
        return self.u1.grid

    @property
    def components(self):
        return (self.u1, self.u2, self.u3)

    @classmethod
    def from_functions(cls, grid, f1, f2, f3):
        return cls(*(ScalarField.from_function(grid, f) for f in (f1, f2, f3)))

    @classmethod
    def from_arrays(cls, grid, a1, a2, a3):
        return cls(ScalarField(grid, a1), ScalarField(grid, a2), ScalarField(grid, a3))

    @classmethod
    def zeros(cls, grid):
        return cls(*(ScalarField.zeros(grid) for _ in range(3)))

    def __add__(self, other):
        return VectorField3(*(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return VectorField3(*(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, c):
        return VectorField3(*(a * c for a in self.components))

    __rmul__ = __mul__

    def speed_squared(self):
        """u1^2 + u2^2 + u3^2, accumulated in place in component order."""
        return _squares(self)[2]


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("grid mismatch")


def integrate(U, V):
    """Midpoint-rule inner product h^3 * sum(U V); symmetric and bilinear."""
    _check_same_grid(U, V)
    return float(np.sum(U.samples * V.samples) * U.grid.cell_volume)


def _difference(a, axis, order, out):
    """Undivided centered difference of the given order along axis, hi - lo or
    (hi - 2 mid) + lo, one-sided at its two boundary layers, written into out
    (C-contiguous like a, and not sharing memory with it)."""
    s, o = a.swapaxes(0, axis), out.swapaxes(0, axis)
    B = a.strides[axis] // a.itemsize  # flat distance of axis neighbours
    f, g = a.ravel(), out.ravel()
    lo, mid, hi, dst = f[:-2 * B], f[B:-B], f[2 * B:], g[B:-B]
    if order == 1:
        np.subtract(hi, lo, out=dst)
        o[0] = -3 * s[0] + 4 * s[1] - s[2]
        o[-1] = 3 * s[-1] - 4 * s[-2] + s[-3]
    else:
        np.multiply(mid, 2, out=dst)
        np.subtract(hi, dst, out=dst)
        dst += lo
        o[0] = 2 * s[0] - 5 * s[1] + 4 * s[2] - s[3]
        o[-1] = 2 * s[-1] - 5 * s[-2] + 4 * s[-3] - s[-4]
    return out


def _derive_array(a, axis, order, h):
    """Centered stencil of the given order along axis: the undivided difference
    divided once by 2h or h^2, into a new array laid out as a."""
    out = _difference(a, axis, order, np.empty_like(a))
    out /= 2 * h if order == 1 else h ** 2
    return out


def derive(U, axis, order=1):
    """Finite-difference partial derivative along axis 1, 2 or 3 (order 1 or 2).

    Centered O(h^2) stencils inside, one-sided O(h^2) stencils at the two
    boundary layers.  Deterministic.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2, or 3")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    return ScalarField(U.grid, _derive_array(U.samples, axis - 1, order, U.grid.h))


def divergence(u):
    parts = [derive(c, ax).samples for c, ax in zip(u.components, (1, 2, 3))]
    return ScalarField(u.grid, parts[0] + parts[1] + parts[2])


def sup_norm(u):
    """Max over the grid of |U| (scalar) or of the Euclidean speed (vector)."""
    if isinstance(u, ScalarField):
        return float(np.abs(u.samples).max())
    return _squares(u)[1]


def _sum_squares(a):
    """Sum of a ** 2 over C-contiguous a, in one deterministic single-thread pass."""
    return np.einsum("i,i->", a.ravel(), a.ravel())


def _norms(u, m, div_rtol=None):
    """[J1, ..., Jm] and D1 of u from undivided differences per component and axis: the
    first one f, then (m = 2) the pure second one and those of f along each later axis (2
    ordered pairs each), each norm scaled once; u fails if ||div u|| > div_rtol J1 (if given)."""
    s1 = pure = mixed = big = 0.0
    f, div = np.empty((u.grid.n,) * 3), None  # the first difference, div u
    g = np.empty_like(f) if m == 2 else None  # the second-order workspace
    for i, c in enumerate(u.components):
        a = c.samples
        for ax in range(3):
            _difference(a, ax, 1, f)
            s1 += _sum_squares(f)
            big = max(big, f.max(), -f.min())
            if div_rtol is not None and ax == i:
                div = f.copy() if div is None else np.add(div, f, out=div)
            if m == 2:
                pure += _sum_squares(_difference(a, ax, 2, g))
                for bx in range(ax + 1, 3):
                    mixed += _sum_squares(_difference(f, bx, 1, g))
    if div_rtol is not None and s1 > 0 and np.sqrt(_sum_squares(div)) > div_rtol * np.sqrt(s1):
        raise ValueError("u0 is not solenoidal within tolerance")
    h, vol = u.grid.h, u.grid.cell_volume
    J = [float(np.sqrt(s1 * vol)) / (2 * h), float(np.sqrt((pure + mixed / 8) * vol)) / h ** 2]
    return J[:m], float(big) / (2 * h)


def _squares(u):
    """W = h^3 sum u_i u_i (each component's squares summed, the sums added in
    component order), V = max speed, and the speed^2 per cell, from one pass."""
    speed2 = np.square(u.u1.samples)
    total, buf = np.sum(speed2), np.empty_like(speed2)
    for c in (u.u2, u.u3):
        total += np.sum(np.square(c.samples, out=buf))
        speed2 += buf
    return float(total * u.grid.cell_volume), float(np.sqrt(speed2.max())), speed2


def flow_energy(u):
    """W = integral of u_i u_i over the box."""
    return _squares(u)[0]


DiagnosticsSample = namedtuple("DiagnosticsSample", "t W J1 J2 V D1")  # all but t >= 0
FirstOrderSample = namedtuple("FirstOrderSample", "t W J1 V D1")


def _diagnose(u, t, m, div_rtol=None):
    """One state's diagnosis to order m (9 or 27 stencils; div_rtol as in ``_norms``)."""
    J, D1 = _norms(u, m, div_rtol)
    W, V, _ = _squares(u)
    return (FirstOrderSample if m == 1 else DiagnosticsSample)(float(t), W, *J, V, D1)


def first_order_diagnostics(u, t):
    """W, J1, V and D1 of one state (9 stencils), bit for bit those of ``sample_diagnostics``."""
    return _diagnose(u, t, 1)


def sample_diagnostics(u, t):
    """W, J1, J2, V and D1 of one state (27 stencils)."""
    return _diagnose(u, t, 2)
