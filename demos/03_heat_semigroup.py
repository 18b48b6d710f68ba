"""
The diffusive solution operator
===============================

Without forcing, the velocity field evolves by componentwise convolution with
a Gaussian kernel.  The discrete kernel is renormalized to exact unit mass, so
sup-speed, energy, and gradient seminorms are all non-increasing, and the
evolution of Gaussian data matches the closed-form spread to near machine
precision.
"""

import numpy as np

from slowflow import VectorField3, make_grid
from slowflow.fieldgen import solenoidal_gaussian
from slowflow.stokes import FluidParams, heat_propagate, solve_linearized

par = FluidParams(nu=1.0, rho=1.0)
grid = make_grid(64, 8.0)

# closed-form check: a unit Gaussian component spreads to width sqrt(1 + 2 nu t)
X1, X2, X3 = grid.meshgrid()
r2 = X1 ** 2 + X2 ** 2 + X3 ** 2
u0 = VectorField3.from_arrays(grid, np.exp(-r2 / 2), np.zeros_like(r2), np.zeros_like(r2))
ut = heat_propagate(u0, par, 0.5)
st2 = 1.0 + 2 * par.nu * 0.5
exact = st2 ** -1.5 * np.exp(-r2 / (2 * st2))
print(f"closed-form max error: {np.abs(ut.u1.samples - exact).max() / exact.max():.2e}")

# monotone diagnostics along a run from a solenoidal vortex
u0 = solenoidal_gaussian(grid, width=1.0)
states = solve_linearized(u0, None, par, list(np.linspace(0.0, 1.0, 6)))
print("\n   t        W          J1         V          D1")
for s in states:
    d = s.diagnostics
    print(f"  {d.t:4.2f}  {d.W:9.5f}  {d.J1:9.5f}  {d.V:9.6f}  {d.D1:9.6f}")

# the semigroup property: two short steps equal one long step
a = heat_propagate(heat_propagate(u0, par, 0.3), par, 0.2)
b = heat_propagate(u0, par, 0.5)
err = max(np.abs(x.samples - y.samples).max() for x, y in zip(a.components, b.components))
print(f"\nsemigroup composition error: {err:.2e}")
