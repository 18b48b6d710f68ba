"""Reference paths the tests compare slowflow against; no run path calls them.

Kept free of scipy: the start-up check in ``test_convolve`` calls the direct
sum in an interpreter that refuses every scipy import.
"""

from itertools import product

import numpy as np

from slowflow.convolve import _crop_to_box, offset_lattice


def convolve_direct(samples, kernel, h):
    """h^3 * sum_y K(x - y) U(y) by a direct sum over the kernel's offsets (odd
    cube or Octant; small grids and kernels only), U zero outside the box."""
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
