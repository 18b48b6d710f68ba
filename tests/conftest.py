import numpy as np
import pytest

from slowflow import fields, make_grid
from slowflow.fieldgen import gaussian_bump
from slowflow.stokes import ForcingField


@pytest.fixture
def grid16():
    return make_grid(16, 4.0)


@pytest.fixture
def grid32():
    return make_grid(32, 8.0)


@pytest.fixture
def gauss32(grid32):
    return gaussian_bump(grid32, width=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def count_stencils(monkeypatch):
    """A call that starts counting: it returns the list that then receives the
    order of every stencil (a ``fields._difference`` call)."""
    def start():
        calls = []
        difference = fields._difference

        def counting(a, axis, order, out):
            calls.append(order)
            return difference(a, axis, order, out)

        monkeypatch.setattr(fields, "_difference", counting)
        return calls
    return start


@pytest.fixture
def count_forcing_samples():
    """A call that wraps a forcing: it returns a new ForcingField with the same
    samples, and the time of every sample any wrapped forcing takes goes to the
    list ``count_forcing_samples.times``."""
    def counted(forcing):
        return ForcingField(forcing.grid, lambda t: times.append(t) or forcing.at(t))
    times = counted.times = []
    return counted


def _full_lattice(octant):
    """The (2R+1)^3 offset lattice of an octant kernel: its samples reflected
    about offset 0 along each axis, negated along its odd axis."""
    K = octant.samples
    for ax in range(3):
        tail = np.flip(K, ax).take(range(K.shape[ax] - 1), ax)  # offsets R..1
        K = np.concatenate([-tail if ax == octant.odd_axis else tail, K], ax)
    return K


@pytest.fixture
def full_lattice():
    return _full_lattice
