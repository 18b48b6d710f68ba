"""Host-speed calibration: fixed numpy work timed around every op.

The benchmark runs on a few cores of a shared host whose speed drifts by 30%
and more over tens of seconds, for every kind of code alike (a pure-Python
loop, FFTs and slowflow's ops slow down together).  A median over many ops
removes the noise from op to op but not a drift that lasts as long as a run.

So a block of calibration units runs before the first op and after every op,
outside the ops' timed intervals; a block after a long op runs longer.  A
unit is identical work that never changes and never calls slowflow:
elementwise arithmetic on a 3D array, a loop of small numpy calls and a
padded 3D FFT round trip (numpy's FFT, so that it shares no plan cache with
slowflow's scipy FFTs).  An op's reference
time is the mean unit time of the blocks just before and just after it; its
normalized time is its wall time scaled by ``REFERENCE_UNIT_S / reference``,
the time it would have taken on the host while a unit took
``REFERENCE_UNIT_S``.  A faster program moves normalized times exactly as it
moves measured ones; a host that drifts moves the op and the units together
and leaves normalized times where they were.  Set-up times are normalized
the same way, by a block that runs right after each set-up.
"""

import time

import numpy as np

UNITS_PER_BLOCK = 3
BLOCK_SHARE = 0.08  # a block after an op lasts at least this share of the op
# median unit time on the 2-vCPU x86-64 VM of perfbench/baseline.json
REFERENCE_UNIT_S = 0.0135


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(48, 48, 48))
        self._x = rng.normal(size=(40, 40, 40))
        self._rows = [rng.normal(size=16) for _ in range(64)]
        self.units = []  # every unit's wall time
        self.reference = {}  # op id -> mean unit time around it
        self._last = None
        self.unit()  # untimed: fills numpy's FFT plan cache

    def unit(self):
        """Run one calibration unit and return its wall time."""
        a = self._a
        t0 = time.perf_counter()
        for axis in range(3):
            d = (np.roll(a, -1, axis) - np.roll(a, 1, axis)) * 0.5
            np.sum(np.exp(-0.5 * d * d) * np.sqrt(np.abs(a) + 1.0))
        acc = 0.0
        for r in self._rows:
            acc += float(np.polynomial.legendre.legval(0.3, r))
        F = np.fft.rfftn(self._x, s=(64, 64, 64))
        np.fft.irfftn(F * F, s=(64, 64, 64))
        return time.perf_counter() - t0

    def block(self, min_s=0.0):
        """Run a block of at least ``UNITS_PER_BLOCK`` units and ``min_s``
        seconds; return and remember its mean unit time."""
        times = [self.unit() for _ in range(UNITS_PER_BLOCK)]
        while sum(times) < min_s:
            times.append(self.unit())
        self.units += times
        self._last = sum(times) / len(times)
        return self._last

    def after_op(self, op, op_s):
        """Run the block that follows op ``op`` (``op_s`` seconds long) and
        record the op's reference time."""
        before = self._last if self._last is not None else self.block()
        self.reference[op] = 0.5 * (before + self.block(BLOCK_SHARE * op_s))

    def normalized(self, op, op_s):
        """Op ``op``'s wall time ``op_s`` at the reference host speed."""
        return op_s * REFERENCE_UNIT_S / self.reference[op]

    def units_mean(self):
        """Mean time of the units run so far."""
        return sum(self.units) / len(self.units)
