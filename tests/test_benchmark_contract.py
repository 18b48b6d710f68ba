"""What the benchmark in perfbench/ reads from slowflow.

perfbench/run.py exits 1 when an op raises or a set-up process's warm-up op
fails its gate, and perfbench/layers.py wraps named slowflow functions and
methods at import.  These tests run each workload's first seed-1 request
through its op and gate, as a run's warm-up does, and check the names the
traced run wraps.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402

from slowflow import convolve  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_seed_1_request_passes_its_gate(tmp_path, name):
    wl = workloads.WORKLOADS[name](str(tmp_path))
    req = wl.request(np.random.default_rng(1))
    assert wl.gate(req, wl.op(req)) == []


def test_names_the_traced_run_wraps_exist():
    assert isinstance(convolve.fft_workers(), int)
    assert "sfft" in vars(convolve)
    for cls, attr in layers.METHODS:
        assert inspect.isfunction(vars(cls)[attr])
