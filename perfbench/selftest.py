"""Self-tests of the benchmark's own loop, gates and tracer.  Run from the
repository root (the gate tests import slowflow from src/):

    python3 perfbench/selftest.py
"""

import io
import os
import sys
import time
import types
import unittest

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import REFERENCE_UNIT_S, UNITS_PER_BLOCK, Calibration  # noqa: E402
from run import run_loop  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeWorkload:
    """Request 1 raises, request 2 returns a corrupted output."""

    n, states = 4, 2

    def op(self, req):
        time.sleep(0.002)
        if req == 1:
            raise RuntimeError("boom")
        return -req if req == 2 else req

    def gate(self, req, out):
        return [] if out == req else [f"output {out} != {req}"]


class LoopTests(unittest.TestCase):
    def test_traced_loop_alternates_traced_and_untraced_ops(self):
        mod = _module()
        tracer = Tracer()
        tracer.instrument([mod])

        class Calls(FakeWorkload):
            def op(self, req):
                return mod.leaf(req) - 1

        passed, attempted, _, _, _ = run_loop(Calls(), [0, 3, 4, 5], 0.0, tracer)
        self.assertEqual(attempted, 2)
        self.assertEqual([traced for _, _, traced in passed], [True, False])
        self.assertEqual([s[0] for s in tracer.spans], ["op", "inner.leaf"])


    def test_raised_and_corrupted_ops_count_as_failed(self):
        requests = [0, 1, 2, 3]
        log = io.StringIO()
        passed, attempted, failed, wall, cells = run_loop(FakeWorkload(), requests, 0.03, log=log)
        seen = [requests[(i + 1) % len(requests)] for i in range(attempted)]
        self.assertGreaterEqual(attempted, 4)  # the loop kept going after the raise
        self.assertEqual(failed, sum(r in (1, 2) for r in seen))
        self.assertEqual([op for op, _, _ in passed],
                         [i + 1 for i, r in enumerate(seen) if r not in (1, 2)])
        self.assertEqual(cells, len(passed) * 4 ** 3 * 2)
        self.assertIn("boom", log.getvalue())
        self.assertIn("output -2 != 2", log.getvalue())

    def test_calibration_brackets_every_op(self):
        calibration = Calibration()
        calibration.block()
        passed, attempted, _, _, _ = run_loop(FakeWorkload(), [0, 3, 4, 5], 0.01,
                                              calibration=calibration)
        self.assertEqual(sorted(calibration.reference), list(range(1, attempted + 1)))
        self.assertEqual(len(calibration.units), (attempted + 1) * UNITS_PER_BLOCK)
        op, dt, _ = passed[0]
        self.assertAlmostEqual(calibration.normalized(op, dt) * calibration.reference[op],
                               dt * REFERENCE_UNIT_S)


class GateTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        src = os.path.join(os.getcwd(), "src")
        if not os.path.isdir(os.path.join(src, "slowflow")):
            raise unittest.SkipTest("run from the repository root")
        sys.path.insert(0, src)
        global workloads, fields, report, stokes
        import workloads
        from slowflow import fields, report, stokes

    def test_forced_gate_rejects_a_corrupted_output(self):
        wl = workloads.ForcedDuhamel(None)
        req = wl.request(np.random.default_rng(0))
        pulse = req["pulse"]
        X1, X2, X3 = wl.grid.meshgrid()
        phi = pulse["amplitude"] * np.exp(-(X1 ** 2 + X2 ** 2 + X3 ** 2) / (2 * pulse["width"] ** 2))
        states = [stokes.FlowState(
            t, req["shape"] * np.sin(0.5 * np.pi * t / wl.T_RAMP) ** 2,
            fields.ScalarField(wl.grid, wl.rho * np.exp(-t / pulse["t_scale"]) * phi))
            for t in wl.times]
        self.assertEqual(wl.gate(req, states), [])
        c = wl.n // 2
        states[-1].u.u2.samples[c - 4, c, c] += 0.1
        self.assertEqual(len(wl.gate(req, states)), 1)
        states[0].p.samples *= 1.2
        self.assertEqual(len(wl.gate(req, states)), 2)

    def test_each_report_must_meet_its_expectation(self):
        ok = report.make_report("ok", 1.0, 2.0, 0.0)
        bad = report.make_report("bad", 3.0, 2.0, 0.0)
        control = report.make_report("control", 3.0, 2.0, 0.0, {"expected": "fail"})
        self.assertEqual(workloads._failed_reports([ok, control]), [])
        self.assertEqual(len(workloads._failed_reports([bad, control])), 1)
        control.passed = True
        self.assertEqual(len(workloads._failed_reports([ok, control])), 1)


def _module():
    mod = types.ModuleType("pkg.inner")
    exec("def leaf(x):\n    return x + 1\n"
         "def outer(x):\n    return leaf(x) * 2\n"
         "def broken():\n    raise ValueError('no')\n"
         "def _private():\n    return 0\n", mod.__dict__)
    for f in ("leaf", "outer", "broken", "_private"):
        getattr(mod, f).__module__ = mod.__name__
    return mod


class TracerTests(unittest.TestCase):
    def test_one_call_records_one_span_under_its_parent(self):
        mod = _module()
        tracer = Tracer()
        tracer.instrument([mod])
        tracer.op_span(1)
        self.assertEqual(mod.outer(1), 4)
        tracer.end_op()
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["op", "inner.outer", "inner.leaf"])
        op, outer, leaf = tracer.spans
        self.assertIsNone(op[3])
        self.assertEqual(outer[3], 0)
        self.assertEqual(leaf[3], 1)
        self.assertTrue(all(s[4] == 1 for s in tracer.spans))
        funcs, coverage = tracer.summary([1])
        self.assertEqual(funcs["inner.outer"]["calls"], 1)
        self.assertLessEqual(funcs["inner.outer"]["self_s"], outer[2] - outer[1])
        self.assertTrue(0.0 < coverage <= 1.0)

    def test_escaped_error_and_restore(self):
        mod = _module()
        original, private = mod.broken, mod._private
        tracer = Tracer()
        tracer.instrument([mod])
        self.assertIs(mod._private, private)
        tracer.op_span(1)
        with self.assertRaises(ValueError):
            mod.broken()
        tracer.end_op()
        funcs, _ = tracer.summary([1])
        self.assertEqual(funcs["inner.broken"]["errors"], 1)
        self.assertNotIn("inner._private", funcs)
        tracer.restore()
        self.assertIs(mod.broken, original)

    def test_disabled_tracer_records_nothing(self):
        mod = _module()
        tracer = Tracer()
        tracer.instrument([mod])
        tracer.enabled = False
        mod.outer(1)
        self.assertEqual(tracer.spans, [])


if __name__ == "__main__":
    unittest.main()
