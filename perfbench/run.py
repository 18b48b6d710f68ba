"""slowflow benchmark: one closed-loop client, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload heat_verify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

An op is one verification request (see workloads.py).  After set-up (imports,
the seeded request pool, one untimed warm-up op that fills the lazy caches),
ops run back to back for ``--seconds``; at least one op always runs.  Each
op's output is checked outside the timed interval, and calibration units
(calibrate.py) run after it.  The last line of standard output is one JSON
object.

``--trace 0`` reports the end-to-end metrics: the median set-up time of this
process and two fresh set-up processes, the median op time, the cells per
second of the timed ops, and the peak RSS.  Set-up and op times are
normalized to the reference host speed through the calibration units that
run after each set-up and around each op; the measured ones are printed as
``measured.*`` and kept in the run's metadata.

``--trace 1`` wraps every public slowflow function, traces every other op
(the untraced ones give ``trace.overhead``), reports the per-layer metrics
and writes every span to .bench_out/.  Everything is measured inside the
benchmark's own processes: no cold-cache runs and no machine-wide tracing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

WORKLOAD_NAMES = ("heat_verify", "forced_duhamel", "cli_roundtrip")
SETUP_REPEATS = 3  # set-ups per run: the run's own and two fresh processes
NOTE = ("measured inside the benchmark's own processes only: no cold-cache runs, "
        "no machine-wide tracing; one client, closed loop, SLOWFLOW_THREADS unset")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time and stop (used by the run itself)")
    return p.parse_args(argv)


def attempt(wl, req, tracer=None, op=None):
    """Run one op, then check its output outside the timed interval.

    Returns the op's wall time and its problems; an op that raises or misses
    its gate has problems.
    """
    if tracer:
        tracer.op_span(op)
    out, problems = None, []
    t0 = time.perf_counter()
    try:
        out = wl.op(req)
    except Exception:
        problems = ["op raised:\n" + traceback.format_exc()]
    dt = time.perf_counter() - t0
    if tracer:
        tracer.end_op(bool(problems))
        tracer.enabled = False
    if not problems:
        try:
            problems = wl.gate(req, out)
        except Exception:
            problems = ["gate raised:\n" + traceback.format_exc()]
    if tracer:
        tracer.enabled = True
    return dt, problems


def run_loop(wl, requests, seconds, tracer=None, log=sys.stderr, calibration=None):
    """Closed loop: ops back to back until ``seconds`` have passed.

    A failed op is counted and the loop goes on.  With a tracer, odd ops are
    traced and even ops are not, so the tracing overhead is measured against
    ops of the same run.  With a calibration, its units run after each op's
    gate (calibrate.py).  Returns ``(op id, wall time, traced)`` of the ops
    that passed, ops attempted, ops failed, the ops' summed wall time and the
    cells the passed ops delivered.
    """
    passed, attempted, failed, wall, cells = [], 0, 0, 0.0, 0
    start = time.perf_counter()
    while attempted < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        req = requests[(attempted + 1) % len(requests)]
        attempted += 1
        traced = tracer is not None and attempted % 2 == 1
        if tracer:
            tracer.enabled = traced
        dt, problems = attempt(wl, req, tracer if traced else None, attempted)
        wall += dt
        if problems:
            failed += 1
            print(f"op {attempted} failed: " + "; ".join(problems), file=log)
        else:
            passed.append((attempted, dt, traced))
            cells += wl.n ** 3 * wl.states
        if calibration:
            calibration.after_op(attempted, dt)
    return passed, attempted, failed, wall, cells


def set_up(args, root, tracer=None):
    """Make the workload and its seeded request pool, run one warm-up op.

    Returns the workload, the requests, its work directory, the set-up time
    from process start, the warm-up op's problems and, without a tracer, a
    calibration whose first block ran right after set-up.
    """
    import numpy as np

    import workloads
    from calibrate import Calibration

    work = os.path.join(root, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    if tracer:
        tracer.op = "setup"
    wl = workloads.WORKLOADS[args.workload](work)
    rng = np.random.default_rng(args.seed)
    requests = [wl.request(rng) for _ in range(workloads.POOL)]
    if tracer:
        tracer.op = None
        tracer.enabled = False
    before_warmup = time.perf_counter() - T_START
    warmup_s, warm_problems = attempt(wl, requests[0])
    calibration = None
    if not tracer:
        calibration = Calibration()
        calibration.block()
    return wl, requests, work, before_warmup + warmup_s, warm_problems, calibration


def setup_only(args, root):
    """Set up as a run does, print the set-up time and stop."""
    work = None
    try:
        _, _, work, setup_s, warm_problems, calibration = set_up(args, root)
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "reference_s": calibration.units_mean(),
                      "warmup_ok": not warm_problems}))
    return 0 if not warm_problems else 1


def fresh_setups(args, count):
    """``(set-up time, reference unit time)`` of ``count`` fresh processes,
    one after another."""
    setups = []
    for _ in range(count):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
        setups.append((out["setup_s"], out["reference_s"]))
    return setups


def run_workload(args, root):
    """Set up, warm up, run the timed loop; return the result object."""
    import numpy as np
    import scipy

    from calibrate import REFERENCE_UNIT_S
    from slowflow import convolve
    from tracer import Tracer

    tracer = work = None
    try:
        if args.trace:
            import layers
            import workloads
            tracer = Tracer()
            layers.instrument(tracer, workloads.WORKLOADS[args.workload].n)
        wl, requests, work, setup_s, warm_problems, calibration = set_up(args, root, tracer)
        if warm_problems:
            print("warm-up op failed: " + "; ".join(warm_problems), file=sys.stderr)
        setups = [(setup_s, calibration.units_mean() if calibration else None)]
        passed, attempted, failed, wall, cells = run_loop(
            wl, requests, args.seconds, tracer, calibration=calibration)
        if tracer:
            tracer.restore()
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        setups += fresh_setups(args, SETUP_REPEATS - 1)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "SLOWFLOW_THREADS": convolve.fft_workers(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "n": wl.n, "ops_attempted": attempted, "ops_failed": failed,
        "ops_passed": len(passed), "op_times_s": [dt for _, dt, _ in passed],
        "warmup_ok": not warm_problems, "setup_times_s": [t for t, _ in setups],
        "note": NOTE,
    }
    correct = failed == 0 and not warm_problems and bool(passed)
    if not args.trace:
        normalized = [calibration.normalized(op, dt) for op, dt, _ in passed]
        meta["op_times_normalized_s"] = normalized
        meta["calibration_unit_p50_s"] = statistics.median(calibration.units)
        meta["measured"] = {"setup_s": statistics.median(meta["setup_times_s"]),
                            "op_p50_s": statistics.median(meta["op_times_s"]) if passed else 0.0,
                            "mcells_per_s": cells / wall / 1e6}
        meta["setup_times_normalized_s"] = [t * REFERENCE_UNIT_S / ref for t, ref in setups]
        metrics = {
            "setup_s": (statistics.median(meta["setup_times_normalized_s"]), "s"),
            "op_p50_s": (statistics.median(normalized) if passed else 0.0, "s"),
            "mcells_per_s": (cells / sum(normalized) / 1e6 if passed else 0.0, "Mcell/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra = {"failed_op_ratio": (failed / attempted, "1")}
        extra.update({f"measured.{k}": (v, metrics[k][1]) for k, v in meta["measured"].items()})
    else:
        metrics, table, meta["P"] = layers.layer_metrics(tracer, wl.states, passed)
        extra = {}
        trace_path = os.path.join(root, ".bench_out",
                                  f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"meta": meta, "metrics": {k: v[0] for k, v in metrics.items()},
                       "queue_wait_s": None,
                       "queue_wait_note": "not applicable: one client, no queue",
                       "functions_per_op": table,
                       "spans": tracer.spans}, fh)
        meta["trace_file"] = os.path.relpath(trace_path, root)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:15s} {name:42s} {value:14.6g} {unit}")
    print(json.dumps({"meta": meta}))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in its own process; print every metric by name and unit."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "slowflow", "__init__.py")):
        print("perfbench: src/slowflow not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("SLOWFLOW_THREADS", None)
    sys.path.insert(0, src)
    if args.setup_only:
        return setup_only(args, root)
    result = run_workload(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
