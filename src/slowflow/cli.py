"""Batch experiment runner.

Subcommands: ``solve``, ``verify``, ``mollify-study``, ``convergence-study``.
Each reads a JSON config checked against ``SCHEMA``, one type table and key set
for every subcommand (unknown keys and generator params are errors), runs a
fixed pipeline, and writes LERF fields, a diagnostics CSV, and a report JSON
into the output directory.  Exit status: 0 all checks pass, 1 a check failed
(reports are still written), 2 a config error ("config error: ...", NaN and
Infinity included), a solver ValueError or OverflowError (an under-resolved or
overflowing time) or an unwritable output path ("error: ..."), never with a
traceback; the first two leave no output directory (made at the first write).
"""

import argparse
import json
import os
import sys
from functools import lru_cache, partial

import numpy as np

from . import analysis, convolve, energy, fieldgen, lerf, mollifier
from .fields import ScalarField, VectorField3, integrate, make_grid
from .report import make_report, write_reports_json
from .stokes import FlowState, FluidParams, residual_check, solve_linearized


class ConfigError(ValueError):
    pass


# One table per choice, read by validation, the sample-count rule and dispatch. A
# check: (times it needs, its reports on one run: f(cfg, run, probe)), run the solved
# series and probe() the shared scalar test field, built on first use; a study: (times
# it needs, one grid's report, whose lhs is the grid's value, and whether it is kept).
VERIFY_CHECKS = {
    "energy_balance": (3, lambda cfg, run, probe: [_balance(cfg, run)]),
    "energy_inequality": (2, lambda cfg, run, probe: [energy.energy_inequality_check(run)]),
    "monotone_bounds": (2, lambda cfg, run, probe: energy.bound_suite(
        None, run.states, run.forcing, cfg.params)),
    "schwarz": (2, lambda cfg, run, probe: [
        analysis.schwarz_check(run.states[-1].u.u1, run.states[-1].u.u2)]),
    "hardy": (2, lambda cfg, run, probe: [analysis.hardy_check(probe())]),
    "representation": (2, lambda cfg, run, probe: [
        analysis.representation_reconstruct(probe())[1]]),
    "quasi_derivative": (2, lambda cfg, run, probe: [_quasi_derivative_report(probe())]),
    "negative_control": (2, lambda cfg, run, probe: [_negative_control_report(run, cfg.params)]),
}
STUDIES = {
    "representation": (2, lambda cfg, grid: (
        analysis.representation_reconstruct(_probe(grid))[1], True)),
    "quasi_derivative": (2, lambda cfg, grid: (_quasi_derivative_report(_probe(grid)), True)),
    # no per-grid report: the balance's 2-percent bound needs >= 64^3 data
    "energy_balance": (3, lambda cfg, grid: (_balance(cfg, _solve(cfg, grid)), False)),
}

# The config schema, one key set for every subcommand: {section: {key: (type,
# default)}}, top-level keys as (type, default).  A float is any JSON number
# but not a bool, an int a JSON integer but not a bool, [type] a nonempty list
# of that type; a None default makes the key required.  A bare type (the
# generator param tables in fieldgen) is optional with the builder's default.
SCHEMA = {
    "grid": {"n": (int, None), "L": (float, None)},
    "params": {"nu": (float, 1.0), "rho": (float, 1.0)},
    "initial": {"generator": (str, "solenoidal_gaussian"), "params": (dict, {})},
    "forcing": {"generator": (str, "none"), "params": (dict, {})},
    "times": {"start": (float, 0.0), "end": (float, 1.0), "count": (int, 10)},
    "checks": ([str], ["energy_balance", "energy_inequality", "monotone_bounds"]),
    "epsilons": ([float], [1.0, 0.5, 0.25]),
    "field_width": (float, 1.0),
    "grids": ([int], [16, 24, 32]),
    "study": (str, "representation"),
    "output": (str, "out"),
}

_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", dict: "an object"}


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _value(value, typ, name):
    """value checked against one schema type; a float key yields a float."""
    if isinstance(typ, list):
        _require(type(value) is list and value, f"{name} must be a nonempty list, got {value!r}")
        return [_value(v, typ[0], f"{name}[{i}]") for i, v in enumerate(value)]
    _require(type(value) is typ or (typ is float and type(value) is int),
             f"{name} must be {_TYPE_NAMES[typ]}, got {value!r}")
    # NaN, Infinity (json.load accepts both) and an integer beyond float range
    _require(typ is not float or abs(value) <= sys.float_info.max,
             f"{name} must be a finite number, got {value!r}")
    return float(value) if typ is float else value


def _checked(raw, table, where=None):
    """The JSON object raw checked against a schema table, defaults filled in."""
    _require(type(raw) is dict, f"{where or 'config'} must be an object")
    unknown = sorted(set(raw) - set(table))
    _require(not unknown, f"unknown key(s) in {where or 'config'}: {unknown}")
    out = {}
    for key, spec in table.items():
        name = f"{where}.{key}" if where else key
        if isinstance(spec, dict):
            out[key] = _checked(raw.get(key, {}), spec, name)
        elif isinstance(spec, tuple):
            _require(key in raw or spec[1] is not None, f"{name} is required")
            out[key] = _value(raw.get(key, spec[1]), spec[0], name)
        elif key in raw:
            out[key] = _value(raw[key], spec, name)
    return out


def _generator(sec, registry, where):
    name = sec["generator"]
    _require(name in registry, f"{where}.generator: unknown generator '{name}'")
    builder, params = registry[name]
    return partial(builder, **_checked(sec["params"], params, f"{where}.params"))


class ExperimentConfig:
    """Validated experiment description: the schema, then the range rules."""

    def __init__(self, raw, command):
        self.command = command
        c = _checked(raw, SCHEMA)
        try:
            self.grid = make_grid(c["grid"]["n"], c["grid"]["L"])
        except ValueError as e:
            raise ConfigError(f"grid: {e}") from e
        try:
            self.params = FluidParams(**c["params"])
        except ValueError as e:
            raise ConfigError(f"params: {e}") from e
        self.initial = _generator(c["initial"], fieldgen.INITIAL_GENERATORS, "initial")
        self.forcing = _generator(c["forcing"], fieldgen.FORCING_GENERATORS, "forcing")

        start, end, count = (c["times"][k] for k in ("start", "end", "count"))
        _require(start >= 0.0, "times.start must be >= 0")
        _require(end > start, "times.end must exceed times.start")
        self.checks, self.study = c["checks"], c["study"]
        for i, name in enumerate(self.checks):
            _require(name in VERIFY_CHECKS, f"checks: unknown check '{name}'")
            _require(name not in self.checks[:i], f"checks: repeated check '{name}'")
        _require(self.study in STUDIES, f"study: unknown study '{self.study}'")
        # each check or study run needs its own count of times and every run 2 (one
        # would solve only at start); the least demanding count not met is named
        needs = {"verify": [(VERIFY_CHECKS[n][0], n) for n in self.checks],
                 "convergence-study": [(STUDIES[self.study][0], self.study)]}.get(command, [])
        for k, name in sorted(needs):
            _require(count >= k, f"times.count must be >= {k} for {name}")
        _require(count >= 2, "times.count must be >= 2")
        self.times = list(np.linspace(start, end, count))

        self.epsilons = c["epsilons"]
        _require(len(set(self.epsilons)) == len(self.epsilons) >= 2
                 and all(e > 0 for e in self.epsilons),
                 f"epsilons must list >= 2 distinct positive numbers, got {self.epsilons}")
        self.field_width = c["field_width"]
        _require(self.field_width > 0, "field_width must be > 0")
        eps = min(self.epsilons)
        _require(command != "mollify-study" or eps >= 2 * self.grid.h,
                 f"epsilons: {eps} under-resolved on n={self.grid.n} (needs >= 2h)")

        _require(len(c["grids"]) >= 2 and all(a < b for a, b in zip(c["grids"], c["grids"][1:])),
                 f"grids must list >= 2 strictly increasing sizes, got {c['grids']}")
        try:
            self.grids = [make_grid(n, self.grid.L) for n in c["grids"]]
        except ValueError as e:
            raise ConfigError(f"grids: {e} (got {c['grids']})") from e
        self.output = c["output"]


def _write_csv(out_dir, name, header, rows):
    """out_dir/name, out_dir made if missing: the header line, then one line per row of
    numbers in full double precision."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    with open(os.path.join(out_dir, name), "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _solve(cfg, grid):
    """The configured u0 and forcing built on ``grid`` and solved at the configured times."""
    u0, forcing = cfg.initial(grid), cfg.forcing(grid)
    return energy.diagnostics_series(solve_linearized(u0, forcing, cfg.params, cfg.times),
                                     forcing, cfg.params)


def _write_run(cfg, out_dir, series, write_fields):
    _write_csv(out_dir, "diagnostics.csv", "t,W,J1,J2,V,D1,Xnorm",
               [(s.t, s.W, s.J1, s.J2, s.V, s.D1, fn)
                for s, fn in zip(series.samples, series.column("norm"))])
    if write_fields:
        for k, s in enumerate(series.states):
            for ci, comp in enumerate(s.u.components, start=1):
                lerf.write_field(os.path.join(out_dir, f"u{ci}_{k:03d}.lerf"), comp)
            lerf.write_field(os.path.join(out_dir, f"p_{k:03d}.lerf"), s.p)
        manifest = {
            "times": [float(t) for t in series.times],
            "nu": cfg.params.nu, "rho": cfg.params.rho,
            "grid": {"n": cfg.grid.n, "L": cfg.grid.L},
        }
        with open(os.path.join(out_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f, sort_keys=True, indent=2)
            f.write("\n")


def _probe_width(grid):
    return min(1.0, grid.L / 6.0)


def _probe(grid):
    """The scalar test field of the hardy, representation and quasi_derivative checks."""
    return fieldgen.gaussian_bump(grid, width=_probe_width(grid))


def _verify(cfg, out_dir):
    run = _solve(cfg, cfg.grid)
    _write_run(cfg, out_dir, run, write_fields=False)
    probe = lru_cache(maxsize=None)(lambda: _probe(cfg.grid))
    return [r for name in cfg.checks for r in VERIFY_CHECKS[name][1](cfg, run, probe)]


def _balance(cfg, run):
    return energy.energy_balance_residual(run, run.states, run.forcing, cfg.params)


def _quasi_derivative_report(U):
    grid, w = U.grid, _probe_width(U.grid)  # U is the probe
    dU = ScalarField(grid, -(grid.axis()[:, None, None] / w ** 2) * U.samples)  # analytic d/dx1
    a = fieldgen.gaussian_bump(grid, width=w, center=(0.3 * w, -0.2 * w, 0.1 * w))
    res = abs(analysis.quasi_derivative_residual(U, dU, 1, a))
    scale = np.sqrt(integrate(U, U) * integrate(a, a))
    tol = 2.0 * grid.h ** 2 * max(scale, 1.0)
    return make_report("quasi-derivative-residual", res, tol, 0.0,
                       {"h": grid.h, "scale": float(scale)})


def _negative_control_report(run, params):
    """Deliberately corrupted final state: the residual check must fail."""
    bad, prev = run.states[-1], run.states[-2]
    X_mid = run.forcing.at(0.5 * (bad.t + prev.t)) if run.forcing is not None else None
    clean = residual_check(bad, prev, X_mid, params)
    rng = np.random.default_rng(7)
    noisy = ScalarField(bad.grid, bad.u.u1.samples + rng.normal(0.0, 1.0, bad.u.u1.samples.shape))
    corrupted = FlowState(bad.t, VectorField3(noisy, bad.u.u2, bad.u.u3), bad.p)
    # judged against the clean pair's residual: corruption must dominate it
    rep = residual_check(corrupted, prev, X_mid, params, tol=10.0 * max(clean.lhs, 1e-12))
    rep.name = "negative-control-corrupted-state"
    rep.metadata["expected"] = "fail"
    rep.metadata["clean_residual"] = clean.lhs
    return rep


def _mollify_study(cfg, out_dir):
    grid = cfg.grid
    U = fieldgen.gaussian_bump(grid, width=cfg.field_width)
    reports, rows, distances = [], [], []
    eps_sorted = sorted(cfg.epsilons, reverse=True)
    V = fieldgen.gaussian_bump(grid, width=1.3 * cfg.field_width, center=(0.4, 0.1, -0.2))
    for eps in eps_sorted:
        # one kernel sample per eps gives the raw mass and, renormalized, one transform
        W = mollifier.kernel_on_grid(mollifier.make_kernel(eps), grid, normalized=False)
        mass = float(W.sum() * grid.cell_volume)
        smooth = convolve.convolver(W / mass, grid.n, grid.h)
        mass_err = abs(mass - 1.0)
        tol = 5e-4 if eps >= 8 * grid.h else 0.1
        reports.append(make_report(f"mollifier-mass-eps-{eps:g}", mass_err, tol, 0.0,
                                   {"epsilon": eps, "resolved_8h": eps >= 8 * grid.h}))
        Um = ScalarField(grid, smooth(U.samples))
        n0, n1 = integrate(U, U), integrate(Um, Um)
        reports.append(make_report(f"mollifier-contraction-eps-{eps:g}", n1, n0, 1e-10 * n0,
                                   {"epsilon": eps}))
        sa = abs(integrate(Um, V) - integrate(U, ScalarField(grid, smooth(V.samples))))
        reports.append(make_report(f"mollifier-selfadjoint-eps-{eps:g}", sa, 1e-10 * n0, 0.0,
                                   {"epsilon": eps}))
        d = analysis.strong_mean_distance(Um, U)
        distances.append(d)
        rows.append((eps, mass_err, d, n1 / n0, sa))
    ratios = [b / a for a, b in zip(distances, distances[1:])]
    reports.append(make_report("mollifier-strong-convergence", max(ratios), 1.0, 0.0,
                               {"epsilons": eps_sorted, "distances": distances}))
    _write_csv(out_dir, "mollify.csv",
               "epsilon,mass_error,distance,norm_ratio,selfadjoint_residual", rows)
    return reports


def _convergence_study(cfg, out_dir):
    """Per-grid reports (``judged: false``) and the one judged refinement claim."""
    reports, values = [], []
    label = cfg.study.replace("_", "-")
    for grid in cfg.grids:
        rep, kept = STUDIES[cfg.study][1](cfg, grid)
        values.append(rep.lhs)
        if kept:
            rep.name = f"{label}-n{grid.n}"
            rep.metadata["judged"] = False
            reports.append(rep)
    # a zero value on the coarser grid: no growth if the finer one is zero too,
    # else unbounded growth, stored finite so report.json stays strict JSON
    worst_ratio = max(b / a if a > 0 else (0.0 if b == 0 else sys.float_info.max)
                      for a, b in zip(values, values[1:]))
    reports.append(make_report(f"{label}-refinement-decrease", worst_ratio, 1.0, 0.0,
                               {"grids": [g.n for g in cfg.grids], "values": values}))
    return reports


# subcommand -> its pipeline: f(cfg, out_dir), which returns its reports (None for solve)
COMMANDS = {
    "solve": lambda cfg, out_dir: _write_run(cfg, out_dir, _solve(cfg, cfg.grid), True),
    "verify": _verify,
    "mollify-study": _mollify_study,
    "convergence-study": _convergence_study,
}


def run_experiment(cfg, out_dir):
    """Run the configured pipeline; returns (exit_code, reports)."""
    reports = COMMANDS[cfg.command](cfg, out_dir) or []
    if reports:
        os.makedirs(out_dir, exist_ok=True)
        write_reports_json(reports, os.path.join(out_dir, "report.json"))
    ok = all(r.passed for r in reports if r.metadata.get("judged", True))
    return (0 if ok else 1), reports


@lru_cache(maxsize=None)
def _parser():
    parser = argparse.ArgumentParser(
        prog="slowflow", description="linearized-flow experiment runner and verifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default=None, help="output directory (overrides config)")
        sp.add_argument("--check", action="append", default=None,
                        help="check name (repeatable; verify only)")
        sp.add_argument("--grid-n", type=int, default=None, help="override grid.n")
        sp.add_argument("--grid-L", type=float, default=None, help="override grid.L")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        with open(args.config) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    overrides = {k: v for k, v in (("n", args.grid_n), ("L", args.grid_L)) if v is not None}
    # only a well-shaped config takes overrides; ExperimentConfig rejects the rest
    if isinstance(raw, dict):
        if overrides and isinstance(raw.setdefault("grid", {}), dict):
            raw["grid"].update(overrides)
        if args.check:
            raw["checks"] = list(args.check)

    try:
        cfg = ExperimentConfig(raw, args.command)
        out_dir = args.out or cfg.output
        code, reports = run_experiment(cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as e:  # a solver error, or an unwritable --out
        print(f"error: {e}", file=sys.stderr)
        return 2
    for r in reports:
        status = ("pass" if r.passed else "FAIL") if r.metadata.get("judged", True) else "info"
        print(f"[{status}] {r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g}")
    return code


if __name__ == "__main__":
    sys.exit(main())
