"""The three verification workloads.

An op is one verification request: a field, a forcing and a time grid go in,
a solution and its check reports come out.  Each workload draws a pool of
distinct requests from the seed, so back-to-back ops never repeat a request
and no result cache could serve one.  The program receives only the
generated fields and configs.

Each gate compares an op's output with a reference computed here, outside
the timed interval, using the tolerance of the repository's own test of the
same quantity.
"""

import contextlib
import io
import json
import os
import shutil

import numpy as np

from slowflow import cli, energy, fields, fieldgen, lerf, stokes

POOL = 4  # distinct requests per run; requests are reused round-robin


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.sqrt(np.sum(v * v))


def _vortex(coords, width, center, direction, amplitude):
    """curl(g e) for g = amplitude * exp(-|x - c|^2 / (2 w^2)), in closed form."""
    d = [a - c for a, c in zip(coords, center)]
    e = [np.exp(-di * di / (2.0 * width * width)) for di in d]
    g = amplitude * e[0][:, None, None] * e[1][None, :, None] * e[2][None, None, :]
    gx = -d[0][:, None, None] / width ** 2 * g
    gy = -d[1][None, :, None] / width ** 2 * g
    gz = -d[2][None, None, :] / width ** 2 * g
    e1, e2, e3 = direction
    return (gy * e3 - gz * e2, gz * e1 - gx * e3, gx * e2 - gy * e1)


def _max_rel_error(components, exact):
    err = max(float(np.abs(c.samples - x).max()) for c, x in zip(components, exact))
    return err / max(float(np.abs(x).max()) for x in exact)


def _failed_reports(reports):
    return [f"report {r.name} passed={r.passed}, expected {not r.passed}"
            for r in reports if r.passed != (r.metadata.get("expected") != "fail")]


class HeatVerify:
    """Unforced verification path: heat semigroup plus the energy audit.

    Exercises heat_propagate's 3D FFT convolutions and the finite-difference
    diagnostics, which are built twice per state today (bound_suite rebuilds
    the series).  Never touches the Duhamel integral, pressure, LERF or the
    CLI.  The grid keeps c02's spacing h = 0.25 and vortex width / h, so the
    energy balance meets its 2% bound; the box (L = 5, the smallest that
    keeps the heat gate within 1e-3 of the whole-space solution) and the time
    grid (4 times on [0, 0.25]) are smaller than c02's 64^3 and 20 times on
    [0, 1], so that an op takes about 0.4 s instead of 11 s on a 2-core VM
    and a run holds enough ops for a steady median.
    """

    name = "heat_verify"
    n, L, nu = 40, 5.0, 1.0
    times = tuple(float(t) for t in np.linspace(0.0, 0.25, 4))
    states = len(times)
    # c01's heat-kernel exactness tolerance (max error / max |exact|)
    HEAT_TOL = 1e-3

    def __init__(self, workdir):
        self.grid = fields.make_grid(self.n, self.L)
        self.params = stokes.FluidParams(self.nu, 1.0)

    def request(self, rng):
        vortices = [dict(width=rng.uniform(1.0, 1.2), center=tuple(rng.uniform(-0.5, 0.5, 3)),
                         direction=tuple(_unit(rng)),
                         amplitude=rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]))
                    for _ in range(3)]
        u0 = fields.VectorField3.zeros(self.grid)
        for v in vortices:
            u0 = u0 + fieldgen.solenoidal_gaussian(
                self.grid, width=v["width"], center=v["center"],
                axis_vec=v["direction"], amplitude=v["amplitude"])
        return {"vortices": vortices, "u0": u0}

    def op(self, req):
        states = stokes.solve_linearized(req["u0"], None, self.params, list(self.times))
        series = energy.diagnostics_series(states, None, self.params)
        reports = [energy.energy_balance_residual(series, states, None, self.params),
                   energy.energy_inequality_check(series)]
        reports += energy.bound_suite(req["u0"], states, None, self.params)
        return states, reports

    def gate(self, req, out):
        states, reports = out
        problems = _failed_reports(reports)
        axis = self.grid.axis()
        for s in states:
            exact = [0.0, 0.0, 0.0]
            for v in req["vortices"]:
                w = np.sqrt(v["width"] ** 2 + 2.0 * self.nu * s.t)
                a = v["amplitude"] * (v["width"] / w) ** 3
                exact = [x + y for x, y in zip(exact, _vortex(
                    (axis, axis, axis), w, v["center"], v["direction"], a))]
            err = _max_rel_error(s.u.components, exact)
            if not err <= self.HEAT_TOL:
                problems.append(f"t={s.t:.4f}: heat solution error {err:.3e} > {self.HEAT_TOL}")
        return problems


class ForcedDuhamel:
    """General-forcing path: Duhamel node loop, divergence part and pressure.

    c10's manufactured ramped forcing plus an irrotational gradient pulse in
    one ForcingField, so the divergence (erf-Phi kernel) path runs.  Starts
    from rest, so heat_propagate never runs.  The grid is
    test_manufactured_solution's (24^3, L = 4); at c10's 48^3 and nu = 0.5
    an op took 16 s on a 2-core VM, too long for a steady median.  With one
    output time (t = 0.15) and nu = 0.25 the Duhamel integral has 14 nodes,
    and an op takes about 0.75 s, most of it building the erf-Phi kernel at
    each node.
    """

    name = "forced_duhamel"
    n, L, nu, rho = 24, 4.0, 0.25, 1.0
    times = (0.15,)
    states = len(times)
    WIDTH, T_RAMP = 0.9, 0.4
    # test_manufactured_solution: max |u - q shape| / sup|shape| < 0.02
    VELOCITY_TOL = 0.02
    # test_gradient_forcing_recovers_potential: max |p - rho phi| / max |rho phi| < 0.12
    PRESSURE_TOL = 0.12

    def __init__(self, workdir):
        self.grid = fields.make_grid(self.n, self.L)
        self.params = stokes.FluidParams(self.nu, self.rho)

    def request(self, rng):
        direction = tuple(_unit(rng))
        amp = rng.uniform(0.8, 1.0)
        pulse = dict(width=rng.uniform(0.9, 1.1), amplitude=rng.uniform(0.3, 0.6),
                     t_scale=rng.uniform(0.3, 1.0))
        g = self.grid
        shape = fieldgen.solenoidal_gaussian(g, width=self.WIDTH, axis_vec=direction, amplitude=amp)
        lap = fieldgen.solenoidal_gaussian_laplacian(g, width=self.WIDTH, axis_vec=direction,
                                                     amplitude=amp)
        ramp = fieldgen.ramped_forcing(g, shape, lap, self.nu, self.T_RAMP)
        grad = fieldgen.gradient_pulse_forcing(g, **pulse)
        forcing = stokes.ForcingField(g, lambda t: ramp.at(t) + grad.at(t))
        return {"shape": shape, "pulse": pulse, "forcing": forcing}

    def op(self, req):
        return stokes.solve_linearized(fields.VectorField3.zeros(self.grid), req["forcing"],
                                       self.params, list(self.times))

    def gate(self, req, states):
        problems = []
        shape = req["shape"]
        scale = float(np.sqrt(shape.speed_squared().max()))
        pulse = req["pulse"]
        X1, X2, X3 = self.grid.meshgrid()
        phi = pulse["amplitude"] * np.exp(-(X1 ** 2 + X2 ** 2 + X3 ** 2) / (2.0 * pulse["width"] ** 2))
        for s in states:
            q = np.sin(0.5 * np.pi * s.t / self.T_RAMP) ** 2
            err = max(float(np.abs(u.samples - q * c.samples).max())
                      for u, c in zip(s.u.components, shape.components)) / scale
            if not err <= self.VELOCITY_TOL:
                problems.append(f"t={s.t}: velocity error {err:.3e} > {self.VELOCITY_TOL}")
            p_exact = self.rho * np.exp(-s.t / pulse["t_scale"]) * phi
            perr = _max_rel_error([s.p], [p_exact])
            if not perr <= self.PRESSURE_TOL:
                problems.append(f"t={s.t}: pressure error {perr:.3e} > {self.PRESSURE_TOL}")
        return problems


class CliRoundtrip:
    """User-facing batch path: solve, LERF read-back, verify, mollify-study.

    The only workload that writes and reads files and that exercises
    analysis, mollifier, lerf, report and cli.  verify leaves out
    energy_balance, whose 2% bound needs a finer grid; heat_verify covers it.
    The grid (24^3, L = 4.5) and time grid (4 times on [0, 0.5]) keep an op
    near 0.4 s on a 2-core VM, so a run holds enough ops for a steady median.
    """

    name = "cli_roundtrip"
    n, L = 24, 4.5
    states = 4
    CHECKS = ["energy_inequality", "monotone_bounds", "schwarz", "hardy",
              "representation", "quasi_derivative", "negative_control"]

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def request(self, rng):
        h = 2.0 * self.L / self.n
        config = {
            "grid": {"n": self.n, "L": self.L},
            "params": {"nu": 1.0, "rho": 1.0},
            "initial": {"generator": "random_solenoidal",
                        "params": {"seed": int(rng.integers(1 << 30)),
                                   "n_vortices": int(rng.integers(2, 5)),
                                   "amplitude": float(rng.uniform(0.5, 1.0))}},
            "forcing": {"generator": "none"},
            "times": {"start": 0.0, "end": 0.5, "count": self.states},
            "checks": self.CHECKS,
            "epsilons": [4 * h, 3 * h, 2 * h],
            "field_width": float(rng.uniform(0.8, 1.2)),
        }
        base = os.path.join(self.workdir, f"request{self.count}")
        self.count += 1
        os.makedirs(base)
        path = os.path.join(base, "config.json")
        with open(path, "w") as f:
            json.dump(config, f)
        return {"config": path, "out": {k: os.path.join(base, k)
                                        for k in ("solve", "verify", "mollify")}}

    def op(self, req):
        out = req["out"]
        cfg = req["config"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["solve", "--config", cfg, "--out", out["solve"]])]
            csv = self._read_back(out["solve"])
            codes.append(cli.main(["verify", "--config", cfg, "--out", out["verify"]]))
            codes.append(cli.main(["mollify-study", "--config", cfg, "--out", out["mollify"]]))
        return codes, csv

    @staticmethod
    def _read_back(d):
        """Read every LERF file back and rebuild the diagnostics CSV from it."""
        with open(os.path.join(d, "manifest.json")) as f:
            times = json.load(f)["times"]
        rows = ["t,W,J1,J2,V,D1,Xnorm"]
        for k, t in enumerate(times):
            u = fields.VectorField3(*(lerf.read_field(os.path.join(d, f"u{c}_{k:03d}.lerf"))
                                      for c in (1, 2, 3)))
            lerf.read_field(os.path.join(d, f"p_{k:03d}.lerf"))
            s = fields.sample_diagnostics(u, t)
            rows.append(",".join(repr(float(v)) for v in (s.t, s.W, s.J1, s.J2, s.V, s.D1, 0.0)))
        return "\n".join(rows) + "\n"

    def gate(self, req, out):
        codes, csv = out
        out_dirs = req["out"]
        problems = []
        # verify exits 1 by design: negative_control's report must fail
        if codes != [0, 1, 0]:
            problems.append(f"exit codes solve/verify/mollify-study {codes}, expected [0, 1, 0]")
        for k in ("solve", "verify"):
            with open(os.path.join(out_dirs[k], "diagnostics.csv")) as f:
                if f.read() != csv:
                    problems.append(f"LERF read-back does not reproduce {k}/diagnostics.csv")
        for k, expect in (("verify", 9), ("mollify", 10)):
            with open(os.path.join(out_dirs[k], "report.json")) as f:
                reports = json.load(f)
            if len(reports) != expect:
                problems.append(f"{k}: {len(reports)} reports, expected {expect}")
            problems += [f"{k}: report {r['name']} pass={r['pass']}" for r in reports
                         if r["pass"] != (r["metadata"].get("expected") != "fail")]
        for d in out_dirs.values():
            shutil.rmtree(d, ignore_errors=True)
        return problems


WORKLOADS = {w.name: w for w in (HeatVerify, ForcedDuhamel, CliRoundtrip)}
