"""Time-series diagnostics, the energy balance and its inequality form, the
bound suite (monotone decay, scaling exponents, forced-response ratios), and
the Hölder-modulus probe."""

from dataclasses import dataclass

import numpy as np

from .fields import _derive_array, flow_energy, sup_norm
from .report import make_report, make_value_report
from .stokes import ForcingTerms

__all__ = [
    "DiagnosticsSeries", "diagnostics_series",
    "energy_balance_residual", "energy_inequality_check", "bound_suite",
    "fit_loglog_slope", "abel_integral", "continuity_probe",
    "max_increment_structure", "holder_half_report",
]

SCALING_TOL = 0.15  # acceptance band around each predicted exponent
ENERGY_INEQ_RTOL = 1e-10  # energy inequality tolerance, relative to sqrt(W(0))
BALANCE_RTOL = 0.02  # energy balance tolerance, relative to the balance's largest term


@dataclass
class DiagnosticsSeries:
    """One run: its states and their forcing (None for none).  ``column`` reads J2 from
    ``diagnostics``, W, J1, V and D1 from ``first_order``, norm, sup and work from
    ``forcing_terms``: each state's own, kept and shared by every audit."""

    states: list
    forcing: object

    @property
    def samples(self):
        return [s.diagnostics for s in self.states]

    @property
    def times(self):
        return np.array([s.t for s in self.states])

    def column(self, name):
        if name in ForcingTerms._fields:
            return np.array([getattr(s.forcing_terms(self.forcing), name) for s in self.states])
        return np.array([getattr(s.diagnostics if name == "J2" else s.first_order, name)
                         for s in self.states])


def _check_states(states, need):
    """Raise unless ``states`` are at least ``need`` states, strictly time-ordered on one grid."""
    if len(states) < need:
        raise ValueError(f"need at least {need} time samples" if states else
                         "states must be nonempty")
    grid = states[0].grid
    times = [s.t for s in states]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("state times must be strictly increasing")
    if any(s.grid != grid for s in states):
        raise ValueError("mixed grids in state list")


def _running(values, t):
    """The trapezoid integral of values over t[:k+1], for each k."""
    return np.array([np.trapezoid(values[: k + 1], t[: k + 1]) for k in range(len(t))])


def diagnostics_series(states, forcing=None, params=None):
    """The run of ``states`` and ``forcing``, read when its columns are; ``params`` is unused."""
    _check_states(states, 1)
    return DiagnosticsSeries(list(states), forcing)


def energy_balance_residual(series, states, forcing, params):
    """Residual of nu * int J1^2 + (W(t) - W(0))/2 = work done by the forcing.

    Trapezoidal time quadrature on the state grid; the report carries the
    worst |residual| over the samples relative to the largest term of the
    balance, the maximum over samples of W, nu * int J1^2 and |int (X, u)|.
    That is W(0) for a decaying unforced run, and stays defined from rest.
    ``states`` and ``forcing`` must be the series' own.
    """
    _check_states(states, 3)
    if forcing is not series.forcing or list(map(id, states)) != list(map(id, series.states)):
        raise ValueError("states and forcing must be the series' own")
    t = series.times
    W = series.column("W")
    dissip = params.nu * _running(series.column("J1") ** 2, t)
    work = _running(series.column("work"), t)
    scale = float(max(W.max(), dissip.max(), np.abs(work).max()))
    res = np.abs(dissip + 0.5 * (W - W[0]) - work)[1:]
    residuals = [float(r / scale) if scale > 0 else 0.0 for r in res]
    return make_report("energy-balance", max(residuals), BALANCE_RTOL, 0.0,
                       {"residuals": residuals, "W0": float(W[0]), "scale": scale})


def energy_inequality_check(series):
    """sqrt(W(t)) <= sqrt(W(0)) + int_0^t sqrt(forcing energy) dt', every sample;
    reports the tightest sample after the first, which holds with equality."""
    _check_states(series.states, 2)
    t = series.times
    sqw = np.sqrt(series.column("W"))
    rhs = sqw[0] + _running(series.column("norm"), t)
    margins = rhs - sqw
    k = int(np.argmin(margins[1:])) + 1
    tol = ENERGY_INEQ_RTOL * max(sqw[0], 1e-300)
    return make_report("energy-inequality", sqw[k], rhs[k], tol,
                       {"margins": [float(m) for m in margins]})


def fit_loglog_slope(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    good = (x > 0) & (y > 0)
    if good.sum() < 2:
        raise ValueError("need at least 2 positive points for a log-log fit")
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


def abel_integral(times, values, power, nu):
    """int_0^t values(t') / (nu (t - t'))^power dt' at t = times[-1].

    Piecewise-linear values; the weakly singular moments are integrated in
    closed form on each subinterval.
    """
    p = float(power)
    if not p < 1.0:
        raise ValueError(f"power must be < 1 (the integral diverges), got {power}")
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not np.all(times[1:] > times[:-1]):
        raise ValueError("times must be strictly increasing")
    t = times[-1]
    total = 0.0
    for a, b, fa, fb in zip(times[:-1], times[1:], values[:-1], values[1:]):
        # substitute s = t - t' in [t-b, t-a]; f(t') = C - slope*s
        slope = (fb - fa) / (b - a)
        C = fa + slope * (t - a)
        s1, s2 = t - b, t - a
        m1 = (s2 ** (1 - p) - s1 ** (1 - p)) / (1 - p)
        m2 = (s2 ** (2 - p) - s1 ** (2 - p)) / (2 - p)
        total += C * m1 - slope * m2
    return float(total / nu ** p)


def _monotone_report(name, values, tol_rel):
    v0 = values[0]
    tol = tol_rel * max(abs(v0), 1e-300)
    return make_report(name, float(np.max(values[1:])), v0, tol, {"initial": float(v0)})


def _scaling_report(name, t, ratio, expected):
    slope = fit_loglog_slope(t, ratio)
    return make_value_report(name, slope, expected, SCALING_TOL,
                             {"points": len(t), "t_span": float(t[-1] / t[0])})


def bound_suite(u0, states, forcing, params, scaling=False):
    """Monotone decay (25/27/28), decay exponents (26/29/30) and forced-response
    ratio bounds (34/35).

    Scaling exponents are fitted on the self-similar normalizations
    V/J1 ~ t^{-1/4}, D_m/sqrt(W) ~ t^{-(2m+3)/4} and J_m/sqrt(W) ~ t^{-m/2};
    they require at least 5 positive-time samples spanning a decade.

    Every column is read through a series of ``states`` and ``forcing``; the fit
    reads J2 first, so one full pass per state serves every column.  ``u0`` is unused.
    """
    _check_states(states, 2)
    series = DiagnosticsSeries(list(states), forcing)
    t, fnorms = series.times, series.column("norm")
    forced = bool(np.any(fnorms > 0))
    fit = scaling and not forced
    pos = t > 0
    if fit and (pos.sum() < 5 or t[pos].max() / t[pos].min() < 10.0):
        raise ValueError("fewer than 5 usable time samples spanning a decade")
    J2 = series.column("J2") if fit else None
    W, J1, V, D1 = (series.column(k) for k in ("W", "J1", "V", "D1"))

    if forced:
        # forced-response ratio bounds; meaningful for runs started from rest
        reports = []
        for name, fn, values, note in (
            ("forced-gradient-ratio", fnorms, J1, None),
            ("forced-sup-derivative-ratio", series.column("sup"), D1,
             "stated with '=' in the source relation; certified as an upper bound"),
        ):
            rhs = [abel_integral(t[: k + 1], fn[: k + 1], 0.5, params.nu)
                   for k in range(1, len(t))]
            ratios = np.asarray([v / r for v, r in zip(values[1:], rhs) if r > 0])
            ok = ratios.size > 0 and bool(np.all(np.isfinite(ratios)))
            med = float(np.median(ratios)) if ratios.size else 0.0
            worst = float(ratios.max()) if ratios.size else 0.0
            md = {"empirical_constant": worst, "ratios": [float(r) for r in ratios]}
            if note:
                md["note"] = note
            # bounded + stable: the worst ratio stays within 3x the median
            reports.append(make_report(name, worst, 3.0 * med if ok else 0.0, 0.0, md))
        return reports

    reports = [_monotone_report("sup-speed-monotone", V, 1e-10),
               _monotone_report("energy-monotone", W, 1e-10),
               _monotone_report("gradient-seminorm-monotone", J1, 1e-10)]
    if fit:
        tp, Vp, J1p, D1p, J2p = t[pos], V[pos], J1[pos], D1[pos], J2[pos]
        sqW = np.sqrt(W[pos])
        reports.append(_scaling_report("speed-over-gradient-decay", tp, Vp / J1p, -0.25))
        reports.append(_scaling_report("sup-speed-decay-rate", tp, Vp / sqW, -0.75))
        reports.append(_scaling_report("sup-gradient-decay-rate", tp, D1p / sqW, -1.25))
        reports.append(_scaling_report("gradient-seminorm-decay-rate", tp, J1p / sqW, -0.5))
        reports.append(_scaling_report("second-seminorm-decay-rate", tp, J2p / sqW, -1.0))
    return reports


def max_increment_structure(u, separations_cells, core_half_cells):
    """Sup over axis-aligned point pairs of |grad-component increments|.

    Pairs are restricted to the central core (origin-centered cube of
    half-width core_half_cells cells); separations are in cells.
    """
    n, h = u.grid.n, u.grid.h
    if not 1 <= core_half_cells <= n // 2:
        raise ValueError(f"core_half_cells must be in [1, {n // 2}], got {core_half_cells}")
    core = slice(n // 2 - core_half_cells, n // 2 + core_half_cells)
    # the 9 gradient components cropped to the core, each axis in turn leading
    views = [np.moveaxis(d[core, core, core], axis, 0) for c in u.components
             for d in [_derive_array(c.samples, ax, 1, h) for ax in range(3)]
             for axis in range(3)]
    out = []
    for m in separations_cells:
        if m < 1:
            raise ValueError("separation must be at least 1 cell")
        if m >= 2 * core_half_cells:
            raise ValueError("separation exceeds the sampling core")
        out.append(max(float(np.abs(v[m:] - v[:-m]).max()) for v in views))
    return np.asarray(separations_cells) * h, np.array(out)


def holder_half_report(u, separations_cells, core_half_cells):
    """Fit of the gradient increment modulus against r^{1/2}."""
    rs, S = max_increment_structure(u, separations_cells, core_half_cells)
    slope = fit_loglog_slope(rs, S)
    md = {"r": [float(r) for r in rs], "S": [float(s) for s in S]}
    return make_value_report("holder-half-modulus", slope, 0.5, SCALING_TOL, md)


def continuity_probe(states_at_dts, reference, mode="strong"):
    """Distance to the reference state along a shrinking dt schedule.

    mode "strong": L2 distance; "uniform": sup distance.  Pass requires the
    fitted convergence rate in dt to be positive.
    """
    if len(states_at_dts) < 3:
        raise ValueError("need at least 3 probe states")
    dts = np.array([abs(s.t - reference.t) for s in states_at_dts])
    if np.any(dts <= 0):
        raise ValueError("probe states must differ from the reference time")
    dists = []
    for s in states_at_dts:
        d = s.u - reference.u
        if mode == "strong":
            dists.append(np.sqrt(flow_energy(d)))
        elif mode == "uniform":
            dists.append(sup_norm(d))
        else:
            raise ValueError("mode must be 'strong' or 'uniform'")
    rate = fit_loglog_slope(dts, dists)
    # pass requires a materially positive convergence rate in dt
    return make_report(f"continuity-{mode}", 0.05, rate, 0.0,
                       {"dts": [float(d) for d in dts],
                        "distances": [float(d) for d in dists],
                        "fitted_rate": rate})
