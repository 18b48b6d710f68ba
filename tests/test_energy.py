import dataclasses

import numpy as np
import pytest

from slowflow import (ScalarField, VectorField3, fields, flow_energy, make_grid, stokes,
                      sup_norm)
from slowflow.energy import (_monotone_report, _scaling_report, abel_integral,
                             bound_suite, continuity_probe, diagnostics_series,
                             energy_balance_residual, energy_inequality_check,
                             fit_loglog_slope, holder_half_report,
                             max_increment_structure)
from slowflow.report import make_report
from slowflow.fieldgen import (cusp_flow, ramped_forcing, random_solenoidal,
                               solenoidal_gaussian,
                               solenoidal_gaussian_laplacian)
from slowflow.stokes import FluidParams, FlowState, ForcingField, solve_linearized

PAR = FluidParams(1.0, 1.0)


def _heat_states(grid, width=1.0, times=(0.0, 0.2, 0.5, 1.0), seed=None):
    if seed is None:
        u0 = solenoidal_gaussian(grid, width=width)
    else:
        u0 = random_solenoidal(grid, seed=seed)
    return u0, solve_linearized(u0, None, PAR, list(times))


def _undiagnosed(states):
    """Copies of the states whose diagnosis has not been taken yet."""
    return [FlowState(s.t, s.u, s.p) for s in states]


class TestDiagnosticsSeries:
    def test_zero_flow(self, grid16):
        z = VectorField3.zeros(grid16)
        states = [FlowState(t, z, ScalarField.zeros(grid16)) for t in (0.0, 0.5)]
        ser = diagnostics_series(states)
        assert all(s.W == 0 and s.V == 0 and s.J1 == 0 for s in ser.samples)

    def test_single_state(self, grid16):
        z = VectorField3.zeros(grid16)
        ser = diagnostics_series([FlowState(0.0, z, ScalarField.zeros(grid16))])
        assert len(ser.samples) == 1

    def test_heat_energy_strictly_decreasing(self, grid32):
        _, states = _heat_states(grid32)
        W = diagnostics_series(states).column("W")
        assert np.all(np.diff(W) < 0)

    def test_mixed_grids_rejected(self, grid16, grid32):
        s1 = FlowState(0.0, VectorField3.zeros(grid16), ScalarField.zeros(grid16))
        s2 = FlowState(1.0, VectorField3.zeros(grid32), ScalarField.zeros(grid32))
        with pytest.raises(ValueError, match="mixed grids"):
            diagnostics_series([s1, s2])


class TestEnergyBalance:
    def test_zero_flow_zero_residual(self, grid16):
        z = VectorField3.zeros(grid16)
        states = [FlowState(t, z, ScalarField.zeros(grid16)) for t in (0.0, 0.5, 1.0)]
        ser = diagnostics_series(states, None, PAR)
        r = energy_balance_residual(ser, states, None, PAR)
        assert r.passed and r.lhs == 0.0

    def test_heat_flow_small_residual(self):
        # the 2-percent default is met from 64^3 up (acceptance suite); at
        # 48^3 the gradient-seminorm discretization leaves ~2.3 percent
        g = make_grid(48, 8.0)
        u0, states = _heat_states(g, times=np.linspace(0.0, 1.0, 20))
        ser = diagnostics_series(states, None, PAR)
        r = energy_balance_residual(ser, states, None, PAR, rel_tol=0.04)
        assert r.passed
        assert r.lhs < 0.04
        # decaying and unforced: W(0) is the largest term, so the residual
        # keeps its W(0) scaling
        assert r.metadata["scale"] == r.metadata["W0"]

    def test_degenerate_initial_energy_rejected(self, grid16):
        z = VectorField3.zeros(grid16)
        bump = solenoidal_gaussian(grid16, width=0.8)
        states = [FlowState(0.0, z, ScalarField.zeros(grid16)),
                  FlowState(0.5, bump, ScalarField.zeros(grid16)),
                  FlowState(1.0, bump, ScalarField.zeros(grid16))]
        ser = diagnostics_series(states, None, PAR)
        # the residual is relative to the largest term of the balance, so it
        # stays defined when W(0) = 0: energy that appears without forcing
        # fails the audit
        r = energy_balance_residual(ser, states, None, PAR)
        assert r.metadata["scale"] > 0 and np.isfinite(r.lhs)
        assert not r.passed

    def test_needs_three_samples(self, grid16):
        z = VectorField3.zeros(grid16)
        states = [FlowState(t, z, ScalarField.zeros(grid16)) for t in (0.0, 0.5)]
        ser = diagnostics_series(states, None, PAR)
        with pytest.raises(ValueError, match="3"):
            energy_balance_residual(ser, states, None, PAR)


class TestEnergyInequality:
    def test_unforced_decay(self, grid32):
        _, states = _heat_states(grid32)
        ser = diagnostics_series(states, None, PAR)
        assert energy_inequality_check(ser).passed

    def test_zero_flow(self, grid16):
        z = VectorField3.zeros(grid16)
        states = [FlowState(t, z, ScalarField.zeros(grid16)) for t in (0.0, 1.0)]
        assert energy_inequality_check(diagnostics_series(states)).passed

    def test_forced_run_passes_with_margin(self):
        g = make_grid(20, 4.0)
        nu = 0.5
        par = FluidParams(nu, 1.0)
        shape = solenoidal_gaussian(g, width=0.9)
        lap = solenoidal_gaussian_laplacian(g, width=0.9)
        F = ramped_forcing(g, shape, lap, nu, 0.4)
        states = solve_linearized(VectorField3.zeros(g), F, par,
                                  [0.1, 0.2, 0.3, 0.4], assume_solenoidal=True)
        ser = diagnostics_series(states, F, par)
        r = energy_inequality_check(ser)
        assert r.passed
        assert min(r.metadata["margins"][1:]) > 0

    def test_reports_the_tightest_sample_after_the_first(self):
        # from rest the first sample is the trivial pair lhs = rhs = 0
        g = make_grid(20, 4.0)
        par = FluidParams(0.5, 1.0)
        shape = solenoidal_gaussian(g, width=0.9)
        F = ramped_forcing(g, shape, solenoidal_gaussian_laplacian(g, width=0.9), 0.5, 0.4)
        states = solve_linearized(VectorField3.zeros(g), F, par,
                                  [0.0, 0.1, 0.2, 0.3], assume_solenoidal=True)
        ser = diagnostics_series(states, F, par)
        r = energy_inequality_check(ser)
        margins = r.metadata["margins"]
        k = 1 + int(np.argmin(margins[1:]))
        assert margins[0] == 0.0 and r.passed
        assert r.lhs == np.sqrt(ser.column("W")[k]) > 0.0
        assert r.rhs - r.lhs == pytest.approx(margins[k], rel=1e-12)

    def test_verdict_still_catches_a_violation(self, grid16):
        # energy that grows without forcing breaks the inequality
        bump = solenoidal_gaussian(grid16, width=0.8)
        states = [FlowState(t, a * bump, ScalarField.zeros(grid16))
                  for t, a in ((0.0, 1.0), (0.5, 2.0), (1.0, 1.5))]
        r = energy_inequality_check(diagnostics_series(states))
        assert not r.passed
        assert r.lhs == pytest.approx(2.0 * r.rhs)


class TestAbelIntegral:
    def test_constant_profile_closed_form(self):
        # int_0^t (nu (t-s))^{-1/2} ds = 2 sqrt(t/nu)
        t = np.linspace(0.0, 0.9, 7)
        nu = 0.7
        got = abel_integral(t, np.ones_like(t), 0.5, nu)
        assert got == pytest.approx(2 * np.sqrt(0.9 / nu), rel=1e-12)

    def test_linear_profile_closed_form(self):
        # int_0^t s (t-s)^{-1/2} ds = (4/3) t^{3/2}
        t = np.linspace(0.0, 1.2, 9)
        got = abel_integral(t, t.copy(), 0.5, 1.0)
        assert got == pytest.approx(4.0 / 3.0 * 1.2 ** 1.5, rel=1e-12)

    def test_three_quarter_power(self):
        # int_0^t (t-s)^{-3/4} ds = 4 t^{1/4}
        t = np.linspace(0.0, 0.5, 6)
        got = abel_integral(t, np.ones_like(t), 0.75, 1.0)
        assert got == pytest.approx(4 * 0.5 ** 0.25, rel=1e-12)

    @pytest.mark.parametrize("power", [1.0, 1.5])
    def test_divergent_power_rejected(self, power):
        # int_0^t (t-s)^{-p} ds diverges for p >= 1: no nan or inf, no warning
        t = np.linspace(0.0, 0.5, 6)
        with pytest.raises(ValueError, match="power must be < 1"):
            abel_integral(t, np.ones_like(t), power, 1.0)

    @pytest.mark.parametrize("t", [[0.0, 0.5, 0.2, 1.0], [0.0, 0.5, 0.5, 1.0], [1.0, 0.0]])
    def test_times_must_strictly_increase(self, t):
        # unordered times were integrated over overlapping pieces, a repeated one gave 0/0
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            abel_integral(t, np.ones(len(t)), 0.5, 1.0)


class TestFitSlope:
    def test_exact_power(self):
        x = np.geomspace(1, 100, 8)
        assert fit_loglog_slope(x, x ** -0.75) == pytest.approx(-0.75, abs=1e-12)

    def test_needs_positive_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [0.0, -1.0])


class TestBoundSuite:
    def test_monotone_bounds_on_random_data(self, grid32):
        for seed in (1, 2, 3):
            u0, states = _heat_states(grid32, seed=seed,
                                      times=(0.0, 0.2, 0.4, 0.8))
            reports = bound_suite(u0, states, None, PAR)
            names = {r.name for r in reports}
            assert {"sup-speed-monotone", "energy-monotone",
                    "gradient-seminorm-monotone"} <= names
            assert all(r.passed for r in reports)

    def test_scaling_requires_decade(self, grid32):
        u0, states = _heat_states(grid32, times=(0.0, 0.2, 0.4, 0.8))
        with pytest.raises(ValueError, match="decade"):
            bound_suite(u0, states, None, PAR, scaling=True)

    def test_forced_ratio_bounds(self):
        g = make_grid(20, 4.0)
        nu = 0.5
        par = FluidParams(nu, 1.0)
        shape = solenoidal_gaussian(g, width=0.9)
        lap = solenoidal_gaussian_laplacian(g, width=0.9)
        F = ramped_forcing(g, shape, lap, nu, 0.4)
        states = solve_linearized(VectorField3.zeros(g), F, par,
                                  [0.05, 0.1, 0.2, 0.3, 0.4], assume_solenoidal=True)
        reports = bound_suite(VectorField3.zeros(g), states, F, par)
        names = {r.name for r in reports}
        assert {"forced-gradient-ratio", "forced-sup-derivative-ratio"} <= names
        assert all(r.passed for r in reports)
        for r in reports:
            assert np.isfinite(r.metadata["empirical_constant"])


def _bound_suite_oracle(states, forcing, params, fit):
    """bound_suite's reports built from a full diagnostics series of its own
    (a fresh diagnosis of each state), with each forcing time sampled again
    for sup|X|."""
    ser = diagnostics_series(_undiagnosed(states), forcing)
    t = ser.times
    col = {name: ser.column(name) for name in ("W", "J1", "J2", "V", "D1")}
    if not (forcing is not None and any(f > 0 for f in ser.forcing_norms)):
        reports = [_monotone_report(name, col[key], 1e-10) for name, key in (
            ("sup-speed-monotone", "V"), ("energy-monotone", "W"),
            ("gradient-seminorm-monotone", "J1"))]
        if fit:
            pos = t > 0
            c = {name: v[pos] for name, v in col.items()}
            sqW = np.sqrt(c["W"])
            for name, ratio, expected in (
                    ("speed-over-gradient-decay", c["V"] / c["J1"], -0.25),
                    ("sup-speed-decay-rate", c["V"] / sqW, -0.75),
                    ("sup-gradient-decay-rate", c["D1"] / sqW, -1.25),
                    ("gradient-seminorm-decay-rate", c["J1"] / sqW, -0.5),
                    ("second-seminorm-decay-rate", c["J2"] / sqW, -1.0)):
                reports.append(_scaling_report(name, t[pos], ratio, expected))
        return reports
    sup_f = [sup_norm(forcing.at(tk)) for tk in t]
    reports = []
    for name, norms, values in (("forced-gradient-ratio", ser.forcing_norms, col["J1"]),
                                ("forced-sup-derivative-ratio", sup_f, col["D1"])):
        ratios = []
        for k in range(1, len(t)):
            rhs = abel_integral(t[: k + 1], norms[: k + 1], 0.5, params.nu)
            if rhs > 0:
                ratios.append(values[k] / rhs)
        ratios = np.asarray(ratios)
        md = {"empirical_constant": float(ratios.max()), "ratios": [float(r) for r in ratios]}
        if name == "forced-sup-derivative-ratio":
            md["note"] = "stated with '=' in the source relation; certified as an upper bound"
        reports.append(make_report(name, float(ratios.max()),
                                   3.0 * float(np.median(ratios)), 0.0, md))
    return reports


@pytest.fixture(scope="module")
def ramp_run():
    g = make_grid(16, 4.0)
    par = FluidParams(0.5, 1.0)
    F = ramped_forcing(g, solenoidal_gaussian(g, width=0.9),
                       solenoidal_gaussian_laplacian(g, width=0.9), par.nu, 0.4)
    states = solve_linearized(VectorField3.zeros(g), F, par, [0.05, 0.1, 0.2, 0.3],
                              assume_solenoidal=True)
    return F, par, states


class TestBoundSuiteFirstOrder:
    DECADE = (0.0, 0.04, 0.08, 0.15, 0.25, 0.4)  # 5 positive times over a decade

    @pytest.mark.parametrize("scaling,times,fit", [
        (False, DECADE, False),
        (True, DECADE, True),
    ])
    def test_unforced_matches_full_series(self, grid16, scaling, times, fit):
        u0, states = _heat_states(grid16, seed=4, times=times)
        got = bound_suite(u0, states, None, PAR, scaling=scaling)
        want = _bound_suite_oracle(states, None, PAR, fit)
        assert [vars(r) for r in got] == [vars(r) for r in want]

    def test_forced_matches_full_series(self, ramp_run):
        F, par, states = ramp_run
        got = bound_suite(None, states, F, par)
        assert [r.name for r in got] == ["forced-gradient-ratio", "forced-sup-derivative-ratio"]
        assert [vars(r) for r in got] == [vars(r) for r in _bound_suite_oracle(states, F, par, False)]

    def test_zero_forcing_matches_full_series(self, grid16):
        u0, states = _heat_states(grid16, seed=5, times=(0.0, 0.1, 0.3))
        zero = VectorField3.zeros(grid16)
        F = ForcingField(grid16, lambda t: zero)
        got = bound_suite(u0, states, F, PAR)
        assert [vars(r) for r in got] == [vars(r) for r in _bound_suite_oracle(states, F, PAR, False)]

    @pytest.mark.parametrize("branch", ["monotone", "scaling", "forced"])
    def test_same_reports_with_and_without_a_series_first(self, grid16, ramp_run, branch):
        if branch == "forced":
            F, par, states = ramp_run
            u0 = None
        else:
            F, par = None, PAR
            u0, states = _heat_states(grid16, seed=4, times=self.DECADE)
        scaling = branch == "scaling"
        cold = bound_suite(u0, _undiagnosed(states), F, par, scaling=scaling)
        warm_states = _undiagnosed(states)
        diagnostics_series(warm_states, F, par)
        warm = bound_suite(u0, warm_states, F, par, scaling=scaling)
        want = _bound_suite_oracle(states, F, par, scaling)
        assert [vars(r) for r in cold] == [vars(r) for r in want]
        assert [vars(r) for r in warm] == [vars(r) for r in want]

    def test_series_then_bound_suite_takes_one_diagnosis_per_state(self, count_stencils, grid16):
        u0, states = _heat_states(grid16, times=(0.0, 0.1, 0.2))
        calls = count_stencils()
        ser = diagnostics_series(states, None, PAR)
        assert calls == []  # nothing is diagnosed before a column is read
        energy_inequality_check(ser)
        # per component: the 3 first derivatives, no second-order stencil; the
        # t = 0 state reads the solve's own pass of u0
        assert calls == [1] * 9 * (len(states) - 1)
        calls.clear()
        bound_suite(u0, states, None, PAR, scaling=False)
        assert calls == []

    def test_unforced_audit_takes_36_stencils_for_4_times(self, count_stencils, grid16):
        # solve_linearized's solenoidal check takes the 9 first derivatives and
        # hands them to the t = 0 state, then each later state takes one
        # 9-stencil first-order diagnosis, shared by every check
        u0 = solenoidal_gaussian(grid16, width=1.0)
        calls = count_stencils()
        states = solve_linearized(u0, None, PAR, [0.0, 0.1, 0.2, 0.3])
        assert calls == [1] * 9
        ser = diagnostics_series(states, None, PAR)
        energy_balance_residual(ser, states, None, PAR)
        energy_inequality_check(ser)
        bound_suite(u0, states, None, PAR)
        assert calls == [1] * (9 + 9 * 3)
        assert len(calls) == 36

    def test_reading_samples_first_takes_27_stencils_then_audits_take_none(
            self, count_stencils, grid16):
        u0, states = _heat_states(grid16, times=(0.0, 0.1, 0.2, 0.3))
        calls = count_stencils()
        ser = diagnostics_series(states, None, PAR)
        assert ser.samples == [s.diagnostics for s in states]
        # per component: 3 first, 3 pure second and 3 mixed derivatives
        assert len(calls) == 27 * len(states)
        assert calls.count(2) == 9 * len(states)
        calls.clear()
        energy_balance_residual(ser, states, None, PAR)
        energy_inequality_check(ser)
        bound_suite(u0, states, None, PAR, scaling=False)
        assert all(s.first_order is s.diagnostics for s in states)
        assert calls == []

    def test_scaling_fit_takes_one_full_pass_per_cold_state(self, count_stencils, grid16):
        u0, states = _heat_states(grid16, seed=4, times=self.DECADE)
        calls = count_stencils()
        bound_suite(u0, states, None, PAR, scaling=True)
        assert len(calls) == 27 * len(states)
        calls.clear()
        ser = diagnostics_series(states, None, PAR)
        assert ser.samples == [s.diagnostics for s in states]
        assert np.array_equal(ser.column("J1"), [s.diagnostics.J1 for s in states])
        assert calls == []

    def test_forced_branch_samples_each_time_once(self, ramp_run, count_forcing_samples):
        F, par, states = ramp_run
        counted, times = count_forcing_samples(F), count_forcing_samples.times
        bound_suite(None, states, counted, par)
        assert times == [s.t for s in states]

    def test_audits_share_one_forcing_sample_per_state(self, ramp_run, count_forcing_samples):
        # the series, the energy balance and the bound suite read each state's
        # forcing terms: K fresh states take K samples, another forcing K more
        F, par, solved = ramp_run
        states = _undiagnosed(solved)
        sampled = count_forcing_samples.times
        for forcings in (1, 2):
            counted = count_forcing_samples(F)
            ser = diagnostics_series(states, counted, par)
            energy_balance_residual(ser, states, counted, par)
            bound_suite(None, states, counted, par)
            assert sampled == [s.t for s in states] * forcings
        for s in states:
            X = F.at(s.t)
            work = sum(float(np.sum(a.samples * b.samples))
                       for a, b in zip(s.u.components, X.components)) * s.grid.cell_volume
            want = (float(np.sqrt(max(flow_energy(X), 0.0))), sup_norm(X), work)
            assert s.forcing_terms(counted) == want and want[0] > 0
        assert len(sampled) == 2 * len(states)

    def test_solved_states_keep_the_solves_forcing_sample(self, count_forcing_samples):
        # a forced solve's one X(t) per time t also gives the state its
        # forcing terms: the audits, given the solver's forcing, sample nothing
        g, par = make_grid(16, 4.0), FluidParams(0.5, 1.0)
        shape = solenoidal_gaussian(g, width=0.9)
        F = count_forcing_samples(ramped_forcing(
            g, shape, solenoidal_gaussian_laplacian(g, width=0.9), par.nu, 0.4))
        states = solve_linearized(shape, F, par, [0.0, 0.1, 0.2, 0.3])
        sampled = count_forcing_samples.times
        sampled.clear()
        ser = diagnostics_series(states, F, par)
        energy_balance_residual(ser, states, F, par)
        bound_suite(None, states, F, par)
        assert sampled == []
        for s in states:
            X = F.at(s.t)
            work = sum(float(np.sum(a.samples * b.samples))
                       for a, b in zip(s.u.components, X.components)) * s.grid.cell_volume
            want = (float(np.sqrt(flow_energy(X))), sup_norm(X), work)
            assert np.array(s.forcing_terms(F)).tobytes() == np.array(want).tobytes()
            assert s.t == 0 or min(map(abs, want)) > 0

    def test_state_list_checks(self, grid16):
        u0, states = _heat_states(grid16, times=(0.0, 0.1))
        other = _heat_states(make_grid(16, 5.0), times=(0.2,))[1]
        for bad, match in (([], "nonempty"), (states[::-1], "increasing"),
                           (states + other, "mixed grids")):
            for fn in (lambda s: bound_suite(u0, s, None, PAR), diagnostics_series):
                with pytest.raises(ValueError, match=match):
                    fn(bad)


class TestStateDiagnosis:
    def test_state_is_frozen(self, grid16):
        s = FlowState(0.0, VectorField3.zeros(grid16), ScalarField.zeros(grid16))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.u = VectorField3.zeros(grid16)

    @pytest.mark.parametrize("forced", [False, True])
    def test_each_state_is_diagnosed_once(self, monkeypatch, grid16, ramp_run, forced):
        if forced:
            F, par, states = ramp_run
        else:
            F, par = None, PAR
            states = _heat_states(grid16, times=(0.0, 0.1, 0.2))[1]
        states = _undiagnosed(states)
        diagnosed = {1: [], 2: []}
        for m, name in ((1, "first_order_diagnostics"), (2, "sample_diagnostics")):
            monkeypatch.setattr(fields, name, lambda u, t, m=m, fn=getattr(fields, name):
                                (diagnosed[m].append(u), fn(u, t))[1])
        ser = diagnostics_series(states, F, par)
        energy_balance_residual(ser, states, F, par)
        energy_inequality_check(ser)
        bound_suite(None, states, F, par)
        # the audits read first order only: one 9-stencil pass per state, no full one
        assert [id(u) for u in diagnosed[1]] == [id(s.u) for s in states]
        assert diagnosed[2] == []
        assert ser.samples == [s.diagnostics for s in states]
        assert [id(u) for u in diagnosed[2]] == [id(s.u) for s in states]
        energy_inequality_check(ser)
        assert len(diagnosed[1]) == len(diagnosed[2]) == len(states)

    def test_first_order_is_the_diagnostics_once_taken(self, grid16):
        u = random_solenoidal(grid16, seed=3)
        cold = FlowState(0.5, u, ScalarField.zeros(grid16))
        warm = FlowState(0.5, u, ScalarField.zeros(grid16))
        full = warm.diagnostics
        assert warm.first_order is full
        assert not hasattr(cold.first_order, "J2")
        assert tuple(cold.first_order) == tuple(getattr(full, k) for k in cold.first_order._fields)


class TestHolderProbe:
    def test_cusp_target_slope(self):
        g = make_grid(112, 2.8)
        u, _ = cusp_flow(g, g.h, 1.0)
        rep = holder_half_report(u, [2, 4, 8, 14, 20], 12)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.5, abs=0.15)

    def test_smooth_field_is_steeper(self):
        # a smooth field has Lipschitz gradients: at separations well below
        # the feature width the exponent is ~1 and the check must fail
        g = make_grid(64, 8.0)
        u = solenoidal_gaussian(g, width=1.5)
        rep = holder_half_report(u, [1, 2, 4], 8)
        assert not rep.passed
        assert rep.lhs > 0.8

    def test_separation_must_fit_core(self, grid16):
        u = solenoidal_gaussian(grid16, width=1.0)
        with pytest.raises(ValueError, match="core"):
            max_increment_structure(u, [12], 5)

    def test_separation_must_be_a_cell_or_more(self, grid16):
        # a 0-cell separation would give S = 0, which the log-log fit drops
        u = solenoidal_gaussian(grid16, width=1.0)
        with pytest.raises(ValueError, match="at least 1 cell"):
            max_increment_structure(u, [0, 2], 5)


class TestContinuityProbe:
    def test_strong_and_uniform_rates(self):
        g = make_grid(24, 8.0)
        u0 = solenoidal_gaussian(g, width=1.0)
        t0 = 0.5
        ref = FlowState(t0, solve_linearized(u0, None, PAR, [t0])[0].u,
                        ScalarField.zeros(g))
        probes = [FlowState(t0 + dt, solve_linearized(u0, None, PAR, [t0 + dt])[0].u,
                            ScalarField.zeros(g))
                  for dt in (0.2, 0.1, 0.05, 0.025)]
        for mode in ("strong", "uniform"):
            r = continuity_probe(probes, ref, mode=mode)
            assert r.passed
            assert r.metadata["fitted_rate"] > 0.5

    def test_needs_probes(self, grid16):
        z = FlowState(0.0, VectorField3.zeros(grid16), ScalarField.zeros(grid16))
        with pytest.raises(ValueError, match="3"):
            continuity_probe([z], z)


class TestBalanceTimeRefinement:
    def test_manufactured_residual_halves_with_dt(self):
        # time-quadrature error dominates for the fast ramp at coarse dt;
        # halving dt must at least halve the residual (a spatial floor takes
        # over at fine dt)
        nu = 0.5
        par = FluidParams(nu, 1.0)
        g = make_grid(24, 4.0)
        shape = solenoidal_gaussian(g, width=0.9)
        lap = solenoidal_gaussian_laplacian(g, width=0.9)
        F = ramped_forcing(g, shape, lap, nu, 0.2)
        worst = []
        for count in (4, 7):
            times = list(np.linspace(0.1, 0.4, count))
            states = solve_linearized(VectorField3.zeros(g), F, par, times,
                                      assume_solenoidal=True)
            ser = diagnostics_series(states, F, par)
            rep = energy_balance_residual(ser, states, F, par, rel_tol=1.0)
            worst.append(rep.lhs)
        assert worst[0] >= 2.0 * worst[1]
