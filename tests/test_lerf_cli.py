import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slowflow import (ScalarField, VectorField3, cli, energy, fieldgen, make_grid,
                      mollifier)
from slowflow.analysis import representation_reconstruct
from slowflow.cli import ConfigError, ExperimentConfig, main, run_experiment
from slowflow.convolve import SpectralAccumulator
from slowflow.report import make_report
from slowflow.stokes import FluidParams, solve_linearized

from slowflow.lerf import LerfError, read_field, write_field


class TestLerf:
    def test_scalar_roundtrip_bitwise(self, tmp_path, rng):
        g = make_grid(16, 4.0)
        f = ScalarField(g, rng.standard_normal((16,) * 3))
        path = tmp_path / "field.lerf"
        write_field(path, f)
        back = read_field(path)
        assert back.grid == g
        assert np.array_equal(back.samples, f.samples)

    def test_vector_roundtrip_bitwise(self, tmp_path, rng):
        g = make_grid(16, 4.0)
        u = VectorField3.from_arrays(g, *(rng.standard_normal((16,) * 3) for _ in range(3)))
        path = tmp_path / "vec.lerf"
        write_field(path, u)
        back = read_field(path)
        assert isinstance(back, VectorField3)
        for a, b in zip(back.components, u.components):
            assert np.array_equal(a.samples, b.samples)

    def test_layout_x1_fastest(self, tmp_path):
        g = make_grid(8, 4.0)
        f = ScalarField.from_function(g, lambda x, y, z: x + 10 * y + 100 * z)
        path = tmp_path / "layout.lerf"
        write_field(path, f)
        raw = np.fromfile(path, dtype="<f8", offset=24)
        ax = g.axis()
        # first two payload entries advance x1 with x2, x3 fixed at ax[0]
        assert raw[0] == f.samples[0, 0, 0]
        assert raw[1] == f.samples[1, 0, 0] == ax[1] + 10 * ax[0] + 100 * ax[0]

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.lerf"
        p.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(LerfError, match="not a LERF file"):
            read_field(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "v9.lerf"
        p.write_bytes(struct.pack("<4sIIdI", b"LERF", 9, 8, 4.0, 1) + b"\0" * 8)
        with pytest.raises(LerfError, match="version"):
            read_field(p)

    def test_truncated_payload(self, tmp_path):
        g = make_grid(8, 4.0)
        f = ScalarField.zeros(g)
        p = tmp_path / "trunc.lerf"
        write_field(p, f)
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(LerfError, match="unexpected end of payload"):
            read_field(p)

    def test_trailing_bytes(self, tmp_path):
        g = make_grid(8, 4.0)
        p = tmp_path / "extra.lerf"
        write_field(p, ScalarField.zeros(g))
        p.write_bytes(p.read_bytes() + b"??")
        with pytest.raises(LerfError, match="trailing"):
            read_field(p)

    @pytest.mark.parametrize("n, L, message", [
        (7, 4.0, "invalid grid: n must be even"),
        (8, float("nan"), "invalid grid: L must be > 0"),
        (100000, 4.0, "unexpected end of payload"),  # claims 8e15 bytes
        (2 ** 20, 4.0, "unexpected end of payload"),  # claims 2^63 bytes
    ])
    def test_corrupted_header_is_a_lerf_error(self, tmp_path, n, L, message):
        # a header and 64 bytes: the claim is refused before any payload is read
        p = tmp_path / "corrupt.lerf"
        p.write_bytes(struct.pack("<4sIIdI", b"LERF", 1, n, L, 1) + b"\0" * 64)
        with pytest.raises(LerfError, match=message):
            read_field(p)


BASE_CONFIG = {
    "grid": {"n": 16, "L": 6.0},
    "params": {"nu": 1.0, "rho": 1.0},
    "initial": {"generator": "solenoidal_gaussian", "params": {"width": 1.0}},
    "forcing": {"generator": "none"},
    "times": {"start": 0.0, "end": 0.6, "count": 4},
}


def _write_config(tmp_path, extra=None, name="config.json"):
    cfg = dict(BASE_CONFIG)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_unknown_top_level_key(self, tmp_path):
        raw = dict(BASE_CONFIG, typo_key=1)
        with pytest.raises(ConfigError, match="typo_key"):
            ExperimentConfig(raw, "solve")

    def test_unknown_nested_key(self):
        raw = dict(BASE_CONFIG)
        raw["params"] = {"nu": 1.0, "viscosity": 2.0}
        with pytest.raises(ConfigError, match="viscosity"):
            ExperimentConfig(raw, "solve")

    def test_bad_nu_names_field(self):
        raw = dict(BASE_CONFIG)
        raw["params"] = {"nu": -1.0}
        with pytest.raises(ConfigError, match="nu"):
            ExperimentConfig(raw, "solve")

    def test_odd_grid_rejected(self):
        raw = dict(BASE_CONFIG)
        raw["grid"] = {"n": 15, "L": 6.0}
        with pytest.raises(ConfigError, match="even"):
            ExperimentConfig(raw, "solve")

    def test_unknown_check_rejected(self):
        raw = dict(BASE_CONFIG, checks=["no_such_check"])
        with pytest.raises(ConfigError, match="no_such_check"):
            ExperimentConfig(raw, "verify")


class TestRunExperiment:
    def test_solve_writes_fields_and_csv(self, tmp_path):
        cfg = ExperimentConfig(dict(BASE_CONFIG), "solve")
        out = tmp_path / "out"
        code, _ = run_experiment(cfg, str(out))
        assert code == 0
        assert (out / "manifest.json").exists()
        csv = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert csv[0] == "t,W,J1,J2,V,D1,Xnorm"
        assert len(csv) == 1 + 4
        for k in range(4):
            for c in (1, 2, 3):
                assert (out / f"u{c}_{k:03d}.lerf").exists()
            assert (out / f"p_{k:03d}.lerf").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid"] == {"n": 16, "L": 6.0}
        assert len(manifest["times"]) == 4

    def test_verify_passes(self, tmp_path):
        # energy_balance needs >= 64^3 for its 2-percent default tolerance
        # (covered by the acceptance suite); this exercises the other checks
        raw = dict(BASE_CONFIG,
                   checks=["energy_inequality", "monotone_bounds",
                           "schwarz", "quasi_derivative", "hardy"])
        raw["grid"] = {"n": 24, "L": 6.0}
        raw["times"] = {"start": 0.0, "end": 0.6, "count": 6}
        cfg = ExperimentConfig(raw, "verify")
        code, reports = run_experiment(cfg, str(tmp_path / "out"))
        assert code == 0
        assert all(r.passed for r in reports)
        assert (tmp_path / "out" / "report.json").exists()

    def test_negative_control_fails_with_reports(self, tmp_path):
        raw = dict(BASE_CONFIG, checks=["energy_inequality", "negative_control"])
        cfg = ExperimentConfig(raw, "verify")
        out = tmp_path / "out"
        code, reports = run_experiment(cfg, str(out))
        assert code == 1
        assert (out / "report.json").exists()
        payload = json.loads((out / "report.json").read_text())
        byname = {r["name"]: r for r in payload}
        assert byname["negative-control-corrupted-state"]["pass"] is False
        assert byname["energy-inequality"]["pass"] is True

    def test_mollify_study(self, tmp_path):
        raw = {"grid": {"n": 32, "L": 4.0}, "epsilons": [1.0, 0.5], "field_width": 0.8}
        cfg = ExperimentConfig(raw, "mollify-study")
        code, reports = run_experiment(cfg, str(tmp_path / "out"))
        assert code == 0
        assert (tmp_path / "out" / "mollify.csv").exists()

    def test_mollify_study_samples_and_transforms_each_kernel_once(self, tmp_path, monkeypatch):
        # V does not depend on eps: one kernel sample gives the raw mass, and
        # its one transform mollifies both U and V
        sampled, transforms = [], []
        sample, kernel_fft = mollifier._sampled, SpectralAccumulator.kernel_fft

        def counting_sample(k, grid, axes):
            sampled.append((k.epsilon, axes))
            return sample(k, grid, axes)

        def counting_fft(self, kernel):
            transforms.append(kernel.shape)
            return kernel_fft(self, kernel)

        monkeypatch.setattr(mollifier, "_sampled", counting_sample)
        monkeypatch.setattr(SpectralAccumulator, "kernel_fft", counting_fft)
        raw = {"grid": {"n": 32, "L": 4.0}, "epsilons": [0.5, 1.0, 0.75], "field_width": 0.8}
        code, _ = run_experiment(ExperimentConfig(raw, "mollify-study"), str(tmp_path / "out"))
        assert code == 0
        assert sampled == [(1.0, ()), (0.75, ()), (0.5, ())]
        assert len(transforms) == 3

    def test_convergence_study(self, tmp_path):
        raw = {"grid": {"n": 16, "L": 8.0}, "study": "representation", "grids": [16, 24]}
        cfg = ExperimentConfig(raw, "convergence-study")
        code, reports = run_experiment(cfg, str(tmp_path / "out"))
        assert code == 0

    def test_convergence_study_judges_only_the_refinement_claim(self, tmp_path):
        # at L = 4 the 16^3 representation error (0.176) misses its O(h)
        # budget (0.15) while refinement halves it: the per-grid reports are
        # kept in report.json but only the refinement claim sets the exit code
        raw = {"grid": {"n": 16, "L": 4.0}, "study": "representation", "grids": [16, 24]}
        out = tmp_path / "out"
        code, reports = run_experiment(ExperimentConfig(raw, "convergence-study"), str(out))
        assert code == 0
        byname = {r["name"]: r for r in json.loads((out / "report.json").read_text())}
        assert byname["representation-n16"]["pass"] is False
        assert byname["representation-n16"]["metadata"]["judged"] is False
        assert byname["representation-refinement-decrease"]["pass"] is True
        assert "judged" not in byname["representation-refinement-decrease"]["metadata"]

    def test_refinement_report_is_named_like_the_per_grid_reports(self, tmp_path):
        raw = {"grid": {"n": 16, "L": 4.0}, "study": "quasi_derivative", "grids": [16, 24]}
        out = tmp_path / "out"
        code, _ = run_experiment(ExperimentConfig(raw, "convergence-study"), str(out))
        assert code == 0
        names = [r["name"] for r in json.loads((out / "report.json").read_text())]
        assert names == ["quasi-derivative-n16", "quasi-derivative-n24",
                         "quasi-derivative-refinement-decrease"]


class TestCliMain:
    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"params": {"nu": -1.0}})
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nu" in capsys.readouterr().err

    def test_exit_2_on_unknown_key(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"unexpected": True})
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_grid_override(self, tmp_path):
        path = _write_config(tmp_path)
        out = tmp_path / "o"
        code = main(["solve", "--config", str(path), "--out", str(out), "--grid-n", "24"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid"]["n"] == 24

    def test_check_flag_selects_checks(self, tmp_path):
        path = _write_config(tmp_path)
        out = tmp_path / "o"
        code = main(["verify", "--config", str(path), "--out", str(out),
                     "--check", "schwarz"])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert [r["name"] for r in payload] == ["schwarz"]

    def test_check_flags_do_not_carry_over_between_calls(self, tmp_path, monkeypatch):
        seen = []

        class Recorded(ExperimentConfig):
            def __init__(self, raw, command):
                super().__init__(raw, command)
                seen.append((command, self.checks))
        monkeypatch.setattr(cli, "ExperimentConfig", Recorded)
        path = _write_config(tmp_path)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v"),
                     "--check", "schwarz", "--check", "energy_inequality"]) == 0
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "w"),
                     "--check", "hardy"]) == 0
        default = cli.SCHEMA["checks"][1]
        assert seen == [("verify", ["schwarz", "energy_inequality"]), ("solve", default),
                        ("verify", ["hardy"])]
        assert cli._parser() is cli._parser()

    def test_hardy_and_representation_share_one_probe(self, tmp_path, monkeypatch):
        calls = []
        probe = cli._probe
        monkeypatch.setattr(cli, "_probe", lambda grid: calls.append(grid.n) or probe(grid))
        path = _write_config(tmp_path, {"checks": ["hardy", "representation"]})
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert calls == [16]
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "p"),
                     "--check", "schwarz"]) == 0
        assert calls == [16]

    def test_deterministic_outputs(self, tmp_path):
        path = _write_config(tmp_path, {"checks": ["energy_inequality", "schwarz", "monotone_bounds"]})
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = main(["verify", "--config", str(path), "--out", str(out)])
            assert code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], f"{name} differs between runs"

    def test_console_entry_point(self, tmp_path):
        path = _write_config(tmp_path)
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "slowflow.cli", "solve",
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (out / "manifest.json").exists()


@pytest.mark.parametrize("raw", [{"grid": [1, 2]}, [1, 2]], ids=["grid-array", "top-level-array"])
@pytest.mark.parametrize("flag", [["--grid-n", "16"], ["--grid-L", "8.0"], ["--check", "schwarz"]],
                         ids=["grid-n", "grid-L", "check"])
def test_override_on_malformed_config_is_a_config_error(tmp_path, capsys, raw, flag):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o"), *flag])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra,field", [
    ("solve", {"times": {"start": 0.0, "end": 0.6, "count": 3.9}}, "times.count"),
    ("convergence-study", {"grids": [16.7, 24.2]}, "grids"),
    ("mollify-study", {"epsilons": [True]}, "epsilons"),
    ("solve", {"grid": {"n": 16, "L": "4"}}, "grid.L"),
    ("solve", {"params": {"nu": "1"}}, "params.nu"),
    ("solve", {"params": {"nu": True}}, "params.nu"),
    ("solve", {"params": {"rho": None}}, "params.rho"),
    ("solve", {"times": {"start": None}}, "times.start"),
    ("solve", {"times": {"end": "0.6"}}, "times.end"),
    ("mollify-study", {"field_width": None}, "field_width"),
    ("solve", {"output": 5}, "output"),
    ("solve", {"output": None}, "output"),
    ("solve", {"initial": {"generator": ["x"]}}, "initial.generator"),
    ("solve", {"initial": {"params": {"amplitude": None}}}, "initial.params.amplitude"),
    ("solve", {"initial": {"generator": "solenoidal_gaussian", "params": {"width": "1"}}},
     "initial.params.width"),
    ("solve", {"forcing": {"generator": "gradient_pulse", "params": {"t_scale": "1"}}},
     "forcing.params.t_scale"),
    ("solve", {"initial": {"generator": "solenoidal_gaussian", "params": {"widht": 1.0}}},
     "widht"),
    ("solve", {"initial": {"generator": "random_solenoidal", "params": {"seed": 2.7}}},
     "initial.params.seed"),
    ("solve", {"initial": {"generator": "random_solenoidal", "params": {"seed": "x"}}},
     "initial.params.seed"),
    ("mollify-study", {"epsilons": []}, "epsilons"),
    ("mollify-study", {"epsilons": [2.0]}, "epsilons"),
    ("mollify-study", {"field_width": 0}, "field_width"),
    ("mollify-study", {"epsilons": [2.0, 1.0]}, "epsilons"),
    ("verify", {"checks": ["negative_control"], "times": {"count": 1}}, "negative_control"),
    ("verify", {"checks": ["energy_balance"], "times": {"count": 2}}, "energy_balance"),
    ("convergence-study", {"study": "energy_balance", "times": {"count": 2}}, "energy_balance"),
    ("convergence-study", {"grids": [24, 16]}, "grids"),
    ("convergence-study", {"grids": [16, 16]}, "grids"),
    ("mollify-study", {"epsilons": [2.0, 2.0, 1.5]}, "epsilons"),
], ids=["fractional-count", "fractional-grids", "bool-epsilon", "string-L", "string-nu",
        "bool-nu", "null-rho", "null-start", "string-end", "null-field-width",
        "int-output", "null-output", "list-generator", "null-param", "string-width",
        "string-t-scale", "unknown-param", "fractional-seed", "string-seed",
        "no-epsilons", "one-epsilon", "zero-field-width", "under-resolved-epsilon",
        "one-time-negative-control", "two-time-energy-balance", "two-time-energy-study",
        "decreasing-grids", "repeated-grids", "repeated-epsilon"])
def test_config_numbers_are_not_truncated_or_coerced(tmp_path, capsys, command, extra, field):
    path = _write_config(tmp_path, extra)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not (tmp_path / "o").exists()


def test_verify_audits_the_from_rest_case(tmp_path, capsys):
    # u'(x, 0) = 0 under a forcing: W(0) = 0, so the energy balance is scaled
    # by the largest term of the balance instead of W(0)
    path = _write_config(tmp_path, {"grid": {"n": 16, "L": 4.0},
                                    "initial": {"generator": "zero"},
                                    "forcing": {"generator": "solenoidal_pulse"},
                                    "times": {"start": 0.0, "end": 0.4, "count": 4}})
    out = tmp_path / "o"
    code = main(["verify", "--config", str(path), "--out", str(out)])
    assert code != 2 and capsys.readouterr().err == ""
    byname = {r["name"]: r for r in json.loads((out / "report.json").read_text())}
    balance = byname["energy-balance"]
    assert balance["metadata"]["W0"] == 0.0 and balance["metadata"]["scale"] > 0.0
    assert 0.0 < balance["lhs"] < 0.1
    assert byname["energy-inequality"]["lhs"] > 0.0  # not the trivial t = 0 pair


def test_solver_error_is_not_labelled_a_config_error(tmp_path, capsys):
    # valid configs whose first nonzero time is below the heat-kernel floor
    # (of the coarser grid, for the study)
    for command, extra in (
            ("solve", {"times": {"start": 0.0, "end": 1e-4, "count": 4}}),
            ("convergence-study", {"grid": {"n": 16, "L": 4.0}, "study": "energy_balance",
                                   "grids": [8, 16],
                                   "times": {"start": 0.0, "end": 0.05, "count": 4}})):
        path = _write_config(tmp_path, extra)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: under-resolved")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,generator,params,message", [
    ("forcing", "gradient_pulse", {"t_scale": 0}, "width and t_scale must be > 0"),
    ("forcing", "solenoidal_pulse", {"t_scale": 0}, "width and t_scale must be > 0"),
    ("initial", "solenoidal_gaussian", {"width": -1.0}, "width must be > 0"),
    ("initial", "random_solenoidal", {"n_vortices": -3}, "n_vortices must be >= 1"),
], ids=["gradient_pulse", "solenoidal_pulse", "negative-width", "negative-n-vortices"])
def test_zero_time_scale_is_a_solver_error(tmp_path, capsys, section, generator, params, message):
    path = _write_config(tmp_path, {section: {"generator": generator, "params": params}})
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "o").exists()


def test_readme_example_config_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    raw = json.loads(cli_section.split("```json\n", 1)[1].split("```", 1)[0])
    for command in ("solve", "verify", "mollify-study", "convergence-study"):
        ExperimentConfig(raw, command)


def test_grid_L_override(tmp_path):
    path = _write_config(tmp_path)
    out = tmp_path / "o"
    code = main(["solve", "--config", str(path), "--out", str(out), "--grid-L", "8.0"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"]["L"] == 8.0


def test_thread_env_var_does_not_change_results(tmp_path, monkeypatch, rng):
    # convolutions run on BLAS, whose threads slowflow does not set:
    # SLOWFLOW_THREADS is not read
    from slowflow.convolve import convolve_offsets, fft_workers
    g = make_grid(16, 4.0)
    field = rng.standard_normal((16,) * 3)
    kernel = rng.standard_normal((7, 7, 7))
    base = convolve_offsets(field, kernel, g.h)
    monkeypatch.setenv("SLOWFLOW_THREADS", "4")
    assert fft_workers() == 1
    np.testing.assert_array_equal(convolve_offsets(field, kernel, g.h), base)


def test_forced_solve_is_byte_identical_across_thread_counts(tmp_path):
    # the heat step, the Duhamel node loop and every convolution run on BLAS:
    # its thread count may not change a byte of the solve (its Newton
    # convolutions), of the representation check's dipole convolutions, nor of
    # the mollifier study's cube kernels
    path = _write_config(tmp_path, {
        "grid": {"n": 24, "L": 4.0},
        "forcing": {"generator": "gradient_pulse", "params": {"width": 1.0, "t_scale": 0.5}},
        "params": {"nu": 0.25, "rho": 1.0},
        "times": {"start": 0.0, "end": 0.3, "count": 3},
        "epsilons": [1.5, 1.0],
    })
    for command, extra, files in (("solve", [], 3 * 4 + 2),
                                  ("verify", ["--check", "representation"], 2),
                                  ("mollify-study", [], 2)):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "slowflow.cli", command,
                 "--config", str(path), "--out", str(out), *extra],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0].keys() == outs[1].keys() and len(outs[0]) == files
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], f"{command} {name} differs between thread counts"


def test_verify_runs_the_representation_check(tmp_path):
    path = _write_config(tmp_path, {"checks": ["representation"]})
    out = tmp_path / "o"
    code = main(["verify", "--config", str(path), "--out", str(out)])
    assert code == 0
    [rep] = json.loads((out / "report.json").read_text())
    g = make_grid(16, 6.0)
    ref = representation_reconstruct(fieldgen.gaussian_bump(g, width=1.0))[1]
    assert rep["name"] == ref.name == "representation-identity"
    assert rep["lhs"] == ref.lhs and rep["pass"] is True


ENERGY_STUDY = {"grid": {"n": 16, "L": 4.0}, "initial": {"generator": "zero"},
                "study": "energy_balance", "grids": [16, 24],
                "times": {"start": 0.0, "end": 0.5, "count": 4}}


def _strict_json(text):
    """json.loads that rejects Infinity and NaN, as strict JSON does."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_energy_study_from_rest_without_forcing_exits_0(tmp_path, capsys):
    # every residual is 0 on both grids: no growth, not a 0/0 traceback
    path = _write_config(tmp_path, ENERGY_STUDY)
    out = tmp_path / "o"
    code = main(["convergence-study", "--config", str(path), "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    [rep] = _strict_json((out / "report.json").read_text())
    assert rep["name"] == "energy-balance-refinement-decrease"
    assert rep["lhs"] == 0.0 and rep["metadata"]["values"] == [0.0, 0.0]


def test_energy_study_growth_from_a_zero_value_fails_in_strict_json(tmp_path, monkeypatch):
    # a zero coarse residual followed by a nonzero one is unbounded growth
    values = iter([0.0, 0.5])
    monkeypatch.setattr(energy, "energy_balance_residual",
                        lambda *a, **k: make_report("energy-balance", next(values), 1.0, 0.0))
    path = _write_config(tmp_path, ENERGY_STUDY)
    out = tmp_path / "o"
    assert main(["convergence-study", "--config", str(path), "--out", str(out)]) == 1
    [rep] = _strict_json((out / "report.json").read_text())
    assert rep["pass"] is False and rep["lhs"] == sys.float_info.max
    assert rep["metadata"]["values"] == [0.0, 0.5]


def test_energy_study_solves_with_the_configured_forcing(tmp_path):
    path = _write_config(tmp_path, dict(ENERGY_STUDY, forcing={"generator": "solenoidal_pulse"}))
    out = tmp_path / "o"
    main(["convergence-study", "--config", str(path), "--out", str(out)])
    [rep] = _strict_json((out / "report.json").read_text())
    values = rep["metadata"]["values"]
    par, times = FluidParams(1.0, 1.0), list(np.linspace(0.0, 0.5, 4))
    for n, value in zip((16, 24), values):
        g = make_grid(n, 4.0)
        F = fieldgen.forcing("solenoidal_pulse", g)
        states = solve_linearized(VectorField3.zeros(g), F, par, times)
        series = energy.diagnostics_series(states, F, par)
        assert value == energy.energy_balance_residual(series, states, F, par).lhs
    # the forced solve's residuals (an unforced solve from rest gives 0, 0);
    # their growth is the time-sampling bias of the 4-sample trapezoid
    assert values == pytest.approx([0.03006, 0.03309], rel=1e-3)


@pytest.mark.parametrize("command,grids,first,second", [
    ("convergence-study", 2, 9, 0), ("verify", 1, 18, 9)])
def test_each_state_takes_the_stencils_its_command_reads(count_stencils, tmp_path, command,
                                                         grids, first, second):
    # per grid: the 9 first derivatives of the solenoidal check, then per state
    # 9 first-order stencils for the energy_balance study, which reads first
    # order only, or all 27 (18 of them first-order, 9 pure second) for verify,
    # whose diagnostics.csv reads J2 before its audits reuse that pass
    calls = count_stencils()
    path = _write_config(tmp_path, dict(ENERGY_STUDY, initial={"generator": "solenoidal_gaussian"}))
    main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert calls.count(1) == grids * (9 + first * 4)
    assert calls.count(2) == grids * second * 4


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not-json"])
def test_unreadable_or_malformed_config_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()
