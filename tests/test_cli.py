"""Configuration parsing, scenario runs, persistence, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import blowuplab
from blowuplab import errors, physical_solver
from blowuplab.cli import (
    _SCHEMA,
    INITIAL_KINDS,
    RunConfig,
    main,
    parse_config,
    run,
    write_csv,
)
from blowuplab.core_math import Params
from blowuplab.errors import ParseError
from blowuplab.initial_data import gaussian, line_grid, random_smooth_shape
from blowuplab.physical_solver import STEP_LIMITS, GridField, run_to_blowup
from blowuplab.verification import SuiteResult

MINIMAL = """
[run]
scenario = ode

[params]
p = 3
a = 1
N = 1
"""

# One non-default value per config key, typed as its dataclass field.
SET_VALUES = {
    "run.scenario": "ode",
    "run.output_dir": "elsewhere",
    "params.p": 2.5,
    "params.a": -0.5,
    "params.N": 2,
    "initial_data.kind": "file",
    "initial_data.value": 0.3,
    "initial_data.amplitude": 0.7,
    "initial_data.width": 3.5,
    "initial_data.floor": 0.25,
    "initial_data.path": "w0.csv",
    "grid.extent": 12.5,
    "grid.resolution": 257,
    "solver.T": 0.5,
    "solver.s_end": 6.0,
    "solver.s_max": 20.0,
    "solver.ds": 0.005,
    "solver.dt_safety": 0.1,
    "solver.m_stop": 1e6,
    "solver.t_max": 3.0,
    "functionals.m0": 4.0,
    "functionals.theta": 900.0,
    "functionals.A": 2.0,
}


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.scenario == "ode"
        assert cfg.params.p == 3.0 and cfg.params.a == 1.0 and cfg.params.N == 1
        assert cfg.grid.resolution == 401
        assert cfg.functionals.m0 == 10.0

    def test_empty_document_gets_defaults(self):
        cfg = parse_config("")
        assert cfg.scenario == "similarity"
        assert cfg == RunConfig()

    def test_schema_is_the_documented_keys(self):
        assert {f"{s}.{k}" for s, keys in _SCHEMA.items() for k in keys} == set(
            SET_VALUES
        )

    @pytest.mark.parametrize("dotted,value", SET_VALUES.items(), ids=list(SET_VALUES))
    def test_every_key_lands_on_its_field(self, dotted, value):
        section, key = dotted.split(".")
        cfg = parse_config("", overrides=[f"{dotted}={value}"])

        def read(config):
            return getattr(config if section == "run" else getattr(config, section), key)

        assert read(cfg) == value and type(read(cfg)) is type(value)
        assert read(RunConfig()) != value

    def test_subcritical_rejected(self):
        with pytest.raises(ParseError, match="subcritical"):
            parse_config("[params]\np = 5\na = 0\nN = 3\n")

    def test_unknown_key_named(self):
        with pytest.raises(ParseError, match="foo"):
            parse_config("[params]\nfoo = 1\n")

    def test_run_seed_refused(self):
        # a run is a function of its config alone; there is no seed key
        with pytest.raises(ParseError, match="unknown key 'seed'"):
            parse_config("", overrides=["run.seed=7"])

    def test_solver_rel_tol_refused(self):
        # the ODE trajectory inverts its clock to rounding; there is no tolerance
        with pytest.raises(ParseError, match="unknown key 'rel_tol'"):
            parse_config("", overrides=["solver.rel_tol=1e-10"])

    def test_unknown_section_named(self):
        with pytest.raises(ParseError, match="mystery"):
            parse_config("[mystery]\nx = 1\n")

    def test_bad_value_named(self):
        with pytest.raises(ParseError, match="params.p"):
            parse_config("[params]\np = banana\n")

    def test_bad_scenario(self):
        with pytest.raises(ParseError, match="scenario"):
            parse_config("[run]\nscenario = warp\n")

    @pytest.mark.parametrize("name", ["m0", "theta", "A"])
    def test_infinite_functional_constant_refused(self, name):
        # the file's [functionals] section, where test_nan_value_is_a_parse_error
        # gives the value by --set
        with pytest.raises(ParseError, match=f"functionals.{name} must be a finite number"):
            parse_config(f"[functionals]\n{name} = inf\n")

    def test_low_resolution_rejected(self):
        with pytest.raises(ParseError, match="resolution"):
            parse_config("[grid]\nresolution = 32\n")

    @pytest.mark.parametrize("width", ["0", "-1"])
    def test_gaussian_needs_a_positive_width(self, width):
        # exp(-(x/0)^2) is 0/0 at x = 0; a width the datum does not read is
        # not checked
        with pytest.raises(ParseError, match=f"initial_data.width must be positive .*{width}"):
            parse_config("", [f"initial_data.width={width}", "run.scenario=physical"])
        with pytest.raises(ParseError, match="initial_data.width"):
            parse_config("", [f"initial_data.width={width}", "initial_data.kind=gaussian"])
        parse_config("", [f"initial_data.width={width}"])  # the profile

    def test_scenario_default_datum(self):
        # the physical scenario starts from a Gaussian, every other from the
        # profile, unless initial_data.kind is set
        assert parse_config("").initial_data.kind == "profile"
        physical = "[run]\nscenario = physical\n"
        assert parse_config(physical).initial_data.kind == "gaussian"
        assert parse_config("", ["run.scenario=physical"]).initial_data.kind == "gaussian"
        for kind in ("profile", "constant"):
            cfg = parse_config(physical, [f"initial_data.kind={kind}"])
            assert cfg.initial_data.kind == kind

    def test_overrides(self):
        cfg = parse_config(MINIMAL, overrides=["params.a=-1", "solver.s_max=12"])
        assert cfg.params.a == -1.0
        assert cfg.solver.s_max == 12.0

    def test_malformed_override(self):
        with pytest.raises(ParseError, match="--set"):
            parse_config(MINIMAL, overrides=["params=3"])

    def test_file_initial_data(self, tmp_path):
        y = np.linspace(-25.0, 25.0, 301)
        path = tmp_path / "w0.csv"
        write_csv(path, ["y", "w"], zip(y, 0.4 * np.exp(-y * y / 6.0)))
        cfg = parse_config(
            "[run]\nscenario = similarity\n",
            overrides=[
                f"initial_data.path={path}",
                "initial_data.kind=file",
                "solver.s_end=3",
                "grid.resolution=201",
            ],
        )
        cfg.output_dir = str(tmp_path / "file_run")
        assert run(cfg) == 0

    def test_missing_file_named(self, tmp_path):
        cfg = parse_config(
            "[run]\nscenario = similarity\n",
            overrides=["initial_data.kind=file", "initial_data.path=/nope.csv"],
        )
        cfg.output_dir = str(tmp_path / "x")
        assert run(cfg) == 1
        report = json.loads((tmp_path / "x" / "report.json").read_text())
        assert "/nope.csv" in report["error"]

    @pytest.mark.parametrize("scenario", ["similarity", "physical"])
    @pytest.mark.parametrize("fault", ["repeated", "descending", "nan"])
    def test_malformed_file_named(self, tmp_path, scenario, fault):
        # CubicSpline's own ValueError would otherwise end the run, and a
        # descending x would be reported as not covering the grid
        x = np.linspace(-30.0, 30.0, 61)
        u = np.exp(-x * x / 6.0)
        if fault == "repeated":
            x[30] = x[29]
        elif fault == "descending":
            x = x[::-1]
        else:
            u[30] = np.nan
        path = tmp_path / "w0.csv"
        path.write_text("x,u\n" + "".join(f"{xi},{ui}\n" for xi, ui in zip(x, u)))
        out = tmp_path / "run"
        argv = [scenario, "--set", "initial_data.kind=file",
                "--set", f"initial_data.path={path}", "--output", str(out)]
        assert main(argv) == 1
        message = "a value is not finite" if fault == "nan" else "x is not strictly increasing"
        report = json.loads((out / "report.json").read_text())
        assert report["error"] == f"ParseError: initial_data.path {str(path)!r}: {message}"

    def test_header_only_file_is_named_without_a_warning(self, tmp_path, capsys):
        # numpy warns of a file with no rows; the row count check names it
        path = tmp_path / "w0.csv"
        path.write_text("x,u\n")
        out = tmp_path / "run"
        argv = ["similarity", "--set", "initial_data.kind=file",
                "--set", f"initial_data.path={path}", "--output", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        error = json.loads((out / "report.json").read_text())["error"]
        assert error.startswith(f"ParseError: initial_data.path {str(path)!r}: ")


class TestScenarios:
    def test_ode_scenario_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL, overrides=["params.a=0", "solver.s_max=15"])
        cfg.output_dir = str(tmp_path / "ode")
        assert run(cfg) == 0
        report = json.loads((tmp_path / "ode" / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["error"] is None
        assert report["config"]["params"]["p"] == 3.0
        data = np.loadtxt(tmp_path / "ode" / "trajectory.csv", delimiter=",", skiprows=1)
        header = (tmp_path / "ode" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "s,t,v,psi_T,ratio"
        # a = 0: ratio column is kappa_0 throughout, to rounding
        assert np.max(np.abs(data[:, 4] - 2.0**-0.5)) < 1e-14

    def test_determinism_byte_identical(self, tmp_path):
        base = [
            "initial_data.kind=gaussian",
            "initial_data.amplitude=0.3",
            "initial_data.floor=0.0",
            "solver.s_end=5",
            "grid.resolution=201",
        ]
        for name in ("r1", "r2"):
            cfg = parse_config("[run]\nscenario = similarity\n", overrides=base)
            cfg.output_dir = str(tmp_path / name)
            assert run(cfg) == 0
        for artifact in ("functionals.csv", "step_ledger.csv", "snapshots.csv"):
            b1 = (tmp_path / "r1" / artifact).read_bytes()
            b2 = (tmp_path / "r2" / artifact).read_bytes()
            assert b1 == b2, artifact
        # 17-digit output round-trips: reconstruction identities survive the CSV
        rows = np.loadtxt(tmp_path / "r1" / "functionals.csv", delimiter=",", skiprows=1)
        s, E, J, H, I, L0, L = (
            rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 5], rows[:, 6],
            rows[:, 7],
        )
        mass = I * s ** (10.0 * 3.0)  # b = m0 (p+3)/2 with m0=10, p=3
        assert np.allclose(L0, E - s**-1.5 * mass, atol=1e-12)
        assert np.allclose(H, E + 10.0 * J, atol=1e-12)
        assert np.allclose(L, np.exp(6.0 / np.sqrt(s)) * L0 + 800.0 * s**-0.75, atol=1e-12)

    def test_physical_scenario(self, tmp_path):
        cfg = parse_config(
            "[run]\nscenario = physical\n",
            overrides=[
                "grid.extent=10",
                "grid.resolution=257",
                "initial_data.amplitude=0.2",
            ],
        )
        cfg.output_dir = str(tmp_path / "phys")
        assert run(cfg) == 0
        report = json.loads((tmp_path / "phys" / "report.json").read_text())
        assert report["results"]["status"] == "blown_up"
        fit = report["results"]["rate_fit"]
        assert fit["alpha_hat"] == pytest.approx(0.5, rel=0.05)
        # the fit window's resolution sqrt(T_hat - t)/h = e^(-s/2)/h at its ends
        h = 20.0 / 256
        assert fit["resolution"] == pytest.approx(
            [math.exp(-s / 2.0) / h for s in fit["window_s"]], rel=1e-12
        )
        assert fit["resolution"][0] > fit["resolution"][1]
        hist = np.loadtxt(
            tmp_path / "phys" / "sup_history.csv", delimiter=",", skiprows=1
        )
        # the run halts where the next step would leave t unchanged, before
        # max|u| reaches the default m_stop = 1e8
        assert report["results"]["halt"] == "t_resolution"
        assert hist[-1, 1] >= 1e6
        assert np.all(np.diff(hist[:, 0]) > 0.0)

    def test_numeric_failure_reported(self, tmp_path, monkeypatch):
        import blowuplab.cli as cli_mod
        from blowuplab.errors import NumericError

        def boom(config, outdir):
            raise NumericError("deliberate failure")

        monkeypatch.setattr(cli_mod, "_scenario_ode", boom)
        cfg = parse_config(MINIMAL)
        cfg.output_dir = str(tmp_path / "fail")
        assert run(cfg) == 1
        report = json.loads((tmp_path / "fail" / "report.json").read_text())
        assert "deliberate failure" in report["error"]

    def test_any_exception_reported(self, tmp_path, monkeypatch):
        import blowuplab.cli as cli_mod

        def boom(config, outdir):
            raise ValueError("not a lab error")

        monkeypatch.setattr(cli_mod, "_scenario_ode", boom)
        cfg = parse_config(MINIMAL)
        cfg.output_dir = str(tmp_path / "fail")
        assert run(cfg) == 1
        report = json.loads((tmp_path / "fail" / "report.json").read_text())
        assert report["error"] == "ValueError: not a lab error"
        assert report["results"] is None

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOWUPLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = parse_config(MINIMAL, overrides=["solver.s_max=12"])
        cfg.output_dir = "relative_out"
        assert run(cfg) == 0
        assert (tmp_path / "relative_out" / "report.json").exists()


class TestVerifyReport:
    def test_every_suite_reported_once(self, tmp_path, monkeypatch):
        import blowuplab.cli as cli_mod

        def fake_suites(corpus):
            out = []
            for k in range(1, 9):
                s = SuiteResult(criterion=k, name=f"fake_{k}")
                s.add("check", 0.0, 1.0)
                out.append(s)
            return out

        monkeypatch.setattr(cli_mod, "build_audit_corpus", lambda: None)
        monkeypatch.setattr(cli_mod, "run_all_suites", fake_suites)
        cfg = RunConfig(scenario="verify", output_dir=str(tmp_path / "verify"))
        assert run(cfg) == 0
        report = json.loads((tmp_path / "verify" / "report.json").read_text())
        crits = [s["criterion"] for s in report["results"]["suites"]]
        assert sorted(crits) == list(range(1, 9))
        assert len(crits) == len(set(crits))
        assert report["results"]["all_passed"]

    def test_suite_ledgers_written(self, tmp_path, monkeypatch):
        import blowuplab.cli as cli_mod

        def fake_suites(corpus):
            s = SuiteResult(criterion=1, name="fake")
            s.ledgers["sub/a.csv"] = (["x", "y"], [(1.0, 0.1)])
            s.ledgers["b.csv"] = (["t"], np.array([[2.0], [3.0]]))
            return [s]

        monkeypatch.setattr(cli_mod, "build_audit_corpus", lambda: None)
        monkeypatch.setattr(cli_mod, "run_all_suites", fake_suites)
        out = tmp_path / "verify"
        assert run(RunConfig(scenario="verify", output_dir=str(out))) == 0
        assert (out / "sub" / "a.csv").read_text() == "x,y\n1,0.10000000000000001\n"
        assert (out / "b.csv").read_text() == "t\n2\n3\n"


class TestMain:
    def test_cli_ode(self, tmp_path):
        rc = main(
            [
                "ode",
                "--set",
                "params.p=3",
                "--set",
                "params.a=0",
                "--set",
                "solver.s_max=12",
                "--output",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0

    def test_cli_ode_p_near_1(self, tmp_path):
        # at p = 1.2 the trajectory spans v up to 1e69 by s = 30
        out = tmp_path / "o"
        assert main(["ode", "--set", "params.p=1.2", "--output", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 582
        # v leaves float64 near s = 147.6, and T - t = e^-s near s = 708
        for s_max, error in (("700", "NumericError: integrate_vT: v leaves float64"),
                             ("1500", "DomainError: integrate_vT requires s_max")):
            argv = ["ode", "--set", "params.p=1.2", "--set", f"solver.s_max={s_max}"]
            assert main([*argv, "--output", str(out)]) == 1
            assert json.loads((out / "report.json").read_text())["error"].startswith(error)

    def test_cli_ode_kappa_beyond_float64(self, tmp_path):
        # kappa_a(1.02, 5) is about 8.9e-416: a NumericError, not a deviation of inf
        out = tmp_path / "o"
        argv = ["ode", "--set", "params.p=1.02", "--set", "params.a=5"]
        assert main([*argv, "--output", str(out)]) == 1
        error = json.loads((out / "report.json").read_text())["error"]
        assert error.startswith("NumericError: kappa_a leaves the normal float64 range")

    def test_cli_config_error_exit_2(self, tmp_path):
        rc = main(["ode", "--set", "params.p=0.5", "--output", str(tmp_path / "x")])
        assert rc == 2

    def test_rate_fit_command(self, tmp_path, capsys):
        T = 0.5
        s = np.linspace(3.0, 17.0, 300)
        t = T - np.exp(-s)
        M = np.exp(s / 2.0) * s**-0.5
        path = tmp_path / "hist.csv"
        write_csv(path, ["t", "sup_u"], zip(t, M))
        rc = main(["rate-fit", str(path), "--t-hat", str(T)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["alpha_hat"] == pytest.approx(0.5, abs=1e-8)
        assert out["beta_hat"] == pytest.approx(0.5, abs=1e-8)

    def test_rate_fit_bad_csv_exit_1(self, tmp_path, capsys):
        one_column = tmp_path / "one.csv"
        one_column.write_text("t\n0.1\n0.2\n")
        text = tmp_path / "text.csv"
        text.write_text("t,sup_u\nzero,one\n")
        header_only = tmp_path / "empty.csv"
        header_only.write_text("t,sup_u\n")
        # in the fit's window, a NaN row would be dropped without a word, and
        # an inf sup_u would print a NaN alpha_hat, which strict JSON refuses
        s = np.linspace(3.0, 17.0, 300)
        non_finite = []
        for column, value in ((0, math.nan), (1, math.nan), (1, math.inf)):
            history = np.column_stack([0.6 - np.exp(-s), np.exp(s / 2.0)])
            history[250, column] = value
            non_finite.append(tmp_path / f"{value}_in_column_{column}.csv")
            write_csv(non_finite[-1], ["t", "sup_u"], history)
        for path in (tmp_path / "missing.csv", one_column, text, header_only,
                     *non_finite):
            assert main(["rate-fit", str(path), "--t-hat", "0.6"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert str(path) in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("t_hat", ["nan", "inf"])
    def test_rate_fit_non_finite_t_hat_exit_1(self, tmp_path, capsys, t_hat):
        path = tmp_path / "hist.csv"
        s = np.linspace(3.0, 17.0, 300)
        write_csv(path, ["t", "sup_u"], zip(0.5 - np.exp(-s), np.exp(s / 2.0)))
        assert main(["rate-fit", str(path), "--t-hat", t_hat]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"fit_rate: T_hat must be finite, got {t_hat}"
        }

    @pytest.mark.parametrize(
        "text", ["p = 3\n", "[params]\np = 3\np = 2\n"], ids=["no-section", "repeated-key"]
    )
    def test_malformed_config_names_its_file(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["ode", "--config", str(path), "--output", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config: ")
        assert repr(str(path)) in err and "<string>" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("fault", ["missing", "not_utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, fault):
        path = tmp_path / "run.ini"
        if fault == "not_utf8":
            path.write_bytes(b"[params]\np = 3 # \xff\n")
        assert main(["ode", "--config", str(path), "--output", str(tmp_path / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: --config {str(path)!r}: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["similarity", "--set", "params.N=2"], "ConfigurationError"),
            # a Gaussian on floor 1 lies above kappa_a and leaves the separatrix
            (["similarity", "--set", "initial_data.kind=gaussian"],
             "BlowupOvershootError: .*s=2.38"),
            # w stays finite but |w|^(p+1) in the per-step ledger overflows at
            # s = 2.62; step_w fails in the next step, in the same ledger block
            (["similarity", "--set", "initial_data.kind=constant"],
             r"BlowupOvershootError: run_similarity: w blew up by s=2\.62: "
             r"its ledger overflows"),
            (
                # from a constant 1e100, f(u) overflows long before t + dt == t
                ["physical", "--set", "solver.m_stop=1e200",
                 "--set", "grid.resolution=129", "--set", "initial_data.kind=constant",
                 "--set", "initial_data.value=1e100"],
                "BlowupOvershootError",
            ),
            (["physical", "--set", "solver.dt_safety=0", "--set", "grid.resolution=129"],
             "ConfigurationError"),
            # the tolerance safety^2/2 underflows to 0 below a safety of about 3e-162
            (["physical", "--set", "solver.dt_safety=1e-300", "--set", "grid.resolution=129"],
             r"ConfigurationError: run_to_blowup: safety 1e-300 makes the tolerance "
             r"safety\^2/2 underflow to 0$"),
            # from 1 up a step may span the whole reaction timescale: at 1 T_hat
            # drifts by 7 %, at 1000 the run stops at t_max after 1 step, and at
            # 1e200 safety^2 would overflow float64
            (["physical", "--set", "solver.dt_safety=1", "--set", "grid.resolution=129"],
             r"ConfigurationError: run_to_blowup: safety must be positive and below 1, "
             r"got 1\.0$"),
            (["physical", "--set", "solver.dt_safety=1000", "--set", "grid.resolution=129"],
             r"ConfigurationError: run_to_blowup: safety must be positive and below 1, "
             r"got 1000\.0$"),
            (["physical", "--set", "solver.dt_safety=1e8", "--set", "grid.resolution=129"],
             r"ConfigurationError: run_to_blowup: safety must be positive and below 1, "
             r"got 100000000\.0$"),
            (["physical", "--set", "solver.dt_safety=1e200", "--set", "grid.resolution=129"],
             r"ConfigurationError: run_to_blowup: safety must be positive and below 1, "
             r"got 1e\+200$"),
            # the profile is the similarity datum at s0 = -log T, so the
            # default T = 1 has no frame to start from
            (["physical", "--set", "initial_data.kind=profile"],
             r"ParseError: .*solver\.T <= exp\(-1\)"),
            (["similarity", "--set", "solver.ds=0"], "DomainError"),
            (["similarity", "--set", "solver.ds=-1"], "DomainError"),
            # 6e12 steps: the per-step ledger would need 4.5e5 GiB
            (["similarity", "--set", "solver.ds=1e-12"],
             r"DomainError: run_similarity: ds = 1e-12 takes 6000000000000 steps "
             r"on 401 nodes, a ledger of 4\.47e\+05 GiB, over the 1 GiB limit$"),
            # 1/ds overflows float64 below a ds of about 5.6e-309
            (["similarity", "--set", "solver.ds=1e-309"],
             r"DomainError: cfl_step: ds = 1e-309 makes 1/ds overflow float64$"),
            # s0 = -log T needs T > 0
            (["similarity", "--set", "solver.T=0"], "DomainError: .*solver.T must be positive"),
            # s0 = -log T = 9.21 lies past s_end = 8: no unit of s to run
            (["similarity", "--set", "solver.T=1e-4"],
             r"DomainError: run_similarity: s_end = 8 rounds to no whole unit "
             r"of s after w0\.s = 9\.21034$"),
            # s0 = -log 0.1 = 2.30: s_end = 3 holds no whole unit after it
            (["similarity", "--set", "solver.T=0.1", "--set", "solver.s_end=3"],
             r"DomainError: run_similarity: s_end = 3 rounds to no whole unit "
             r"of s after w0\.s = 2\.30259$"),
        ],
        ids=[
            "similarity-N=2",
            "similarity-gaussian",
            "similarity-constant",
            "physical-m_stop-1e200",
            "physical-dt_safety=0",
            "physical-dt_safety=1e-300",
            "physical-dt_safety=1",
            "physical-dt_safety=1000",
            "physical-dt_safety=1e8",
            "physical-dt_safety=1e200",
            "physical-profile-T=1",
            "ds=0",
            "ds=-1",
            "ds=1e-12",
            "ds=1e-309",
            "T=0",
            "s_end-before-s0",
            "s_end-within-a-unit-of-s0",
        ],
    )
    def test_run_error_in_report(self, tmp_path, argv, error):
        out = tmp_path / "run"
        assert main([*argv, "--output", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert re.match(error, report["error"])

    def test_attempt_budget_error_in_report(self, tmp_path, monkeypatch):
        # at safety 1e-100 t advances by about 1e-100 a step and no halt
        # comes within any budget; the full budget of 100,000 attempts takes
        # seconds, so this runs on one of 1,000
        monkeypatch.setattr(physical_solver, "_MAX_ATTEMPTS", 1000)
        out = tmp_path / "run"
        argv = ["physical", "--set", "solver.dt_safety=1e-100", "--set", "grid.resolution=129"]
        assert main([*argv, "--output", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert re.match(r"NumericError: run_to_blowup: no halt after 1000 attempts, "
                        r"at t = .*, M = 1\.2$", report["error"])

    def test_large_m_stop_at_small_safety_halts_on_t_resolution(self, tmp_path):
        # climbing to M = 1e200 would take over 1.15e5 steps, past the attempt
        # budget, but t + dt == t ends the run at M = 2.0e6, every step
        # error-limited
        out = tmp_path / "run"
        argv = ["physical", "--set", "solver.m_stop=1e200", "--set", "solver.dt_safety=0.004",
                "--set", "grid.resolution=129"]
        assert main([*argv, "--output", str(out)]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert (results["halt"], results["status"], results["steps"]) == (
            "t_resolution", "blown_up", 9063)

    @pytest.mark.parametrize("option", [["--set", "params.p=2"], ["--config", "run.ini"]])
    def test_verify_takes_no_config(self, tmp_path, capsys, option):
        # every suite runs at its own fixed pairs and grids, so a key given to
        # verify would be echoed in its report yet change nothing
        out = tmp_path / "verify"
        with pytest.raises(SystemExit) as exc:
            main(["verify", *option, "--output", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "dotted",
        ["functionals.theta", "functionals.m0", "functionals.A", "solver.s_end",
         "solver.m_stop", "solver.T", "solver.ds", "solver.t_max"],
    )
    def test_nan_value_is_a_parse_error(self, tmp_path, capsys, dotted):
        # NaN compares false, so theta = nan would pass the Lyapunov audit
        # with every L NaN; and report.json would echo a NaN or an inf, which
        # JSON lacks (physical with m_stop = inf or t_max = inf ran to exit 0)
        out = tmp_path / "run"
        for value in ("nan", "inf", "-inf"):
            argv = ["similarity", "--set", f"{dotted}={value}", "--output", str(out)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"{dotted} must be a finite number, got {value!r}" in err
            assert not out.exists()

    def test_infinite_s_end_in_a_python_config_is_a_run_error(self, tmp_path):
        # a RunConfig built in Python skips the parser's finiteness check;
        # the similarity run names s_end rather than failing to round inf
        out = tmp_path / "run"
        cfg = RunConfig(scenario="similarity", output_dir=str(out))
        cfg.solver.s_end = math.inf
        assert run(cfg) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["error"] == "DomainError: run_similarity: s_end must be finite, got inf"

    @pytest.mark.parametrize("p", ["1.0003", "1.0000001"])
    def test_physical_run_near_p_1_blows_up(self, tmp_path, p):
        # T_hat = t_halt + tau(M_halt) runs the ODE clock's tail 47/(p - 1)
        # past M_halt, over panels that widen up to 1/(p - 1)
        out = tmp_path / "run"
        argv = ["physical", "--set", f"params.p={p}", "--set", "grid.resolution=129",
                "--set", "initial_data.kind=constant", "--set", "initial_data.value=5"]
        assert main([*argv, "--output", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert (res["status"], res["halt"]) == ("blown_up", "m_stop")
        assert res["T_hat"] > res["t_halt"]

    @pytest.mark.parametrize("scenario", ["ode", "physical", "similarity"])
    def test_default_report_is_strict_json(self, tmp_path, scenario):
        def refuse(constant):
            raise ValueError(f"report.json holds {constant}, which JSON lacks")

        out = tmp_path / scenario
        assert main([scenario, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        assert report["error"] is None

    def test_default_similarity_runs_to_s_end(self, tmp_path):
        # the similarity scenario starts from the profile, runs to s_end and
        # passes its Lyapunov audit
        out = tmp_path / "run"
        assert main(["similarity", "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["initial_data"]["kind"] == "profile"
        res = report["results"]
        assert (res["s0"], res["steps"]) == (2.0, 300)
        assert res["s_end"] == 8.0
        assert res["lyapunov"]["passed"] is True
        # the ledgers' s is counted in steps from s0: 2, 3, ..., 8 at the
        # unit boundaries and 2 + n/50 at step n
        with open(out / "functionals.csv") as fh:
            assert [float(row["s"]) for row in csv.DictReader(fh)] == list(range(2, 9))
        with open(out / "step_ledger.csv") as fh:
            s = [float(row["s"]) for row in csv.DictReader(fh)]
        assert s == [2.0 + n / 50 for n in range(301)]

    def test_similarity_stops_at_the_last_whole_unit_before_s_end(self, tmp_path):
        # s0 = -log 0.1 = 2.30, so s_end = 8 leaves 5.70 units: the run takes
        # 5 of them and ends at 7.30, never past s_end
        out = tmp_path / "run"
        assert main(["similarity", "--set", "solver.T=0.1", "--output", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["s0"] == pytest.approx(-math.log(0.1), rel=1e-15)
        assert (res["steps"], res["s_end"]) == (250, res["s0"] + 5)

    @pytest.mark.parametrize(
        "overrides, s0",
        [([], 2.0), (["--set", "solver.T=0.1"], 2.3025850929940455)],
        ids=["default", "T=0.1"],
    )
    def test_snapshots_csv_is_write_csv_of_the_unit_fields(
        self, tmp_path, monkeypatch, overrides, s0
    ):
        # the (s, y, w) rows formatted from each field's s and each node's y
        # once are the bytes of the table of every field's columns
        import blowuplab.cli as cli_mod

        runs, run_similarity = [], cli_mod.run_similarity

        def keep(*args):
            runs.append(run_similarity(*args))
            return runs[-1]

        monkeypatch.setattr(cli_mod, "run_similarity", keep)
        out = tmp_path / "run"
        assert main(["similarity", *overrides, "--output", str(out)]) == 0
        (run_,) = runs
        assert run_.fields[0].s == s0
        want = tmp_path / "want.csv"
        write_csv(
            want,
            ["s", "y", "w"],
            np.vstack([
                np.column_stack([np.full(f.nodes.shape, f.s), f.nodes, f.values])
                for f in run_.fields
            ]),
        )
        assert (out / "snapshots.csv").read_bytes() == want.read_bytes()

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch, capsys):
        # main builds its parser once per process; no call's --set list, or
        # anything else, reaches the next call
        import blowuplab.cli as cli_mod

        seen = []

        def parse(text, overrides=None, source="<string>"):
            seen.append(list(overrides))
            return parse_config(text, overrides=overrides, source=source)

        monkeypatch.setattr(cli_mod, "parse_config", parse)
        ledgers = ("functionals.csv", "dissipation.csv", "step_ledger.csv", "snapshots.csv")

        def outputs(out):
            report = json.loads((out / "report.json").read_text())
            return report["config"], {name: (out / name).read_bytes() for name in ledgers}

        sets = ["solver.s_end=5", "params.a=-1"]
        first = ["similarity", "--set", sets[0], "--set", sets[1], "--output", str(tmp_path / "a")]
        assert main(first) == 0
        want = outputs(tmp_path / "a")
        assert main(["similarity", "--output", str(tmp_path / "b")]) == 0
        config = outputs(tmp_path / "b")[0]
        assert (config["solver"]["s_end"], config["params"]["a"]) == (8.0, 1.0)
        assert main(["similarity", "--set", "solver.nope=1", "--output", str(tmp_path / "c")]) == 2
        T = 0.5
        s = np.linspace(3.0, 17.0, 300)
        write_csv(tmp_path / "hist.csv", ["t", "sup_u"], zip(T - np.exp(-s), np.exp(s / 2.0)))
        assert main(["rate-fit", str(tmp_path / "hist.csv"), "--t-hat", str(T)]) == 0
        assert main(first) == 0
        assert outputs(tmp_path / "a") == want
        scenario = "run.scenario=similarity"
        assert seen == [
            [*sets, scenario], [scenario], ["solver.nope=1", scenario], [*sets, scenario]
        ]
        assert cli_mod._parser() is cli_mod._parser()
        capsys.readouterr()

    def test_physical_profile_blows_up(self, tmp_path):
        # psi_T(0) times the profile at s0 = -log 0.1 blows up; the run halts
        # where the next step would leave t unchanged
        out = tmp_path / "run"
        argv = ["physical", "--set", "initial_data.kind=profile", "--set", "solver.T=0.1"]
        assert main([*argv, "--output", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert (res["status"], res["halt"], res["steps"]) == ("blown_up", "t_resolution", 672)
        assert res["T_hat"] == pytest.approx(0.14323947055122757, rel=1e-12)
        assert res["T_hat"] > res["t_halt"]

    def test_short_extent_similarity_runs(self, tmp_path):
        # the functional family needs no room beyond the grid: extent 8 runs
        # its 300 steps and passes its audit
        out = tmp_path / "run"
        assert main(["similarity", "--set", "grid.extent=8", "--output", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["lyapunov"]["passed"] is True
        assert res["steps"] == 300
        with open(out / "functionals.csv") as fh:
            assert fh.readline() == "s,E,J,H_m,N_m,I,L0,L\n"

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_coarsest_grid_similarity_audit_passes(self, tmp_path, a):
        # resolution 64 at extent 20 has R h = 12.5, where the central drift
        # in the implicit operator leaves some off-diagonals negative; the
        # run still completes and its Lyapunov audit passes
        y = line_grid(20.0, 801)
        path = tmp_path / "w0.csv"
        write_csv(path, ["y", "w"], zip(y, 0.7 * random_smooth_shape(y, Params(3.0, a), 0)))
        out = tmp_path / "run"
        argv = ["similarity", "--set", f"params.a={a:g}", "--set", "grid.resolution=64",
                "--set", "initial_data.kind=file", "--set", f"initial_data.path={path}",
                "--output", str(out)]
        assert main(argv) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["lyapunov"]["passed"] is True
        assert res["steps"] == 300

    def test_run_counters_in_report(self, tmp_path):
        phys, sim = tmp_path / "phys", tmp_path / "sim"
        argv = ["physical", "--set", "grid.extent=5", "--set", "grid.resolution=129",
                "--set", "solver.m_stop=1e6", "--output", str(phys)]
        assert main(argv) == 0
        report = json.loads((phys / "report.json").read_text())
        res = report["results"]
        assert 0.0 < res["time_stepping_s"] <= report["wall_time_s"]
        sup = np.loadtxt(phys / "sup_history.csv", delimiter=",", skiprows=1)
        # the same run outside the CLI: the default Gaussian datum
        params = Params(3.0, 1.0)
        nodes = line_grid(5.0, 129)
        u0 = GridField(
            geometry="line",
            nodes=nodes,
            values=gaussian(nodes, 0.2, 2.0, floor=1.0),
            params=params,
            time=0.0,
        )
        run = run_to_blowup(u0, M_stop=1e6, safety=0.05)
        assert res["steps"] == run.dts.size == sup.shape[0] - 1
        counts = {limit: int(np.sum(run.limits == limit)) for limit in STEP_LIMITS}
        assert {limit: res[limit] for limit in STEP_LIMITS} == counts
        assert sum(counts.values()) == res["steps"]
        assert res["rejected_steps"] == run.rejected
        # the first dt is dt_safety h^2 and the controller grows it; the error
        # estimate sets almost every later dt
        assert counts["growth_limited"] >= 1
        assert counts["error_limited"] > 0.9 * res["steps"]
        assert (res["dt_min"], res["dt_max"]) == (run.dts.min(), run.dts.max())
        assert res["dt_max"] > 10.0 * 0.05 * (10.0 / 128) ** 2
        assert "h2_capped_frac" not in res

        argv = ["similarity", "--set", "grid.resolution=201", "--set", "initial_data.kind=gaussian",
                "--set", "initial_data.floor=0", "--set", "solver.s_end=4", "--output", str(sim)]
        assert main(argv) == 0
        report = json.loads((sim / "report.json").read_text())
        res = report["results"]
        ledger = np.loadtxt(sim / "step_ledger.csv", delimiter=",", skiprows=1)
        assert res["ds_effective"] == 0.02
        assert res["steps"] == ledger.shape[0] - 1 == 100
        assert res["time_stepping_s"] > 0.0 and res["time_functionals_s"] > 0.0
        assert res["time_stepping_s"] + res["time_functionals_s"] <= report["wall_time_s"]

    @pytest.mark.parametrize(
        "rows",
        [
            [(-0.0, 0.0, np.inf), (-np.inf, np.nan, 5e-324), (1e16, 1e17, -1.5e-300)],
            np.array(
                [[np.pi, -1.0 / 3.0, 0.1], [1e308, 2.0**-1074, -2.5], [123456.789, 7.0, 1e-5]]
            ),
            [],
        ],
        ids=["specials", "ndarray", "header-only"],
    )
    def test_csv_bytes_are_17g_per_cell(self, tmp_path, rows):
        # one template for every row writes what f"{float(x):.17g}" per cell does
        header = ["a", "b", "c"]
        path = tmp_path / "f.csv"
        write_csv(path, header, rows)
        want = "".join(
            ",".join(f"{float(x):.17g}" for x in row) + "\n" for row in rows
        )
        assert path.read_bytes() == ("a,b,c\n" + want).encode()

    def test_csv_float_format_roundtrip(self, tmp_path):
        vals = [np.pi, 1.0 / 3.0, 1e-17, 123456.789012345678]
        path = tmp_path / "f.csv"
        write_csv(path, ["x"], [(v,) for v in vals])
        got = np.loadtxt(path, skiprows=1)
        assert np.array_equal(got, np.array(vals))


def _log_uniform(lo, hi):
    """Floats spread over the decades from lo to hi."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def _mostly(common, rare):
    """common on about four draws in five, rare on the rest."""
    return st.integers(0, 4).flatmap(lambda k: rare if k == 4 else common)


# A strategy for every key of cli._SCHEMA but the run section, which the
# subcommand and --output set.  The ranges keep an example cheap: small grids,
# at most a few thousand steps, and no dt_safety or ds so small that the run
# only ends on its step budget (tested on its own, it takes seconds).  Past
# that they reach values the CLI refuses, data that blow up inside a step,
# and tolerances and caps that leave float64.
_CONFIG_KEYS = {
    "params.p": st.floats(1.05, 6.0),
    "params.a": st.floats(-3.0, 3.0),
    # the CLI runs line grids, which refuse every N but 1: most draws step
    "params.N": _mostly(st.just(1), st.integers(2, 3)),
    "initial_data.kind": st.sampled_from(INITIAL_KINDS),
    "initial_data.value": st.one_of(st.floats(-5.0, 5.0), _log_uniform(1.0, 1e200)),
    "initial_data.amplitude": st.one_of(st.floats(-5.0, 20.0), _log_uniform(1.0, 1e200)),
    "initial_data.width": st.floats(0.0, 5.0),
    "initial_data.floor": st.floats(-2.0, 3.0),
    "initial_data.path": st.sampled_from(["", "no-such-datum.csv"]),
    "grid.extent": st.floats(0.5, 30.0),
    "grid.resolution": st.integers(60, 129),
    "solver.T": st.one_of(st.floats(-0.5, 1.5), _log_uniform(1e-6, 1.0)),
    "solver.s_end": st.floats(0.0, 12.0),
    "solver.s_max": st.floats(0.0, 40.0),
    "solver.ds": st.one_of(st.floats(-0.1, 1.0), _log_uniform(0.005, 1e300)),
    # run_to_blowup runs on dt_safety in (0, 1) and refuses values at or
    # below 0 and at or above 1; None leaves the key unset
    "solver.dt_safety": _mostly(
        _log_uniform(0.01, 1.0).filter(lambda x: x < 1.0),
        st.one_of(st.none(), st.floats(-0.1, 0.0), st.floats(1.0, 2.0), _log_uniform(1.0, 1e300)),
    ),
    "solver.m_stop": _log_uniform(1e3, 1e300),
    "solver.t_max": st.floats(-1.0, 20.0),
    "functionals.m0": st.floats(-1.0, 30.0),
    "functionals.theta": _log_uniform(1e-3, 1e4),
    "functionals.A": st.floats(-1.0, 10.0),
}


def test_config_strategies_cover_the_schema():
    assert set(_CONFIG_KEYS) == {
        f"{section}.{key}" for section, keys in _SCHEMA.items() if section != "run"
        for key in keys
    }


class TestEveryAcceptedConfigEnds:
    """Every config the CLI accepts exits 0 or 1 within a deadline, writes a
    report.json that strict JSON reads, and reports only BlowupLabErrors."""

    @settings(max_examples=25, derandomize=True, database=None,
              deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow])
    @given(
        scenario=st.sampled_from(["ode", "physical", "similarity"]),
        # dt_safety is drawn on every example, so that most physical
        # examples run with one of their own
        config=st.fixed_dictionaries(
            {"solver.dt_safety": _CONFIG_KEYS["solver.dt_safety"]},
            optional={k: v for k, v in _CONFIG_KEYS.items() if k != "solver.dt_safety"},
        ),
    )
    # a step's solution overflows: the step's max of it is the overshoot
    @example(scenario="physical", config={
        "solver.m_stop": 1e200, "grid.resolution": 129, "initial_data.kind": "constant",
        "initial_data.value": 1e100})
    @example(scenario="similarity", config={
        "initial_data.kind": "gaussian", "grid.resolution": 129})
    # a dt_safety far above 1, refused before dt_safety^2 could overflow float64
    @example(scenario="physical", config={"solver.dt_safety": 1e200, "grid.resolution": 64})
    def test_runs_or_names_its_error(self, tmp_path_factory, scenario, config):
        overrides = [f"{key}={value!r}" for key, value in config.items() if value is not None]
        try:
            parse_config("", [*overrides, f"run.scenario={scenario}"])
        except ParseError:
            assume(False)  # refused before a run: exit 2, and no report
        out = tmp_path_factory.mktemp("run")
        argv = [scenario, *(a for o in overrides for a in ("--set", o)), "--output", str(out)]
        code = main(argv)
        report = json.loads((out / "report.json").read_text(),
                            parse_constant=lambda c: pytest.fail(f"report.json holds {c}"))
        error = report["error"]
        assert (code, error is None) in ((0, True), (1, False)), error
        if error is not None:
            kind = getattr(errors, error.split(":")[0], None)
            assert isinstance(kind, type) and issubclass(kind, errors.BlowupLabError), error


def test_import_loads_no_scipy_linalg_interpolate_special_or_f2py():
    # the package loads its three LAPACK routines from scipy's _flapack file;
    # scipy.linalg's package init (with numpy.f2py and charset_normalizer),
    # scipy.interpolate and scipy.special would each add a quarter to a
    # third of a second to every start
    code = (
        "import sys, blowuplab.cli, blowuplab.verification\n"
        "print(*(m for m in sys.modules"
        " if m.split('.')[:2] in (['scipy', 'linalg'], ['scipy', 'interpolate'],"
        " ['scipy', 'special'], ['numpy', 'f2py'])"
        " or m.split('.')[0] == 'charset_normalizer'))"
    )
    src = str(Path(blowuplab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
