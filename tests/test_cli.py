"""Configuration parsing, scenario runs, persistence, determinism."""

import json

import numpy as np
import pytest

from blowuplab.cli import (
    _SCHEMA,
    RunConfig,
    main,
    parse_config,
    run,
    write_csv,
)
from blowuplab.core_math import Params, eval_f
from blowuplab.errors import ParseError
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
    "run.seed": 7,
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
    "solver.rel_tol": 1e-9,
    "solver.m_stop": 1e6,
    "solver.t_max": 3.0,
    "functionals.m0": 4.0,
    "functionals.theta": 900.0,
    "functionals.A": 2.0,
    "functionals.cutoff_radius": 4.0,
}


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.scenario == "ode"
        assert cfg.params.p == 3.0 and cfg.params.a == 1.0 and cfg.params.N == 1
        assert cfg.seed == 0
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

    def test_unknown_section_named(self):
        with pytest.raises(ParseError, match="mystery"):
            parse_config("[mystery]\nx = 1\n")

    def test_bad_value_named(self):
        with pytest.raises(ParseError, match="params.p"):
            parse_config("[params]\np = banana\n")

    def test_bad_scenario(self):
        with pytest.raises(ParseError, match="scenario"):
            parse_config("[run]\nscenario = warp\n")

    def test_low_resolution_rejected(self):
        with pytest.raises(ParseError, match="resolution"):
            parse_config("[grid]\nresolution = 32\n")

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
        # a = 0: ratio column is kappa_0 throughout, to integrator tolerance
        assert np.max(np.abs(data[:, 4] - 2.0**-0.5)) < 1e-8

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
        assert report["results"]["rate_fit"]["alpha_hat"] == pytest.approx(0.5, rel=0.05)
        hist = np.loadtxt(
            tmp_path / "phys" / "sup_history.csv", delimiter=",", skiprows=1
        )
        assert hist[-1, 1] >= 1e8

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

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOWUPLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = parse_config(MINIMAL, overrides=["solver.s_max=12"])
        cfg.output_dir = "relative_out"
        assert run(cfg) == 0
        assert (tmp_path / "relative_out" / "report.json").exists()


class TestVerifyReport:
    def test_every_suite_reported_once(self, tmp_path, monkeypatch):
        import blowuplab.cli as cli_mod

        def fake_suites(out_histories=None):
            out = []
            for k in range(1, 9):
                s = SuiteResult(criterion=k, name=f"fake_{k}")
                s.add("check", True, 0.0, 1.0)
                out.append(s)
            return out, 0.0

        monkeypatch.setattr(cli_mod, "run_all_suites", fake_suites)
        monkeypatch.setattr(cli_mod, "_write_verify_artifacts", lambda outdir: None)
        cfg = RunConfig(scenario="verify", output_dir=str(tmp_path / "verify"))
        assert run(cfg) == 0
        report = json.loads((tmp_path / "verify" / "report.json").read_text())
        crits = [s["criterion"] for s in report["results"]["suites"]]
        assert sorted(crits) == list(range(1, 9))
        assert len(crits) == len(set(crits))
        assert report["results"]["all_passed"]


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
        for path in (tmp_path / "missing.csv", one_column, text, header_only):
            assert main(["rate-fit", str(path), "--t-hat", "1"]) == 1
            err = json.loads(capsys.readouterr().err)
            assert str(path) in err["error"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["similarity", "--set", "params.N=2"], "ConfigurationError"),
            (["similarity"], "BlowupOvershootError"),
            (
                ["physical", "--set", "solver.m_stop=1e200", "--set", "grid.resolution=129"],
                "BlowupOvershootError",
            ),
            (["similarity", "--set", "solver.ds=0"], "DomainError"),
            (["similarity", "--set", "solver.ds=-1"], "DomainError"),
            (["similarity", "--set", "solver.ds=nan"], "DomainError"),
        ],
        ids=[
            "similarity-N=2",
            "similarity-default",
            "physical-m_stop-1e200",
            "ds=0",
            "ds=-1",
            "ds=nan",
        ],
    )
    def test_run_error_in_report(self, tmp_path, argv, error):
        out = tmp_path / "run"
        assert main([*argv, "--output", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["error"].startswith(error)

    def test_run_counters_in_report(self, tmp_path):
        phys, sim = tmp_path / "phys", tmp_path / "sim"
        argv = ["physical", "--set", "grid.extent=5", "--set", "grid.resolution=129",
                "--set", "solver.m_stop=1e6", "--output", str(phys)]
        assert main(argv) == 0
        res = json.loads((phys / "report.json").read_text())["results"]
        sup = np.loadtxt(phys / "sup_history.csv", delimiter=",", skiprows=1)[:-1, 1]
        # the controller's dt before each step: dt_safety min(h^2, M / f(M))
        h2_cap = 0.05 * (10.0 / 128) ** 2
        dts = np.minimum(h2_cap, 0.05 * sup / eval_f(sup, Params(3.0, 1.0)))
        assert res["steps"] == dts.size
        assert res["h2_capped_frac"] == pytest.approx(np.mean(dts == h2_cap), abs=1.5 / dts.size)
        assert 0.5 < res["h2_capped_frac"] < 1.0  # the reaction caps the last steps
        assert res["dt_max"] == pytest.approx(h2_cap, rel=1e-12)
        assert res["dt_min"] == pytest.approx(dts.min(), rel=1e-12)
        assert res["dt_min"] < 0.1 * h2_cap

        argv = ["similarity", "--set", "grid.resolution=201", "--set", "initial_data.floor=0",
                "--set", "solver.s_end=4", "--output", str(sim)]
        assert main(argv) == 0
        res = json.loads((sim / "report.json").read_text())["results"]
        ledger = np.loadtxt(sim / "step_ledger.csv", delimiter=",", skiprows=1)
        assert res["ds_effective"] == 0.01
        assert res["steps"] == ledger.shape[0] - 1 == 200

    def test_csv_float_format_roundtrip(self, tmp_path):
        vals = [np.pi, 1.0 / 3.0, 1e-17, 123456.789012345678]
        path = tmp_path / "f.csv"
        write_csv(path, ["x"], [(v,) for v in vals])
        got = np.loadtxt(path, skiprows=1)
        assert np.array_equal(got, np.array(vals))
