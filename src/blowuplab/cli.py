"""Command-line entry points, run configuration, and artifact persistence.

Configuration documents are flat INI sections; every key is validated against
the schema derived from RunConfig (each section is a dataclass field, and the
dataclasses hold every default) and unknown keys are rejected by name.  All
numeric output uses 17 significant digits so doubles round-trip losslessly,
and a run is a pure function of (config, seed): identical inputs produce
byte-identical ledgers.

Subcommands: ``ode``, ``physical``, ``similarity``, ``verify``,
``rate-fit <csv>``.  Any config key can be overridden with
``--set section.key=value``.  The environment variable BLOWUPLAB_OUTPUT_ROOT
relocates relative output directories and nothing else.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import scipy
from scipy.interpolate import CubicSpline

from . import __version__
from .analysis import fit_rate, lyapunov_audit, rate_fit_sensitivity, run_similarity
from .core_math import Params, kappa_a
from .errors import BlowupLabError, ParseError
from .functionals import FunctionalConfig, FunctionalSnapshot
from .initial_data import (
    line_grid,
    physical_constant,
    physical_from_profile,
    physical_gaussian,
    profile_shape,
    sim_field,
)
from .ode_blowup import asymptotic_ratio, integrate_vT
from .physical_solver import GridField, run_to_blowup
from .verification import run_all_suites

SCHEMA_VERSION = 1

SCENARIOS = ("ode", "physical", "similarity", "verify")
INITIAL_KINDS = ("constant", "gaussian", "profile", "file")


@dataclass
class InitialData:
    kind: str = "gaussian"
    value: float = 1.0  # constant
    amplitude: float = 0.2
    width: float = 2.0
    floor: float = 1.0
    path: str = ""


@dataclass
class GridSpec:
    extent: float = 20.0
    resolution: int = 401


@dataclass
class SolverSpec:
    T: float = 1.0
    s_end: float = 8.0
    s_max: float = 30.0
    ds: float = 0.01
    dt_safety: float = 0.05
    rel_tol: float = 1e-10
    m_stop: float = 1e8
    t_max: float = 10.0


@dataclass
class RunConfig:
    params: Params = field(default_factory=lambda: Params(3.0, 1.0, 1))
    scenario: str = "similarity"
    seed: int = 0
    initial_data: InitialData = field(default_factory=InitialData)
    grid: GridSpec = field(default_factory=GridSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    functionals: FunctionalConfig = field(default_factory=FunctionalConfig)
    output_dir: str = "out"

    def echo(self) -> dict:
        return asdict(self)


def _schema() -> dict[str, dict[str, type]]:
    """section -> key -> converter: each dataclass-typed field of RunConfig is
    a section of its fields, and the remaining fields form [run]."""
    hints = get_type_hints(RunConfig)
    schema: dict[str, dict[str, type]] = {"run": {}}
    for f in fields(RunConfig):
        hint = hints[f.name]
        if is_dataclass(hint):
            section_hints = get_type_hints(hint)
            schema[f.name] = {g.name: section_hints[g.name] for g in fields(hint)}
        else:
            schema["run"][f.name] = hint
    return schema


_SCHEMA = _schema()


def _convert(section: str, key: str, raw: str):
    if section not in _SCHEMA:
        raise ParseError(f"unknown section [{section}]")
    if key not in _SCHEMA[section]:
        raise ParseError(f"unknown key '{key}' in section [{section}]")
    conv = _SCHEMA[section][key]
    try:
        return conv(raw)
    except ValueError as exc:
        raise ParseError(f"invalid value for {section}.{key}: {raw!r}") from exc


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse an INI document (plus --set overrides) into a validated RunConfig.

    Unknown sections or keys are rejected with the offending name; parameter
    combinations violating the subcritical range are rejected as well.
    """
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str  # keys are case-sensitive (N, T, A)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"malformed config: {exc}") from exc

    values: dict[str, dict[str, object]] = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            values.setdefault(section, {})[key] = _convert(section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ParseError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = (part.strip() for part in dotted.split(".", 1))
        values.setdefault(section, {})[key] = _convert(section, key, raw.strip())

    config = RunConfig()
    updates = values.pop("run", {})
    for section, kv in values.items():
        try:
            updates[section] = replace(getattr(config, section), **kv)
        except BlowupLabError as exc:
            raise ParseError(f"{section}: {exc}") from exc
    config = replace(config, **updates)

    if config.scenario not in SCENARIOS:
        raise ParseError(
            f"run.scenario must be one of {SCENARIOS}, got {config.scenario!r}"
        )
    if config.initial_data.kind not in INITIAL_KINDS:
        raise ParseError(
            f"initial_data.kind must be one of {INITIAL_KINDS}, "
            f"got {config.initial_data.kind!r}"
        )
    if config.grid.resolution < 64:
        raise ParseError(f"grid.resolution must be >= 64, got {config.grid.resolution}")
    return config


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _resolve_outdir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    root = os.environ.get("BLOWUPLAB_OUTPUT_ROOT")
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _initial_sim_values(config: RunConfig, nodes: np.ndarray, s0: float) -> np.ndarray:
    init = config.initial_data
    if init.kind == "constant":
        return np.full(nodes.shape, init.value)
    if init.kind == "gaussian":
        return init.floor + init.amplitude * np.exp(-((nodes / init.width) ** 2))
    if init.kind == "profile":
        return profile_shape(nodes, s0, config.params)
    try:
        data = np.loadtxt(init.path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"initial_data.path {init.path!r}: {exc}") from exc
    if data.shape[1] < 2 or data.shape[0] < 4:
        raise ParseError(
            f"initial_data.path {init.path!r}: need a two-column CSV with a header"
        )
    if data[0, 0] > nodes[0] or data[-1, 0] < nodes[-1]:
        raise ParseError(
            f"initial_data.path {init.path!r} does not cover the grid "
            f"[{nodes[0]}, {nodes[-1]}]"
        )
    return CubicSpline(data[:, 0], data[:, 1])(nodes)


def _initial_physical(config: RunConfig, nodes: np.ndarray) -> GridField:
    init = config.initial_data
    params = config.params
    if init.kind == "constant":
        return physical_constant(nodes, init.value, params)
    if init.kind == "gaussian":
        return physical_gaussian(
            nodes, init.amplitude, init.width, params, floor=init.floor
        )
    if init.kind == "profile":
        if config.solver.T > np.exp(-1.0):
            raise ParseError(
                "initial_data.kind=profile (physical scenario) needs "
                "solver.T <= exp(-1) so the frame starts at s0 = -log T >= 1"
            )
        return physical_from_profile(nodes, 0.0, config.solver.T, params)
    values = _initial_sim_values(config, nodes, 2.0)  # file branch only
    return GridField("line", params.N, nodes, values, 0.0)


def _scenario_ode(config: RunConfig, outdir: Path) -> dict:
    params = config.params
    traj = integrate_vT(
        params, config.solver.T, config.solver.s_max, config.solver.rel_tol
    )
    sr = asymptotic_ratio(traj, params)
    psi = traj.v / sr[:, 1]
    write_csv(
        outdir / "trajectory.csv",
        ["s", "t", "v", "psi_T", "ratio"],
        zip(sr[:, 0], traj.t, traj.v, psi, sr[:, 1]),
    )
    kap = kappa_a(params)
    dev = abs(sr[-1, 1] / kap - 1.0)
    return {
        "kappa_a": kap,
        "final_ratio": float(sr[-1, 1]),
        "final_deviation": float(dev),
        "samples": int(sr.shape[0]),
    }


def _scenario_physical(config: RunConfig, outdir: Path) -> dict:
    nodes = line_grid(config.grid.extent, config.grid.resolution)
    u0 = _initial_physical(config, nodes)
    result = run_to_blowup(
        u0,
        config.params,
        M_stop=config.solver.m_stop,
        t_max=config.solver.t_max,
        safety=config.solver.dt_safety,
    )
    write_csv(outdir / "sup_history.csv", ["t", "sup_u"], result.sup_history)
    write_csv(
        outdir / "final_field.csv",
        ["x", "u"],
        zip(result.field.nodes, result.field.values),
    )
    dts = result.dts
    h2_cap = config.solver.dt_safety * u0.spacing**2  # the controller's dt off blow-up
    out = {
        "status": result.status,
        "T_hat": result.T_hat,
        "x0_hat": result.x0_hat,
        "t_halt": float(result.field.time),
        "sup_final": float(np.max(np.abs(result.field.values))),
        "steps": int(dts.size),
        "h2_capped_frac": float(np.mean(dts == h2_cap)) if dts.size else None,
        "dt_min": float(dts.min()) if dts.size else None,
        "dt_max": float(dts.max()) if dts.size else None,
    }
    if result.status == "blown_up":
        try:
            fit = fit_rate(result.sup_history, result.T_hat)
            band = rate_fit_sensitivity(result.sup_history, result.T_hat, result.dt_last)
            out["rate_fit"] = {
                "alpha_hat": fit.alpha_hat,
                "beta_hat": fit.beta_hat,
                "log_kappa_hat": fit.log_kappa_hat,
                "residual": fit.residual,
                "window_s": fit.window,
                "alpha_band": band["alpha_band"],
                "beta_band": band["beta_band"],
            }
        except BlowupLabError as exc:
            out["rate_fit"] = {"error": str(exc)}
    return out


def _scenario_similarity(config: RunConfig, outdir: Path) -> dict:
    params = config.params
    s0 = max(-np.log(config.solver.T), 2.0)
    nodes = line_grid(config.grid.extent, config.grid.resolution)
    w0 = sim_field(_initial_sim_values(config, nodes, s0), nodes, s0, params)
    n_units = max(1, int(round(config.solver.s_end - s0)))
    run = run_similarity(w0, s0 + n_units, config.solver.ds, config.functionals)
    write_csv(
        outdir / "functionals.csv",
        list(FunctionalSnapshot.FIELDS),
        (sn.row() for sn in run.snapshots),
    )
    write_csv(
        outdir / "dissipation.csv",
        ["s_lo", "s_hi", "dissipation"],
        (
            (run.snapshots[k].s, run.snapshots[k + 1].s, run.dissipation[k])
            for k in range(len(run.dissipation))
        ),
    )
    write_csv(
        outdir / "step_ledger.csv",
        ["s", "L", "mass"],
        zip(run.step_s, run.step_L, run.step_mass),
    )
    rows = []
    for f in run.fields:
        rows.extend((f.s, y, w) for y, w in zip(f.nodes, f.values))
    write_csv(outdir / "snapshots.csv", ["s", "y", "w"], rows)
    if len(run.snapshots) >= 4:
        audit = lyapunov_audit(run.snapshots, run.dissipation, run.step_L)
        lyap = {
            "passed": audit.passed,
            "violations": [
                {"s": v.s, "magnitude": v.magnitude, "kind": v.kind}
                for v in audit.violations
            ],
            "max_step_increase": audit.max_step_increase,
        }
    else:
        lyap = {"skipped": "run shorter than the 3 units of s the audit requires"}
    return {
        "s0": float(s0),
        "s_end": float(run.fields[-1].s),
        "ds_effective": run.ds,
        "steps": len(run.step_s) - 1,
        "lyapunov": lyap,
        "final_sup_w": float(np.max(np.abs(run.fields[-1].values))),
    }


def _write_verify_artifacts(outdir: Path) -> None:
    # trajectories behind criterion 1
    from .verification import RATE_PAIRS, build_audit_corpus

    ode_dir = outdir / "ode_trajectories"
    ode_dir.mkdir(exist_ok=True)
    for p, a in RATE_PAIRS:
        params = Params(p, a)
        traj = integrate_vT(params, T=1.0, s_max=31.0)
        sr = asymptotic_ratio(traj, params)
        write_csv(
            ode_dir / f"p{p:g}_a{a:g}.csv",
            ["s", "t", "v", "psi_T", "ratio"],
            zip(sr[:, 0], traj.t, traj.v, traj.v / sr[:, 1], sr[:, 1]),
        )
    # functional ledgers behind criteria 4/6/7 (corpus is cached, so cheap)
    corpus = build_audit_corpus()
    led_dir = outdir / "corpus_ledgers"
    led_dir.mkdir(exist_ok=True)
    for name, run_ in corpus.runs:
        safe = name.replace("[", "_").replace("]", "").replace(",", "_").replace("=", "")
        write_csv(
            led_dir / f"{safe}.csv",
            list(FunctionalSnapshot.FIELDS),
            (sn.row() for sn in run_.snapshots),
        )


def _scenario_verify(config: RunConfig, outdir: Path) -> dict:
    histories: dict = {}
    suites, corpus_time = run_all_suites(out_histories=histories)
    hist_dir = outdir / "sup_histories"
    hist_dir.mkdir(exist_ok=True)
    for tag, hist in histories.items():
        safe = tag.replace(",", "_").replace("=", "")
        write_csv(hist_dir / f"{safe}.csv", ["t", "sup_u"], hist)
    _write_verify_artifacts(outdir)
    out = {
        "suites": [],
        "all_passed": True,
        "all_passed_attainable": True,
        "corpus_build_s": corpus_time,
    }
    for suite in suites:
        entry = {
            "criterion": suite.criterion,
            "name": suite.name,
            "passed": suite.passed,
            "passed_attainable": suite.passed_attainable,
            "wall_time_s": suite.wall_time,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "measured": c.measured,
                    "bound": c.bound,
                    "known_defect": c.known_defect,
                    "note": c.note,
                }
                for c in suite.checks
            ],
            "artifacts": suite.artifacts,
        }
        out["suites"].append(entry)
        out["all_passed"] &= suite.passed
        out["all_passed_attainable"] &= suite.passed_attainable
    return out


def run(config: RunConfig) -> int:
    """Execute the configured scenario; write ledgers and the JSON report.

    Returns the process exit status: 0 on success, 1 when a numeric failure
    interrupted the scenario (partial ledgers are preserved and the error is
    recorded in the report).
    """
    outdir = _resolve_outdir(config)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blowuplab": __version__,
        },
        "error": None,
        "results": None,
    }
    t0 = time.perf_counter()
    status = 0
    try:
        dispatch = {
            "ode": _scenario_ode,
            "physical": _scenario_physical,
            "similarity": _scenario_similarity,
            "verify": _scenario_verify,
        }
        report["results"] = dispatch[config.scenario](config, outdir)
        if config.scenario == "verify" and not report["results"]["all_passed_attainable"]:
            status = 1
    except BlowupLabError as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        status = 1
    report["wall_time_s"] = time.perf_counter() - t0
    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status


def _cmd_rate_fit(args) -> int:
    try:
        try:
            with warnings.catch_warnings():  # an empty file is reported below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(args.csv, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ParseError(f"rate-fit csv {args.csv!r}: {exc}") from exc
        if data.shape[0] < 1 or data.shape[1] < 2:
            raise ParseError(
                f"rate-fit csv {args.csv!r}: need t,sup_u rows after a header"
            )
        fit = fit_rate(data, args.t_hat)
        out = {
            "alpha_hat": fit.alpha_hat,
            "beta_hat": fit.beta_hat,
            "log_kappa_hat": fit.log_kappa_hat,
            "residual": fit.residual,
            "window_s": fit.window,
        }
        if args.dt_last:
            band = rate_fit_sensitivity(data, args.t_hat, args.dt_last)
            out["alpha_band"] = band["alpha_band"]
            out["beta_band"] = band["beta_band"]
    except BlowupLabError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blowuplab",
        description="Blow-up laboratory for the log-perturbed semilinear heat equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_parser(name: str, help_: str):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", type=str, default=None, help="INI config file")
        sp.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override any config key",
        )
        sp.add_argument("--output", type=str, default=None, help="output directory")
        return sp

    add_run_parser("ode", "integrate the blow-up ODE and its rate ratio")
    add_run_parser("physical", "run the physical-frame solver to near blow-up")
    add_run_parser("similarity", "run the similarity-frame solver and functionals")
    add_run_parser("verify", "run the full acceptance suite")

    sp = sub.add_parser("rate-fit", help="fit blow-up exponents to a sup-history CSV")
    sp.add_argument("csv", type=str)
    sp.add_argument("--t-hat", type=float, required=True, dest="t_hat")
    sp.add_argument("--dt-last", type=float, default=0.0, dest="dt_last")

    args = parser.parse_args(argv)
    if args.command == "rate-fit":
        return _cmd_rate_fit(args)

    text = ""
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
    try:
        config = parse_config(text, overrides=args.overrides)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    config.scenario = args.command
    if args.output:
        config.output_dir = args.output
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
