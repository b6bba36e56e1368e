"""Command-line entry points, run configuration, and artifact persistence.

Configuration documents are flat INI sections; every key is validated against
the schema derived from RunConfig (each section is a dataclass field, and the
dataclasses hold every default) and unknown keys are rejected by name.  All
numeric output uses 17 significant digits so doubles round-trip losslessly,
and a run is a pure function of its config: identical configs produce
byte-identical ledgers.

Subcommands: ``ode``, ``physical``, ``similarity``, ``verify``,
``rate-fit <csv>``.  Any config key can be overridden with
``--set section.key=value``.  The environment variable BLOWUPLAB_OUTPUT_ROOT
relocates relative output directories and nothing else.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import scipy

from . import __version__
from .analysis import fit_rate, lyapunov_audit, run_similarity
from .core_math import Params, kappa_a, psi_T
from .errors import BlowupLabError, DomainError, ParseError
from .functionals import FunctionalConfig, FunctionalSnapshot
from .initial_data import gaussian, line_grid, profile_shape
from .ode_blowup import integrate_vT, trajectory_table
from .physical_solver import DEFAULT_M_STOP, DEFAULT_SAFETY, DEFAULT_T_MAX
from .physical_solver import STEP_LIMITS, GridField, run_to_blowup
from .quadrature import cubic_spline
from .similarity_solver import DEFAULT_DS, SimField
from .verification import build_audit_corpus, run_all_suites

SCHEMA_VERSION = 1

SCENARIOS = ("ode", "physical", "similarity", "verify")
INITIAL_KINDS = ("constant", "gaussian", "profile", "file")


@dataclass
class InitialData:
    kind: str = "profile"  # the physical scenario's default is "gaussian"
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
    ds: float = DEFAULT_DS
    dt_safety: float = DEFAULT_SAFETY
    m_stop: float = DEFAULT_M_STOP
    t_max: float = DEFAULT_T_MAX


@dataclass
class RunConfig:
    params: Params = field(default_factory=lambda: Params(3.0, 1.0, 1))
    scenario: str = "similarity"
    initial_data: InitialData = field(default_factory=InitialData)
    grid: GridSpec = field(default_factory=GridSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    functionals: FunctionalConfig = field(default_factory=FunctionalConfig)
    output_dir: str = "out"


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
        value = conv(raw)
    except ValueError as exc:
        raise ParseError(f"invalid value for {section}.{key}: {raw!r}") from exc
    # NaN compares false, so it would pass every range check downstream, and
    # NaN or inf would make the report's config echo invalid JSON
    if conv is float and not math.isfinite(value):
        raise ParseError(f"{section}.{key} must be a finite number, got {raw!r}")
    return value


def parse_config(
    text: str, overrides: list[str] | None = None, source: str = "<string>"
) -> RunConfig:
    """Parse an INI document (plus --set overrides) into a validated RunConfig.

    Unknown sections or keys are rejected with the offending name; parameter
    combinations violating the subcritical range are rejected as well.  A
    malformed document's error names it as source, such as its file path.
    """
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str  # keys are case-sensitive (N, T, A)
    try:
        cp.read_string(text, source)
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
    # A Gaussian on floor 1 blows up in the physical frame.  In the similarity
    # frame it lies above kappa_a and blows up in finite s, so that frame
    # starts from the profile.
    if config.scenario == "physical" and "kind" not in values.get("initial_data", {}):
        config.initial_data.kind = "gaussian"

    if config.scenario not in SCENARIOS:
        raise ParseError(
            f"run.scenario must be one of {SCENARIOS}, got {config.scenario!r}"
        )
    if config.initial_data.kind not in INITIAL_KINDS:
        raise ParseError(
            f"initial_data.kind must be one of {INITIAL_KINDS}, "
            f"got {config.initial_data.kind!r}"
        )
    if config.initial_data.kind == "gaussian" and not config.initial_data.width > 0.0:
        raise ParseError(
            f"initial_data.width must be positive for a gaussian, got {config.initial_data.width}"
        )
    if config.grid.resolution < 64:
        raise ParseError(f"grid.resolution must be >= 64, got {config.grid.resolution}")
    return config


def write_csv(path: Path, header: list[str], rows) -> None:
    """The header line, then each row's numbers as floats in %.17g: one row
    template, filled for every row in one formatting pass.  rows may also be
    a str, the body already formatted so (see _snapshots_body)."""
    if isinstance(rows, str):
        body = rows
    else:
        table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
        body = ""
        if table.size:
            line = ",".join(["%.17g"] * table.shape[1]) + "\n"
            body = line * table.shape[0] % tuple(table.ravel().tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body)


def _snapshots_body(nodes: np.ndarray, fields: list[SimField]) -> str:
    """write_csv's rows (s, y, w) for fields on the grid nodes, a field's
    rows after the last field's: each y is formatted once for all fields
    and each field's s once for its rows."""
    # joined with a field's s, the leading "" puts that s before every line
    lines = [""] + [",%.17g,%%.17g\n" % y for y in nodes.tolist()]
    return "".join(("%.17g" % f.s).join(lines) % tuple(f.values.tolist()) for f in fields)


def _resolve_outdir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    root = os.environ.get("BLOWUPLAB_OUTPUT_ROOT")
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read(path: str, what: str, load):
    """load(path), with any failure to open, decode or parse the file a
    ParseError that names it as what.  numpy's warning for a table with no
    rows is silenced: _read_table reports that file itself."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return load(path)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ParseError(f"{what} {path!r}: {exc}") from exc


def _read_table(path: str, what: str, min_rows: int) -> np.ndarray:
    """The numbers of a CSV file after its header line: at least min_rows
    rows of at least two columns, the first two finite."""
    data = _read(path, what, lambda p: np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2))
    if data.shape[1] < 2 or data.shape[0] < min_rows:
        raise ParseError(
            f"{what} {path!r}: need a header line, then at least {min_rows} "
            f"rows of two or more columns"
        )
    if not np.isfinite(data[:, :2]).all():
        raise ParseError(f"{what} {path!r}: a value is not finite")
    return data


def _initial_values(config: RunConfig, nodes: np.ndarray, s0: float) -> np.ndarray:
    """The configured datum on the nodes; s0 is the frame time of a profile."""
    init = config.initial_data
    if init.kind == "constant":
        return np.full(nodes.shape, init.value)
    if init.kind == "gaussian":
        return gaussian(nodes, init.amplitude, init.width, init.floor)
    if init.kind == "profile":
        return profile_shape(nodes, s0, config.params)
    data = _read_table(init.path, "initial_data.path", 4)
    if not np.all(np.diff(data[:, 0]) > 0.0):
        raise ParseError(f"initial_data.path {init.path!r}: x is not strictly increasing")
    if data[0, 0] > nodes[0] or data[-1, 0] < nodes[-1]:
        raise ParseError(
            f"initial_data.path {init.path!r} does not cover the grid "
            f"[{nodes[0]}, {nodes[-1]}]"
        )
    return cubic_spline(data[:, 0], data[:, 1], nodes)


def _initial_physical(config: RunConfig, nodes: np.ndarray) -> GridField:
    """The datum at t = 0.  A profile is the similarity-frame datum at
    s0 = -log T, mapped to x = sqrt(T) y and scaled by psi_T(0)."""
    if config.initial_data.kind == "profile":
        T = config.solver.T
        if T > np.exp(-1.0):
            raise ParseError(
                "initial_data.kind=profile (physical scenario) needs "
                "solver.T <= exp(-1) so the frame starts at s0 = -log T >= 1"
            )
        values = psi_T(0.0, T, config.params) * _initial_values(
            config, nodes / np.sqrt(T), -np.log(T)
        )
    else:
        values = _initial_values(config, nodes, 0.0)
    return GridField(
        geometry="line", nodes=nodes, values=values, params=config.params, time=0.0
    )


def _scenario_ode(config: RunConfig, outdir: Path) -> dict:
    params = config.params
    traj = integrate_vT(params, config.solver.T, config.solver.s_max)
    header, table = trajectory_table(traj, params)
    write_csv(outdir / "trajectory.csv", header, table)
    kap = kappa_a(params)
    ratio = table[-1, 4]
    return {
        "kappa_a": kap,
        "final_ratio": float(ratio),
        "final_deviation": float(abs(ratio / kap - 1.0)),
        "samples": int(table.shape[0]),
    }


def _scenario_physical(config: RunConfig, outdir: Path) -> dict:
    nodes = line_grid(config.grid.extent, config.grid.resolution)
    u0 = _initial_physical(config, nodes)
    result = run_to_blowup(
        u0,
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
    out = {
        "status": result.status,
        "halt": result.halt,
        "T_hat": result.T_hat,
        "x0_hat": result.x0_hat,
        "t_halt": float(result.field.time),
        "sup_final": result.field.sup,
        "steps": int(dts.size),
        "time_stepping_s": result.time_stepping,
        # what set each accepted dt, and the attempts the controller rejected
        **{limit: int(np.sum(result.limits == limit)) for limit in STEP_LIMITS},
        "rejected_steps": result.rejected,
        "dt_min": float(dts.min()) if dts.size else None,
        "dt_max": float(dts.max()) if dts.size else None,
    }
    if result.status == "blown_up":
        try:
            fit = fit_rate(result.sup_history, result.T_hat)
        except BlowupLabError as exc:
            out["rate_fit"] = {"error": str(exc)}
        else:
            # sqrt(T_hat - t)/h = e^(-s/2)/h at the window's two ends: how
            # many nodes span the blow-up core's width where the fit reads M
            h = result.field.spacing
            out["rate_fit"] = {
                **fit.report(),
                "resolution": [math.exp(-s / 2.0) / h for s in fit.window],
            }
    return out


def _scenario_similarity(config: RunConfig, outdir: Path) -> dict:
    params, solver = config.params, config.solver
    if not solver.T > 0.0:
        raise DomainError(f"similarity: solver.T must be positive, got {solver.T}")
    s0 = max(-np.log(solver.T), 2.0)
    nodes = line_grid(config.grid.extent, config.grid.resolution)
    w0 = SimField(
        geometry="line",
        nodes=nodes,
        values=_initial_values(config, nodes, s0),
        s=s0,
        params=params,
    )
    run = run_similarity(w0, solver.s_end, solver.ds, config.functionals)
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
        np.column_stack([run.step_s, run.step_L, run.step_mass]),
    )
    write_csv(outdir / "snapshots.csv", ["s", "y", "w"], _snapshots_body(nodes, run.fields))
    if len(run.snapshots) >= 4:
        lyap = asdict(lyapunov_audit(run.snapshots, run.dissipation, run.step_L))
    else:
        lyap = {"skipped": "run shorter than the 3 units of s the audit requires"}
    return {
        "s0": float(s0),
        "s_end": float(run.fields[-1].s),
        "ds_effective": run.ds,
        "steps": len(run.step_s) - 1,
        "time_stepping_s": run.time_stepping,
        "time_functionals_s": run.time_functionals,
        "lyapunov": lyap,
        "final_sup_w": run.fields[-1].sup,
    }


def _scenario_verify(config: RunConfig, outdir: Path) -> dict:
    t0 = time.perf_counter()
    corpus = build_audit_corpus()
    corpus_time = time.perf_counter() - t0
    suites = run_all_suites(corpus)
    for suite in suites:
        for rel, (header, rows) in suite.ledgers.items():
            path = outdir / rel
            path.parent.mkdir(exist_ok=True)
            write_csv(path, header, rows)
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
            "checks": [asdict(c) for c in suite.checks],
            "artifacts": suite.artifacts,
        }
        out["suites"].append(entry)
        out["all_passed"] &= suite.passed
        out["all_passed_attainable"] &= suite.passed_attainable
    return out


def run(config: RunConfig) -> int:
    """Execute the configured scenario; write ledgers and the JSON report.

    Returns the process exit status: 0 on success, 1 when any exception
    interrupted the scenario (partial ledgers are preserved and the error is
    recorded in the report as "<type>: <message>").
    """
    outdir = _resolve_outdir(config)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config),
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
    except Exception as exc:  # a report is written whatever went wrong
        report["error"] = f"{type(exc).__name__}: {exc}"
        status = 1
    report["wall_time_s"] = time.perf_counter() - t0
    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status


def _cmd_rate_fit(args) -> int:
    try:
        out = fit_rate(_read_table(args.csv, "rate-fit csv", 1), args.t_hat).report()
    except BlowupLabError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later main call in the process: parse_args leaves it unchanged, and each
    call's --set list is a new list (argparse's append copies the default
    before appending)."""
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
    # every suite runs at its own fixed pairs and grids, so no config key applies
    sp = sub.add_parser("verify", help="run the full acceptance suite")
    sp.add_argument("--output", type=str, default=None, help="output directory")
    sp.set_defaults(config=None, overrides=[])

    sp = sub.add_parser("rate-fit", help="fit blow-up exponents to a sup-history CSV")
    sp.add_argument("csv", type=str)
    sp.add_argument("--t-hat", type=float, required=True, dest="t_hat")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "rate-fit":
        return _cmd_rate_fit(args)

    # the subcommand is the scenario, whatever the config says
    overrides = [*args.overrides, f"run.scenario={args.command}"]
    try:
        text = ""
        if args.config:
            text = _read(args.config, "--config", lambda p: Path(p).read_text("utf-8"))
        config = parse_config(text, overrides=overrides, source=args.config or "<string>")
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        config.output_dir = args.output
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
