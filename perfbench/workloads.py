"""The three benchmark workloads: seeded inputs, one op each, and its gates.

Inputs are generated here from the seed, never through
``blowuplab.initial_data``, so a change to the package cannot change what the
benchmark feeds it.  Op k of a run draws its inputs from the stream
``(seed, k)``: the same seed gives the same inputs, and no two ops of a run
repeat an input.

Each op returns an OpResult: whether every gate held, the gated values, and a
SHA-256 of the op's ledgers so runs of one seed can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blowuplab import analysis, cli
from blowuplab.core_math import Params
from blowuplab.functionals import FunctionalConfig
from blowuplab.similarity_solver import SimField, cfl_step


@dataclass
class OpResult:
    passed: bool
    gates: dict
    sha256: str


def _kappa(p: float, a: float) -> float:
    """Limiting amplitude kappa_a = (2^-a / (p-1)^(1-a))^(1/(p-1))."""
    return (2.0 ** (-a) / (p - 1.0) ** (1.0 - a)) ** (1.0 / (p - 1.0))


def _line_nodes(extent: float, n: int) -> np.ndarray:
    return np.linspace(-extent, extent, n)


def _smooth_bump(rng, nodes: np.ndarray, peak: float, with_sines: bool) -> np.ndarray:
    """Localized low-frequency perturbation scaled to max |bump| = peak."""
    R = float(np.max(np.abs(nodes)))
    bump = np.zeros_like(nodes)
    for k in range(1, 4):
        c, d = rng.standard_normal(2) / k
        bump += c * np.cos(k * np.pi * nodes / R)
        if with_sines:
            bump += d * np.sin(k * np.pi * nodes / R)
    bump *= np.exp(-(nodes * nodes) / 8.0)
    return bump * (peak / np.max(np.abs(bump)))


def _write_datum(path: Path, nodes: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,u\n")
        for x, u in zip(nodes, values):
            fh.write(f"{x:.17g},{u:.17g}\n")


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Separatrix:
    """Amplitude tuning of a near-profile datum, then a 10-unit similarity run."""

    name = "separatrix"
    p, a = 3.0, 1.0
    s0 = 2.0
    units = 10
    audit_units = 6
    # The op never reaches the physical solver or the CLI.
    skips = (
        "physical_solver.step",
        "physical_solver.solve_banded",
        "core_math.eval_f",
        "physical_solver.run_to_blowup",
        "ode_blowup.time_to_blowup",
        "analysis.fit_rate",
        "cli.parse_config",
        "cli.write_csv",
        "cli.run",
    )

    def setup(self, workdir: Path) -> None:
        self.params = Params(self.p, self.a)
        self.nodes = _line_nodes(20.0, 401)
        self.cfg = FunctionalConfig()

    def inputs(self, seed: int, k: int) -> np.ndarray:
        y, p, s0 = self.nodes, self.p, self.s0
        profile = _kappa(p, self.a) * (1.0 + (p - 1.0) * y * y / (4.0 * p * s0)) ** (
            -1.0 / (p - 1.0)
        )
        # Even (cosine-only) bump: an odd mode shifts the blow-up point, which
        # amplitude tuning cannot remove.  A 5 % bump with sine terms leaves
        # a profile error of ~0.27 at s0 + 10 and fails the 0.15 gate.
        bump = _smooth_bump(np.random.default_rng([seed, k]), y, 0.05, with_sines=False)
        return profile * (1.0 + bump)

    def op(self, datum: np.ndarray, tmp: Path) -> OpResult:
        s_end = self.s0 + self.units
        lam = analysis.tune_blowup_amplitude(
            datum, self.nodes, self.s0, s_end, self.params
        )
        w0 = SimField(
            geometry="line", nodes=self.nodes, values=lam * datum, s=self.s0,
            params=self.params,
        )
        run = analysis.run_similarity(w0, s_end, 0.01, self.cfg)
        prof = analysis.profile_error(run.fields[-1], z_max=1.0)
        n = self.audit_units
        per_unit = int(round(1.0 / cfl_step(self.nodes, 0.01)))
        audit = analysis.lyapunov_audit(
            run.snapshots[: n + 1], run.dissipation[:n], run.step_L[: n * per_unit + 1]
        )
        h = hashlib.sha256(np.float64(lam).tobytes())
        for arr in (run.step_s, run.step_L, run.step_mass, run.dissipation):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        h.update(np.asarray([sn.row() for sn in run.snapshots]).tobytes())
        gates = {
            "lambda": lam,
            "profile_error": prof.sup_error,
            "lyapunov_passed": audit.passed,
        }
        passed = math.isfinite(lam) and prof.sup_error <= 0.15 and audit.passed
        return OpResult(passed, gates, h.hexdigest())


class _CliWorkload:
    """An op of in-process ``cli.main`` runs, one per seeded datum, each with
    an absolute --output directory.  Subclasses give the argv and the gate."""

    ledgers: tuple[str, ...] = ()

    def op(self, data, tmp: Path) -> OpResult:
        passed, gates, outdirs = True, [], []
        for i, (p, a, path) in enumerate(data):
            outdir = tmp / f"run_{i}"
            code = cli.main([*self.argv(p, a, path), "--output", str(outdir)])
            report_path = outdir / "report.json"
            report = json.loads(report_path.read_text()) if report_path.exists() else {}
            ok, gate = self.gate(p, a, report, outdir) if code == 0 else (False, {})
            gates.append({"exit": code, **gate})
            passed &= ok
            outdirs.append(outdir)
        sha = _sha256_files(
            d / name
            for d in outdirs
            if (d / self.ledgers[0]).exists()
            for name in self.ledgers
        )
        return OpResult(passed, {"runs": gates}, sha)


class SimilarityCli(_CliWorkload):
    """Ten CLI similarity runs with the full per-step L ledger."""

    name = "similarity_cli"
    pairs = ((3.0, 1.0), (3.0, -1.0))
    data_per_pair = 5
    ledgers = ("functionals.csv", "dissipation.csv", "step_ledger.csv", "snapshots.csv")
    # No tuner and no physical solver on this path.
    skips = (
        "analysis.tune_blowup_amplitude",
        "physical_solver.step",
        "physical_solver.solve_banded",
        "core_math.eval_f",
        "physical_solver.run_to_blowup",
        "ode_blowup.time_to_blowup",
        "analysis.fit_rate",
    )

    def setup(self, workdir: Path) -> None:
        self.nodes = _line_nodes(20.0, 401)
        self.workdir = workdir

    def inputs(self, seed: int, k: int) -> list[tuple[float, float, Path]]:
        """Random smooth data 0.7 kappa_a (1 + bump), bump peak 0.25, as CSVs."""
        rng = np.random.default_rng([seed, k])
        data = []
        for p, a in self.pairs:
            for j in range(self.data_per_pair):
                values = 0.7 * _kappa(p, a) * (
                    1.0 + _smooth_bump(rng, self.nodes, 0.25, with_sines=True)
                )
                path = self.workdir / f"sim_{k}_a{a:+g}_{j}.csv"
                _write_datum(path, self.nodes, values)
                data.append((p, a, path))
        return data

    def argv(self, p: float, a: float, path: Path) -> list[str]:
        return [
            "similarity",
            "--set", f"params.p={p:g}",
            "--set", f"params.a={a:g}",
            "--set", "initial_data.kind=file",
            "--set", f"initial_data.path={path}",
            "--set", "solver.s_end=8",
        ]

    def gate(self, p: float, a: float, report: dict, outdir: Path) -> tuple[bool, dict]:
        lyap = (report.get("results") or {}).get("lyapunov", {})
        with open(outdir / "functionals.csv", encoding="utf-8") as fh:
            n_min = min(float(row["N_m"]) for row in csv.DictReader(fh))
        ok = lyap.get("passed") is True and n_min >= -1.0
        return ok, {"lyapunov_passed": lyap.get("passed"), "min_N_m": n_min}


class PhysicalBlowup(_CliWorkload):
    """Two CLI physical runs to M = 1e8, each ending with a rate fit."""

    name = "physical_blowup"
    pairs = ((3.0, 1.0), (3.0, -1.0))
    ledgers = ("sup_history.csv", "final_field.csv")
    # The physical path never touches the similarity frame or the functionals.
    skips = (
        "similarity_solver.step_w",
        "similarity_solver.solve_banded",
        "core_math.rescaled_nonlinearity",
        "analysis.tune_blowup_amplitude",
        "functionals.eval_L",
        "functionals.snapshot",
        "core_math.rescaled_F",
        "quadrature.integrate",
        "similarity_solver.ds_dissipation",
        "analysis.run_similarity",
    )

    def setup(self, workdir: Path) -> None:
        self.nodes = _line_nodes(10.0, 513)
        self.workdir = workdir

    def inputs(self, seed: int, k: int) -> list[tuple[float, float, Path]]:
        """Gaussian on floor 1: amplitude 0.05 (1 +- 0.2), width 4 (1 +- 0.1)."""
        rng = np.random.default_rng([seed, k])
        data = []
        for p, a in self.pairs:
            amp = 0.05 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0))
            width = 4.0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
            values = 1.0 + amp * np.exp(-((self.nodes / width) ** 2))
            path = self.workdir / f"phys_{k}_a{a:+g}.csv"
            _write_datum(path, self.nodes, values)
            data.append((p, a, path))
        return data

    def argv(self, p: float, a: float, path: Path) -> list[str]:
        return [
            "physical",
            "--set", f"params.p={p:g}",
            "--set", f"params.a={a:g}",
            "--set", "grid.extent=10",
            "--set", "grid.resolution=513",
            "--set", "initial_data.kind=file",
            "--set", f"initial_data.path={path}",
            "--set", "solver.m_stop=1e8",
        ]

    def gate(self, p: float, a: float, report: dict, outdir: Path) -> tuple[bool, dict]:
        """alpha within 5 % of 1/(p-1), beta within 25 % of a/(p-1)."""
        results = report.get("results") or {}
        fit = results.get("rate_fit") or {}
        a_err = b_err = math.inf
        if "alpha_hat" in fit:
            a_err = abs(fit["alpha_hat"] * (p - 1.0) - 1.0)
            b_err = abs(fit["beta_hat"] * (p - 1.0) / a - 1.0)
        ok = results.get("status") == "blown_up" and a_err <= 0.05 and b_err <= 0.25
        return ok, {"status": results.get("status"), "alpha_err": a_err, "beta_err": b_err}


WORKLOADS = {w.name: w for w in (Separatrix, SimilarityCli, PhysicalBlowup)}
