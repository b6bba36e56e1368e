"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary, or ``blowuplab verify`` for the same suites with a JSON report.

The single check with an unreachable tolerance -- the (p, a) = (2, 2) ODE
ratio reaching 15% of kappa_a by s = 30, which provably needs s ~ 155 --
is kept as a strict expected failure so the assertion stays live.
"""

import dataclasses

import numpy as np
import pytest

from blowuplab import analysis, core_math, verification
from blowuplab.analysis import SimilarityRun, lyapunov_audit, run_similarity
from blowuplab.core_math import Params, kappa_a
from blowuplab.functionals import FunctionalConfig, FunctionalSnapshot
from blowuplab.initial_data import line_grid, profile_shape, random_smooth_shape
from blowuplab.ode_blowup import asymptotic_ratio, integrate_vT
from blowuplab.similarity_solver import DEFAULT_DS, SimField
from blowuplab.verification import (
    build_audit_corpus,
    criterion_1_ode_rate,
    criterion_2_nonlinearity,
    criterion_3_quadrature,
    criterion_4_lyapunov,
    criterion_5_rate_recovery,
    criterion_6_boundedness,
    criterion_7_profile,
    criterion_8_frame_equivalence,
)


# The multipliers the 42-step threshold bisection (the tuner before it became
# a root-finder on the escape time) finds with the drift in the implicit
# operator, at the default ds = 1/50.
BISECTED_LAMBDA = {(3.0, 1.0): 1.0956590158981272, (3.0, -1.0): 1.4413467195816336}


@pytest.fixture(scope="module")
def corpus():
    return build_audit_corpus()


def report(res):
    status = "PASS" if res.passed else ("PASS*" if res.passed_attainable else "FAIL")
    print(f"\ncriterion {res.criterion} [{res.name}]: {status} "
          f"({res.wall_time:.1f}s, {len(res.checks)} checks)")
    for c in res.checks:
        if not c.passed:
            tag = "known-defect" if c.known_defect else "FAILED"
            print(f"    {tag}: {c.name}: measured {c.measured:.5g} "
                  f"vs bound {c.bound:.5g}  {c.note}")
    return res


def assert_attainable(res):
    failed = [c.name for c in res.checks if not c.passed and not c.known_defect]
    assert not failed, f"criterion {res.criterion} failed checks: {failed}"


def test_criterion_1_ode_rate():
    res = report(criterion_1_ode_rate())
    assert_attainable(res)
    # the three attainable pairs must pass the 15% clause outright
    for tag in ("p=3,a=0", "p=3,a=1", "p=3,a=-1"):
        check = next(c for c in res.checks if c.name == f"deviation_at_s30[{tag}]")
        assert check.passed


def test_criterion_1_deviation_decreasing_fails_on_a_rise(monkeypatch):
    # the ratio's deviation from kappa_a jumps by 0.1 at s = 20, inside [15, 30]
    trajectory_table = verification.trajectory_table

    def rising(traj, params):
        header, table = trajectory_table(traj, params)
        table, kap = table.copy(), kappa_a(params)
        late = table[:, 0] >= 20.0
        table[late, 4] = kap * (1.1 + np.abs(table[late, 4] / kap - 1.0))
        return header, table

    monkeypatch.setattr(verification, "trajectory_table", rising)
    checks = [c for c in criterion_1_ode_rate().checks
              if c.name.startswith("deviation_decreasing_15_30")]
    assert len(checks) == len(verification.RATE_PAIRS)
    for check in checks:
        assert not check.passed
        assert check.measured > 0.05


@pytest.mark.xfail(
    strict=True,
    reason="(2,2): the ratio deviation decays like a^2 log(s)/s and first"
    " reaches 15% near s ~ 155, so the bound is unreachable at s = 30.",
)
def test_criterion_1_known_defect_pair_2_2():
    params = Params(2.0, 2.0)
    traj = integrate_vT(params, T=1.0, s_max=31.0)
    sr = asymptotic_ratio(traj, params)
    dev30 = float(
        np.interp(30.0, sr[:, 0], np.abs(sr[:, 1] / kappa_a(params) - 1.0))
    )
    assert dev30 <= 0.15


def test_criterion_2_nonlinearity():
    res = report(criterion_2_nonlinearity())
    assert_attainable(res)
    assert [c.name for c in res.checks] == [
        "derivative_consistency",
        "F_leading_term_at_1e8",
        "split_identity",
        "F2_lower_order",
        "source_identity",
        "finite_at_s700",
    ]


def test_criterion_2_F2_order_catches_a_wrong_F1(monkeypatch):
    # F2 is F - x f/(p+1) - F1, so a wrong F1 leaves the split identity
    # intact; F2's order shows it
    eval_F1 = core_math.eval_F1

    def wrong_F1(x, params):
        return 1.1 * eval_F1(x, params)

    monkeypatch.setattr(core_math, "eval_F1", wrong_F1)
    monkeypatch.setattr(verification, "eval_F1", wrong_F1)
    checks = {c.name: c for c in criterion_2_nonlinearity().checks}
    assert checks["split_identity"].passed
    assert not checks["F2_lower_order"].passed


def test_criterion_3_quadrature():
    res = report(criterion_3_quadrature())
    assert_attainable(res)
    tags = sorted({c.name[c.name.index("[") + 1 : -1] for c in res.checks})
    assert tags == ["grid,N=1", "grid,N=2", "grid,N=3"]
    assert len(res.checks) == 9


def test_criterion_4_lyapunov(corpus):
    res = report(criterion_4_lyapunov(corpus))
    assert_attainable(res)
    assert len(corpus.runs) == 12  # 5 random + 1 near-profile, per (p, a)
    # one check per inequality and run, each a signed slack, far from 0
    families = ("decrement", "unit_monotone", "step_monotone")
    assert [c.name for c in res.checks] == [
        f"{family}[{name}]" for name, _ in corpus.runs for family in families
    ]
    assert all(c.measured < -0.1 for c in res.checks)


def _constructed_run(L_units, dissipation, step_L):
    """A run holding only a Lyapunov ledger: L at the AUDIT_UNITS + 1 unit
    boundaries, each unit's dissipation and L at every step of 1/50."""
    per_unit = (len(step_L) - 1) // verification.AUDIT_UNITS
    snapshots = [
        FunctionalSnapshot(s=verification.S0 + k, E=0.0, J=0.0, H_m=0.0, N_m=0.0,
                           I=0.0, L0=0.0, L=float(L), mass=0.0)
        for k, L in enumerate(L_units)
    ]
    return SimilarityRun(
        fields=[],
        snapshots=snapshots,
        dissipation=np.asarray(dissipation, dtype=float),
        step_s=verification.S0 + np.arange(len(step_L)) / per_unit,
        step_L=np.asarray(step_L, dtype=float),
        step_mass=np.zeros(len(step_L)),
        ds=1.0 / per_unit,
    )


def _failing_families(run):
    corpus = verification.AuditCorpus(runs=[("w", run)], profile_runs={}, tuning={})
    return [c.name for c in criterion_4_lyapunov(corpus).checks if not c.passed]


def _step_bump():
    step_L = np.linspace(1.0, 0.4, 301)
    step_L[150] = step_L[149] + 1e-3
    return step_L


# One ledger per criterion 4 family on which that family's check fails and
# the other two pass.
CRITERION_4_WITNESSES = {
    # L falls by 0.1 per unit while D = 1 asks for 0.5
    "decrement": (1.0 - 0.1 * np.arange(7), np.ones(6), np.linspace(1.0, 0.4, 301)),
    # L rises by 1e-5 per unit, within the decrement's tolerance, and by
    # 2e-7 per step
    "unit_monotone": (1e-5 * np.arange(7), np.zeros(6), 2e-7 * np.arange(301)),
    # L falls per unit but rises by 1e-3 over one step
    "step_monotone": (1.0 - 0.1 * np.arange(7), np.zeros(6), _step_bump()),
}


@pytest.mark.parametrize("family", list(CRITERION_4_WITNESSES))
def test_criterion_4_witness_fails_only_its_family(family):
    run = _constructed_run(*CRITERION_4_WITNESSES[family])
    assert _failing_families(run) == [f"{family}[w]"]


def test_criterion_4_fails_on_a_corpus_datum_at_theta_100(corpus):
    # theta s^(-3/4) is what makes L fall: at theta = 100 the corpus datum
    # random[p=3,a=-1,seed=0] breaks all three inequalities in its first
    # unit, where at the default theta = 800 it passes them
    name = "random[p=3,a=-1,seed=0]"
    params = Params(3.0, -1.0)
    nodes = line_grid(verification.GRID_RADIUS, verification.GRID_NODES)
    w0 = SimField(geometry="line", nodes=nodes,
                  values=0.7 * random_smooth_shape(nodes, params, 0),
                  s=verification.S0, params=params)
    run = run_similarity(w0, verification.S0 + verification.AUDIT_UNITS, DEFAULT_DS,
                         FunctionalConfig(theta=100.0))
    assert _failing_families(run) == [
        "decrement[w]", "unit_monotone[w]", "step_monotone[w]"
    ]
    rep = lyapunov_audit(run.snapshots, run.dissipation, run.step_L)
    assert rep.decrement[0] == pytest.approx(2.63, abs=0.01)
    assert rep.unit_rise[0] == pytest.approx(2.60, abs=0.01)
    assert (rep.step_rise, rep.step_rise_s) == (pytest.approx(0.75, abs=0.01), 2.02)
    assert _failing_families(dict(corpus.runs)[name]) == []


def test_criterion_5_rate_recovery():
    res = report(criterion_5_rate_recovery())
    assert_attainable(res)
    # synthetic exact-model recovery is part of the same criterion
    check = next(c for c in res.checks if c.name == "synthetic_exact_residual")
    assert check.measured <= 1e-10
    # the beta error is mostly fit bias: the ODE control, fitted at the run's
    # own samples, shares all but a small part of it
    for tag in ("p=3,a=1", "p=3,a=-1"):
        beta = next(c for c in res.checks if c.name == f"beta[{tag}]")
        gap = next(c for c in res.checks if c.name == f"beta_ode_gap[{tag}]")
        assert gap.measured < 0.1 * beta.measured


def test_criterion_6_boundedness(corpus):
    assert_attainable(report(criterion_6_boundedness(corpus)))


def test_criterion_6_window_starts_at_s0_plus_5(corpus):
    # the mass-control window opens on the s0 + 5 sample itself: a spike
    # there fails the check, one a step earlier does not
    name, run = corpus.runs[0]
    start = 5 * int(round(1.0 / run.ds))
    assert run.step_s[start] == verification.S0 + 5.0
    assert np.flatnonzero(run.step_s >= verification.S0 + 5.0)[0] == start
    for k, fails in ((start, True), (start - 1, False)):
        mass = run.step_mass.copy()
        mass[k] = 10.0 * np.max(mass)
        spiked = verification.AuditCorpus(
            runs=[(name, dataclasses.replace(run, step_mass=mass))],
            profile_runs={}, tuning={},
        )
        check = next(c for c in criterion_6_boundedness(spiked).checks
                     if c.name.startswith("mass_control"))
        assert check.passed is not fails


def test_criterion_7_profile(corpus):
    res = report(criterion_7_profile(corpus))
    assert_attainable(res)
    for (p, a), (lam, probes) in corpus.tuning.items():
        trace = res.artifacts["tuning"][f"p={p:g},a={a:g}"]
        assert trace["lambda"] == lam
        assert trace["probes"] == len(trace["probe_list"]) == len(probes)
        assert trace["steps"] == sum(r["steps"] for r in trace["probe_list"])
        # a probe escapes at its step count k, at s0 + k/50
        for r in trace["probe_list"]:
            assert r["s_escape"] == verification.S0 + r["steps"] / 50
    # convergence to the kappa_a amplitude band along the tuned runs
    for pa, run in corpus.profile_runs.items():
        kap = kappa_a(Params(*pa))
        sup_late = max(float(np.max(np.abs(f.values))) for f in run.fields[10:])
        assert 0.5 * kap <= sup_late <= 2.0 * kap


def test_criterion_7_on_separatrix_fails_on_an_early_escape(corpus):
    # the final bracket's end that blows up escapes at s_end - 1: the tuned
    # datum may have left the separatrix inside the profile run.  An escape
    # at s_end fails too; one a step after it passes.
    pa = (3.0, 1.0)
    lam, probes = corpus.tuning[pa]
    end = min(r for r in probes if r[1] == +1)
    s_end = verification.S0 + verification.PROFILE_UNITS
    for s_esc, measured, passed in ((s_end - 1.0, 1.0, False),
                                    (s_end, 0.0, False),
                                    (s_end + 1 / 50, -1 / 50, True)):
        moved = [(*end[:2], s_esc, end[3]) if r == end else r for r in probes]
        bad = dataclasses.replace(corpus, tuning={**corpus.tuning, pa: (lam, moved)})
        checks = {c.name: c for c in criterion_7_profile(bad).checks}
        assert checks["on_separatrix[p=3,a=1]"].passed is passed
        assert checks["on_separatrix[p=3,a=1]"].measured == pytest.approx(measured)
        assert checks["on_separatrix[p=3,a=-1]"].passed


def test_criterion_8_compares_at_s3_exactly():
    # the physical loop counts its clock, t = n dt, as run_similarity counts s
    res = criterion_8_frame_equivalence()
    assert res.artifacts["s"] == {"physical": 3.0, "similarity": 3.0}


def test_tuned_lambda_matches_bisection(corpus):
    for pa, lam_bisect in BISECTED_LAMBDA.items():
        lam, probes = corpus.tuning[pa]
        assert abs(lam - lam_bisect) <= 5e-10
        assert [r[0] for r in probes[:2]] == [0.5, 1.6]  # the bracket comes first


def test_probe_margin_keeps_the_corpus_lambda(corpus, monkeypatch):
    # every corpus tuning ends on a probe that stays on the separatrix for
    # the 10-unit window plus the margin, and a margin of 14 finds the same bits
    nodes = line_grid(verification.GRID_RADIUS, verification.GRID_NODES)
    s0, s_end = verification.S0, verification.S0 + verification.PROFILE_UNITS
    monkeypatch.setattr(analysis, "_PROBE_MARGIN", 14.0)
    for (p, a), (lam, probes) in corpus.tuning.items():
        _, cls, s_esc, steps = probes[-1]
        assert (cls, steps, s_esc) == (0, 1000, s_end + 10.0)
        params = Params(p, a)
        shape = profile_shape(nodes, s0, params)
        assert analysis.tune_blowup_amplitude(shape, nodes, s0, s_end, params) == lam


def test_criterion_8_frame_equivalence():
    res = report(criterion_8_frame_equivalence())
    assert_attainable(res)
    assert res.artifacts["steps"] == {"physical": 500, "similarity": 50}
    # measured 6.81e-6: the bound is a margin over it, not orders of magnitude
    (check,) = res.checks
    assert 0.5 * check.bound <= check.measured <= check.bound


def test_failed_suite_keeps_its_number_and_name(corpus, monkeypatch):
    # a suite that raises is reported under the number and name it runs
    # under, not under its function's name
    from blowuplab.errors import NumericError

    def boom(*args, **kwargs):
        raise NumericError("deliberate failure")

    monkeypatch.setattr(verification, "run_to_blowup", boom)
    results = verification.run_all_suites(corpus)
    assert [(r.criterion, r.name) for r in results] == [
        (1, "ode_rate"),
        (2, "nonlinearity_estimates"),
        (3, "quadrature_exactness"),
        (4, "lyapunov_monotonicity"),
        (5, "rate_recovery"),
        (6, "boundedness"),
        (7, "profile_shape"),
        (8, "frame_equivalence"),
    ]
    failed = results[4]
    assert [(c.name, c.passed) for c in failed.checks] == [("suite_execution", False)]
    assert failed.checks[0].note == "error: deliberate failure"
    assert all(r.passed_attainable for r in results if r is not failed)
    assert criterion_3_quadrature().name == "quadrature_exactness"


def test_every_verdict_is_measured_within_bound(corpus):
    # one rule decides every check; the verdicts are those of the suites
    # before the rule, when each check stated its own comparison
    checks = [c for r in verification.run_all_suites(corpus) for c in r.checks]
    assert len(checks) == 109
    for c in checks:
        assert c.passed == (c.measured <= c.bound), c.name
    assert [c.name for c in checks if not c.passed] == ["deviation_at_s30[p=2,a=2]"]


def test_a_nan_measured_value_fails():
    res = verification.SuiteResult(0, "nan")
    res.add("nan", float("nan"), 1.0)
    res.add("at_bound", 1.0, 1.0)
    assert [c.passed for c in res.checks] == [False, True]
