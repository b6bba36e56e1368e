"""Rate fitting, profile comparison, Lyapunov auditing, separatrix tuning."""

import dataclasses
import math

import numpy as np
import pytest

from blowuplab import analysis, imex
from blowuplab.analysis import (
    _separatrix_root,
    fit_rate,
    lyapunov_audit,
    profile_error,
    run_similarity,
)
from blowuplab.core_math import Params, kappa_a, phi
from blowuplab.errors import (
    BlowupOvershootError,
    DomainError,
    FitError,
    NumericError,
    ResolutionError,
)
from blowuplab.functionals import FunctionalConfig, FunctionalSnapshot, snapshot
from blowuplab.imex import _factor
from blowuplab.initial_data import line_grid, profile_shape
from blowuplab.quadrature import integrate
from blowuplab.similarity_solver import DEFAULT_DS, SimField, ds_dissipation, step_w

P31 = Params(3.0, 1.0)


def synthetic_history(T, p, a, n=400, s_lo=3.0, s_hi=17.0, kappa=1.0):
    # M(t) = kappa psi_T(t), sampled uniformly in s = -log(T - t)
    s = np.linspace(s_lo, s_hi, n)
    t = T - np.exp(-s)
    M = kappa * np.exp(s / (p - 1.0)) * s ** (-a / (p - 1.0))
    return np.column_stack([t, M])


class TestFitRate:
    def test_exact_model_recovery(self):
        for p, a in ((3.0, 1.0), (2.0, 2.0), (3.0, -1.0)):
            hist = synthetic_history(0.5, p, a)
            fit = fit_rate(hist, 0.5)
            assert fit.alpha_hat == pytest.approx(1.0 / (p - 1.0), abs=1e-9)
            assert fit.beta_hat == pytest.approx(a / (p - 1.0), abs=1e-9)
            assert fit.residual <= 1e-10

    def test_noise_monte_carlo(self):
        # 1% multiplicative noise: alpha within 1% across 20 seeds.  The
        # bound needs a dense history (the regressors s and log s are nearly
        # collinear over the window, so sparse noisy samples inflate the
        # spread: 2.7% at n=400, 0.55% at n=4000).
        p, a = 3.0, 1.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            hist = synthetic_history(0.5, p, a, n=4000)
            hist[:, 1] *= 1.0 + 0.01 * rng.standard_normal(hist.shape[0])
            fit = fit_rate(hist, 0.5)
            assert abs(fit.alpha_hat / 0.5 - 1.0) <= 0.01

    def test_amplitude_rescaling_invariance(self):
        hist = synthetic_history(0.5, 3.0, 1.0)
        fit1 = fit_rate(hist, 0.5)
        hist2 = hist.copy()
        lam = 7.3
        hist2[:, 1] *= lam
        fit2 = fit_rate(hist2, 0.5)
        assert fit2.alpha_hat == pytest.approx(fit1.alpha_hat, abs=1e-12)
        assert fit2.beta_hat == pytest.approx(fit1.beta_hat, abs=1e-12)
        assert fit2.log_kappa_hat - fit1.log_kappa_hat == pytest.approx(
            np.log(lam), abs=1e-10
        )

    def test_too_few_samples(self):
        hist = synthetic_history(0.5, 3.0, 1.0, n=30)
        with pytest.raises(FitError):
            fit_rate(hist, 0.5)

    def test_degenerate_window(self):
        # T_hat before every sample
        hist = synthetic_history(0.5, 3.0, 1.0)
        with pytest.raises(DomainError):
            fit_rate(hist, float(hist[0, 0]) - 1.0)

    @pytest.mark.parametrize("T_hat", [math.nan, math.inf, -math.inf])
    def test_non_finite_T_hat_named(self, T_hat):
        # NaN compares false with every sample, and inf leaves no sample in
        # the window, so neither may reach the fit
        with pytest.raises(DomainError, match=f"T_hat must be finite, got {T_hat}"):
            fit_rate(synthetic_history(0.5, 3.0, 1.0), T_hat)

    def test_window_recorded(self):
        fit = fit_rate(synthetic_history(0.5, 3.0, 1.0), 0.5)
        s_lo, s_hi = fit.window
        assert -np.log(1e-2) <= s_lo < s_hi <= -np.log(1e-7)


def kinked(root, slope_above, slope_below, calls, ds=0.009):
    """The tuner's escape signal +-exp(-(s_esc - s0)) for a datum off the
    separatrix by d = x - root, when s_esc - s0 = -log(slope |d|) is rounded
    up to whole steps ds: linear in d on each side of root, with a different
    slope on each side."""

    def g(x):
        calls.append(x)
        d = x - root
        if d == 0.0:
            return 0.0
        slope = slope_above if d > 0.0 else slope_below
        s_esc = ds * math.ceil(-math.log(slope * abs(d)) / ds)
        return math.copysign(math.exp(-s_esc), d)

    return g


class TestSeparatrixRoot:
    # plain bisection of [0.5, 1.6] down to a 1e-10 bracket: 2 + 34 probes
    BISECTION_PROBES = 2 + int(np.ceil(np.log2(1.1 / 1e-10)))

    @pytest.mark.parametrize("slopes", [(3.37, 0.3), (0.3, 3.37)])
    @pytest.mark.parametrize("root", [1.0956005522, 0.5 + 1e-9, 1.6 - 1e-9])
    def test_kinked_signal_converges_before_bisection(self, root, slopes):
        calls = []
        x = _separatrix_root(kinked(root, *slopes, calls), 0.5, 1.6)
        assert abs(x - root) <= 1e-10
        assert len(calls) < self.BISECTION_PROBES
        assert all(0.5 <= c <= 1.6 for c in calls)

    def test_steep_signal_stays_within_twice_bisection(self):
        # secants overshoot on a cube-root signal; forced bisections bound it
        calls = []
        root = 1.0956005522

        def g(x):
            calls.append(x)
            return float(np.cbrt(x - root))

        x = _separatrix_root(g, 0.5, 1.6)
        assert abs(x - root) <= 1e-10
        assert len(calls) <= 2 * self.BISECTION_PROBES

    def test_converging_one_sided_secant_runs_on(self):
        # above the root the signal is convex, so the g > 0 probes close in on
        # it from one side while the lower end of the bracket stays put; their
        # steps shrink, so no bisection interrupts them, and the last probe
        # crosses the root from _SEPARATRIX_XTOL/2 away
        root = 1.0956005522
        calls = []

        def g(x):
            calls.append(x)
            d = x - root
            return d * (1.0 + 2.0 * d) if d > 0.0 else 3.0 * d

        x = _separatrix_root(g, 0.5, 1.6)
        assert abs(x - root) <= 1e-10
        one_sided = calls[2:-1]
        assert all(c > root for c in one_sided)
        assert one_sided == sorted(one_sided, reverse=True)
        assert root - 1e-10 < calls[-1] < root

    @pytest.mark.parametrize("root", [0.4, 1.7, 0.5, 1.6])
    def test_bracket_that_does_not_straddle_raises(self, root):
        calls = []
        with pytest.raises(NumericError, match="does not straddle"):
            _separatrix_root(kinked(root, 3.37, 0.3, calls), 0.5, 1.6)
        assert len(calls) == 2

    def test_zero_signal_returns_the_probe_at_once(self):
        # a probe that never escapes (class 0) ends the search at that probe
        root = 1.0956005522
        escape = kinked(root, 3.37, 0.3, [])
        signals = []

        def g(x):
            signals.append((x, 0.0 if abs(x - root) < 1e-3 else escape(x)))
            return signals[-1][1]

        x = _separatrix_root(g, 0.5, 1.6)
        assert signals[-1] == (x, 0.0)
        assert all(gx != 0.0 for _, gx in signals[:-1])

    def test_probe_cap_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "_SEPARATRIX_MAX_PROBES", 5)
        calls = []
        with pytest.raises(NumericError, match="after 5 probes"):
            _separatrix_root(kinked(1.0956005522, 3.37, 0.3, calls), 0.5, 1.6)
        assert len(calls) == 5


class TestTuneBlowupAmplitude:
    def test_overshoot_is_a_blowup_at_the_step_that_raised(self, monkeypatch):
        # a step_w that raises BlowupOvershootError once |w| passes 2 kappa_a,
        # so every blow-up-side probe ends in the overshoot, before the sup
        # threshold at 2.5 kappa_a is reached
        s0, kap = 2.0, kappa_a(P31)
        k, raised = 0, []  # the step within a probe; each raising probe's k

        def overshooting(w, ds):
            nonlocal k
            k = 1 if w.s == s0 else k + 1  # w.s == s0 on a probe's first step
            nxt = step_w(w, ds)
            if nxt.sup > 2.0 * kap:
                raised.append(k)
                raise BlowupOvershootError(f"w blew up at s={w.s + ds}")
            return nxt

        monkeypatch.setattr(analysis, "step_w", overshooting)
        nodes = line_grid(20.0, 401)
        probes = []
        lam = analysis.tune_blowup_amplitude(
            profile_shape(nodes, s0, P31), nodes, s0, s0 + 10.0, P31, probes=probes
        )
        # the escape times shift, not the root: the corpus (3,1) multiplier
        assert abs(lam - 1.095659015913808) <= 5e-10
        blowups = [r for r in probes if r[1] == +1]
        assert blowups and [r[3] for r in blowups] == raised
        assert all(s_esc == s0 + n / 50 for _, _, s_esc, n in blowups)
        assert probes[-1][1] == 0  # the search still ends on the separatrix


class TestProfileError:
    def test_synthetic_profile_is_exact(self):
        nodes = line_grid(20.0, 801)
        s = 9.0
        w = SimField(
            geometry="line",
            nodes=nodes,
            values=profile_shape(nodes, s, P31),
            s=s,
            params=P31,
        )
        rep = profile_error(w, z_max=1.0)
        assert rep.sup_error <= 1e-6
        assert rep.s == s

    def test_synthetic_radial_profile_is_exact(self):
        params = Params(3.0, 1.0, N=3)
        r = np.linspace(0.0, 20.0, 401)
        s = 9.0
        w = SimField(
            geometry="radial",
            nodes=r,
            values=profile_shape(r, s, params),
            s=s,
            params=params,
        )
        rep = profile_error(w, z_max=1.0)
        assert rep.sup_error <= 1e-6
        assert rep.s == s

    def test_constant_field_error_is_target_deviation(self):
        # field identically kappa: error 0 at z = 0, and the sup over
        # |z| <= z_max equals the analytic deviation of the target shape
        nodes = line_grid(20.0, 801)
        w = SimField(
            geometry="line",
            nodes=nodes,
            values=np.full(nodes.shape, kappa_a(P31)),
            s=9.0,
            params=P31,
        )
        rep = profile_error(w, z_max=0.5)
        p = 3.0
        want = 1.0 - (1.0 + (p - 1.0) * 0.25 / (4.0 * p)) ** (-1.0 / (p - 1.0))
        assert rep.sup_error == pytest.approx(want, abs=1e-9)

    def test_requires_s_4(self):
        nodes = line_grid(20.0, 801)
        w = SimField(
            geometry="line",
            nodes=nodes,
            values=np.zeros(nodes.shape),
            s=2.0,
            params=P31,
        )
        with pytest.raises(DomainError):
            profile_error(w, z_max=1.0)

    def test_z_max_versus_radius(self):
        nodes = line_grid(20.0, 801)
        w = SimField(
            geometry="line",
            nodes=nodes,
            values=np.zeros(nodes.shape),
            s=9.0,
            params=P31,
        )
        with pytest.raises(DomainError):
            profile_error(w, z_max=10.0)

    def test_resolution_error(self):
        nodes = line_grid(20.0, 65)
        w = SimField(
            geometry="line",
            nodes=nodes,
            values=np.zeros(nodes.shape),
            s=9.0,
            params=P31,
        )
        with pytest.raises(ResolutionError):
            profile_error(w, z_max=0.05)

    def test_refinement_invariance(self):
        # the report is a property of the underlying field, not the grid
        s = 9.0
        shape = lambda y: 0.95 * profile_shape(y, s, P31)
        reps = []
        for n in (401, 801, 1601):
            nodes = line_grid(20.0, n)
            w = SimField(
                geometry="line", nodes=nodes, values=shape(nodes), s=s, params=P31
            )
            reps.append(profile_error(w, 1.0))
        assert reps[1].sup_error == pytest.approx(reps[2].sup_error, rel=1e-6)
        assert reps[0].sup_error == pytest.approx(reps[2].sup_error, rel=1e-4)


def constant_ledger(L_values, s0=2.0):
    snaps = [
        FunctionalSnapshot(
            s=s0 + k, E=0.0, J=0.0, H_m=0.0, N_m=0.0, I=0.0, L0=0.0, L=L, mass=0.0
        )
        for k, L in enumerate(L_values)
    ]
    return snaps


class TestLyapunovAudit:
    def test_zero_field_run_passes(self):
        snaps = constant_ledger([0.0, 0.0, 0.0, 0.0])
        rep = lyapunov_audit(snaps, np.zeros(3), [sn.L for sn in snaps])
        assert rep.passed

    def test_decreasing_ledger_passes(self):
        snaps = constant_ledger([5.0, 3.0, 2.0, 1.5])
        rep = lyapunov_audit(snaps, np.array([1.0, 0.5, 0.2]), [sn.L for sn in snaps])
        assert rep.passed

    def test_time_reversed_ledger_fails(self):
        snaps = constant_ledger([1.5, 2.0, 3.0, 5.0])
        rep = lyapunov_audit(snaps, np.array([0.2, 0.5, 1.0]), [sn.L for sn in snaps])
        assert not rep.passed
        # every unit breaks both per-unit inequalities, and L rises per step
        assert min(rep.decrement) > 0.0
        assert min(rep.unit_rise) > 1e-6
        assert rep.step_rise > 1e-6

    def test_step_series_check(self):
        snaps = constant_ledger([5.0, 3.0, 2.0, 1.5])
        rep = lyapunov_audit(
            snaps, np.zeros(3), step_L=np.array([5.0, 4.0, 4.0 + 1e-3, 1.5])
        )
        assert not rep.passed
        assert rep.step_rise == pytest.approx(1e-3)
        # the per-unit inequalities hold: only the step rise fails
        assert max(rep.decrement) <= 0.0
        assert max(rep.unit_rise) <= 1e-6

    def test_step_violation_located_at_its_s(self):
        # s0 = 2, ds = 0.01: a bump injected at step 300 sits at s = 5
        snaps = constant_ledger([5.0, 4.0, 3.0, 2.0, 1.0])
        step_L = np.linspace(5.0, 1.0, 401)
        step_L[300] += 0.05
        rep = lyapunov_audit(snaps, np.zeros(4), step_L=step_L)
        assert rep.step_rise > 1e-6
        assert rep.step_rise_s == 5.0

    def test_needs_three_units(self):
        snaps = constant_ledger([1.0, 0.5])
        with pytest.raises(DomainError):
            lyapunov_audit(snaps, np.zeros(1), [sn.L for sn in snaps])

    def test_step_series_must_span_the_snapshots(self):
        snaps = constant_ledger([5.0, 3.0, 2.0, 1.5])
        with pytest.raises(DomainError, match="step_L"):
            lyapunov_audit(snaps, np.zeros(3), step_L=[5.0, 3.0, 2.0])

    def test_measures_are_signed_slacks(self):
        # L falls by 1 per unit with no dissipation: each measure reads how
        # far its inequality is from failing, not 0
        snaps = constant_ledger([3.0, 2.0, 1.0, 0.0])
        rep = lyapunov_audit(snaps, np.zeros(3), np.linspace(3.0, 0.0, 7))
        assert rep.passed
        assert rep.unit_rise == [-1.0, -1.0, -1.0]
        assert rep.decrement == [-1.0 - 1e-3 * (1.0 + L) for L in (3.0, 2.0, 1.0)]
        assert (rep.step_rise, rep.step_rise_s) == (-0.5, 2.5)


class TestRunSimilarity:
    def test_stationary_kappa_run_audit(self):
        # constant kappa_0 at a = 0 is an exact steady state: per-unit L
        # differences stay below 1e-6 and dissipation below 1e-8
        params = Params(3.0, 0.0)
        nodes = line_grid(20.0, 401)
        w0 = SimField(
            geometry="line",
            nodes=nodes,
            values=np.full(nodes.shape, kappa_a(params)),
            s=2.0,
            params=params,
        )
        run = run_similarity(w0, 5.0, 0.01, FunctionalConfig())
        rep = lyapunov_audit(run.snapshots, run.dissipation, run.step_L)
        assert rep.passed
        assert np.all(run.dissipation <= 1e-8)
        L = np.array([sn.L for sn in run.snapshots])
        assert np.all(np.diff(L) <= 1e-6)

    def test_decaying_run_ledger(self):
        nodes = line_grid(20.0, 201)
        w0 = SimField(
            geometry="line",
            nodes=nodes,
            values=0.3 * np.exp(-nodes**2 / 8.0),
            s=2.0,
            params=P31,
        )
        run = run_similarity(w0, 5.0, 0.01, FunctionalConfig())
        assert len(run.fields) == 4
        assert len(run.snapshots) == 4
        assert run.dissipation.shape == (3,)
        assert run.step_L.shape == run.step_s.shape
        assert run.fields[-1].s == pytest.approx(5.0)
        rep = lyapunov_audit(run.snapshots, run.dissipation, run.step_L)
        assert rep.passed

    @pytest.mark.parametrize(
        "geometry, params, s0, ds, n_units",
        [
            ("line", P31, 2.0, 0.01, 3),
            ("radial", Params(3.0, 1.0, N=3), 2.0, 0.01, 3),
            ("line", Params(3.0, 0.0), 2.0, 0.01, 3),
            # log(phi(100) 0.3) = 46.5: the core's nodes take G from the rule
            ("line", P31, 100.0, 0.01, 3),
            # 10 steps a unit against 41-row blocks: each block spans 4 units
            ("line", P31, 2.0, 0.1, 10),
        ],
        ids=["line", "radial-N3", "a=0", "G-rule", "ds=0.1"],
    )
    def test_block_ledger_is_the_per_field_ledger(self, geometry, params, s0, ds, n_units):
        # every ledger value of the run equals, bit for bit, the same quantity
        # of a lone field re-stepped on the run's clock: L by snapshot (the
        # whole family at the unit boundaries), mass by integrate, and each
        # unit's dissipation as the step-ordered sum of ds * ds_dissipation
        nodes = np.linspace(-20.0, 20.0, 201) if geometry == "line" else (
            np.linspace(0.0, 20.0, 201)
        )
        w0 = SimField(
            geometry=geometry,
            nodes=nodes,
            values=0.3 * np.exp(-nodes**2 / 8.0),
            s=s0,
            params=params,
        )
        cfg = FunctionalConfig()
        run = run_similarity(w0, s0 + n_units, ds, cfg)
        per_unit = int(round(1.0 / run.ds))
        rows = -(-analysis._LEDGER_BLOCK_ELEMENTS // nodes.size)
        # a unit of 100 steps spans parts of three 41-row blocks of the
        # 201-node grid, or a block parts of five 10-step units
        assert rows == 41 and per_unit in (100, 10) and n_units * per_unit > 2 * rows
        if s0 == 100.0:
            assert np.log(phi(s0, params) * np.max(np.abs(w0.values))) > 44.0
        for k, sn in enumerate(run.snapshots):
            assert run.step_L[k * per_unit] == sn.L
            assert vars(sn) == vars(snapshot(run.fields[k], cfg))
        w, acc = w0, 0.0
        for j in range(1, n_units * per_unit + 1):
            # each step on the run's clock: the j-th field sits at step_s[j]
            nxt = dataclasses.replace(step_w(w, run.ds), s=float(run.step_s[j]))
            acc += run.ds * ds_dissipation(w, nxt)
            w = nxt
            assert run.step_mass[j] == integrate(w.rule, w.values**2)
            assert run.step_L[j] == snapshot(w, cfg).L
            if j % per_unit == 0:
                assert run.dissipation[j // per_unit - 1] == acc
                np.testing.assert_array_equal(run.fields[j // per_unit].values, w.values)
                acc = 0.0

    @pytest.mark.parametrize("rows", [1, 7, 41, 150], ids=["1-row", "7-row", "default", "whole-run"])
    def test_ledger_does_not_depend_on_the_blocks(self, monkeypatch, rows):
        # how the steps are grouped into ledger blocks changes no bit: every
        # array and unit field of a 150-step run on 201 nodes equals the
        # default run's, and the run takes one snapshot of w0 and one per
        # block of the next ceil(_LEDGER_BLOCK_ELEMENTS / nodes) steps
        nodes = line_grid(20.0, 201)
        w0 = SimField(
            geometry="line", nodes=nodes, values=0.7 * profile_shape(nodes, 2.0, P31),
            s=2.0, params=P31,
        )
        cfg = FunctionalConfig()
        ref = run_similarity(w0, 5.0, DEFAULT_DS, cfg)
        calls = []
        # a count a little under rows x nodes still makes blocks of rows steps
        monkeypatch.setattr(analysis, "_LEDGER_BLOCK_ELEMENTS", rows * nodes.size - 3)
        monkeypatch.setattr(analysis, "snapshot", lambda w, c: calls.append(w) or snapshot(w, c))
        run = run_similarity(w0, 5.0, DEFAULT_DS, cfg)
        assert len(run.step_s) - 1 == 150
        assert len(calls) == 1 + -(-150 // rows)
        for name in ("dissipation", "step_s", "step_L", "step_mass"):
            assert getattr(run, name).tobytes() == getattr(ref, name).tobytes(), name
        assert run.ds == ref.ds
        assert [vars(sn) for sn in run.snapshots] == [vars(sn) for sn in ref.snapshots]
        assert [f.s for f in run.fields] == [f.s for f in ref.fields] == [2.0, 3.0, 4.0, 5.0]
        for f, g in zip(run.fields, ref.fields):
            assert f.values.tobytes() == g.values.tobytes()

    @pytest.mark.parametrize(
        "fail_at", [1, 42, 60], ids=["first-step", "first-of-a-block", "across-a-unit"]
    )
    def test_a_failed_step_ends_the_run_with_its_own_error(self, monkeypatch, fail_at):
        # on 201 nodes a block is 41 steps and a unit 50: step 42 opens the
        # second block, before any of its steps completed, and step 60 lies
        # in that block past the unit boundary at step 50.  The completed
        # steps' ledgers are finite, so the step's own error ends the run.
        failure = BlowupOvershootError(f"step {fail_at} overshoots")
        taken = []

        def failing_step_w(w, ds):
            taken.append(w.s)
            if len(taken) == fail_at:
                raise failure
            return step_w(w, ds)

        monkeypatch.setattr(analysis, "step_w", failing_step_w)
        nodes = line_grid(20.0, 201)
        w0 = SimField(
            geometry="line", nodes=nodes, values=0.7 * profile_shape(nodes, 2.0, P31),
            s=2.0, params=P31,
        )
        with pytest.raises(BlowupOvershootError) as caught:
            run_similarity(w0, 5.0, DEFAULT_DS, FunctionalConfig())
        assert caught.value is failure
        assert len(taken) == fail_at

    @pytest.mark.parametrize("rows", [1, 7, 21, 300], ids=["1-row", "7-row", "default", "whole-run"])
    @pytest.mark.parametrize(
        "values, error",
        [
            # w stays finite but |w|^(p+1) in its ledger overflows at s = 2.62,
            # a step before step_w fails
            (np.full(401, 1.0),
             r"run_similarity: w blew up by s=2\.62: its ledger overflows \("),
            # step_w fails first, at s = 2.38, on a Gaussian on floor 1
            (1.0 + 0.2 * np.exp(-(line_grid(20.0, 401) / 2.0) ** 2),
             r"step_w: w blew up in the step from s=2\.38 to"),
        ],
        ids=["ledger-first", "step-first"],
    )
    def test_the_first_failure_in_step_order_ends_the_run(self, monkeypatch, rows, values, error):
        # the CLI's constant and Gaussian data on its default grid and ds:
        # whatever the blocks, the run names the first step, in step order,
        # whose step or own ledger fails
        monkeypatch.setattr(analysis, "_LEDGER_BLOCK_ELEMENTS", rows * 401)
        w0 = SimField(geometry="line", nodes=line_grid(20.0, 401), values=values, s=2.0,
                      params=P31)
        with pytest.raises(BlowupOvershootError, match=error):
            run_similarity(w0, 8.0, DEFAULT_DS, FunctionalConfig())

    @pytest.mark.parametrize("s0, ds", [(2.0, 1.0 / 50), (2.3, 0.03)])
    def test_step_s_is_counted_from_the_start(self, s0, ds):
        # the n-th field is at s0 + n/per_unit, not a sum of n steps, so the
        # unit boundaries are exactly s0 + k; 0.03 takes the step 1/34
        nodes = line_grid(20.0, 201)
        w0 = SimField(
            geometry="line",
            nodes=nodes,
            values=0.3 * np.exp(-nodes**2 / 8.0),
            s=s0,
            params=P31,
        )
        run = run_similarity(w0, s0 + 3.0, ds, FunctionalConfig())
        per_unit = int(round(1.0 / run.ds))
        assert run.ds == 1.0 / per_unit
        np.testing.assert_array_equal(
            run.step_s, s0 + np.arange(3 * per_unit + 1) / per_unit
        )
        assert [f.s for f in run.fields] == [s0 + k for k in range(4)]
        assert [sn.s for sn in run.snapshots] == [s0 + k for k in range(4)]

    def test_every_sup_is_its_fields_max_bitwise(self, monkeypatch):
        # along a 300-step run each stepped field, each field re-stamped on
        # the run's clock and each unit field carries the sup its step set,
        # max|values| to the bit.  The ledger's blocks, built from w0 once
        # its sup is cached, hold other values and carry no sup.
        stepped, block_sups = [], []

        def recording_step_w(w, ds):
            stepped.append(step_w(w, ds))
            return stepped[-1]

        def recording_dissipation(before, after):
            block_sups.append(("sup" in vars(before), "sup" in vars(after)))
            return ds_dissipation(before, after)

        monkeypatch.setattr(analysis, "step_w", recording_step_w)
        monkeypatch.setattr(analysis, "ds_dissipation", recording_dissipation)
        nodes = line_grid(20.0, 401)
        w0 = SimField(
            geometry="line", nodes=nodes, values=0.7 * profile_shape(nodes, 2.0, P31),
            s=2.0, params=P31,
        )
        run = run_similarity(w0, 8.0, DEFAULT_DS, FunctionalConfig())
        assert len(stepped) == len(run.step_s) - 1 == 300
        for f in [*stepped, *run.fields[1:]]:
            assert "sup" in vars(f)  # set by the step, not computed on read
            assert f.sup.hex() == float(np.max(np.abs(f.values))).hex()
        assert "sup" in vars(w0) and block_sups
        assert set(block_sups) == {(False, False)}
        block = w0._stepped(np.stack([w0.values, 2.0 * w0.values]), s=np.array([2.0, 2.5]))
        assert "sup" not in vars(block)
        assert block.sup == 2.0 * w0.sup

    def test_run_factors_its_operator_once(self, monkeypatch):
        # every step of a run takes the same ds, so a run of any length
        # factors one (predictor, corrector) pair, on its second step
        factored = []
        monkeypatch.setattr(imex, "_factor", lambda b, a: factored.append(a) or _factor(b, a))
        nodes = line_grid(20.0, 201)
        w0 = SimField(
            geometry="line",
            nodes=nodes,
            values=0.3 * np.exp(-nodes**2 / 8.0),
            s=2.0,
            params=P31,
        )
        run = run_similarity(w0, 5.0, 0.01, FunctionalConfig())
        assert len(run.step_s) - 1 == 300
        assert factored == [run.ds, 0.5 * run.ds]

    def test_requires_unit_span(self):
        nodes = line_grid(20.0, 201)
        w0 = SimField(
            geometry="line",
            nodes=nodes,
            values=np.zeros(nodes.shape),
            s=2.0,
            params=P31,
        )
        with pytest.raises(DomainError):
            run_similarity(w0, 2.5, 0.01, FunctionalConfig())

    def test_runs_to_the_last_whole_unit_before_s_end(self):
        # s_end = 3.5 from s0 = 2 holds one whole unit: the run is the
        # s_end = 3 run, bit for bit
        nodes = line_grid(20.0, 201)
        w0 = SimField(
            geometry="line",
            nodes=nodes,
            values=0.3 * np.exp(-nodes**2 / 8.0),
            s=2.0,
            params=P31,
        )
        whole = run_similarity(w0, 3.0, 0.01, FunctionalConfig())
        part = run_similarity(w0, 3.5, 0.01, FunctionalConfig())
        assert part.fields[-1].s == part.step_s[-1] == 3.0
        np.testing.assert_array_equal(part.step_L, whole.step_L)
        np.testing.assert_array_equal(part.dissipation, whole.dissipation)
        np.testing.assert_array_equal(part.fields[-1].values, whole.fields[-1].values)

    @pytest.mark.parametrize("s_end", [math.nan, math.inf])
    def test_non_finite_s_end_named(self, s_end):
        nodes = line_grid(20.0, 201)
        w0 = SimField(
            geometry="line",
            nodes=nodes,
            values=np.zeros(nodes.shape),
            s=2.0,
            params=P31,
        )
        with pytest.raises(DomainError, match=f"s_end must be finite, got {s_end}"):
            run_similarity(w0, s_end, 0.01, FunctionalConfig())

    def test_radial_run_ledger(self):
        # N = 3 radial geometry end to end: decaying datum, audited
        params = Params(3.0, 1.0, N=3)
        r = np.linspace(0.0, 20.0, 201)
        w0 = SimField(
            geometry="radial",
            nodes=r,
            values=0.3 * np.exp(-r * r / 8.0),
            s=2.0,
            params=params,
        )
        run = run_similarity(w0, 5.0, 0.01, FunctionalConfig())
        rep = lyapunov_audit(run.snapshots, run.dissipation, run.step_L)
        assert rep.passed
        assert np.all(np.isfinite([sn.E for sn in run.snapshots]))
        assert np.all(np.diff(run.step_mass) <= 1e-12)
