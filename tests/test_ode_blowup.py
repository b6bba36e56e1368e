"""Blow-up ODE trajectories and rate asymptotics."""

import numpy as np
import pytest
from scipy.integrate import quad

import blowuplab.ode_blowup as ode_mod
from blowuplab.core_math import Params, eval_f, kappa_a, phi
from blowuplab.errors import DomainError, NumericError
from blowuplab.ode_blowup import (
    asymptotic_ratio,
    integrate_vT,
    time_to_blowup,
    times_to_blowup,
)
from blowuplab.verification import criterion_5_rate_recovery

P30 = Params(3.0, 0.0)
P31 = Params(3.0, 1.0)
P20 = Params(2.0, 0.0)


class TestTimeToBlowup:
    def test_closed_form_p3(self):
        for M in (1.0, 100.0, 1e8):
            assert time_to_blowup(M, P30) == pytest.approx(0.5 / M**2, rel=1e-10)

    def test_closed_form_p2(self):
        for M in (1.0, 37.0):
            assert time_to_blowup(M, P20) == pytest.approx(1.0 / M, rel=1e-10)

    def test_log_factor_accelerates(self):
        # quadrature oracle: the a>0 log factor shortens the remaining time
        M = 100.0
        assert 0.0 < time_to_blowup(M, P31) < 0.5 / M**2

    def test_strictly_decreasing(self):
        vals = [time_to_blowup(M, P31) for M in (1.0, 10.0, 1e4, 1e9)]
        assert np.all(np.diff(vals) < 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            time_to_blowup(0.5, P30)

    def test_non_positive_integral_is_numeric_error(self, monkeypatch):
        monkeypatch.setattr(ode_mod, "quad", lambda *args, **kwargs: (0.0, 0.0))
        with pytest.raises(NumericError):
            time_to_blowup(10.0, P30)


@pytest.fixture(scope="module")
def criterion_5():
    return criterion_5_rate_recovery()


class TestTimesToBlowup:
    @pytest.mark.parametrize("tag", ["p3_a1", "p3_a-1"])
    def test_matches_per_sample_quadrature_on_criterion_5(self, criterion_5, tag):
        # criterion 5's ODE control evaluates it at every sup sample
        M = criterion_5.ledgers[f"sup_histories/{tag}.csv"][1][:, 1]
        params = Params(3.0, 1.0 if tag == "p3_a1" else -1.0)
        want = np.array([time_to_blowup(float(m), params) for m in M])
        np.testing.assert_allclose(times_to_blowup(M, params), want, rtol=1e-12, atol=0)

    def test_unsorted_and_repeated_samples(self):
        M = np.array([1e6, 3.0, 1e6, 1.0, 42.0])
        want = [time_to_blowup(m, P31) for m in M]
        np.testing.assert_allclose(times_to_blowup(M, P31), want, rtol=1e-12, atol=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            times_to_blowup(np.array([2.0, 0.5]), P30)


class TestTrajectories:
    def test_closed_form_p3_a0(self):
        # v(t) = ((p-1)(T-t))^(-1/2)
        traj = integrate_vT(P30, T=1.0, s_max=14.0)
        want = (2.0 * traj.time_gap) ** -0.5
        assert np.max(np.abs(traj.v / want - 1.0)) < 1e-6

    def test_closed_form_p2_a0(self):
        traj = integrate_vT(P20, T=1.0, s_max=14.0)
        want = 1.0 / traj.time_gap
        assert np.max(np.abs(traj.v / want - 1.0)) < 1e-6

    def test_scaling_exactness_everywhere_a0(self):
        traj = integrate_vT(P30, T=1.0, s_max=30.0)
        scaled = traj.v * traj.time_gap**0.5
        assert np.max(np.abs(scaled * np.sqrt(2.0) - 1.0)) < 1e-6

    def test_monotone_blowup(self):
        for params in (P30, P31, Params(2.0, 2.0)):
            traj = integrate_vT(params, T=1.0, s_max=20.0)
            assert np.all(np.diff(traj.v) > 0.0)
            assert np.all(np.diff(traj.t) > 0.0)
            assert np.all(traj.t < traj.T)

    def test_separable_consistency(self):
        traj = integrate_vT(P31, T=1.0, s_max=12.0)
        for i, j in ((5, 60), (40, 160), (100, 219)):
            val, _ = quad(
                lambda v: 1.0 / eval_f(v, P31), traj.v[i], traj.v[j], epsrel=1e-12
            )
            assert val == pytest.approx(traj.t[j] - traj.t[i], rel=1e-6)

    def test_samples_cover_requested_range(self):
        traj = integrate_vT(P31, T=0.5, s_max=16.0)
        assert traj.s[0] == pytest.approx(1.0)
        assert traj.s[-1] == pytest.approx(16.0)

    def test_anchor_raised_when_needed(self):
        # at p=2 the 1e12 anchor sits at s ~ 27.6; s_max = 30 needs more
        traj = integrate_vT(P20, T=1.0, s_max=30.0)
        assert traj.s[-1] == pytest.approx(30.0)
        want = 1.0 / traj.time_gap
        assert np.max(np.abs(traj.v / want - 1.0)) < 1e-6

    def test_preconditions(self):
        with pytest.raises(DomainError):
            integrate_vT(P30, T=1.5, s_max=15.0)
        with pytest.raises(DomainError):
            integrate_vT(P30, T=1.0, s_max=5.0)
        with pytest.raises(DomainError):
            integrate_vT(P30, T=1.0, s_max=15.0, rel_tol=1e-6)


class TestAsymptoticRatio:
    def test_matches_scalar_phi_loop(self):
        traj = integrate_vT(P31, T=1.0, s_max=31.0)
        ref = traj.v / np.array([phi(s, P31) for s in traj.s])
        assert np.array_equal(asymptotic_ratio(traj, P31)[:, 1], ref)

    def test_constant_at_a0(self):
        traj = integrate_vT(P30, T=1.0, s_max=25.0)
        sr = asymptotic_ratio(traj, P30)
        assert np.max(np.abs(sr[:, 1] / kappa_a(P30) - 1.0)) < 1e-9

    @pytest.mark.parametrize("pa", [(3.0, 1.0), (3.0, -1.0), (2.0, 2.0)])
    def test_deviation_eventually_decreasing(self, pa):
        params = Params(*pa)
        traj = integrate_vT(params, T=1.0, s_max=31.0)
        sr = asymptotic_ratio(traj, params)
        s, ratio = sr[:, 0], sr[:, 1]
        dev = np.abs(ratio / kappa_a(params) - 1.0)
        tail = dev[s >= 10.0]
        assert np.all(np.diff(tail) < 0.0)

    @pytest.mark.parametrize("pa,at30", [((3.0, 1.0), 0.0545), ((3.0, -1.0), 0.0619)])
    def test_within_15pct_at_s30(self, pa, at30):
        params = Params(*pa)
        traj = integrate_vT(params, T=1.0, s_max=30.5)
        sr = asymptotic_ratio(traj, params)
        dev = float(np.interp(30.0, sr[:, 0], np.abs(sr[:, 1] / kappa_a(params) - 1.0)))
        assert dev <= 0.15
        assert dev == pytest.approx(at30, abs=0.002)
