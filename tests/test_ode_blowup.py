"""Blow-up ODE trajectories and rate asymptotics."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from blowuplab.core_math import LOG2, Params, eval_f, kappa_a, phi
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


def tau_quad(M: float, params: Params) -> float:
    """Reference tau(M) = int_M^inf dv/f(v) by adaptive quadrature: with
    x = log M + y, e^((1-p) log M) int_0^inf e^((1-p)y) ell(log M + y)^(-a) dy,
    ell(x) = log(2 + e^(2x)), to relative 1e-13."""
    p, a = params.p, params.a
    lm = np.log(M)

    def integrand(y: float) -> float:
        return np.exp((1.0 - p) * y - a * np.log(np.logaddexp(LOG2, 2.0 * (lm + y))))

    val, err = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    assert err <= 1e-13 * val
    return float(np.exp((1.0 - p) * lm) * val)


class TestTimeToBlowup:
    def test_closed_form_p3(self):
        for M in (1.0, 100.0, 1e8):
            assert time_to_blowup(M, P30) == pytest.approx(0.5 / M**2, rel=1e-14)

    def test_closed_form_p2(self):
        for M in (1.0, 37.0):
            assert time_to_blowup(M, P20) == pytest.approx(1.0 / M, rel=1e-14)

    def test_log_factor_accelerates(self):
        # the a>0 log factor shortens the remaining time
        M = 100.0
        assert 0.0 < time_to_blowup(M, P31) < 0.5 / M**2

    def test_strictly_decreasing(self):
        vals = [time_to_blowup(M, P31) for M in (0.3, 1.0, 10.0, 1e4, 1e9)]
        assert np.all(np.diff(vals) < 0.0)

    def test_domain(self):
        for M in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                time_to_blowup(M, P30)

    def test_non_positive_integral_is_numeric_error(self):
        # tau(1e300) = 0.5e-600 underflows float64
        with pytest.raises(NumericError, match="normal float64 range"):
            time_to_blowup(1e300, P30)
        # and tau(1e-200) = 0.5e400 overflows it
        with pytest.raises(NumericError, match="normal float64 range"):
            time_to_blowup(1e-200, P30)


@pytest.fixture(scope="module")
def criterion_5():
    return criterion_5_rate_recovery()


class TestTimesToBlowup:
    @pytest.mark.parametrize("p", [1.05, 1.2, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("a", [-2.0, -1.0, 0.0, 1.0, 2.0])
    def test_matches_adaptive_quadrature(self, p, a):
        params = Params(p, a)
        M = np.geomspace(0.3, 1e40, 13)
        want = [tau_quad(m, params) for m in M]
        np.testing.assert_allclose(times_to_blowup(M, params), want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1.00001, 1.001, 1.05, 1.2])
    def test_matches_mpmath_near_p_1(self, p):
        # the long tail of p near 1 is where panels beyond the top sample
        # matter, and where they widen up to 1/(p-1)
        for a in (-2.0, 0.0, 2.0):
            M = np.array([0.3, 1.0, 1e8, 1e40])
            got = times_to_blowup(M, Params(p, a))
            for m, g in zip(M, got):
                with mp.workdps(40):
                    x0 = mp.log(mp.mpf(m))

                    def integrand(y):
                        return mp.exp((1 - p) * y) * mp.log(2 + mp.exp(2 * (x0 + y))) ** (-a)

                    breaks = [0, 1, 10, 100 / (p - 1), 400 / (p - 1), mp.inf]
                    want = mp.exp((1 - p) * x0) * mp.quad(integrand, breaks)
                assert abs(g / float(want) - 1.0) <= 2e-15

    @pytest.mark.parametrize("tag", ["p3_a1", "p3_a-1"])
    def test_matches_per_sample_quadrature_on_criterion_5(self, criterion_5, tag):
        # criterion 5's ODE control evaluates it at every sup sample
        M = criterion_5.ledgers[f"sup_histories/{tag}.csv"][1][:, 1]
        params = Params(3.0, 1.0 if tag == "p3_a1" else -1.0)
        want = np.array([tau_quad(float(m), params) for m in M[::10]])
        np.testing.assert_allclose(
            times_to_blowup(M, params)[::10], want, rtol=1e-13, atol=0
        )

    def test_unsorted_and_repeated_samples(self):
        M = np.array([1e6, 3.0, 1e6, 0.5, 42.0])
        want = [tau_quad(m, P31) for m in M]
        got = times_to_blowup(M, P31)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert got[0] == got[2]

    def test_domain(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                times_to_blowup(np.array([2.0, bad]), P30)

    @staticmethod
    def _capped_child(code: str) -> subprocess.CompletedProcess:
        # runs code in a child capped at 1 GiB of address space (the
        # interpreter with numpy and scipy needs under 200 MiB), so that an
        # allocation that grows with the panel count is a MemoryError there,
        # not a host out of memory
        def cap() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (2**30,) * 2)

        prelude = (
            "import numpy as np\n"
            "from blowuplab.core_math import Params\n"
            "from blowuplab.errors import NumericError\n"
            "from blowuplab.ode_blowup import times_to_blowup\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run(
            [sys.executable, "-c", prelude + code], capture_output=True, text=True,
            preexec_fn=cap, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )

    def test_memory_does_not_grow_with_the_tail(self):
        # at (1.00001, 1) the tail runs 4.7e6 past the top sample: unit
        # panels would hold 574 MiB of nodes alone, the widening ones number
        # under a hundred
        child = self._capped_child(
            "print(repr(float(times_to_blowup(np.array([5.0, 1e10]), Params(1.00001, 1.0))[0])))\n"
        )
        assert child.returncode == 0, child.stderr
        assert float(child.stdout) == pytest.approx(tau_quad(5.0, Params(1.00001, 1.0)), rel=1e-12)

    def test_panel_count_bounded(self):
        # the tail needs (45 + 2|a|)/(p - 1) = 100,023 unit panels at
        # (3, 1e5), more than the bound; the call refuses them up front
        child = self._capped_child(
            "try:\n"
            "    times_to_blowup(np.array([2.0]), Params(3.0, 1e5))\n"
            "except NumericError as exc:\n"
            "    print(exc)\n"
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.startswith(
            "times_to_blowup: (p, a) = (3.0, 100000.0) needs at least 100023 tail "
            "panels, more than 65536"
        )


class TestTrajectories:
    def test_closed_form_p3_a0(self):
        # v(t) = ((p-1)(T-t))^(-1/2)
        traj = integrate_vT(P30, T=1.0, s_max=14.0)
        want = (2.0 * traj.time_gap) ** -0.5
        assert np.max(np.abs(traj.v / want - 1.0)) < 1e-14

    def test_closed_form_p2_a0(self):
        traj = integrate_vT(P20, T=1.0, s_max=14.0)
        want = 1.0 / traj.time_gap
        assert np.max(np.abs(traj.v / want - 1.0)) < 1e-14

    def test_anchor_raised_when_needed(self):
        # at p=2, v = 1e12 is reached near s = 27.6; the samples must run on
        # past it to s_max = 30 and still hold the closed form
        traj = integrate_vT(P20, T=1.0, s_max=30.0)
        assert traj.s[-1] == pytest.approx(30.0)
        want = 1.0 / traj.time_gap
        assert np.max(np.abs(traj.v / want - 1.0)) < 1e-14

    def test_scaling_exactness_everywhere_a0(self):
        traj = integrate_vT(P30, T=1.0, s_max=30.0)
        scaled = traj.v * traj.time_gap**0.5
        assert np.max(np.abs(scaled * np.sqrt(2.0) - 1.0)) < 1e-14

    # (1.05, 2) and (1.2, 5) start far from the root at small s, where plain
    # Newton steps from side to side without converging
    @pytest.mark.parametrize(
        "pa", [(3.0, 1.0), (3.0, -1.0), (2.0, 2.0), (1.2, 1.0), (5.0, -2.0), (1.05, 2.0),
               (1.2, 5.0)]
    )
    def test_each_sample_inverts_the_clock(self, pa):
        params = Params(*pa)
        traj = integrate_vT(params, T=1.0, s_max=31.0)
        residual = np.log(times_to_blowup(traj.v, params)) + traj.s
        assert np.max(np.abs(residual)) <= 1e-14

    @pytest.mark.parametrize("pa,v1", [((3.0, 1.0), 0.97), ((2.0, 2.0), 0.98)])
    def test_reaches_below_1_at_s1(self, pa, v1):
        traj = integrate_vT(Params(*pa), T=1.0, s_max=10.0)
        assert traj.v[0] == pytest.approx(v1, abs=0.005)

    def test_v_beyond_float64_is_numeric_error(self):
        # at p = 1.2, v = e^709 is reached near s = 147.6
        with pytest.raises(NumericError, match="leaves float64 at s=147.65"):
            integrate_vT(Params(1.2, 1.0), T=1.0, s_max=700.0)
        # at small s the asymptote lies below float64 for (1.02, 5), and it is
        # clipped into range; at s = 53.2 the trajectory itself leaves it
        assert integrate_vT(Params(1.02, 5.0), T=1.0, s_max=30.0).v[0] > 0.0
        with pytest.raises(NumericError, match="leaves float64 at s=53.2"):
            integrate_vT(Params(1.02, 5.0), T=1.0, s_max=60.0)

    def test_monotone_blowup(self):
        for params in (P30, P31, Params(2.0, 2.0)):
            traj = integrate_vT(params, T=1.0, s_max=20.0)
            assert np.all(np.diff(traj.v) > 0.0)
            assert np.all(np.diff(traj.t) > 0.0)
            assert np.all(traj.t < 1.0)

    def test_separable_consistency(self):
        traj = integrate_vT(P31, T=1.0, s_max=12.0)
        for i, j in ((5, 60), (40, 160), (100, 219)):
            val, _ = quad(
                lambda v: 1.0 / eval_f(v, P31), traj.v[i], traj.v[j], epsrel=1e-12
            )
            assert val == pytest.approx(traj.t[j] - traj.t[i], rel=1e-6)

    def test_samples_cover_requested_range(self):
        traj = integrate_vT(P31, T=0.5, s_max=16.0)
        assert np.array_equal(traj.s, np.linspace(16.0, 1.0, 301)[::-1])
        assert np.array_equal(traj.t, 0.5 - np.exp(-traj.s))

    def test_preconditions(self):
        with pytest.raises(DomainError):
            integrate_vT(P30, T=1.5, s_max=15.0)
        with pytest.raises(DomainError):
            integrate_vT(P30, T=1.0, s_max=5.0)
        with pytest.raises(DomainError):
            integrate_vT(P30, T=1.0, s_max=np.nan)
        with pytest.raises(DomainError):  # T - t = e^-s would be subnormal
            integrate_vT(P30, T=1.0, s_max=709.0)


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
