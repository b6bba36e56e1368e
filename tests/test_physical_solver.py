"""Physical-frame solver: stepping, blow-up runs, ODE comparison."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

from blowuplab import imex
from blowuplab.core_math import Params, eval_f
from blowuplab.errors import BlowupOvershootError, ConfigurationError, DomainError
from blowuplab.imex import imex_step, laplacian_bands
from blowuplab.initial_data import line_grid, physical_constant, physical_gaussian
from blowuplab.ode_blowup import time_to_blowup
from blowuplab.physical_solver import GridField, run_to_blowup, step

P30 = Params(3.0, 0.0)
P31 = Params(3.0, 1.0)


def radial_grid(extent, n):
    return np.linspace(0.0, extent, n)


class TestStep:
    def test_zero_fixed_point(self):
        f = physical_constant(line_grid(5.0, 129), 0.0, P31)
        for _ in range(20):
            f = step(f, P31, 1e-3)
        assert np.all(f.values == 0.0)

    def test_constant_matches_ode(self):
        # Neumann + constant data reduce to v' = f(v); compare one interval
        f = physical_constant(line_grid(5.0, 129), 1.0, P31)
        dt = 5e-4
        for _ in range(200):
            f = step(f, P31, dt)
        sol = solve_ivp(
            lambda t, v: eval_f(v, P31),
            (0.0, f.time),
            [1.0],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        want = sol.sol(f.time)[0]
        assert np.max(np.abs(f.values - want)) < 1e-7 * want

    def test_constant_matches_ode_radial(self):
        f = GridField("radial", 3, radial_grid(5.0, 129), np.full(129, 0.8), 0.0)
        dt = 5e-4
        for _ in range(100):
            f = step(f, P31, dt)
        sol = solve_ivp(
            lambda t, v: eval_f(v, P31), (0.0, f.time), [0.8], rtol=1e-12, atol=1e-14
        )
        assert np.max(np.abs(f.values - sol.y[0, -1])) < 1e-7

    def test_small_single_mode_decays(self):
        nodes = line_grid(10.0, 257)
        f = physical_gaussian(nodes, 0.01, 1.0, P30, floor=0.0)
        sups = [0.01]
        for _ in range(400):
            f = step(f, P30, 5e-4)
            sups.append(float(np.max(np.abs(f.values))))
        assert np.all(np.diff(sups) < 0.0)

    def test_even_data_stays_even(self):
        nodes = line_grid(8.0, 257)
        f = physical_gaussian(nodes, 1.0, 2.0, P31, floor=0.5)
        for _ in range(100):
            f = step(f, P31, 2e-4)
        assert np.max(np.abs(f.values - f.values[::-1])) < 1e-12

    def test_rejects_nonpositive_dt(self):
        f = physical_constant(line_grid(5.0, 129), 1.0, P31)
        with pytest.raises(DomainError):
            step(f, P31, 0.0)

    @pytest.mark.parametrize(
        "value, dt",
        [
            (1e150, 1e-3),  # f(u) overflows float64
            (1.3e101, 1.0),  # finite predictor input of ~1e306 solves to NaN
        ],
    )
    def test_overshoot_raises(self, value, dt):
        f = physical_constant(line_grid(5.0, 129), value, P31)
        with pytest.raises(BlowupOvershootError):
            step(f, P31, dt)

    def test_refinement_order(self):
        # halving h and dt: change in sup at fixed time shrinks at order >= 1.5
        t_end = 0.02
        sups = []
        for n, dt in ((129, 2e-4), (257, 1e-4), (513, 5e-5)):
            nodes = line_grid(6.0, n)
            f = physical_gaussian(nodes, 2.0, 1.0, P31, floor=0.5)
            for _ in range(int(round(t_end / dt))):
                f = step(f, P31, dt)
            sups.append(float(np.max(np.abs(f.values))))
        e1 = abs(sups[1] - sups[0])
        e2 = abs(sups[2] - sups[1])
        order = np.log2(e1 / e2)
        assert order >= 1.5


def _reaction(t, v):
    return eval_f(v, P31)


def _reference_step(nodes, geometry, dimension, u, t, dt, explicit):
    """The IMEX step with the matrices rebuilt and solved by solve_banded."""
    bands = laplacian_bands(nodes, geometry, dimension)

    def solve(alpha, rhs):
        m = -alpha * bands
        m[1] += 1.0
        return solve_banded((1, 1), m, rhs)

    g0 = explicit(t, u)
    u_star = solve(dt, u + dt * g0)
    lap_u = bands[1] * u
    lap_u[:-1] += bands[0][1:] * u[1:]
    lap_u[1:] += bands[2][:-1] * u[:-1]
    return solve(0.5 * dt, u + 0.5 * dt * lap_u + 0.5 * dt * (g0 + explicit(t + dt, u_star)))


class TestImexStep:
    def test_pure_diffusion_conserves_trapezoid_sum(self):
        # the Neumann line Laplacian integrates to zero under the trapezoid
        # rule, and so does every Crank-Nicolson solve with it
        nodes = line_grid(5.0, 129)
        u = np.exp(-((nodes - 1.0) ** 2)) + 0.3 * np.sin(nodes)
        mass = np.trapezoid(u, nodes)
        for k in range(200):
            u = imex_step(nodes, "line", 1, u, k * 1e-2, 1e-2, lambda t, v: np.zeros_like(v))
        assert abs(np.trapezoid(u, nodes) - mass) < 1e-12

    @pytest.mark.parametrize("dt", [2e-5, 1.0 / 112.0])
    @pytest.mark.parametrize(
        "geometry, dimension, nodes",
        [("line", 1, line_grid(20.0, 401)), ("radial", 3, radial_grid(10.0, 257))],
        ids=["line-401", "radial-N3-257"],
    )
    def test_matches_solve_banded_reference_bitwise(self, geometry, dimension, nodes, dt):
        # the cached LU factors reproduce a fresh banded solve bit for bit,
        # on the miss that builds them and on the hits that reuse them
        u = 1.0 + 0.5 * np.exp(-nodes**2) + 0.1 * np.cos(nodes)
        for k in range(4):
            ref = _reference_step(nodes, geometry, dimension, u, k * dt, dt, _reaction)
            out = imex_step(nodes, geometry, dimension, u, k * dt, dt, _reaction)
            np.testing.assert_array_equal(out, ref)
            u = ref

    def test_same_size_grids_do_not_share_factors(self):
        grids = [line_grid(5.0, 129), line_grid(6.0, 129)]
        us = [1.0 + 0.5 * np.exp(-nodes**2) for nodes in grids]
        imex._operator.cache_clear()
        for k in range(3):
            for i, nodes in enumerate(grids):
                ref = _reference_step(nodes, "line", 1, us[i], k * 1e-3, 1e-3, _reaction)
                np.testing.assert_array_equal(
                    imex_step(nodes, "line", 1, us[i], k * 1e-3, 1e-3, _reaction), ref
                )
                us[i] = ref
        info = imex._operator.cache_info()
        assert (info.misses, info.hits) == (2, 4)

    def test_changing_dt_rebuilds_every_step(self):
        # near blow-up the reaction timescale sets a new dt on every step
        nodes = line_grid(10.0, 513)
        u = 1.0 + 0.5 * np.exp(-nodes**2)
        imex._operator.cache_clear()
        t = 0.0
        for k in range(12):
            dt = 1e-4 * 0.8**k
            ref = _reference_step(nodes, "line", 1, u, t, dt, _reaction)
            np.testing.assert_array_equal(imex_step(nodes, "line", 1, u, t, dt, _reaction), ref)
            u, t = ref, t + dt
        info = imex._operator.cache_info()
        assert (info.misses, info.hits) == (12, 0)


class TestRunToBlowup:
    def test_constant_data_recovers_ode_time(self):
        nodes = line_grid(5.0, 129)
        res = run_to_blowup(physical_constant(nodes, 1.0, P31), P31, M_stop=1e8)
        assert res.status == "blown_up"
        T_ode = time_to_blowup(1.0, P31)
        assert res.T_hat == pytest.approx(T_ode, rel=0.02)

    def test_gaussian_blowup_detected(self):
        nodes = line_grid(10.0, 257)
        res = run_to_blowup(
            physical_gaussian(nodes, 3.0, 1.5, P31, floor=0.0), P31, M_stop=1e8
        )
        assert res.status == "blown_up"
        sup = res.sup_history[:, 1]
        k = np.searchsorted(sup, 2.0 * sup[0])  # past the transient
        assert np.all(np.diff(sup[k:]) > 0.0)
        assert abs(res.x0_hat) < 0.1

    def test_blowup_point_located_off_center(self):
        nodes = line_grid(10.0, 513)
        u0 = GridField(
            "line", 1, nodes, 1.0 + 0.3 * np.exp(-((nodes - 1.3) ** 2)), 0.0
        )
        res = run_to_blowup(u0, P31, M_stop=1e7)
        assert res.x0_hat == pytest.approx(1.3, abs=0.05)

    def test_comparison_with_ode_lower_bound(self):
        # constant-dominating data blow up no later than the ODE through the floor
        nodes = line_grid(10.0, 257)
        res = run_to_blowup(
            physical_gaussian(nodes, 0.2, 2.0, P31, floor=1.0), P31, M_stop=1e8
        )
        assert res.T_hat <= time_to_blowup(1.0, P31)

    def test_T_hat_beyond_last_sample(self):
        nodes = line_grid(5.0, 129)
        res = run_to_blowup(physical_constant(nodes, 1.0, P31), P31, M_stop=1e8)
        assert res.T_hat > res.sup_history[-1, 0]

    def test_small_data_no_blowup(self):
        nodes = line_grid(10.0, 129)
        res = run_to_blowup(
            physical_gaussian(nodes, 0.01, 1.0, P31, floor=0.0),
            P31,
            M_stop=1e6,
            t_max=0.1,
        )
        assert res.status == "no_blowup"
        assert res.T_hat is None
        assert np.all(np.diff(res.sup_history[:, 1]) <= 1e-12)

    def test_m_stop_floor(self):
        nodes = line_grid(5.0, 129)
        with pytest.raises(ConfigurationError):
            run_to_blowup(physical_constant(nodes, 1.0, P31), P31, M_stop=1e4)

    def test_radial_blowup(self):
        nodes = radial_grid(10.0, 257)
        u0 = GridField("radial", 3, nodes, 1.0 + 0.2 * np.exp(-nodes**2), 0.0)
        res = run_to_blowup(u0, P31, M_stop=1e7)
        assert res.status == "blown_up"
        assert res.x0_hat == pytest.approx(0.0, abs=0.1)


class TestGridField:
    def test_minimum_resolution(self):
        with pytest.raises(ConfigurationError):
            GridField("line", 1, np.linspace(-1, 1, 32), np.zeros(32), 0.0)

    def test_rejects_nonfinite(self):
        vals = np.zeros(64)
        vals[3] = np.nan
        with pytest.raises(ConfigurationError):
            GridField("line", 1, np.linspace(-1, 1, 64), vals, 0.0)
