"""Similarity-frame solver and the frame change."""

import mpmath as mp
import numpy as np
import pytest

from blowuplab.core_math import Params, kappa_a, psi_T
from blowuplab.errors import (
    BlowupOvershootError,
    ConfigurationError,
    ContractViolation,
    DomainError,
    TruncationError,
)
from blowuplab.imex import laplacian_bands
from blowuplab.initial_data import line_grid, random_smooth_shape
from blowuplab.physical_solver import GridField
from blowuplab.quadrature import rule_for_grid
from blowuplab.similarity_solver import (
    DEFAULT_DS,
    SimField,
    cfl_step,
    ds_dissipation,
    step_w,
    to_similarity,
)

P30 = Params(3.0, 0.0)
P31 = Params(3.0, 1.0)
P31_3 = Params(3.0, 1.0, N=3)


def grid_field(geometry, nodes, values, t, params=P31):
    return GridField(
        geometry=geometry, nodes=nodes, values=values, params=params, time=t
    )


class TestFrameChange:
    def test_definition_inverts_on_constants(self):
        T, t = 0.5, 0.34
        x = line_grid(8.0, 513)
        c = 1.7
        u = grid_field("line", x, np.full(x.shape, psi_T(t, T, P31) * c), t)
        w = to_similarity(u, 0.0, T, line_grid(10.0, 201))
        assert np.max(np.abs(w.values - c)) < 1e-12
        assert w.s == pytest.approx(-np.log(T - t))

    def test_hand_computed_gaussian(self):
        # u(x) = psi_T(t) exp(-(x-x0)^2/(T-t))  ->  w(y) = exp(-y^2)
        T, t, x0 = 0.5, 0.45, 0.3
        x = line_grid(6.0, 2001)
        u = grid_field(
            "line", x, psi_T(t, T, P31) * np.exp(-((x - x0) ** 2) / (T - t)), t
        )
        y = line_grid(2.0, 81)
        w = to_similarity(u, x0, T, y)
        assert np.max(np.abs(w.values - np.exp(-y * y))) < 1e-6

    def test_hand_computed_gaussian_radial(self):
        # same profile in N = 3: the similarity field keeps the radial geometry
        T, t = 0.5, 0.45
        r = np.linspace(0.0, 6.0, 2001)
        u = grid_field(
            "radial", r, psi_T(t, T, P31_3) * np.exp(-r * r / (T - t)), t, P31_3
        )
        y = np.linspace(0.0, 2.0, 81)
        w = to_similarity(u, 0.0, T, y)
        assert (w.geometry, w.params) == ("radial", P31_3)
        assert np.max(np.abs(w.values - np.exp(-y * y))) < 1e-6

    def test_forward_matches_analytic_w(self):
        # u = psi_T(t) (0.5 + 0.3 exp(-x^2)) is w = 0.5 + 0.3 exp(-(T-t) y^2)
        T, t = 0.6, 0.45
        x = line_grid(8.0, 1025)
        u = grid_field("line", x, psi_T(t, T, P31) * (0.5 + 0.3 * np.exp(-x * x)), t)
        y = line_grid(12.0, 401)
        w = to_similarity(u, 0.0, T, y)
        analytic = 0.5 + 0.3 * np.exp(-(T - t) * y * y)
        assert w.s == pytest.approx(-np.log(T - t), abs=1e-12)
        assert np.max(np.abs(w.values - analytic)) < 1e-6

    def test_truncation_signal(self):
        T, t = 0.5, 0.2
        x = line_grid(2.0, 257)
        u = grid_field("line", x, np.ones(x.shape), t)
        with pytest.raises(TruncationError):
            to_similarity(u, 0.0, T, line_grid(20.0, 101))

    def test_time_domain(self):
        x = line_grid(2.0, 257)
        u = grid_field("line", x, np.ones(x.shape), 0.7)
        with pytest.raises(DomainError):
            to_similarity(u, 0.0, 0.5, x)

    def test_radial_centre_is_the_origin(self):
        # a radial field can only blow up at r = 0: any other x0 would shift
        # the r-grid off the centre the geometry assumes
        T, t = 0.5, 0.45
        r = np.linspace(0.0, 6.0, 2001)
        u = grid_field(
            "radial", r, psi_T(t, T, P31_3) * np.exp(-r * r / (T - t)), t, P31_3
        )
        y = np.linspace(0.0, 2.0, 81)
        for x0 in (0.5, -0.5, 1e-12):
            with pytest.raises(DomainError, match="x0 = 0"):
                to_similarity(u, x0, T, y)
        assert to_similarity(u, -0.0, T, y).values[0] == pytest.approx(1.0, abs=1e-6)


class TestStepW:
    def test_zero_fixed_point(self):
        y = line_grid(20.0, 201)
        w = SimField(
            geometry="line", nodes=y, values=np.zeros(y.shape), s=2.0, params=P31
        )
        for _ in range(10):
            w = step_w(w, 0.005)
        assert np.all(w.values == 0.0)

    def test_kappa_stationary_at_a0(self):
        # constant kappa_0 solves the a=0 equation exactly
        y = line_grid(20.0, 401)
        kap = kappa_a(P30)
        w = SimField(
            geometry="line", nodes=y, values=np.full(y.shape, kap), s=2.0, params=P30
        )
        ds = cfl_step(y, 0.01)
        for _ in range(int(round(1.0 / ds))):
            w = step_w(w, ds)
        assert np.max(np.abs(w.values - kap)) < 1e-8

    def test_kappa_drift_matches_oracle_at_a1(self):
        # at s = 20 the right side at constant kappa_a is O(1/s); the
        # mpmath oracle value of the residual is -0.04753311948.  One step
        # must reproduce it and its magnitude obeys the 2|a|k/((p-1)s) + log
        # correction budget.
        s = 20.0
        y = line_grid(20.0, 401)
        kap = kappa_a(P31)
        w0 = SimField(
            geometry="line", nodes=y, values=np.full(y.shape, kap), s=s, params=P31
        )
        ds = cfl_step(y, 0.005)
        w1 = step_w(w0, ds)
        center = y.size // 2
        drift_rate = (w1.values[center] - w0.values[center]) / ds
        rhs_oracle = -0.047533119480017496
        assert drift_rate == pytest.approx(rhs_oracle, rel=0.01)
        log_correction = 0.0122  # oracle-measured excess over the a/s term
        assert abs(rhs_oracle) <= 2.0 * 1.0 * kap / (2.0 * s) + 1.05 * log_correction

    def test_mpmath_oracle_reproducible(self):
        # keep the frozen constant honest
        mp.mp.dps = 30
        p, a, s = 3, 1, mp.mpf(20)
        kap = 1 / mp.sqrt(2)
        phi = mp.e ** (s / (p - 1)) * s ** (-mp.mpf(a) / (p - 1))
        rhs = -(mp.mpf(1) / (p - 1)) * (1 - mp.mpf(a) / s) * kap + s ** (
            -a
        ) * kap**p * mp.log(2 + phi**2 * kap**2) ** a
        assert float(rhs) == pytest.approx(-0.047533119480017496, rel=1e-12)

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_steps_above_the_old_cfl_cap_converge_second_order(self, a):
        # ds = 1/20 lies above the 1/112 the explicit drift's CFL bound
        # allowed on the corpus grid; one unit of s at ds, ds/2 and ds/4
        # shows the IMEX step's second order
        params = Params(3.0, a)
        y = line_grid(20.0, 401)
        w0 = 0.7 * random_smooth_shape(y, params, 0)
        finals = []
        for n in (20, 40, 80):
            w = SimField(geometry="line", nodes=y, values=w0, s=2.0, params=params)
            for _ in range(n):
                w = step_w(w, 1.0 / n)
            finals.append(w.values)
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert np.log2(e1 / e2) >= 1.9

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_default_ds_time_error_below_spatial_error(self, a):
        # on the corpus grid (401 nodes on [-20, 20]) the default step's time
        # error (ds against ds/2) stays below the spatial error (401 against
        # 801 nodes) at every unit boundary; both grids start from one datum,
        # built on 801 nodes and read at every other node on 401
        params = Params(3.0, a)
        fine, coarse = line_grid(20.0, 801), line_grid(20.0, 401)
        assert np.array_equal(coarse, fine[::2])
        w0 = 0.7 * random_smooth_shape(fine, params, 0)

        def unit_boundaries(nodes, values, ds):
            w = SimField(geometry="line", nodes=nodes, values=values, s=2.0, params=params)
            out = []
            for _ in range(2):
                for _ in range(round(1.0 / ds)):
                    w = step_w(w, ds)
                out.append(w.values)
            return out

        ds = cfl_step(coarse, DEFAULT_DS)
        runs = zip(
            unit_boundaries(coarse, w0[::2], ds),
            unit_boundaries(coarse, w0[::2], ds / 2),
            unit_boundaries(fine, w0, ds),
        )
        for w, w_half_ds, w_fine in runs:
            time_error = np.max(np.abs(w - w_half_ds))
            assert time_error < np.max(np.abs(w - w_fine[::2]))

    def test_overshoot_raises(self):
        y = line_grid(20.0, 201)
        w = SimField(
            geometry="line", nodes=y, values=np.full(y.shape, 1e150), s=2.0, params=P31
        )
        with pytest.raises(BlowupOvershootError):
            step_w(w, 0.004)

    def test_s_advances(self):
        y = line_grid(20.0, 201)
        w = SimField(
            geometry="line", nodes=y, values=np.zeros(y.shape), s=3.0, params=P31
        )
        assert step_w(w, 0.004).s == pytest.approx(3.004)

    def test_radial_step_runs(self):
        r = np.linspace(0.0, 20.0, 401)
        params = Params(3.0, 1.0, N=3)
        w = SimField(
            geometry="radial", nodes=r, values=0.5 * np.exp(-r * r / 8.0), s=2.0,
            params=params,
        )
        ds = cfl_step(r, 0.01)
        for _ in range(50):
            w = step_w(w, ds)
        assert np.all(np.isfinite(w.values))


def _apply(bands, w):
    """The banded operator applied to w, as imex_step forms it."""
    out = bands[1] * w
    out[:-1] += bands[0][1:] * w[1:]
    out[1:] += bands[2][:-1] * w[:-1]
    return out


class TestDriftOperator:
    @pytest.mark.parametrize(
        "geometry, dimension, nodes, w, exact",
        [
            # Lap y = 0 and -(y/2) y' = -y/2
            ("line", 1, line_grid(20.0, 401), lambda y: y, lambda y: -0.5 * y),
            # N = 3: Lap r^2 = 2N = 6 and -(r/2) (r^2)' = -r^2
            ("radial", 3, np.linspace(0.0, 20.0, 401), lambda r: r * r,
             lambda r: 6.0 - r * r),
        ],
        ids=["line-y", "radial-N3-r2"],
    )
    def test_bands_exact_on_low_degree(self, geometry, dimension, nodes, w, exact):
        # central differences are exact on these polynomials at every
        # interior node
        got = _apply(laplacian_bands(nodes, geometry, dimension, True), w(nodes))
        np.testing.assert_allclose(got[1:-1], exact(nodes)[1:-1], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("extent, resolution", [(20.0, 401), (20.0, 64), (100.0, 64)])
    def test_spectrum_in_closed_left_half_plane(self, extent, resolution):
        # Crank-Nicolson is stable on the operator while no eigenvalue has a
        # positive real part, also on grids (R h = 12.5 and 312) where the
        # central drift makes off-diagonals negative; on the corpus grid the
        # top of the spectrum is the Ornstein-Uhlenbeck one, -m/2
        y = line_grid(extent, resolution)
        b = laplacian_bands(y, "line", 1, True)
        A = np.diag(b[1]) + np.diag(b[0][1:], 1) + np.diag(b[2][:-1], -1)
        re = np.sort(np.linalg.eigvals(A).real)[::-1]
        assert re[0] <= 1e-10
        if resolution == 401:
            np.testing.assert_allclose(re[:5], -0.5 * np.arange(5), atol=1e-9)


class TestDissipation:
    def test_identical_fields(self):
        y = line_grid(20.0, 201)
        a = SimField(
            geometry="line", nodes=y, values=np.ones(y.shape), s=2.0, params=P31
        )
        b = SimField(
            geometry="line", nodes=y, values=np.ones(y.shape), s=2.5, params=P31
        )
        assert ds_dissipation(a, b) == 0.0

    def test_definition(self):
        y = line_grid(20.0, 201)
        rule = rule_for_grid(y, 1, "line")
        g = np.sin(y / 3.0)
        ds = 0.25
        a = SimField(
            geometry="line", nodes=y, values=np.ones(y.shape), s=2.0, params=P31
        )
        b = SimField(
            geometry="line", nodes=y, values=a.values + ds * g, s=2.0 + ds, params=P31
        )
        from blowuplab.quadrature import integrate

        assert ds_dissipation(a, b) == pytest.approx(
            integrate(rule, g * g), rel=1e-12
        )

    def test_stationary_run_dissipation_tiny(self):
        y = line_grid(20.0, 401)
        kap = kappa_a(P30)
        w = SimField(
            geometry="line", nodes=y, values=np.full(y.shape, kap), s=2.0, params=P30
        )
        ds = cfl_step(y, 0.01)
        total = 0.0
        for _ in range(int(round(1.0 / ds))):
            nxt = step_w(w, ds)
            total += ds * ds_dissipation(w, nxt)
            w = nxt
        assert total < 1e-8

    def test_blocks_give_each_step_alone_bitwise(self):
        # two blocks of a run's steps, one row and one s per step
        y = line_grid(20.0, 201)
        w = SimField(
            geometry="line", nodes=y, values=0.3 * np.exp(-y * y / 8.0), s=2.0,
            params=P31,
        )
        steps = [w]
        for n in range(1, 6):
            nxt = step_w(steps[-1], 0.02)
            steps.append(nxt._stepped(nxt.values, s=2.0 + n / 50))
        values = np.stack([f.values for f in steps])
        s = np.array([f.s for f in steps])
        got = ds_dissipation(w._stepped(values[:-1], s=s[:-1]),
                             w._stepped(values[1:], s=s[1:]))
        want = [ds_dissipation(a, b) for a, b in zip(steps[:-1], steps[1:])]
        assert np.array_equal(got, want)
        stalled = s[1:].copy()
        stalled[2] = s[2]  # one row that does not step forward
        with pytest.raises(ContractViolation):
            ds_dissipation(w._stepped(values[:-1], s=s[:-1]),
                           w._stepped(values[1:], s=stalled))

    def test_grid_mismatch(self):
        y = line_grid(20.0, 201)
        a = SimField(geometry="line", nodes=y, values=np.ones(201), s=2.0, params=P31)
        b = SimField(
            geometry="line",
            nodes=line_grid(20.0, 101),
            values=np.ones(101),
            s=2.5,
            params=P31,
        )
        with pytest.raises(ContractViolation):
            ds_dissipation(a, b)

    def test_time_order(self):
        y = line_grid(20.0, 201)
        a = SimField(
            geometry="line", nodes=y, values=np.ones(y.shape), s=3.0, params=P31
        )
        b = SimField(
            geometry="line", nodes=y, values=np.ones(y.shape), s=2.0, params=P31
        )
        with pytest.raises(ContractViolation):
            ds_dissipation(a, b)


class TestSimField:
    def test_requires_s_at_least_one(self):
        y = line_grid(20.0, 201)
        with pytest.raises(DomainError):
            SimField(
                geometry="line", nodes=y, values=np.zeros(y.shape), s=0.5, params=P31
            )

    @pytest.mark.parametrize("s", [np.nan, np.inf], ids=["nan", "inf"])
    def test_requires_finite_s(self, s):
        y = line_grid(20.0, 201)
        with pytest.raises(DomainError, match="finite s >= 1"):
            SimField(geometry="line", nodes=y, values=np.zeros(y.shape), s=s, params=P31)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_constructor_rejects_nonfinite_values(self, bad):
        y = line_grid(20.0, 201)
        values = np.zeros(y.shape)
        values[100] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            SimField(geometry="line", nodes=y, values=values, s=2.0, params=P31)

    def test_stepped_field_is_a_frozen_sim_field(self):
        y = line_grid(20.0, 201)
        f = step_w(SimField(
            geometry="line", nodes=y, values=np.full(y.shape, 0.3), s=2.0, params=P31
        ), 0.01)
        assert type(f) is SimField
        assert (f.geometry, f.s, f.params) == ("line", 2.01, P31)
        assert f.nodes is y
        with pytest.raises(AttributeError):
            f.s = 3.0

    @pytest.mark.parametrize("n", [1, 63])
    def test_minimum_resolution(self, n):
        y = np.linspace(-20.0, 20.0, n)
        with pytest.raises(ConfigurationError, match="node count must be >= 64"):
            SimField(geometry="line", nodes=y, values=np.zeros(n), s=2.0, params=P31)

    @pytest.mark.parametrize("geometry, params", [("line", P31), ("radial", P31_3)])
    def test_rejects_non_uniform_nodes(self, geometry, params):
        y = np.linspace(0.0, 4.0, 201) ** 2
        with pytest.raises(ConfigurationError, match="uniform and increasing"):
            SimField(
                geometry=geometry, nodes=y, values=np.zeros(y.shape), s=2.0,
                params=params,
            )

    def test_radial_nodes_start_at_zero(self):
        r = np.linspace(1.0, 20.0, 201)
        with pytest.raises(ConfigurationError, match="start at r = 0"):
            SimField(
                geometry="radial", nodes=r, values=np.zeros(r.shape), s=2.0,
                params=P31_3,
            )

    def test_line_geometry_requires_N_1(self):
        y = line_grid(20.0, 201)
        with pytest.raises(ConfigurationError, match="requires N = 1"):
            SimField(
                geometry="line", nodes=y, values=np.zeros(y.shape), s=2.0, params=P31_3
            )
