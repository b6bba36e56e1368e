"""The step kernels, both steps and the ledger's kernels, bit for bit
against reference forms written out here: each numpy expression of the
kernels as a fresh-array expression, log phi(s) through a 0-d array, max|x|
by ndarray.max and the solves by scipy's solve_banded.  The kernels form
the same values in fewer buffers and calls, so every bit must be the
reference's."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from blowuplab import analysis, core_math, verification
from blowuplab.core_math import (
    LOG2,
    LOG_U_SWITCH,
    Params,
    eval_f,
    eval_F,
    log_phi,
    rescaled_F,
    rescaled_nonlinearity,
)
from blowuplab.functionals import FunctionalConfig, snapshot
from blowuplab.imex import laplacian_bands
from blowuplab.initial_data import gaussian, line_grid, profile_shape
from blowuplab.physical_solver import GridField, step
from blowuplab.quadrature import integrate
from blowuplab.similarity_solver import DEFAULT_DS, SimField, cfl_step, step_w

# a = 1 multiplies by the log itself, a = 0 skips it, and -1, 0.5 and 2 take
# numpy's reciprocal, sqrt and square forms of pow
PARAMS = [Params(3.0, a) for a in (1.0, -1.0, 0.5, 0.0, 2.0)]


def _ref_log_phi(s, params):
    arr = np.asarray(s, dtype=float)
    p, a = params.p, params.a
    return float(arr / (p - 1.0) - (a / (p - 1.0)) * np.log(arr))


def _ref_ell(lp, w, aw, w_max):
    if lp + math.log(max(w_max, 1.0)) <= LOG_U_SWITCH:
        u = math.exp(lp) * w if lp else w
        return np.log(2.0 + u * u)
    with np.errstate(over="ignore", divide="ignore"):
        lu = lp + np.log(aw)
        u = math.exp(lp) * w if lp <= LOG_U_SWITCH else np.exp(lu)
        return np.where(lu > LOG_U_SWITCH, np.logaddexp(2.0 * lu, LOG2), np.log(2.0 + u * u))


def _ref_abs_max(x):
    ax = np.abs(x)
    return ax, float(ax.max(initial=0.0))


def _ref_rescaled_nonlinearity(s, w, params, abs_max=None):
    arr = np.asarray(w, dtype=float)
    aw, w_max = abs_max if abs_max is not None else _ref_abs_max(arr)
    p, a = params.p, params.a
    out = aw ** (p - 1.0) * arr
    if a != 0.0:
        ell = _ref_ell(_ref_log_phi(float(s), params), arr, aw, w_max)
        out *= float(s) ** (-a)
        out *= ell**a
    return float(out) if arr.ndim == 0 else out


def _ref_f(u, params, abs_max=None):
    arr = np.asarray(u, dtype=float)
    au, u_max = abs_max if abs_max is not None else _ref_abs_max(arr)
    p, a = params.p, params.a
    with np.errstate(over="ignore"):
        out = au ** (p - 1.0) * arr
        if a != 0.0:
            out *= _ref_ell(0.0, arr, au, u_max) ** a
    return float(out) if arr.ndim == 0 else out


def _ref_imex_step(bands, u, u_max, t, dt, explicit):
    """(u_new, max|u_new|, u*) of the IMEX step, every operation on a fresh
    array."""

    def solve(alpha, rhs):
        m = -alpha * bands
        m[1] += 1.0
        return solve_banded((1, 1), m, rhs)

    with np.errstate(over="ignore"):
        g0 = explicit(t, u, (np.abs(u), u_max))
        u_star = solve(dt, u + dt * g0)
        g1 = explicit(t + dt, u_star, _ref_abs_max(u_star))
        lap_u = bands[1] * u
        lap_u[:-1] += bands[0][1:] * u[1:]
        lap_u[1:] += bands[2][:-1] * u[:-1]
        u_new = solve(0.5 * dt, u + 0.5 * dt * lap_u + 0.5 * dt * (g0 + g1))
    return u_new, _ref_abs_max(u_new)[1], u_star


def _tuner_s_grid():
    """Every s a tuner probe from s0 = 2 evaluates its source at: s0 + k ds
    by repeated addition, over the probe window of the audit pairs' tuning,
    verification.PROFILE_UNITS + analysis._PROBE_MARGIN units."""
    ds = cfl_step(line_grid(20.0, 401), DEFAULT_DS)
    units = verification.PROFILE_UNITS + analysis._PROBE_MARGIN
    s, grid = 2.0, []
    for _ in range(round(units / ds)):
        grid.append(s)
        s += ds
    return np.array(grid)


def _ref_G(lc, p, a):
    table = core_math._G_table(p, a)
    x = np.minimum(np.maximum(lc, core_math._X_LO), core_math._X_HI)
    k = ((x - core_math._X_LO) * (1.0 / core_math._PANEL)).astype(np.intp)
    k = np.minimum(k, core_math._N_PANELS - 1)
    t = (x - table[-1].take(k)) * (2.0 / core_math._PANEL)
    g = table[0].take(k) * t
    for row in table[1:-2]:
        g = (g + row.take(k)) * t
    g = g + table[-2].take(k)
    high = lc > core_math._X_HI
    if high.any():
        g[high] = core_math._G_rule(lc[high], p, a)
    return g


def _ref_F_body(lp, scale, w, params):
    arr = np.asarray(w, dtype=float)
    aw = np.atleast_1d(np.abs(arr))
    p, a = params.p, params.a
    with np.errstate(over="ignore", divide="ignore"):
        amp = aw ** (p + 1.0)
        if a == 0.0:
            out = amp / (p + 1.0)
        else:
            g = _ref_G((lp + np.log(aw)).ravel(), p, a)
            out = scale * amp * g.reshape(aw.shape)
    out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def _ref_rescaled_F(s, w, params):
    a = params.a
    rows = [float(si) for si in np.atleast_1d(s)]
    lp = [_ref_log_phi(si, params) if a != 0.0 else 0.0 for si in rows]
    scale = [si ** (-a) for si in rows]
    if np.ndim(s) == 0:
        return _ref_F_body(lp[0], scale[0], w, params)
    return _ref_F_body(np.array(lp)[:, None], np.array(scale)[:, None], w, params)


def _ref_snapshot(field, cfg):
    """The family's values as fresh-array expressions, each row's scalars
    by the float path."""
    p, b = field.params.p, cfg.b(field.params)
    w = field.values
    grad = np.gradient(w, field.spacing, axis=-1)
    w2 = w**2
    F = _ref_rescaled_F(field.s, w, field.params)
    energy = 0.5 * grad * grad + w2 / (2.0 * (p - 1.0)) - F
    mass = integrate(field.rule, w2)
    E = integrate(field.rule, energy)

    def per_s(fn):
        if np.ndim(field.s) == 0:
            return fn(field.s)
        return np.array([fn(float(s)) for s in field.s])

    J = -mass / (2.0 * field.s)
    H = E + cfg.m0 * J
    L0 = E - per_s(lambda s: s ** (-1.5)) * mass
    decay = per_s(lambda s: s ** (-b))
    return {
        "s": field.s, "E": E, "J": J, "H_m": H,
        "N_m": decay * H + per_s(lambda s: cfg.A * np.exp(-s)), "I": decay * mass, "L0": L0,
        "L": per_s(lambda s: np.exp((p + 3.0) / np.sqrt(s))) * L0
        + per_s(lambda s: cfg.theta * s ** (-0.75)),
        "mass": mass,
    }


def _fields(rng):
    """Signed fields with zeros, of up to 1e3, on 401 nodes."""
    w = rng.standard_normal(401) * 10.0 ** rng.uniform(-3.0, 3.0, 401)
    w[::37] = 0.0
    return w


def _assert_same_bits(got, want):
    assert np.asarray(got).dtype == np.float64
    assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


class TestLogPhi:
    @pytest.mark.parametrize("params", [Params(3.0, 1.0), Params(3.0, -1.0), Params(1.5, 2.0)],
                             ids=str)
    def test_float_path_is_the_0d_array_path(self, params):
        # numpy's log, not math.log, which rounds differently at some s of
        # these sets
        s_grid = np.concatenate([_tuner_s_grid(),
                                 np.random.default_rng(35).uniform(1.0, 700.0, 100_000)])
        got = np.array([log_phi(s, params) for s in s_grid.tolist()])
        want = np.array([log_phi(np.asarray(s), params) for s in s_grid])
        _assert_same_bits(got, want)
        _assert_same_bits(log_phi(s_grid, params), want)


class TestEll:
    @pytest.mark.parametrize("lp", [0.0, 0.7, 3.1, 300.0, 350.0])
    def test_equals_the_fresh_array_form(self, lp):
        # lp 0 squares w, lp 300 puts the largest nodes above the switch and
        # lp 350 forms phi above it
        rng = np.random.default_rng(11)
        w = _fields(rng)
        stack = np.stack([w, -0.5 * w, np.zeros_like(w)])
        for x in (w, stack, np.asarray(w[1]), np.asarray(0.0), np.asarray(-w[3])):
            ax = np.abs(x)
            x_max = float(ax.max())
            _assert_same_bits(core_math._ell(lp, x, ax, x_max), _ref_ell(lp, x, ax, x_max))


class TestSources:
    @pytest.mark.parametrize("params", PARAMS, ids=str)
    def test_rescaled_nonlinearity(self, params):
        rng = np.random.default_rng(13)
        w = _fields(rng)
        for s in (*_tuner_s_grid()[::97], 40.0, 600.0, 700.0):
            pair = (np.abs(w), float(np.abs(w).max()))
            _assert_same_bits(rescaled_nonlinearity(s, w, params),
                              _ref_rescaled_nonlinearity(s, w, params))
            _assert_same_bits(rescaled_nonlinearity(s, w, params, pair),
                              _ref_rescaled_nonlinearity(s, w, params, pair))
            for x in (1.7, -0.3, 0.0, np.float64(2.5)):
                assert rescaled_nonlinearity(s, x, params) == _ref_rescaled_nonlinearity(
                    s, x, params
                )
                assert type(rescaled_nonlinearity(s, x, params)) is float

    @pytest.mark.parametrize("params", PARAMS, ids=str)
    def test_eval_f(self, params):
        # up to 1e200, above the switch, where f overflows to inf
        w = _fields(np.random.default_rng(14))
        for scale in (1.0, 1e-150, 1e100, 1e148, 1e151, 1e200):
            u = scale * w
            pair = (np.abs(u), float(np.abs(u).max()))
            _assert_same_bits(eval_f(u, params), _ref_f(u, params))
            with np.errstate(over="ignore"):
                _assert_same_bits(eval_f(u, params, pair), _ref_f(u, params, pair))
            for x in (0.7 * scale, -scale, 0.0):
                assert eval_f(x, params) == _ref_f(x, params)
                assert type(eval_f(x, params)) is float


class TestSteps:
    @pytest.mark.parametrize("params", PARAMS + [Params(1.5, 1.0)], ids=str)
    def test_300_step_w_equal_the_reference_step(self, params):
        nodes = line_grid(20.0, 401)
        p, a = params.p, params.a

        def explicit(s, w, abs_max):
            linear = -(1.0 / (p - 1.0)) * (1.0 - a / s) * w
            linear += _ref_rescaled_nonlinearity(s, w, params, abs_max)
            return linear

        w0 = profile_shape(nodes, 2.0, params) * (1.0 - 0.02 * np.cos(nodes / 3.0))
        field = SimField(geometry="line", nodes=nodes, values=w0, s=2.0, params=params)
        bands = laplacian_bands(nodes, "line", 1, drift=True)
        w, w_max, s = w0, field.sup, 2.0
        for _ in range(300):
            field = step_w(field, DEFAULT_DS)
            w, w_max, _ = _ref_imex_step(bands, w, w_max, s, DEFAULT_DS, explicit)
            s += DEFAULT_DS
            _assert_same_bits(field.values, w)
            assert field.sup.hex() == w_max.hex()
            assert field.s == s

    @pytest.mark.parametrize(
        "params, geometry",
        [(Params(3.0, 1.0), "line"), (Params(3.0, -1.0), "line"), (Params(2.0, 0.5, 3), "radial")],
        ids=["line-3,1", "line-3,-1", "radial-N3-2,0.5"],
    )
    def test_300_physical_steps_at_alternating_dt_equal_the_reference_step(self, params, geometry):
        # repeated dts take the factored solve, new ones the dgtsv solve
        nodes = line_grid(10.0, 513) if geometry == "line" else np.linspace(0.0, 10.0, 257)
        u0 = gaussian(nodes, 0.3, 4.0, floor=0.5)
        field = GridField(geometry=geometry, nodes=nodes, values=u0, time=0.0, params=params)
        bands = laplacian_bands(nodes, geometry, params.N)
        dts = (1e-3, 1e-3, 1e-3, 2e-3, 1e-3, 5e-4, 5e-4)
        u, u_max, t = u0, field.sup, 0.0
        for k in range(300):
            dt = dts[k % len(dts)]
            field, err = step(field, dt)
            u, u_max, u_star = _ref_imex_step(
                bands, u, u_max, t, dt, lambda t, x, abs_max: _ref_f(x, params, abs_max)
            )
            t += dt
            _assert_same_bits(field.values, u)
            assert field.sup.hex() == u_max.hex()
            assert err.hex() == float(np.abs(u - u_star).max()).hex()
            assert field.time == t


def _ledger_fields(rng):
    """_fields with nodes scaled to 1e-12, where lc = log phi + log|w| is
    below the table's -20, and to 1e18, where it is above its 44."""
    w = _fields(rng)
    w[1::5] *= 1e-12
    w[2::7] *= 1e18
    return w


class TestLedger:
    # a = 0 is the closed form, 1 and -1 the corpus pairs, 2 numpy's square
    @pytest.mark.parametrize("params", [Params(3.0, a) for a in (0.0, 1.0, -1.0, 2.0)], ids=str)
    def test_G(self, params):
        # lc = -inf (w = 0), below -20, on the table, above 44 and above the
        # switch, where the rule's rows take _ell's logaddexp form
        lc = np.concatenate([
            [-np.inf, -400.0, -20.0, -19.99, 0.0, 43.99, 44.0, 44.01, 300.0, 350.0],
            np.random.default_rng(21).uniform(-25.0, 50.0, 2000),
        ])
        _assert_same_bits(core_math._G(lc, params.p, params.a),
                          _ref_G(lc, params.p, params.a))

    @pytest.mark.parametrize("params", [Params(3.0, a) for a in (0.0, 1.0, -1.0, 2.0)], ids=str)
    def test_rescaled_F(self, params):
        rng = np.random.default_rng(22)
        w = _ledger_fields(rng)
        # 600 puts lc above the switch on the 1e18 nodes
        for s in (2.0, *_tuner_s_grid()[1::211], 40.0, 600.0):
            _assert_same_bits(rescaled_F(s, w, params), _ref_rescaled_F(s, w, params))
            for x in (1.7, -0.3, 0.0, 1e-12, 1e18, np.float64(2.5)):
                got = rescaled_F(s, x, params)
                assert type(got) is float
                assert got == _ref_rescaled_F(s, x, params)
        for s0 in (2.0, 600.0):
            s = s0 + np.arange(21) / 50
            block = np.stack([_ledger_fields(rng) for _ in s])
            _assert_same_bits(rescaled_F(s, block, params), _ref_rescaled_F(s, block, params))
        for x in (1.7, -0.3, 0.0, 1e-12, 1e18):
            assert eval_F(x, params) == _ref_F_body(0.0, 1.0, x, params)

    @pytest.mark.parametrize("params", [Params(3.0, a) for a in (0.0, 1.0, -1.0, 2.0)], ids=str)
    def test_snapshot_on_a_21_by_401_block(self, params):
        nodes = line_grid(20.0, 401)
        rng = np.random.default_rng(23)
        w0 = profile_shape(nodes, 2.0, params)
        s = 2.0 + np.arange(21) / 50
        block = np.stack([w0 * (1.0 + 0.1 * rng.standard_normal(401)) for _ in s])
        field = SimField(geometry="line", nodes=nodes, values=w0, s=2.0, params=params)
        cfg = FunctionalConfig()
        for f in (field, field._stepped(block, s=s)):
            got, want = vars(snapshot(f, cfg)), _ref_snapshot(f, cfg)
            assert list(got) == list(want)
            for name in got:
                _assert_same_bits(got[name], want[name])
