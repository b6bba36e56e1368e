"""Physical-frame solver: stepping, blow-up runs, ODE comparison."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

from blowuplab import imex, physical_solver
from blowuplab.core_math import Params, eval_f, rescaled_nonlinearity
from blowuplab.errors import (
    BlowupOvershootError,
    ConfigurationError,
    DomainError,
    NumericError,
)
from blowuplab.imex import Operator, _factor, _solve, imex_step, laplacian_bands
from blowuplab.initial_data import gaussian, line_grid
from blowuplab.ode_blowup import time_to_blowup
from blowuplab.physical_solver import (
    STEP_LIMITS,
    GridField,
    _reaction_timescale,
    run_to_blowup,
    step,
)

P30 = Params(3.0, 0.0)
P31 = Params(3.0, 1.0)
P31_3 = Params(3.0, 1.0, 3)


def radial_grid(extent, n):
    return np.linspace(0.0, extent, n)


def field(geometry, nodes, values, params=P31, time=0.0):
    """A GridField; a scalar value gives a constant datum."""
    values = np.full(nodes.shape, values, dtype=float)
    return GridField(
        geometry=geometry, nodes=nodes, values=values, params=params, time=time
    )


def line_field(nodes, values, params=P31):
    """A line GridField at t = 0."""
    return field("line", nodes, values, params)


class TestStep:
    def test_zero_fixed_point(self):
        f = line_field(line_grid(5.0, 129), 0.0)
        for _ in range(20):
            f, _ = step(f, 1e-3)
        assert np.all(f.values == 0.0)

    def test_constant_matches_ode(self):
        # Neumann + constant data reduce to v' = f(v); compare one interval
        f = line_field(line_grid(5.0, 129), 1.0)
        dt = 5e-4
        for _ in range(200):
            f, _ = step(f, dt)
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
        f = field("radial", radial_grid(5.0, 129), 0.8, P31_3)
        dt = 5e-4
        for _ in range(100):
            f, _ = step(f, dt)
        sol = solve_ivp(
            lambda t, v: eval_f(v, P31), (0.0, f.time), [0.8], rtol=1e-12, atol=1e-14
        )
        assert np.max(np.abs(f.values - sol.y[0, -1])) < 1e-7

    def test_small_single_mode_decays(self):
        nodes = line_grid(10.0, 257)
        f = line_field(nodes, gaussian(nodes, 0.01, 1.0, floor=0.0), P30)
        sups = [0.01]
        for _ in range(400):
            f, _ = step(f, 5e-4)
            sups.append(float(np.max(np.abs(f.values))))
        assert np.all(np.diff(sups) < 0.0)

    def test_even_data_stays_even(self):
        nodes = line_grid(8.0, 257)
        f = line_field(nodes, gaussian(nodes, 1.0, 2.0, floor=0.5))
        for _ in range(100):
            f, _ = step(f, 2e-4)
        assert np.max(np.abs(f.values - f.values[::-1])) < 1e-12

    def test_error_estimate_is_second_order_in_dt(self):
        # max|u_new - u*| is the predictor's local error: O(dt^2)
        nodes = line_grid(8.0, 257)
        f = line_field(nodes, gaussian(nodes, 1.0, 2.0, floor=0.5))
        errs = [step(f, dt)[1] for dt in (4e-4, 2e-4, 1e-4)]
        u_new, _, u_star = imex_step(
            Operator(f.nodes, "line", 1), f.values, f.sup, 0.0, 1e-4, _reaction
        )
        assert errs[2] == float(np.max(np.abs(u_new - u_star)))
        assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.05)
        assert np.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.05)

    def test_rejects_nonpositive_dt(self):
        f = line_field(line_grid(5.0, 129), 1.0)
        with pytest.raises(DomainError):
            step(f, 0.0)

    @pytest.mark.parametrize(
        "value, dt",
        [
            (1e150, 1e-3),  # f(u) overflows float64
            (1.3e101, 1.0),  # finite predictor input of ~1e306 solves to NaN
        ],
    )
    def test_overshoot_raises(self, value, dt):
        f = line_field(line_grid(5.0, 129), value)
        with pytest.raises(BlowupOvershootError):
            step(f, dt)

    def test_refinement_order(self):
        # halving h and dt: change in sup at fixed time shrinks at order >= 1.5
        t_end = 0.02
        sups = []
        for n, dt in ((129, 2e-4), (257, 1e-4), (513, 5e-5)):
            nodes = line_grid(6.0, n)
            f = line_field(nodes, gaussian(nodes, 2.0, 1.0, floor=0.5))
            for _ in range(int(round(t_end / dt))):
                f, _ = step(f, dt)
            sups.append(float(np.max(np.abs(f.values))))
        e1 = abs(sups[1] - sups[0])
        e2 = abs(sups[2] - sups[1])
        order = np.log2(e1 / e2)
        assert order >= 1.5


def _reaction(t, v, abs_max=None):
    """f(v) at (3,1): with imex_step's (|v|, max|v|) pair, or alone, as the
    reference step calls it."""
    return eval_f(v, P31, abs_max)


def _sup(u):
    return float(np.max(np.abs(u)))


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
    rhs = u + 0.5 * dt * lap_u + 0.5 * dt * (g0 + explicit(t + dt, u_star))
    return solve(0.5 * dt, rhs), u_star


class TestImexStep:
    def test_pure_diffusion_conserves_trapezoid_sum(self):
        # the Neumann line Laplacian integrates to zero under the trapezoid
        # rule, and so does every Crank-Nicolson solve with it
        nodes = line_grid(5.0, 129)
        h = nodes[1] - nodes[0]
        u = np.exp(-((nodes - 1.0) ** 2)) + 0.3 * np.sin(nodes)
        mass = h * (u.sum() - 0.5 * (u[0] + u[-1]))
        operator = Operator(nodes, "line", 1)
        u_max = _sup(u)
        for k in range(200):
            u, u_max, _ = imex_step(
                operator, u, u_max, k * 1e-2, 1e-2, lambda t, v, abs_max: np.zeros_like(v)
            )
        assert abs(h * (u.sum() - 0.5 * (u[0] + u[-1])) - mass) < 1e-12

    @pytest.mark.parametrize("dt", [2e-5, 1.0 / 112.0])
    @pytest.mark.parametrize(
        "geometry, dimension, nodes",
        [("line", 1, line_grid(20.0, 401)), ("radial", 3, radial_grid(10.0, 257))],
        ids=["line-401", "radial-N3-257"],
    )
    def test_matches_solve_banded_reference_bitwise(self, geometry, dimension, nodes, dt):
        # the operator reproduces a fresh banded solve bit for bit: on the
        # step that solves a new dt with dgtsv, on the step that factors the
        # repeated dt and on the steps that reuse its factors; the sup it
        # returns is max|u_new| to the bit
        u = 1.0 + 0.5 * np.exp(-nodes**2) + 0.1 * np.cos(nodes)
        operator = Operator(nodes, geometry, dimension)
        for k in range(4):
            ref, ref_star = _reference_step(nodes, geometry, dimension, u, k * dt, dt, _reaction)
            out, out_max, out_star = imex_step(operator, u, _sup(u), k * dt, dt, _reaction)
            np.testing.assert_array_equal(out, ref)
            np.testing.assert_array_equal(out_star, ref_star)
            assert out_max.hex() == _sup(ref).hex()
            u = ref

    def test_same_size_grids_do_not_share_factors(self, monkeypatch):
        # each field builds the operator of its own grid; the fields stepped
        # from it share that operator, which factors once, on a dt's second step
        factored = []
        monkeypatch.setattr(imex, "_factor", lambda b, a: factored.append(b) or _factor(b, a))
        fields = [line_field(nodes, 1.0 + 0.5 * np.exp(-nodes**2))
                  for nodes in (line_grid(5.0, 129), line_grid(6.0, 129))]
        operators = [f.operator for f in fields]
        assert operators[0] is not operators[1]
        for k in range(3):
            for i, f in enumerate(fields):
                ref, _ = _reference_step(f.nodes, "line", 1, f.values, f.time, 1e-3, _reaction)
                fields[i], _ = step(f, 1e-3)
                np.testing.assert_array_equal(fields[i].values, ref)
                assert fields[i].operator is operators[i]
        # two factors (predictor and corrector) per grid, each from its own bands
        assert [id(b) for b in factored] == [id(op.bands) for op in operators for _ in "pc"]

    def test_new_dt_solves_repeated_dt_factors(self, monkeypatch):
        # a dt's first step solves with dgtsv and factors nothing, its second
        # step factors one (predictor, corrector) pair from the bands built
        # once, and later steps at that dt reuse the pair; a dt the operator
        # saw before the last one is new again.  Every step matches the
        # reference bit for bit.
        built, factored = [], []
        monkeypatch.setattr(
            imex, "laplacian_bands", lambda *a: built.append(a) or laplacian_bands(*a)
        )
        monkeypatch.setattr(imex, "_factor", lambda b, a: factored.append(a) or _factor(b, a))
        nodes = line_grid(10.0, 513)
        f = line_field(nodes, 1.0 + 0.5 * np.exp(-nodes**2))
        dts = [1e-4 * 0.8**k for k in range(6)]
        for dt, repeat in [(dt, k) for dt in dts for k in range(3)] + [(dts[0], 0)]:
            before = len(factored)
            ref, _ = _reference_step(nodes, "line", 1, f.values, f.time, dt, _reaction)
            f, _ = step(f, dt)
            np.testing.assert_array_equal(f.values, ref)
            assert factored[before:] == ([dt, 0.5 * dt] if repeat == 1 else [])
        assert len(built) == 1

    @pytest.mark.parametrize("drift", [False, True], ids=["no-drift", "drift"])
    @pytest.mark.parametrize(
        "geometry, dimension, nodes",
        [
            ("line", 1, line_grid(10.0, 513)),
            ("radial", 3, radial_grid(10.0, 257)),
            ("line", 1, line_grid(100.0, 201)),
        ],
        ids=["line-513", "radial-N3-257", "line-extent100-201"],
    )
    def test_new_dt_solve_matches_factored_solve_bitwise(self, geometry, dimension, nodes, drift):
        # a new dt's dgtsv and a repeated dt's dgttrf + dgttrs give the same
        # bits, for dt from 1e-10 to 10; on the extent-100 grid the drift
        # turns the off-diagonals negative ((R - h) h > 4) and dgttrf pivots
        bands = laplacian_bands(nodes, geometry, dimension, drift)
        rng = np.random.default_rng(20261020)
        pivots = 0
        for dt in np.logspace(-10.0, 1.0, 34):
            rhs = rng.standard_normal(nodes.size) * 10.0 ** rng.uniform(-3.0, 8.0)
            factors = _factor(bands, dt)
            pivots += int(np.count_nonzero(factors[-1] != np.arange(1, nodes.size + 1)))
            new = _solve(bands, dt, None, rhs.copy(), "predictor")
            repeated = _solve(bands, dt, factors, rhs.copy(), "predictor")
            assert new.tobytes() == repeated.tobytes()
        if drift and nodes[-1] == 100.0:
            assert pivots > 0

    @pytest.mark.parametrize("stage", ["predictor", "corrector"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize(
        "geometry, dimension, nodes",
        [("line", 1, line_grid(5.0, 129)), ("radial", 3, radial_grid(5.0, 129))],
        ids=["line", "radial-N3"],
    )
    def test_nonfinite_rhs_is_overshoot(self, geometry, dimension, nodes, where, bad, stage):
        # the step checks only each stage's solution, by its max: one
        # non-finite right-hand-side entry, anywhere, must still make that
        # stage's solution non-finite and its max NaN or inf, on both
        # routes: a fresh operator solves the new dt with dgtsv, and one
        # that has stepped once at that dt factors it for dgttrs
        i = {"first": 0, "middle": nodes.size // 2, "last": nodes.size - 1}[where]
        u = 1.0 + 0.5 * np.exp(-(nodes**2))
        t0 = 0.25

        def explicit(t, v, abs_max):
            g = eval_f(v, P31, abs_max)
            if (t == t0) == (stage == "predictor"):  # g0 feeds both, g1 only the corrector
                g[i] = bad
            return g

        fresh, repeated = (Operator(nodes, geometry, dimension) for _ in range(2))
        imex_step(repeated, u, _sup(u), 0.0, 1e-3, _reaction)
        for operator in (fresh, repeated):
            with pytest.raises(BlowupOvershootError, match=rf"non-finite {stage} at t=0\.25$"):
                imex_step(operator, u, _sup(u), t0, 1e-3, explicit)
        assert fresh._factors is None and repeated._factors is not None

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_nonfinite_input_without_a_pair_is_a_domain_error(self, bad):
        # called alone, with a raw array and no (|x|, max|x|) pair, each
        # explicit term takes its own max and refuses a non-finite input
        u = np.ones(129)
        u[64] = bad
        with pytest.raises(DomainError, match="eval_f: non-finite input"):
            eval_f(u, P31)
        with pytest.raises(DomainError, match="rescaled_nonlinearity: non-finite input"):
            rescaled_nonlinearity(3.0, u, P31)


class TestRunToBlowup:
    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_run_factors_nothing_and_matches_factoring_every_dt(self, monkeypatch, a):
        # on the benchmark's datum, a Gaussian on floor 1 over 513 nodes of
        # extent 10, the PI controller sets a new dt on every step, so the
        # run factors nothing; it gives the same bits as a run whose
        # operator factors every dt and solves only with dgttrs
        nodes = line_grid(10.0, 513)
        u0 = field("line", nodes, 1.0 + 0.05 * np.exp(-((nodes / 4.0) ** 2)), Params(3.0, a))
        factored = []
        monkeypatch.setattr(imex, "_factor", lambda b, al: factored.append(al) or _factor(b, al))
        run = run_to_blowup(u0, M_stop=1e8)
        assert run.status == "blown_up"
        assert factored == []
        monkeypatch.setattr(
            Operator, "factors", lambda op, dt: (_factor(op.bands, dt), _factor(op.bands, 0.5 * dt))
        )
        forced = run_to_blowup(u0, M_stop=1e8)
        assert run.sup_history.tobytes() == forced.sup_history.tobytes()
        assert run.dts.tobytes() == forced.dts.tobytes()
        assert run.T_hat.hex() == forced.T_hat.hex()

    def test_constant_data_recovers_ode_time(self):
        nodes = line_grid(5.0, 129)
        res = run_to_blowup(line_field(nodes, 1.0), M_stop=1e8)
        assert res.status == "blown_up"
        T_ode = time_to_blowup(1.0, P31)
        assert res.T_hat == pytest.approx(T_ode, rel=0.02)

    def test_gaussian_blowup_detected(self):
        nodes = line_grid(10.0, 257)
        res = run_to_blowup(
            line_field(nodes, gaussian(nodes, 3.0, 1.5, floor=0.0)), M_stop=1e8
        )
        assert res.status == "blown_up"
        sup = res.sup_history[:, 1]
        k = np.searchsorted(sup, 2.0 * sup[0])  # past the transient
        assert np.all(np.diff(sup[k:]) > 0.0)
        assert abs(res.x0_hat) < 0.1

    def test_blowup_point_located_off_center(self):
        nodes = line_grid(10.0, 513)
        u0 = line_field(nodes, 1.0 + 0.3 * np.exp(-((nodes - 1.3) ** 2)))
        res = run_to_blowup(u0, M_stop=1e7)
        assert res.x0_hat == pytest.approx(1.3, abs=0.05)

    def test_comparison_with_ode_lower_bound(self):
        # constant-dominating data blow up no later than the ODE through the floor
        nodes = line_grid(10.0, 257)
        res = run_to_blowup(
            line_field(nodes, gaussian(nodes, 0.2, 2.0, floor=1.0)), M_stop=1e8
        )
        assert res.T_hat <= time_to_blowup(1.0, P31)

    def test_halts_at_float_resolution_in_t(self, monkeypatch):
        attempts = _record_steps(monkeypatch)
        nodes = line_grid(5.0, 129)
        u0 = line_field(nodes, 1.0)
        res = run_to_blowup(u0, M_stop=1e200)
        assert (res.status, res.halt) == ("blown_up", "t_resolution")
        # the halt tests the dt about to be taken: no attempt leaves t unchanged
        assert all(f.time + dt > f.time for f, dt, _, _ in attempts)
        assert np.all(np.diff(res.sup_history[:, 0]) > 0.0)
        # dt shrinks by a few percent a step near blow-up, so the last one
        # taken is within an ulp of t
        assert res.dts[-1] <= np.spacing(res.sup_history[-1, 0])
        res = run_to_blowup(u0, M_stop=1e6)
        assert (res.status, res.halt) == ("blown_up", "m_stop")
        assert res.sup_history[-1, 1] >= 1e6

    def test_T_hat_beyond_last_sample(self):
        nodes = line_grid(5.0, 129)
        res = run_to_blowup(line_field(nodes, 1.0), M_stop=1e8)
        assert res.T_hat > res.sup_history[-1, 0]

    def test_small_data_no_blowup(self):
        nodes = line_grid(10.0, 129)
        res = run_to_blowup(
            line_field(nodes, gaussian(nodes, 0.01, 1.0, floor=0.0)),
            M_stop=1e6,
            t_max=0.1,
        )
        assert (res.status, res.halt) == ("no_blowup", "t_max")
        assert res.T_hat is None
        assert np.all(np.diff(res.sup_history[:, 1]) <= 1e-12)

    def test_m_stop_floor(self):
        nodes = line_grid(5.0, 129)
        with pytest.raises(ConfigurationError):
            run_to_blowup(line_field(nodes, 1.0), M_stop=1e4)

    def test_m_stop_nan_refused(self):
        nodes = line_grid(5.0, 129)
        with pytest.raises(ConfigurationError, match="M_stop must be >= 1e6"):
            run_to_blowup(line_field(nodes, 1.0), M_stop=np.nan)

    @pytest.mark.parametrize("safety", [0.0, -0.05, np.nan, 1.0, 1e200, np.inf])
    def test_safety_must_be_positive(self, safety):
        # safety sets the tolerance and every cap: at 0 the run would halt at
        # once and report blow-up, and from 1 up a step may span the whole
        # reaction timescale (at 1e200 safety^2 would overflow float64)
        nodes = line_grid(5.0, 129)
        with pytest.raises(ConfigurationError, match="safety must be positive and below 1"):
            run_to_blowup(line_field(nodes, 1.0), safety=safety)

    @pytest.mark.parametrize("safety", [1e-300, 1e-162])
    def test_safety_whose_tolerance_underflows_is_refused(self, safety):
        # safety^2/2 rounds to 0 below a safety of about 3e-162, and every
        # error ratio err/tol would then divide by zero
        assert 0.5 * safety**2 == 0.0
        nodes = line_grid(5.0, 129)
        with pytest.raises(ConfigurationError, match=rf"safety {safety} makes the tolerance"):
            run_to_blowup(line_field(nodes, 1.0), safety=safety)

    def test_attempts_past_the_budget_are_a_numeric_error(self, monkeypatch):
        # this run takes more than 400 attempts to reach M_stop
        monkeypatch.setattr(physical_solver, "_MAX_ATTEMPTS", 400)
        nodes = line_grid(5.0, 129)
        with pytest.raises(NumericError, match=r"no halt after 400 attempts, at t = .*, M = "):
            run_to_blowup(line_field(nodes, 1.0))

    def test_radial_blowup(self):
        nodes = radial_grid(10.0, 257)
        u0 = field("radial", nodes, 1.0 + 0.2 * np.exp(-nodes**2), P31_3)
        res = run_to_blowup(u0, M_stop=1e7)
        assert res.status == "blown_up"
        assert res.x0_hat == pytest.approx(0.0, abs=0.1)


def _record_steps(monkeypatch):
    """Route run_to_blowup's steps through a recorder; returns the list of
    (field_in, dt, field_out, err) of every attempt, rejected ones included."""
    attempts = []

    def recording_step(field_in, dt):
        out, err = step(field_in, dt)
        attempts.append((field_in, dt, out, err))
        return out, err

    monkeypatch.setattr(physical_solver, "step", recording_step)
    return attempts


# T_hat of the criterion 5 runs under the former rule dt = 0.05 min(h^2, M/f(M))
T_HAT_H2_CAPPED = {(3.0, 1.0): 0.2989133999396779, (3.0, -1.0): 0.7762773472871769}


class TestStepControl:
    @pytest.mark.parametrize(
        "u0, kwargs, counted",
        [
            # a narrow spike: the first attempts overshoot the tolerance
            (line_field(line_grid(10.0, 513), gaussian(line_grid(10.0, 513), 20.0, 0.2)),
             {}, "rejected"),
            # from a small constant the reaction timescale is long, and the
            # cap sets dt until M nears 1
            (line_field(line_grid(5.0, 129), 0.1),
             {"M_stop": 1e6, "t_max": 100.0}, "reaction_capped"),
        ],
        ids=["spike", "small-constant"],
    )
    def test_accepted_steps_meet_tolerance_or_are_reaction_capped(
        self, monkeypatch, u0, kwargs, counted
    ):
        attempts = _record_steps(monkeypatch)
        safety = 0.05
        res = run_to_blowup(u0, safety=safety, **kwargs)
        assert res.status == "blown_up"
        # an attempt was accepted when its output is stepped on or returned
        kept = {id(f) for f, _, _, _ in attempts} | {id(res.field)}
        accepted = [dt for _, dt, out, _ in attempts if id(out) in kept]
        assert np.array_equal(accepted, res.dts) and res.limits.size == res.dts.size
        assert len(attempts) - len(accepted) == res.rejected
        assert np.all(res.dts[1:] <= 2.0 * res.dts[:-1])  # growth is clamped
        assert set(res.limits) <= set(STEP_LIMITS)
        counts = {"rejected": res.rejected,
                  "reaction_capped": int(np.sum(res.limits == "reaction_capped"))}
        assert counts[counted] > 0
        limits = iter(res.limits)
        for f, dt, out, err in attempts:
            M = float(np.max(np.abs(f.values)))
            tol = 0.5 * safety**2 * max(M, 1.0)
            cap = safety * M / eval_f(M, P31)
            assert dt <= cap * (1.0 + 1e-12)
            if id(out) not in kept:
                assert err > tol
                continue
            limit = next(limits)
            assert err <= tol or limit == "reaction_capped"
            if limit == "reaction_capped":
                assert dt == pytest.approx(cap, rel=1e-12)

    @pytest.mark.parametrize("pair", sorted(T_HAT_H2_CAPPED), ids=["a=-1", "a=1"])
    def test_halving_safety_moves_T_hat_toward_h2_capped(self, pair):
        params = Params(*pair)
        nodes = line_grid(10.0, 513)
        u0 = line_field(nodes, gaussian(nodes, 0.05, 4.0, floor=1.0), params)
        ref = T_HAT_H2_CAPPED[pair]
        gaps = [
            abs(run_to_blowup(u0, M_stop=1e8, safety=safety).T_hat - ref) / ref
            for safety in (0.05, 0.025)
        ]
        assert gaps[0] <= 1e-3
        assert gaps[1] < 0.5 * gaps[0]


class TestGridField:
    def test_minimum_resolution(self):
        with pytest.raises(ConfigurationError):
            line_field(np.linspace(-1, 1, 32), 0.0)

    def test_rejects_nonfinite(self):
        vals = np.zeros(64)
        vals[3] = np.nan
        with pytest.raises(ConfigurationError):
            line_field(np.linspace(-1, 1, 64), vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_constructor_rejects_nonfinite_values(self, bad):
        nodes = line_grid(5.0, 129)
        values = np.ones(nodes.shape)
        values[64] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            line_field(nodes, values)

    def test_is_keyword_only(self):
        nodes = line_grid(5.0, 129)
        with pytest.raises(TypeError):
            GridField("line", nodes, np.ones(nodes.shape), P31, 0.0)

    def test_line_geometry_requires_N_1(self):
        with pytest.raises(ConfigurationError, match="requires N = 1"):
            line_field(line_grid(5.0, 129), 1.0, P31_3)

    @pytest.mark.parametrize(
        "nodes",
        [
            np.linspace(-5.0, 5.0, 129) ** 3,
            np.linspace(5.0, -5.0, 129),
            np.r_[np.linspace(-5.0, 0.0, 64), np.linspace(0.1, 5.0, 65)],
        ],
        ids=["graded", "decreasing", "gap"],
    )
    def test_rejects_non_uniform_nodes(self, nodes):
        with pytest.raises(ConfigurationError, match="uniform and increasing"):
            line_field(nodes, 1.0)

    def test_radial_nodes_start_at_zero(self):
        with pytest.raises(ConfigurationError, match="start at r = 0"):
            field("radial", np.linspace(1.0, 6.0, 129), 1.0, P31_3)

    def test_stepped_field_is_a_frozen_grid_field(self):
        nodes = line_grid(5.0, 129)
        f, _ = step(line_field(nodes, 1.0), 1e-3)
        assert type(f) is GridField
        assert (f.geometry, f.params, f.time) == ("line", P31, 1e-3)
        assert f.nodes is nodes
        with pytest.raises(AttributeError):
            f.time = 0.0

    def test_every_sup_is_its_fields_max_bitwise(self, monkeypatch):
        # each attempt of a run, rejected ones included, carries the sup its
        # step set, max|values| to the bit, and run_to_blowup's M history
        # reads it.  A field built from one whose sup is cached, with other
        # values, carries no sup.
        attempts = _record_steps(monkeypatch)
        nodes = line_grid(10.0, 513)
        res = run_to_blowup(line_field(nodes, gaussian(nodes, 20.0, 0.2)), M_stop=1e6)
        assert res.rejected > 0
        for _, _, out, _ in attempts:
            assert "sup" in vars(out)  # set by the step, not computed on read
            assert out.sup.hex() == _sup(out.values).hex()
        kept = {id(f) for f, _, _, _ in attempts} | {id(res.field)}
        accepted = [out.sup for _, _, out, _ in attempts if id(out) in kept]
        np.testing.assert_array_equal(res.sup_history[1:, 1], accepted)
        f = res.field
        other = f._stepped(0.5 * f.values, time=f.time)
        assert "sup" not in vars(other)
        assert other.sup == 0.5 * f.sup

    @pytest.mark.parametrize("N", [2, 3])
    def test_step_takes_N_from_params(self, N):
        # the radial operator's (N-1)/r term comes from params.N alone
        params = Params(3.0, 1.0, N)
        nodes = radial_grid(5.0, 129)
        u0 = field("radial", nodes, 1.0 + 0.2 * np.exp(-nodes**2), params)
        f, err = step(u0, 1e-3)
        u_new, _, u_star = imex_step(
            Operator(nodes, "radial", N), u0.values, u0.sup, 0.0, 1e-3,
            lambda t, v, abs_max: eval_f(v, params, abs_max),
        )
        np.testing.assert_array_equal(f.values, u_new)
        assert err == float(np.max(np.abs(u_new - u_star)))


class TestReactionTimescale:
    PAIRS = [(3.0, 1.0), (3.0, -1.0), (3.0, 0.0), (2.0, 2.0), (1.5, 0.5), (1.2, 5.0),
             (1.05, -2.0)]

    @pytest.mark.parametrize("pa", PAIRS, ids=str)
    def test_equals_M_over_eval_f(self, pa):
        # the Python-float formula against eval_f, across eval_f's switch at
        # 1e150 and up to where f(M) leaves float64 (both then give 0)
        params = Params(*pa)
        M = np.concatenate([
            np.logspace(-3.0, 300.0, 3000),
            [np.nextafter(1e150, 0.0), 1e150, np.nextafter(1e150, np.inf)],
        ])
        with np.errstate(over="ignore"):
            want = M / eval_f(M, params)
        got = np.array([_reaction_timescale(float(m), params) for m in M])
        finite = want > 0.0
        assert (~finite).any() and np.all(got[~finite] == 0.0)
        assert np.max(np.abs(got[finite] / want[finite] - 1.0)) <= 1e-15
