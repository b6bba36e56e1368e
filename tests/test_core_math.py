"""Nonlinearity, antiderivative splits, scaling functions.

Expected values marked as oracle constants were computed with mpmath
(40 digits) against the defining integrals; see the docstrings.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowuplab import core_math
from blowuplab.core_math import (
    Params,
    eval_F,
    eval_F1,
    eval_F2,
    eval_f,
    kappa_a,
    log_phi,
    phi,
    psi_T,
    rescaled_F,
    rescaled_nonlinearity,
)
from blowuplab.errors import DomainError, NumericError

P30 = Params(3.0, 0.0)
P31 = Params(3.0, 1.0)
P3m1 = Params(3.0, -1.0)
P21 = Params(2.0, 1.0)

PA_GRID = [Params(p, a) for p in (2.0, 3.0) for a in (-1.0, 0.0, 1.0, 2.0)]


class TestParams:
    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            Params(1.0, 0.0)

    def test_rejects_supercritical(self):
        with pytest.raises(DomainError):
            Params(5.0, 0.0, N=3)  # boundary (N+2)/(N-2) = 5 is excluded

    def test_boundary_is_strict(self):
        Params(4.999, 0.0, N=3)

    def test_a_unconstrained(self):
        Params(2.5, -7.3, N=2)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            Params(3.0, 0.0, N=0)


class TestKappa:
    def test_reduces_to_classical_at_a0(self):
        # (p-1)^(-1/(p-1))
        assert kappa_a(P30) == pytest.approx(2.0**-0.5, rel=1e-15)
        assert kappa_a(Params(2.0, 0.0)) == pytest.approx(1.0, rel=1e-15)

    def test_values(self):
        # p = 3 gives 2^(-1/2) for every a; (2,2) gives 1/4.  Cross-checked
        # against the ODE trajectory in test_ode_blowup.
        assert kappa_a(P31) == pytest.approx(2.0**-0.5, rel=1e-14)
        assert kappa_a(P3m1) == pytest.approx(2.0**-0.5, rel=1e-14)
        assert kappa_a(Params(2.0, 2.0)) == pytest.approx(0.25, rel=1e-14)

    def test_scaling_constants_positive(self):
        for params in PA_GRID:
            assert kappa_a(params) > 0.0

    def test_is_the_closed_form_bit_for_bit(self):
        for p in (1.05, 1.2, 2.0, 3.0, 5.0):
            for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
                want = (2.0 ** (-a) / (p - 1.0) ** (1.0 - a)) ** (1.0 / (p - 1.0))
                assert kappa_a(Params(p, a)) == want

    @pytest.mark.parametrize(
        "p, a", [(1.01, -5.0), (1.02, 5.0)], ids=["overflow", "underflow"]
    )
    def test_beyond_float64_is_numeric_error(self, p, a):
        # about 3.3e1350 and 8.9e-416 (mpmath)
        with pytest.raises(NumericError, match=f"p={p}, a={a}"):
            kappa_a(Params(p, a))


def _two_branch_f(u, params):
    """f(u) with log(2 + u^2) composed as where(|u| > 1e150, 2 log|u|,
    log(2 + u^2)), both branches on every entry."""
    ax = np.abs(u)
    big = ax > 1e150
    safe = np.where(big, 1.0, ax)
    ell = np.where(big, 2.0 * np.log(np.maximum(ax, 1.0)), np.log(2.0 + safe * safe))
    with np.errstate(over="ignore"):
        out = ax ** (params.p - 1.0) * u
        return out * ell**params.a if params.a != 0.0 else out


class TestEvalF:
    def test_zero(self):
        assert eval_f(0.0, P31) == 0.0

    def test_pure_power(self):
        assert eval_f(2.0, P30) == pytest.approx(8.0, rel=1e-15)

    def test_log_factor(self):
        assert eval_f(1.0, P21) == pytest.approx(np.log(3.0), rel=1e-14)

    def test_negative_log_exponent(self):
        # oracle: 8 / log 6 (mpmath, 40 digits)
        assert eval_f(2.0, P3m1) == pytest.approx(4.464885012409978, rel=1e-14)

    def test_odd_exactly(self):
        for params in PA_GRID:
            for u in (0.3, 1.0, 7.5, 123.0):
                assert eval_f(-u, params) == -eval_f(u, params)

    def test_sign(self):
        u = np.array([-3.0, -0.1, 0.1, 3.0])
        assert np.all(np.sign(eval_f(u, P31)) == np.sign(u))

    def test_huge_argument_no_overflow_in_log(self):
        # u^2 overflows inside the log; the power factor itself still fits
        v = eval_f(1e180, Params(1.5, 1.0))
        assert np.isfinite(v)
        assert v == pytest.approx(1e270 * (2.0 * np.log(1e180)) ** 1.0, rel=1e-12)

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                eval_f(bad, P31)
            with pytest.raises(DomainError):
                eval_f(np.array([0.5, bad, 2.0]), P31)

    @pytest.mark.parametrize("params", PA_GRID, ids=str)
    def test_one_pass_log_equals_two_branch_bitwise(self, params):
        # at max|u| <= 1e150 the log is log(2 + u*u) in one pass; the same
        # array with entries above 1e150, where u*u overflows from 1.4e154,
        # takes the two-branch form
        rng = np.random.default_rng(7)
        u = rng.choice([-1.0, 1.0], 600) * 10.0 ** rng.uniform(-300.0, 150.0, 600)
        u = np.concatenate([u, [0.0, -0.0, 1e150, -1e150, 1.0, 1e-320]])
        for arr in (u, np.append(u, [3.7e151, -1e200])):
            np.testing.assert_array_equal(eval_f(arr, params), _two_branch_f(arr, params))
        for x in (0.0, -2.5, 1e150, -1e150, 1e151, -1e200):
            assert eval_f(x, params) == _two_branch_f(np.float64(x), params)


class TestEvalF_antiderivative:
    def test_zero(self):
        assert eval_F(0.0, P31) == 0.0

    def test_closed_form_a0(self):
        assert eval_F(2.0, P30) == pytest.approx(4.0, rel=1e-15)

    def test_quadrature_oracle(self):
        # int_0^1 v^2 log(2+v^2) dv = 0.31675553884434341161 (mpmath)
        assert eval_F(1.0, P21) == pytest.approx(0.31675553884434341, rel=1e-11)

    def test_closed_form_p3_a1(self):
        # For p=3, a=1:  F(u) = u^4 L/4 - u^4/8 + u^2/2 - L + log 2,  L = log(2+u^2)
        for u in (0.5, 3.7, 40.0):
            L = np.log(2.0 + u * u)
            want = u**4 * L / 4.0 - u**4 / 8.0 + u * u / 2.0 - L + np.log(2.0)
            assert eval_F(u, P31) == pytest.approx(want, rel=1e-11)

    def test_even_exactly(self):
        for params in PA_GRID:
            for u in (0.4, 2.0, 50.0):
                assert eval_F(-u, params) == eval_F(u, params)

    def test_nonnegative(self):
        for params in PA_GRID:
            for u in (-30.0, -1.0, 0.1, 8.0):
                assert eval_F(u, params) >= 0.0

    @pytest.mark.parametrize("params", PA_GRID, ids=str)
    def test_derivative_consistency(self, params):
        for u in (0.1, 1.0, 10.0, 100.0):
            d = 1e-4 * u
            fd = (eval_F(u + d, params) - eval_F(u - d, params)) / (2.0 * d)
            assert fd == pytest.approx(eval_f(u, params), rel=1e-6)

    def test_beyond_float64_is_inf(self):
        # |u|^(p+1) = 1e360 overflows; eval_f gives inf there too
        for params in (Params(5.0, 1.0), Params(5.0, 0.0), Params(5.0, -2.0)):
            assert eval_F(1e60, params) == np.inf
            assert eval_F(-1e60, params) == np.inf

    def test_leading_term_asymptotic(self):
        # (p+1) F(u) / (u f(u)) -> 1, within 5% at u = 1e8
        for p in (2.0, 3.0):
            for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
                params = Params(p, a)
                u = 1e8
                r = (p + 1.0) * eval_F(u, params) / (u * eval_f(u, params))
                assert abs(r - 1.0) <= 0.05


class TestSplit:
    def test_F1_vanishes_at_a0(self):
        assert eval_F1(17.3, P30) == 0.0

    def test_F2_zero_at_origin(self):
        assert eval_F2(0.0, P31) == 0.0

    def test_split_identity(self):
        for params in PA_GRID:
            p = params.p
            for x in (0.5, 2.0, 30.0, 1e4):
                total = (
                    x * eval_f(x, params) / (p + 1.0)
                    + eval_F1(x, params)
                    + eval_F2(x, params)
                )
                assert total == pytest.approx(eval_F(x, params), rel=1e-9)

    @pytest.mark.parametrize(
        "params", [P31, P3m1, Params(2.0, 2.0), Params(1.5, 1.0), Params(5.0, -2.0)], ids=str
    )
    def test_F2_against_mpmath(self, params):
        # F2 = F - x f/(p+1) - F1 with F a 40-digit mp.quad of f over
        # [0, 1, x]: independent of eval_F, unlike test_split_identity.  The
        # worst relative error measured is 5.9e-10, at (3,1) and x = 1e3.
        # At a = 1 the x^(p+1) terms of the identity cancel exactly, so
        # F2 = O(x^(p-1)) is a difference of two terms larger by x^2: at
        # x = 1e6 rounding alone leaves a relative error of 2.5e-3 at (3,1)
        # and 7.1e-5 at (1.5,1), so the test stops at x = 1e3.
        with mp.workdps(40):
            p, a = mp.mpf(params.p), mp.mpf(params.a)

            def f(v):
                return v**p * mp.log(2 + v * v) ** a

            for x in (0.5, 2.0, 10.0, 1e3):
                xm = mp.mpf(x)
                F1 = -(2 * a / (p + 1) ** 2) * xm ** (p + 1) * mp.log(2 + xm * xm) ** (a - 1)
                want = mp.quad(f, [0, 1, xm]) - xm * f(xm) / (p + 1) - F1
                assert eval_F2(x, params) == pytest.approx(float(want), rel=1e-9, abs=0.0)

    def test_F2_ratio_stabilizes(self):
        # F2(x) log^2(2+x^2) / (x f(x)) -> 4a(a-1)/(p+1)^3 (oracle-derived
        # limit; degenerate, i.e. zero, at a in {0, 1}).
        for params, limit in ((Params(3.0, 2.0), 0.125), (Params(2.0, 2.0), 8.0 / 27.0)):
            vals = []
            for x in (1e4, 1e5, 1e6):
                r = (
                    eval_F2(x, params)
                    * np.log(2.0 + x * x) ** 2
                    / (x * eval_f(x, params))
                )
                vals.append(r)
            assert vals[0] == pytest.approx(vals[1], rel=0.05)
            assert vals[1] == pytest.approx(vals[2], rel=0.05)
            assert vals[2] == pytest.approx(limit, rel=0.05)

    def test_split_terms_dominated_by_source(self):
        # a single finite constant C makes F1(phi z) <= C (1 + (phi z/s) f(phi z))
        # and F2(phi z) <= C (1 + (phi z/s^2) f(phi z)) across the sampled range
        for params in (P31, P3m1, Params(2.0, 2.0)):
            c1 = c2 = 0.0
            for s in (2.0, 10.0, 30.0):
                ph = phi(s, params)
                for z in np.geomspace(1e-2, 1e2, 25):
                    x = ph * z
                    xf = x * eval_f(x, params)
                    c1 = max(c1, eval_F1(x, params) / (1.0 + xf / s))
                    c2 = max(c2, eval_F2(x, params) / (1.0 + xf / s**2))
            assert np.isfinite(c1) and np.isfinite(c2)

    def test_F2_ratio_degenerates_at_a1(self):
        # closed form gives F2 = u^2/2 - L + log 2, so the ratio decays ~ L/(2u^2)
        prev = None
        for x in (1e4, 1e5, 1e6):
            r = eval_F2(x, P31) * np.log(2.0 + x * x) ** 2 / (x * eval_f(x, P31))
            if prev is not None:
                assert abs(r) < abs(prev) / 50.0
            prev = r


class TestScalingFunctions:
    def test_phi_simple(self):
        assert phi(2.0, P30) == pytest.approx(np.e, rel=1e-15)

    def test_phi_domain(self):
        with pytest.raises(DomainError):
            phi(0.5, P30)

    def test_psi_pure_power(self):
        assert psi_T(1.0 - 0.01, 1.0, P30) == pytest.approx(10.0, rel=1e-13)

    def test_psi_log_exponent(self):
        # (e^-4)^(-1/2) * 4^(-1) = e^2/4
        got = psi_T(1.0 - np.exp(-4.0), 1.0, Params(3.0, 2.0))
        assert got == pytest.approx(np.exp(2.0) / 4.0, rel=1e-12)

    def test_psi_matches_phi_at_rescaled_time(self):
        for params in (P31, P21, Params(2.5, -0.7)):
            for gap in (0.3, 0.05, 1e-3):
                assert psi_T(1.0 - gap, 1.0, params) == pytest.approx(
                    phi(-np.log(gap), params), rel=1e-12
                )

    def test_psi_domain(self):
        with pytest.raises(DomainError):
            psi_T(1.0, 1.0, P30)
        with pytest.raises(DomainError):
            psi_T(0.0, 1.5, P30)  # T - t >= 1


class TestLogTerm:
    """The log factor of the rescaled source, log(2 + (phi w)^2), with its
    per-node switch to logaddexp(2 log(phi |w|), log 2) (core_math._ell)."""

    def test_branches_per_node(self):
        # log phi(600) = 296.8 for (3, 1): the last two nodes have
        # phi|w| > 1e150, the others keep log(2 + u*u), u = phi w, so their
        # sources have the bits they have without the two (the whole array
        # switching form would move their last bits)
        s = 600.0
        w = np.array([0.0, 1e-3, -0.37, 2.9, -41.0, 7.7e5, -3.3e11, 1e22, -4e30])
        u = math.exp(log_phi(s, P31)) * w
        below = np.abs(u) <= 1e150
        assert np.count_nonzero(~below) == 2
        np.testing.assert_array_equal(
            rescaled_nonlinearity(s, w, P31)[below], rescaled_nonlinearity(s, w[below], P31)
        )
        # phi itself beyond the switch (log phi(700) = 346.7): a node with
        # phi|w| = 1 still takes log(2 + u^2) = log 3.  The source underflows
        # at that node, so the log is read from the rule itself.
        lp = log_phi(700.0, P31)
        w = np.array([np.exp(-lp), 1.0])
        np.testing.assert_allclose(
            core_math._ell(lp, w, np.abs(w), 1.0), [np.log(3.0), 2.0 * lp], rtol=1e-15
        )

    @pytest.mark.parametrize("fn", [rescaled_nonlinearity, rescaled_F])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_w_rejected(self, fn, bad):
        for w in (bad, np.array([0.5, bad, -2.0])):
            for params in (P31, P30):
                with pytest.raises(DomainError):
                    fn(5.0, w, params)
        for s in (0.5, np.nan, np.inf):
            with pytest.raises(DomainError):
                fn(s, 1.0, P31)


class TestRescaledForms:
    def test_source_zero(self):
        assert rescaled_nonlinearity(5.0, 0.0, P31) == 0.0

    def test_source_a0_drops_factors(self):
        assert rescaled_nonlinearity(5.0, 1.0, P30) == pytest.approx(1.0, rel=1e-15)

    def test_source_matches_literal(self):
        # e^(-ps/(p-1)) s^(a/(p-1)) f(phi w) wherever representable
        for params in (P31, P3m1, P21, Params(2.0, 2.0)):
            p, a = params.p, params.a
            for s in (1.0, 2.0, 10.0, 50.0):
                for w in (-10.0, -0.5, 0.2, 1.0, 10.0):
                    lit = (
                        np.exp(-p * s / (p - 1.0))
                        * s ** (a / (p - 1.0))
                        * eval_f(phi(s, params) * w, params)
                    )
                    got = rescaled_nonlinearity(s, w, params)
                    assert got == pytest.approx(lit, rel=1e-9)

    def test_source_finite_at_s700(self):
        for params in PA_GRID:
            assert np.isfinite(rescaled_nonlinearity(700.0, 0.7, params))

    def test_rescaled_F_matches_literal(self):
        for params in (P31, P3m1, P21):
            p, a = params.p, params.a
            for s in (1.0, 4.0, 30.0):
                for w in (0.2, 1.0, 5.0):
                    lit = (
                        np.exp(-(p + 1.0) * s / (p - 1.0))
                        * s ** (2.0 * a / (p - 1.0))
                        * eval_F(phi(s, params) * w, params)
                    )
                    assert rescaled_F(s, w, params) == pytest.approx(lit, rel=1e-9)

    def test_rescaled_F_oracle(self):
        # mpmath: s^(-a) int_0^(2^-1/2) z^3 log(2 + phi(10)^2 z^2) dz
        got = rescaled_F(10.0, 2.0**-0.5, P31)
        assert got == pytest.approx(0.040674232842574254, rel=1e-11)

    def test_rescaled_F_closed_form_a0(self):
        w = np.array([-2.0, 0.3, 1.0])
        got = rescaled_F(123.0, w, P30)
        assert np.allclose(got, np.abs(w) ** 4 / 4.0, rtol=1e-15)

    def test_rescaled_F_finite_at_s700(self):
        for params in PA_GRID:
            v = rescaled_F(700.0, np.array([0.0, 0.3, 5.0]), params)
            assert np.all(np.isfinite(v))

    def test_rescaled_F_even_nonnegative(self):
        w = np.linspace(-8.0, 8.0, 33)
        for params in (P31, P3m1):
            v = rescaled_F(3.0, w, params)
            assert np.allclose(v, v[::-1], rtol=1e-13)
            assert np.all(v >= 0.0)

    def test_rescaled_F_batch_equals_scalar_calls_bitwise(self):
        # log phi(600) is 296.8 for (3, 1) and 303.2 for (3, -1): the batch
        # mixes w = 0, rows on the direct form and rows on the expanded form
        # (log(phi|w|) > 300).
        w = np.array([0.0, 1e-3, -0.5, 10.0, 50.0, -1e4, -0.0, 1e-30, 2.0])
        for params, n_expanded in ((P31, 2), (P3m1, 5)):
            lc = log_phi(600.0, params) + np.log(np.abs(w[w != 0.0]))
            assert np.sum(lc > 300.0) == n_expanded
            got = rescaled_F(600.0, w, params)
            assert np.array_equal(got, [rescaled_F(600.0, x, params) for x in w])
            assert np.count_nonzero(got) == w.size - 2

    def test_rescaled_F_batch_across_table_edges_equals_scalar_calls_bitwise(self):
        # at s = 2, log(phi|w|) runs from -inf (w = 0, -0) and below the
        # table's lower edge -20, through the table, to above its upper edge
        # 44, where the rule runs
        w = np.array([0.0, 1e-12, -5e-10, 2e-9, -0.0, 0.3, -1.5, 8.0, 1e15, -1e19, 5e19])
        for params in (P31, P3m1):
            lc = log_phi(2.0, params) + np.log(np.abs(w[w != 0.0]))
            assert np.sum(lc < -20.0) == 2
            assert np.sum(lc > 44.0) == 2
            got = rescaled_F(2.0, w, params)
            assert np.array_equal(got, [rescaled_F(2.0, x, params) for x in w])
            assert np.count_nonzero(got) == w.size - 2

    @pytest.mark.parametrize(
        "params", [P31, P3m1, P30, Params(3.0, 1.5)], ids=["a=1", "a=-1", "a=0", "a=1.5"]
    )
    def test_rescaled_F_stack_equals_each_row_alone_bitwise(self, params):
        # one s per row: nodes below, inside and above the table, and a row at
        # s = 600 on the expanded log form; at s = 2.16 numpy's array s**-1.5
        # is not the scalar's
        w = np.array([0.0, 1e-12, -5e-10, 0.3, -1.5, 8.0, 1e15, -1e19, 5e19])
        stack = np.stack([w, -2.0 * w, w[::-1], 0.5 * w])
        s = np.array([2.0, 2.16, 7.5, 600.0])
        got = rescaled_F(s, stack, params)
        want = [rescaled_F(float(si), row, params) for si, row in zip(s, stack)]
        assert np.array_equal(got, want)

    def test_rescaled_F_stack_checks_every_s(self):
        with pytest.raises(DomainError, match="s >= 1"):
            rescaled_F(np.array([2.0, 0.5]), np.ones((2, 3)), P31)

    def test_table_built_once_per_pair_and_read_only(self):
        core_math._G_table.cache_clear()
        w = np.linspace(-3.0, 3.0, 41)
        for s in (2.0, 5.0, 30.0):
            for params in (P31, P3m1, P30):  # a = 0 takes the closed form
                rescaled_F(s, w, params)
                rescaled_F(s, 0.7, params)
        info = core_math._G_table.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        for params in (P31, P3m1):
            table = core_math._G_table(params.p, params.a)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    def test_power_lower_bound_constant_exists(self):
        # |z|^(p-eps+1) <= rescaled_F(s, z) + C(eps) for one finite C(eps)
        eps = 0.5
        for params in (P31, P3m1, P21):
            p = params.p
            z = np.geomspace(1e-3, 1e3, 61)
            worst = -np.inf
            for s in (2.0, 10.0, 50.0):
                gap = z ** (p - eps + 1.0) - rescaled_F(s, z, params)
                worst = max(worst, float(np.max(gap)))
            assert np.isfinite(worst)

    def test_log_phi_consistent(self):
        for params in PA_GRID:
            for s in (1.0, 3.0, 40.0):
                assert np.exp(log_phi(s, params)) == pytest.approx(
                    phi(s, params), rel=1e-13
                )


def _literal_50_digits(s, w, params):
    """e^(-ps/(p-1)) s^(a/(p-1)) f(phi(s) w), composed literally in 50-digit
    arithmetic."""
    with mp.workdps(50):
        s, w, p, a = mp.mpf(s), mp.mpf(w), mp.mpf(params.p), mp.mpf(params.a)
        u = mp.exp(s / (p - 1)) * s ** (-a / (p - 1)) * w
        f = abs(u) ** (p - 1) * u * mp.log(2 + u * u) ** a
        return mp.exp(-p * s / (p - 1)) * s ** (a / (p - 1)) * f


def _rescaled_F_30_digits(s, w, params):
    """s^(-a) |w|^(p+1) int_0^1 xi^p log^a(2 + phi^2 w^2 xi^2) dxi in 30-digit
    arithmetic, the quadrature split at the knee xi = sqrt(2)/(phi|w|).

    On every example the tests below run, it agrees with the same
    quadrature at 50 digits to 1.4e-24 relative, far below float64's 1.1e-16,
    at a quarter of the cost per call."""
    with mp.workdps(30):
        s, w, p, a = mp.mpf(s), mp.mpf(w), mp.mpf(params.p), mp.mpf(params.a)
        lc = s / (p - 1) - a / (p - 1) * mp.log(s) + mp.log(abs(w))  # log(phi|w|)
        knee = mp.sqrt(2) * mp.exp(-lc)
        integral = mp.quad(
            lambda xi: xi**p * mp.log(2 + mp.exp(2 * (lc + mp.log(xi)))) ** a,
            [0, knee, 1] if knee < 1 else [0, 1],
        )
        return s ** (-a) * abs(w) ** (p + 1) * integral


# Worst relative error of rescaled_nonlinearity over 24,000 random
# (s, w, p, a) in this domain, 4,000 of them within 2 in s of the switch at
# log(phi|w|) = 300: 8.9e-16, at (p, a) = (2, 2).
MPMATH_RTOL = 5e-15
# Worst relative error of rescaled_F over 800 random (s, w, p, a) in this
# domain: 8.9e-16.  Over 1,500 with s in [1, 40], 1,392 of them on its table
# of G: 1.1e-15 for the table and 1.1e-15 for its 96-point rule alone on the
# same points.  The earlier 64-point rule reached 2.9e-15 on the first set
# and 7.3e-15 on the second, at log(phi|w|) = 9.2, (p, a) = (1.5, 0.5).
RESCALED_F_RTOL = 1e-14

_pairs = st.sampled_from([Params(3.0, 1.0), Params(3.0, -1.0), Params(2.0, 2.0),
                          Params(1.5, 0.5), Params(5.0, -2.0)])
_s = st.floats(1.0, 700.0)
_w = st.builds(lambda e, sign: sign * 10.0**e, st.floats(-3.0, 1.0), st.sampled_from([-1, 1]))
_mpmath_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# (s, w, params) on both sides of the switch from log(2 + u*u), u = phi w, to
# the expanded form at log(phi max|w|) = 300.  Each comment gives log phi and
# log(phi|w|); the last two take the expanded form because log phi > 300.
_SWITCH_EXAMPLES = [
    (606.0, 1.0, Params(3.0, 1.0)),  # 299.80, 299.80: direct
    (607.0, 1.0, Params(3.0, 1.0)),  # 300.30, 300.30: expanded
    (588.5, -10.0, Params(3.0, -1.0)),  # 297.44, 299.74: direct
    (589.5, -10.0, Params(3.0, -1.0)),  # 297.94, 300.24: expanded
    (311.0, 1.0, Params(2.0, 2.0)),  # 299.52, 299.52: direct
    (312.0, -1.0, Params(2.0, 2.0)),  # 300.51, 300.51: expanded
    (152.0, -1.0, Params(1.5, 0.5)),  # 298.98, 298.98: direct
    (153.0, 1.0, Params(1.5, 0.5)),  # 300.97, 300.97: expanded
    (155.5, 1e-3, Params(1.5, 0.5)),  # 305.95, 299.05: expanded
    (606.0, 1e-3, Params(3.0, -1.0)),  # 306.20, 299.30: expanded
]


# (s, w, params) at the edges of rescaled_F's table of G on
# log(phi|w|) in [-20, 44], on both sides of each, and on three panel edges
# (panels are 1/4 wide).  Each comment gives log(phi|w|) as rescaled_F forms
# it.
_TABLE_EXAMPLES = [
    (2.0, 1.0723359794666568e-09, Params(3.0, 1.0)),  # -20.0: table's lower edge
    (2.0, -1.0616660581942132e-09, Params(3.0, 1.0)),  # -20.01: below, the value at -20
    (2.0, 1.0831131352306635e-09, Params(3.0, 1.0)),  # -19.99: first panel
    (23.0, 3.112711514442092, Params(1.5, 0.5)),  # 44.0: table's upper edge
    (23.0, -3.08173951738252, Params(1.5, 0.5)),  # 43.99: last panel
    (23.0, 3.1439947852470422, Params(1.5, 0.5)),  # 44.01: rule above
    (7.0, -1.6939192476615401, Params(3.0, -1.0)),  # 5.0: panel edge
    (12.0, 9.205612013765892, Params(2.0, 2.0)),  # 9.25: panel edge
    (30.0, 0.49628809170113614, Params(5.0, -2.0)),  # 8.5: panel edge
]


def _with_examples(cases):
    def decorate(test):
        for s, w, params in cases:
            test = example(s=s, w=w, params=params)(test)
        return test

    return decorate


class TestCancellationFormsAgainstMpmath:
    @_mpmath_settings
    @given(s=_s, w=_w, params=_pairs)
    @_with_examples(_SWITCH_EXAMPLES)
    def test_rescaled_nonlinearity(self, s, w, params):
        ref = _literal_50_digits(s, w, params)
        assert abs(rescaled_nonlinearity(s, w, params) / ref - 1) <= MPMATH_RTOL

    @pytest.mark.parametrize("s", [606.0, 607.0])
    def test_array_takes_one_form_for_all_nodes(self, s):
        # max|w| = 1 sets the form of the whole array for (3, 1): direct at
        # s = 606 and expanded at s = 607, where nodes down to |w| = 1e-3 and
        # w = 0 are also on the expanded form
        w = np.array([0.0, -1e-3, 0.02, -0.5, 1.0])
        source = rescaled_nonlinearity(s, w, P31)
        for k in range(1, w.size):
            assert abs(source[k] / _literal_50_digits(s, w[k], P31) - 1) <= MPMATH_RTOL
        assert source[0] == 0.0

    @_mpmath_settings
    @given(s=_s, w=_w, params=_pairs)
    def test_rescaled_F(self, s, w, params):
        ref = _rescaled_F_30_digits(s, w, params)
        assert abs(rescaled_F(s, w, params) / ref - 1) <= RESCALED_F_RTOL

    @_mpmath_settings
    @given(s=st.floats(1.0, 40.0), w=_w, params=_pairs)
    @_with_examples(_TABLE_EXAMPLES)
    def test_rescaled_F_table(self, s, w, params):
        # s <= 40 puts log(phi|w|) inside the table for most examples
        ref = _rescaled_F_30_digits(s, w, params)
        assert abs(rescaled_F(s, w, params) / ref - 1) <= RESCALED_F_RTOL
