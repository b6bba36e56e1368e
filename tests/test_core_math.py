"""Nonlinearity, antiderivative splits, scaling functions.

Expected values marked as oracle constants were computed with mpmath
(40 digits) against the defining integrals; see the docstrings.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab.core_math import (
    Params,
    eval_F,
    eval_F1,
    eval_F2,
    eval_f,
    kappa_a,
    log_phi,
    log_term,
    phi,
    psi_T,
    rescaled_F,
    rescaled_nonlinearity,
)
from blowuplab.errors import DomainError

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
        # against direct backward ODE integration in test_ode_blowup.
        assert kappa_a(P31) == pytest.approx(2.0**-0.5, rel=1e-14)
        assert kappa_a(P3m1) == pytest.approx(2.0**-0.5, rel=1e-14)
        assert kappa_a(Params(2.0, 2.0)) == pytest.approx(0.25, rel=1e-14)

    def test_scaling_constants_positive(self):
        for params in PA_GRID:
            assert kappa_a(params) > 0.0


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
        with pytest.raises(DomainError):
            eval_f(np.nan, P31)


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
    def test_at_zero(self):
        assert log_term(5.0, 0.0, P31) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_moderate(self):
        # log(2 + e^2) at s=2, w=1, a=0
        assert log_term(2.0, 1.0, P30) == pytest.approx(
            np.log(2.0 + np.exp(2.0)), rel=1e-12
        )

    def test_overflow_regime(self):
        # naive phi(700)^2 overflows; expanded form gives exactly 700
        assert log_term(700.0, 1.0, P30) == 700.0

    def test_matches_naive_in_overlap(self):
        for params in (P31, P21):
            for s in (1.0, 5.0, 20.0):
                for w in (1e-3, 0.5, 3.0, 50.0):
                    naive = np.log(2.0 + phi(s, params) ** 2 * w * w)
                    assert log_term(s, w, params) == pytest.approx(naive, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_term(0.2, 1.0, P31)


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
    """log(2 + phi^2 w^2) and e^(-ps/(p-1)) s^(a/(p-1)) f(phi(s) w), composed
    literally in 50-digit arithmetic."""
    with mp.workdps(50):
        s, w, p, a = mp.mpf(s), mp.mpf(w), mp.mpf(params.p), mp.mpf(params.a)
        u = mp.exp(s / (p - 1)) * s ** (-a / (p - 1)) * w
        log_arg = mp.log(2 + u * u)
        f = abs(u) ** (p - 1) * u * log_arg**a
        return log_arg, mp.exp(-p * s / (p - 1)) * s ** (a / (p - 1)) * f


# Worst relative error over 38,000 random (s, w, p, a) in this domain, some
# of them on the log_term branch switch: 1.6e-15, at (p, a) = (5, -2).
MPMATH_RTOL = 5e-15

_pairs = st.sampled_from([Params(3.0, 1.0), Params(3.0, -1.0), Params(2.0, 2.0),
                          Params(1.5, 0.5), Params(5.0, -2.0)])
_s = st.floats(1.0, 700.0)
_w = st.builds(lambda e, sign: sign * 10.0**e, st.floats(-3.0, 1.0), st.sampled_from([-1, 1]))
_mpmath_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestCancellationFormsAgainstMpmath:
    @_mpmath_settings
    @given(s=_s, w=_w, params=_pairs)
    def test_log_term(self, s, w, params):
        ref, _ = _literal_50_digits(s, w, params)
        assert abs(log_term(s, w, params) / ref - 1) <= MPMATH_RTOL

    @_mpmath_settings
    @given(s=_s, w=_w, params=_pairs)
    def test_rescaled_nonlinearity(self, s, w, params):
        _, ref = _literal_50_digits(s, w, params)
        assert abs(rescaled_nonlinearity(s, w, params) / ref - 1) <= MPMATH_RTOL
