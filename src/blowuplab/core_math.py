"""Nonlinearity, its antiderivative splits, and the explicit scaling functions.

The model nonlinearity is

    f(u) = |u|^(p-1) u log^a(2 + u^2),   p > 1, a real,

together with F(u) = int_0^u f, its split F = u f/(p+1) + F1 + F2, the
blow-up rate candidate psi_T, and the similarity-frame scaling
phi(s) = e^(s/(p-1)) s^(-a/(p-1)).

phi(s) overflows float64 near s ~ 700 (p-1), so every composition that
contains it (log_term, rescaled_nonlinearity, rescaled_F) is evaluated in a
cancellation form that forms phi |w| only while it stays below e^300 and works
in log space above.  All functions are pure and accept scalars or arrays where
that is useful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NumericError

LOG2 = float(np.log(2.0))

# |u| beyond this, log(2 + u^2) == 2 log|u| to machine precision and u*u
# would overflow anyway.
_BIG_U = 1e150

# log(phi|w|) above which log(2 + phi^2 w^2) (and its xi^2-weighted form in
# rescaled_F) switches to the expanded form: e^(2 log(phi|w|)) overflows
# float64 beyond ~354.9.
_LC_EXPAND = 300.0


@dataclass(frozen=True)
class Params:
    """Problem parameters: exponent p, log-exponent a, spatial dimension N.

    p must exceed 1 and, for N >= 3, stay strictly Sobolev-subcritical
    (p < (N+2)/(N-2)).  a is unconstrained.
    """

    p: float
    a: float
    N: int = 1

    def __post_init__(self) -> None:
        if not np.isfinite(self.p) or self.p <= 1.0:
            raise DomainError(f"p must be finite and > 1, got {self.p}")
        if not np.isfinite(self.a):
            raise DomainError(f"a must be finite, got {self.a}")
        if int(self.N) != self.N or self.N < 1:
            raise DomainError(f"N must be a positive integer, got {self.N}")
        if self.N >= 3 and self.p >= (self.N + 2) / (self.N - 2):
            raise DomainError(
                f"p={self.p} violates the subcritical bound "
                f"p < (N+2)/(N-2) = {(self.N + 2) / (self.N - 2)} for N={self.N}"
            )


def kappa_a(params: Params) -> float:
    """Limiting amplitude of v_T(t) / psi_T(t) for the blow-up ODE v' = f(v).

    Matched asymptotics of the separable ODE (t -> T is s -> infinity,
    log(2 + v^2) ~ 2s/(p-1)) give

        kappa_a = (2^(-a) / (p-1)^(1-a))^(1/(p-1)),

    which reduces to the classical (p-1)^(-1/(p-1)) at a = 0.  The constant
    is cross-checked against direct ODE integration in the test suite.
    """
    p, a = params.p, params.a
    return float((2.0 ** (-a) / (p - 1.0) ** (1.0 - a)) ** (1.0 / (p - 1.0)))


def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise DomainError(f"{name}: non-finite input")


def _abs_max(x: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """|x| and max|x|.  NaN and inf propagate through the max, so it is also
    the finiteness check."""
    ax = np.abs(x)
    x_max = float(ax.max(initial=0.0))
    if not math.isfinite(x_max):
        raise DomainError(f"{name}: non-finite input")
    return ax, x_max


def _check_s(s: float, name: str) -> None:
    if not (1.0 <= s < math.inf):  # also rejects NaN
        raise DomainError(f"{name} requires s >= 1, got {s}")


def _log_2_plus_sq(x: np.ndarray) -> np.ndarray:
    """log(2 + x^2) for representable x, stable for huge |x|."""
    ax = np.abs(x)
    big = ax > _BIG_U
    safe = np.where(big, 1.0, ax)
    return np.where(big, 2.0 * np.log(np.maximum(ax, 1.0)), np.log(2.0 + safe * safe))


def eval_f(u, params: Params):
    """f(u) = |u|^(p-1) u log^a(2 + u^2).  Odd in u; sign f(u) = sign u.

    One reduction, max|u|, both rejects non-finite input (NaN and inf
    propagate through it) and picks the log: log(2 + u*u) in one pass while
    max|u| <= _BIG_U, the overflow-safe two-branch form above it.  Inputs
    whose image exceeds float64 yield inf; callers near blow-up treat that
    as the overshoot signal.
    """
    arr = np.asarray(u, dtype=float)
    ax, u_max = _abs_max(arr, "eval_f")
    p, a = params.p, params.a
    with np.errstate(over="ignore"):
        out = ax ** (p - 1.0) * arr
        if a != 0.0:
            ell = np.log(2.0 + arr * arr) if u_max <= _BIG_U else _log_2_plus_sq(arr)
            out *= ell**a
    return float(out) if arr.ndim == 0 else out


def eval_F(u: float, params: Params) -> float:
    """F(u) = int_0^u f(v) dv.  Even in u and nonnegative.

    a = 0 has the closed form |u|^(p+1)/(p+1).  Otherwise the integral is
    evaluated by adaptive quadrature on the rescaled form

        F(u) = |u|^(p+1) int_0^1 xi^p log^a(2 + u^2 xi^2) dxi,

    to relative tolerance 1e-10 (NumericError if not certified).
    """
    if not np.isfinite(u):
        raise DomainError("eval_F: non-finite input")
    p, a = params.p, params.a
    x = abs(float(u))
    if x == 0.0:
        return 0.0
    if a == 0.0:
        return x ** (p + 1.0) / (p + 1.0)

    lx = np.log(x)

    def integrand(xi: float) -> float:
        if xi <= 0.0:
            return 0.0
        lz = lx + np.log(xi)
        ell = np.logaddexp(LOG2, 2.0 * lz)
        return xi**p * ell**a

    val, err = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    if not np.isfinite(val) or err > 1e-10 * abs(val):
        raise NumericError(
            f"eval_F: quadrature did not reach relative tolerance 1e-10 at u={u} "
            f"(estimate {val}, error bound {err})"
        )
    return x ** (p + 1.0) * val


def eval_F1(x, params: Params):
    """F1(x) = -(2a/(p+1)^2) |x|^(p+1) log^(a-1)(2 + x^2); identically 0 at a = 0."""
    arr = np.asarray(x, dtype=float)
    _check_finite(arr, "eval_F1")
    p, a = params.p, params.a
    if a == 0.0:
        out = np.zeros_like(arr)
        return float(out) if arr.ndim == 0 else out
    out = -(2.0 * a / (p + 1.0) ** 2) * np.abs(arr) ** (p + 1.0) * _log_2_plus_sq(
        arr
    ) ** (a - 1.0)
    return float(out) if arr.ndim == 0 else out


def eval_F2(x: float, params: Params) -> float:
    """F2(x) = F(x) - x f(x)/(p+1) - F1(x).

    Computed from the defining identity, so F = x f/(p+1) + F1 + F2 holds by
    construction.
    """
    p = params.p
    return eval_F(x, params) - x * eval_f(x, params) / (p + 1.0) - eval_F1(x, params)


def log_phi(s, params: Params):
    """log phi(s) = s/(p-1) - (a/(p-1)) log s, defined for s > 0."""
    arr = np.asarray(s, dtype=float)
    p, a = params.p, params.a
    out = arr / (p - 1.0) - (a / (p - 1.0)) * np.log(arr)
    return float(out) if arr.ndim == 0 else out


def phi(s: float, params: Params) -> float:
    """phi(s) = e^(s/(p-1)) s^(-a/(p-1)) for s >= 1.

    Overflows float64 for s beyond roughly 700 (p-1); use log_phi or the
    rescaled_* functions in that regime.
    """
    _check_s(s, "phi")
    return float(np.exp(log_phi(s, params)))


def psi_T(t: float, T: float, params: Params) -> float:
    """Blow-up rate candidate (T-t)^(-1/(p-1)) (-log(T-t))^(-a/(p-1)).

    Requires 0 < T - t < 1 so that -log(T-t) > 0.  Coincides with
    phi(-log(T-t)).
    """
    dt = T - t
    if not (0.0 < dt < 1.0):
        raise DomainError(f"psi_T requires 0 < T - t < 1, got T - t = {dt}")
    p, a = params.p, params.a
    return float(dt ** (-1.0 / (p - 1.0)) * (-np.log(dt)) ** (-a / (p - 1.0)))


def _log_2_plus_phi_sq(lp: float, w: np.ndarray, aw: np.ndarray, w_max: float):
    """log(2 + (phi w)^2) from log phi = lp, |w| = aw and w_max = max|w|, for
    finite w; never forms phi^2.

    While log phi and log(phi w_max) are both <= _LC_EXPAND it is one
    exp(lp) scalar and one log(2 + u*u) pass over u = phi w.  Otherwise every
    node takes the expanded form max(x2, log 2) + log1p(e^(-|x2 - log 2|)),
    x2 = log(phi^2 w^2), which holds at any magnitude (w = 0 gives log 2).
    """
    if lp <= _LC_EXPAND and (w_max == 0.0 or lp + math.log(w_max) <= _LC_EXPAND):
        u = math.exp(lp) * w
        return np.log(2.0 + u * u)
    with np.errstate(divide="ignore"):  # w = 0: x2 = -inf, and the form gives log 2
        x2 = 2.0 * (lp + np.log(aw))
    return np.maximum(x2, LOG2) + np.log1p(np.exp(-np.abs(x2 - LOG2)))


def log_term(s: float, w, params: Params):
    """Overflow-safe log(2 + phi(s)^2 w^2).

    Formed directly from u = phi(s) w while phi max|w| <= e^300, and in the
    expanded form 2 log(phi |w|) + log1p(2/(phi^2 w^2)) above; both agree
    with a 50-digit reference to relative 5e-15.  Never materialises
    phi(s)^2.  w = 0 gives log 2.
    """
    _check_s(s, "log_term")
    arr = np.asarray(w, dtype=float)
    aw, w_max = _abs_max(arr, "log_term")
    out = _log_2_plus_phi_sq(log_phi(float(s), params), arr, aw, w_max)
    return float(out) if arr.ndim == 0 else out


def rescaled_nonlinearity(s: float, w, params: Params):
    """Source term of the similarity-frame equation, in cancellation form.

    Returns s^(-a) |w|^(p-1) w log_term(s, w)^a, which equals
    e^(-ps/(p-1)) s^(a/(p-1)) f(phi(s) w) wherever the literal composition is
    representable, and stays finite for s up to (and beyond) 700.
    """
    arr = np.asarray(w, dtype=float)
    aw, w_max = _abs_max(arr, "rescaled_nonlinearity")
    p, a = params.p, params.a
    with np.errstate(over="ignore"):
        out = aw ** (p - 1.0) * arr
        if a != 0.0:
            _check_s(s, "rescaled_nonlinearity")
            ell = _log_2_plus_phi_sq(log_phi(float(s), params), arr, aw, w_max)
            out *= float(s) ** (-a)
            out *= ell**a
    return float(out) if arr.ndim == 0 else out


def _eta_rule(n_half: int = 32) -> tuple[np.ndarray, np.ndarray]:
    # Fixed Gauss-Legendre panels in eta with xi = eta^2; the substitution
    # clusters nodes near xi = 0 where log(2 + phi^2 w^2 xi^2) turns over.
    xg, wg = np.polynomial.legendre.leggauss(n_half)
    etas, wts = [], []
    for lo, hi in ((0.0, 0.3), (0.3, 1.0)):
        etas.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * wg)
    return np.concatenate(etas), np.concatenate(wts)


_ETA, _ETA_W = _eta_rule()
_XI = _ETA**2
_XI_SQ = _XI**2
_LOG_XI = 2.0 * np.log(_ETA)


def rescaled_F(s: float, w, params: Params):
    """Weighted antiderivative e^(-(p+1)s/(p-1)) s^(2a/(p-1)) F(phi(s) w).

    Evaluated in the exact cancellation form

        s^(-a) |w|^(p+1) int_0^1 xi^p log_term(s, w xi)^a dxi

    with a fixed 64-point rule (worst relative error 3.4e-15 against a
    50-digit mpmath quadrature over s in [1, 700], |w| in [1e-3, 10]).  The
    log is formed from one exp per node, log(2 + e^(2 log(phi|w|)) xi^2), and
    from max(x2, log 2) + log1p(e^(-|x2 - log 2|)), x2 = log(phi^2 w^2 xi^2),
    on nodes where that exp would overflow.  Reduces to |w|^(p+1)/(p+1) at
    a = 0.  Even in w and nonnegative.
    """
    _check_s(s, "rescaled_F")
    arr = np.asarray(w, dtype=float)
    _check_finite(arr, "rescaled_F")
    p, a = params.p, params.a
    aw = np.abs(arr).ravel()  # 1-d: a scalar runs the same ufunc loops as an array
    with np.errstate(over="ignore"):
        amp = aw ** (p + 1.0)
        if a == 0.0:
            out = amp / (p + 1.0)
        else:
            with np.errstate(divide="ignore"):
                lc = log_phi(s, params) + np.log(aw)  # log(phi|w|)
            big = lc > _LC_EXPAND
            c2 = np.exp(2.0 * np.where(big, 0.0, lc))  # phi^2 w^2
            ell = np.log(2.0 + c2[:, None] * _XI_SQ)
            if big.any():
                x2 = 2.0 * (lc[big, None] + _LOG_XI)
                ell[big] = np.maximum(x2, LOG2) + np.log1p(np.exp(-np.abs(x2 - LOG2)))
            base = _XI**p * 2.0 * _ETA * _ETA_W
            # einsum sums each row in the same order whatever the row count
            # (matmul's BLAS kernels do not), so an array call equals the
            # per-element calls bit for bit.
            out = float(s) ** (-a) * amp * np.einsum("ij,j->i", ell**a, base)
    out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out
