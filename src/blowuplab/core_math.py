"""Nonlinearity, its antiderivative splits, and the explicit scaling functions.

The model nonlinearity is

    f(u) = |u|^(p-1) u log^a(2 + u^2),   p > 1, a real,

together with F(u) = int_0^u f, its split F = u f/(p+1) + F1 + F2, the
blow-up rate candidate psi_T, and the similarity-frame scaling
phi(s) = e^(s/(p-1)) s^(-a/(p-1)).

phi(s) overflows float64 near s ~ 700 (p-1), so every composition that
contains it (rescaled_nonlinearity, rescaled_F) is evaluated in a
cancellation form.  Every log(2 + u^2), u = phi w (phi = 1 in the physical
frame), is one rule, _ell, with one switch at log|u| = LOG_U_SWITCH.  All
functions are pure and accept scalars or arrays where that is useful.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError

LOG2 = float(np.log(2.0))

# log|u| above which log(2 + u^2) is formed as logaddexp(2 log|u|, log 2):
# u*u overflows float64 from |u| = 1.34e154, and from |u| = 1e150 on the 2
# is far below half an ulp of u*u.
LOG_U_SWITCH = math.log(1e150)


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
    is cross-checked against the ODE trajectory in the test suite.  Raises
    NumericError where it leaves the normal float64 range (p near 1 with
    |a| large).
    """
    p, a = params.p, params.a
    try:
        kappa = float((2.0 ** (-a) / (p - 1.0) ** (1.0 - a)) ** (1.0 / (p - 1.0)))
    except (OverflowError, ZeroDivisionError):
        kappa = math.inf
    if not (sys.float_info.min <= kappa < math.inf):
        raise NumericError(f"kappa_a leaves the normal float64 range at p={p}, a={a}")
    return kappa


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


def per_row(fn, s):
    """fn(s), a tuple of floats, at a scalar s.  At a 1-d array s, one s per
    row of a stack of fields, the tuple of (rows,) arrays of fn at each row's
    s, formed row by row as at a scalar s: so a stacked row gets the bits a
    lone field gets (numpy's array pow can round differently from the
    scalar one: 2.16**-1.5 does)."""
    if np.ndim(s) == 0:
        return fn(s)
    return tuple(np.array(col) for col in zip(*(fn(float(si)) for si in s)))


def eval_f(u, params: Params, abs_max: tuple[np.ndarray, float] | None = None):
    """f(u) = |u|^(p-1) u log^a(2 + u^2).  Odd in u; sign f(u) = sign u.

    The log is _ell at log phi = 0: log(2 + u*u) at each node with
    |u| <= 1e150 (log|u| <= LOG_U_SWITCH) and logaddexp(2 log|u|, log 2)
    above.  One reduction, max|u|, both rejects non-finite input (NaN and
    inf propagate through it) and, at or below 1e150, makes the log
    log(2 + u*u) in one buffer.  Inputs whose image exceeds float64 yield
    inf; callers near blow-up treat that as the overshoot signal.

    abs_max, the pair (|u|, max|u|) of an array u whose max its caller has
    already checked finite, stands in for that reduction.  eval_f then sets
    no floating-point error state of its own: imex_step calls it twice per
    step inside its own.  Without the pair it silences overflow itself.
    """
    if abs_max is not None:
        return _f(u, *abs_max, params)
    arr = np.asarray(u, dtype=float)
    ax, u_max = _abs_max(arr, "eval_f")
    with np.errstate(over="ignore"):
        out = _f(arr, ax, u_max, params)
    return float(out) if arr.ndim == 0 else out


def _f(u: np.ndarray, au: np.ndarray, u_max: float, params: Params):
    """f(u) from u, |u| = au and u_max = max|u|, under the caller's error state."""
    p, a = params.p, params.a
    out = au ** (p - 1.0)
    out *= u
    if a != 0.0:
        ell = _ell(0.0, u, au, u_max)
        if a != 1.0:  # ell**1.0 is only a copy
            ell **= a
        out *= ell
    return out


def eval_F(u: float, params: Params) -> float:
    """F(u) = int_0^u f(v) dv = |u|^(p+1) G(log|u|): rescaled_F's body at
    log phi = 0 with scale 1.  Even in u and nonnegative.

    a = 0 has the closed form |u|^(p+1)/(p+1).  An F beyond float64 is inf,
    as eval_f gives for an image beyond float64.
    """
    return _F_body(0.0, 1.0, u, params, "eval_F")


def eval_F1(x, params: Params):
    """F1(x) = -(2a/(p+1)^2) |x|^(p+1) log^(a-1)(2 + x^2); identically 0 at a = 0."""
    arr = np.asarray(x, dtype=float)
    ax, x_max = _abs_max(arr, "eval_F1")
    p, a = params.p, params.a
    if a == 0.0:
        out = np.zeros_like(arr)
        return float(out) if arr.ndim == 0 else out
    ell = _ell(0.0, arr, ax, x_max)
    out = -(2.0 * a / (p + 1.0) ** 2) * ax ** (p + 1.0) * ell ** (a - 1.0)
    return float(out) if arr.ndim == 0 else out


def eval_F2(x: float, params: Params) -> float:
    """F2(x) = F(x) - x f(x)/(p+1) - F1(x).

    Computed from the defining identity, so F = x f/(p+1) + F1 + F2 holds by
    construction.
    """
    p = params.p
    return eval_F(x, params) - x * eval_f(x, params) / (p + 1.0) - eval_F1(x, params)


def log_phi(s, params: Params):
    """log phi(s) = s/(p-1) - (a/(p-1)) log s, defined for s > 0.

    A float s is one float expression around numpy's log of s, the bits of
    the 0-d array path without its array operations (math.log can round
    differently from numpy's log)."""
    p, a = params.p, params.a
    if isinstance(s, float):
        return float(s / (p - 1.0) - (a / (p - 1.0)) * np.log(s))
    arr = np.asarray(s, dtype=float)
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


def _ell(lp: float, w: np.ndarray, aw: np.ndarray, w_max: float):
    """log(2 + u^2), u = phi w, from log phi = lp, w, |w| = aw and
    w_max = max|w|, for finite w; never forms phi^2.

    One rule, node by node: log(2 + u*u) where log|u| <= LOG_U_SWITCH, and
    logaddexp(2 log|u|, log 2) above, where u*u would overflow.  While
    phi max(|w|, 1) is below the switch, every node is, and it is one exp(lp)
    scalar and one new buffer: u*u formed in it, then 2 added and the log
    taken in place.  phi itself is formed only while it is below the switch
    too; above, u on the nodes below is e^(log|u|).
    """
    if lp + math.log(max(w_max, 1.0)) <= LOG_U_SWITCH:
        if w.ndim == 0:  # np.log(..., out=) refuses the numpy scalar u*u is
            u = math.exp(lp) * w if lp else w
            return np.log(2.0 + u * u)
        if lp:
            u = math.exp(lp) * w
            u *= u
        else:
            u = w * w
        u += 2.0
        return np.log(u, out=u)
    # w = 0 gives log|u| = -inf, below the switch; u*u and e^(log|u|) may
    # overflow on the nodes above, whose values are the other form's
    with np.errstate(over="ignore", divide="ignore"):
        lu = lp + np.log(aw)
        u = math.exp(lp) * w if lp <= LOG_U_SWITCH else np.exp(lu)
        return np.where(
            lu > LOG_U_SWITCH, np.logaddexp(2.0 * lu, LOG2), np.log(2.0 + u * u)
        )


def rescaled_nonlinearity(
    s: float, w, params: Params, abs_max: tuple[np.ndarray, float] | None = None
):
    """Source term of the similarity-frame equation, in cancellation form.

    Returns s^(-a) |w|^(p-1) w log^a(2 + phi(s)^2 w^2), the log by _ell at
    log phi(s), which equals e^(-ps/(p-1)) s^(a/(p-1)) f(phi(s) w) wherever
    the literal composition is representable, and stays finite for s up to
    (and beyond) 700.

    It sets no floating-point error state of its own: the similarity step
    calls it twice per step inside imex_step's.  Only a |w| near the float64
    limit (|w|^p beyond 1.8e308) overflows; the result is then inf, with
    numpy's overflow warning unless the caller has silenced it.  abs_max,
    the pair (|w|, max|w|) of an array w whose max imex_step has checked
    finite, stands in for the function's own reduction, as in eval_f.
    """
    if abs_max is None:
        w = np.asarray(w, dtype=float)
        abs_max = _abs_max(w, "rescaled_nonlinearity")
    aw, w_max = abs_max
    p, a = params.p, params.a
    out = aw ** (p - 1.0)
    out *= w
    if a != 0.0:
        _check_s(s, "rescaled_nonlinearity")
        s = float(s)
        ell = _ell(log_phi(s, params), w, aw, w_max)
        out *= s ** (-a)
        if a != 1.0:  # ell**1.0 is only a copy
            ell **= a
        out *= ell
    return float(out) if w.ndim == 0 else out


def _eta_rule() -> tuple[np.ndarray, np.ndarray]:
    # 12-point Gauss-Legendre panels in eta with xi = eta^2, graded toward
    # xi = 0 by halving (edges 0, 2^-7, ..., 1/2, 1): the knee of
    # log(2 + phi^2 w^2 xi^2) at eta ~ (phi|w|)^(-1/2) falls in a panel about
    # as wide as its distance from 0, and the innermost panel carries at most
    # ~2^(-7(2p+2)) of the integral.  Against a 40-digit quadrature of G on
    # x in [-20, 44] (a 1/4 grid and 80 random points, five (p, a)) its worst
    # relative error is 6.7e-16; the two 32-point panels on [0, 0.3, 1] it
    # replaces reached 7.1e-15 at x = 9.2, (p, a) = (1.5, 0.5).
    xg, wg = np.polynomial.legendre.leggauss(12)
    edges = [0.0] + [2.0**-k for k in range(7, -1, -1)]
    etas, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        etas.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * wg)
    return np.concatenate(etas), np.concatenate(wts)


_ETA, _ETA_W = _eta_rule()
_XI = _ETA**2
_XI_SQ = _XI**2


def _G_rule(lc: np.ndarray, p: float, a: float) -> np.ndarray:
    """G(lc) = int_0^1 xi^p log^a(2 + e^(2 lc) xi^2) dxi by the eta rule, for
    a 1-d array lc.  The log is log(2 + u^2) with u = e^lc xi: from one exp
    per row, log(2 + e^(2 lc) xi^2), while lc <= LOG_U_SWITCH (then every
    u is, as xi < 1), and from _ell at log phi = lc on the rows above."""
    big = lc > LOG_U_SWITCH
    c2 = np.exp(2.0 * np.where(big, 0.0, lc))
    ell = np.log(2.0 + c2[:, None] * _XI_SQ)
    for i in np.flatnonzero(big):
        ell[i] = _ell(float(lc[i]), _XI, _XI, 1.0)
    base = _XI**p * 2.0 * _ETA * _ETA_W
    # einsum sums each row in the same order whatever the row count (matmul's
    # BLAS kernels do not), so an array call equals the per-element calls bit
    # for bit.
    return np.einsum("ij,j->i", ell**a, base)


# rescaled_F tabulates G on x = log(phi|w|) in [_X_LO, _X_HI] as one
# polynomial of degree _DEGREE per panel of width _PANEL.  G is analytic in x
# and its nearest singularities lie at Im x = pi/2 (where e^(2x) < 0), so
# the Chebyshev coefficients on a panel of half-width 1/8 fall by ~25 per
# degree.  Below _X_LO, e^(2x) xi^2 < e^(-40) is under half an ulp of 2, so
# the rule's G is constant there and the table's value at _X_LO stands for
# it; above _X_HI the rule itself runs.
_X_LO, _X_HI = -20.0, 44.0
_PANEL = 0.25
_DEGREE = 11
_N_PANELS = round((_X_HI - _X_LO) / _PANEL)


@lru_cache(maxsize=8)
def _G_table(p: float, a: float) -> np.ndarray:
    """The table of G for one (p, a), built on first use.

    Column k of table is panel k: its polynomial in t = 2 (x - m_k)/_PANEL,
    t in [-1, 1], highest degree first, then the panel midpoint m_k.  The
    polynomial interpolates the rule at the panel's _DEGREE + 1 Chebyshev
    points.  The Chebyshev coefficients of all panels come from one product
    with the cosine transform, and go to monomials in one product with the
    matrix of the monomial coefficients of T_0 .. T_DEGREE.  The table is
    read-only: every later call shares it.
    """
    cheb = np.polynomial.chebyshev
    n = _DEGREE + 1
    t = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    mids = _X_LO + _PANEL * (np.arange(_N_PANELS) + 0.5)
    # one rule call per Chebyshev point keeps the temporaries at 256 x 96
    values = np.column_stack([_G_rule(mids + 0.5 * _PANEL * tj, p, a) for tj in t])
    transform = (2.0 / n) * cheb.chebvander(t, _DEGREE).T
    transform[0] *= 0.5
    to_monomial = np.zeros((n, n))  # column m: the monomial coefficients of T_m
    to_monomial[0, 0] = to_monomial[1, 1] = 1.0
    for m in range(2, n):
        to_monomial[1:, m] = 2.0 * to_monomial[:-1, m - 1]
        to_monomial[:, m] -= to_monomial[:, m - 2]
    # each panel's mean goes straight to c_0, so the cosine sums round
    # relative to how much G varies over the panel, not to G itself
    mean = values.mean(axis=1, keepdims=True)
    chebyshev = (values - mean) @ transform.T
    chebyshev[:, :1] += mean
    monomial = chebyshev @ to_monomial.T
    table = np.vstack([monomial[:, ::-1].T, mids])
    table.setflags(write=False)
    return table


def _G(lc: np.ndarray, p: float, a: float) -> np.ndarray:
    """G at every lc of a 1-d array: the table on [_X_LO, _X_HI], its value
    at _X_LO below (lc = -inf included) and the rule above.  Each step
    that can runs in place, and x and the float index are dropped once
    used, so at most four lc-sized arrays of its own are alive at once."""
    table = _G_table(p, a)
    x = np.maximum(lc, _X_LO)
    np.minimum(x, _X_HI, out=x)
    index = x - _X_LO
    index *= 1.0 / _PANEL
    k = index.astype(np.intp)
    del index
    np.minimum(k, _N_PANELS - 1, out=k)
    # one coefficient row at a time, each gathered for every node where it is
    # needed: table.take(k, axis=1) would hold all _DEGREE + 2 of them at once.
    # The midpoints are multiples of 1/8, so x - m_k is exact or nearly so,
    # where x - _X_LO would round away the low bits of a small x
    t = table[-1].take(k)
    np.subtract(x, t, out=t)
    del x
    t *= 2.0 / _PANEL
    g = table[0].take(k)
    g *= t
    for row in table[1:-2]:
        g += row.take(k)
        g *= t
    g += table[-2].take(k)
    if lc.max(initial=-math.inf) > _X_HI:
        high = lc > _X_HI
        g[high] = _G_rule(lc[high], p, a)
    return g


def rescaled_F(s, w, params: Params):
    """Weighted antiderivative e^(-(p+1)s/(p-1)) s^(2a/(p-1)) F(phi(s) w).

    Evaluated in the exact cancellation form

        s^(-a) |w|^(p+1) G(log(phi(s)|w|)),
        G(x) = int_0^1 xi^p log^a(2 + e^(2x) xi^2) dxi,

    and phi is never formed.  G comes from a table of piecewise polynomials
    on x in [-20, 44], fitted to a fixed 96-point rule and built once per
    (p, a).  Below -20, where G is constant to rounding, it is the table's
    value at -20; above 44 the rule runs on those nodes.  Worst relative
    error against a 50-digit mpmath quadrature, |w| in [1e-3, 10], five
    (p, a): 1.1e-15 over 1,500 random points with s in [1, 40] (1,392 of them
    in the table; the rule alone gives 1.1e-15 on the same points) and
    8.9e-16 over 800 with s in [1, 700].  Reduces to |w|^(p+1)/(p+1) at
    a = 0.  Even in w and nonnegative.

    s may also be a 1-d array, one s per row of a 2-d w: a stack of fields,
    each row evaluated as it would be alone (per_row forms its log phi(s)
    and s^(-a)).
    """

    def scalars(s):
        _check_s(s, "rescaled_F")
        s = float(s)
        return (log_phi(s, params) if params.a != 0.0 else 0.0), s ** (-params.a)

    lp, scale = per_row(scalars, s)
    if np.ndim(s):
        lp, scale = lp[:, None], scale[:, None]
    return _F_body(lp, scale, w, params, "rescaled_F")


def _F_body(lp, scale, w, params: Params, name: str):
    """scale |w|^(p+1) G(lp + log|w|), or |w|^(p+1)/(p+1) at a = 0: the body
    of rescaled_F (lp = log phi(s), scale = s^(-a), scalars or one row each)
    and of eval_F (0, 1)."""
    arr = np.asarray(w, dtype=float)
    aw, _ = _abs_max(arr, name)
    p, a = params.p, params.a
    aw = np.atleast_1d(aw)  # a scalar runs the same ufunc loops as an array
    # |w|^(p+1) may overflow to inf, and w = 0 gives lc = log 0 = -inf.  The
    # result is formed in aw's buffer, after G is done with log|w|
    with np.errstate(over="ignore", divide="ignore"):
        if a == 0.0:
            aw **= p + 1.0
            aw /= p + 1.0
        else:
            lc = np.log(aw)
            lc += lp
            g = _G(lc.ravel(), p, a)
            aw **= p + 1.0
            aw *= scale
            aw *= g.reshape(aw.shape)
    out = aw.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out
