"""The blow-up ODE v' = f(v), v(T) = infinity, and its rate asymptotics.

One clock serves everything here: the remaining time

    tau(M) = int_M^infinity dv/f(v) = int_(log M)^infinity e^((1-p)x) ell(x)^(-a) dx,

ell(x) = log(2 + e^(2x)), summed over 16-point Gauss-Legendre panels in
x = log v.  The blow-up trajectory is tau inverted: at each s = -log(T - t)
the sample v solves log tau(v) = -s, by a bisection-safeguarded Newton
method in x = log v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import LOG2, Params, log_phi
from .errors import DomainError, NumericError

# 16-point Gauss-Legendre rule on [-1, 1], for the panels of times_to_blowup.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# The trajectory's s spacing; the log of the normal float64 range, to which
# integrate_vT clips x = log v; and its Newton iteration, which stops once a
# Newton step moves x by at most _NEWTON_XTOL, after which the quadratically
# small remaining error is below rounding.
_DS_SAMPLE = 0.05
_LOG_TINY, _LOG_HUGE = np.log(np.finfo(float).tiny), np.log(np.finfo(float).max)
_NEWTON_XTOL = 1e-9
_NEWTON_MAX_ITER = 50
# times_to_blowup's tail has at most 45 + 2|a| panels and a few dozen more
# at any p (one more for each unit the top sample's log lies below 2).  A tail
# of more than _MAX_PANELS panels (|a| above about 3.2e4; one pass at the bound
# peaks near 40 MB) is refused before any array is formed, bounding its memory.
_MAX_PANELS = 2**16


@dataclass(frozen=True)
class OdeTrajectory:
    """Samples (t, v) of a blow-up solution with the blow-up time T given to
    integrate_vT.  t and v are strictly increasing.

    s = -log(T - t) is stored alongside t: it is the exact variable each
    sample solves for, whereas recovering T - t from the rounded t loses
    relative accuracy once T - t drops below ~1e-13 T.
    """

    t: np.ndarray
    v: np.ndarray
    s: np.ndarray

    @property
    def time_gap(self) -> np.ndarray:
        """T - t of each sample, computed from s without cancellation."""
        return np.exp(-self.s)


def _dt_dx(x: np.ndarray, params: Params) -> np.ndarray:
    """dt/dx = v/f(v) = e^((1-p)x) ell(x)^(-a) along the ODE, at x = log v."""
    ell = np.logaddexp(LOG2, 2.0 * x)
    return np.exp((1.0 - params.p) * x - params.a * np.log(ell))


def times_to_blowup(M: np.ndarray, params: Params) -> np.ndarray:
    """tau(M) = int_M^infinity dv/f(v) at every sample of M, in one pass.

    In x = log v the integrand is e^((1-p)x) ell^(-a).  The panels end at
    the samples and on a unit grid from the largest sample x_top down to
    the smallest; past x_top each panel starting at x is
    min(max(1, x/2), max(1, 1/(p-1))) wide, up to the first node at least
    (45 + 2|a|)/(p-1) past x_top, and each takes 16-point Gauss-Legendre.
    The integrand's only singularities sit at Re x = 0 and log(2)/2 with
    Im x = +-pi/2, so a unit panel below x = 2, and one x/2 wide above it,
    is at most about half as wide as its distance from them, which keeps
    the rule at rounding; the cap 1/(p-1) lets e^((1-p)x) fall by at most
    a factor e across one panel.  At p >= 2 every panel is 1 wide.  The
    tail left out is at most the share Q(|a| + 1, 45 + 2|a|) of tau (Q the
    regularised upper incomplete gamma), below 3e-17 for every a.  Every
    finite M > 0 is accepted; a tau outside the normal float64 range, or a
    tail of more than _MAX_PANELS panels, is a NumericError.
    """
    M = np.asarray(M, dtype=float)
    if not (np.isfinite(M).all() and M.min() > 0.0):
        raise DomainError(f"times_to_blowup requires finite M > 0, got min {M.min()}")
    p, a = params.p, params.a
    xs = np.log(M)
    x_top = float(xs.max())
    span, widest = (45.0 + 2.0 * abs(a)) / (p - 1.0), max(1.0, 1.0 / (p - 1.0))
    if not span / widest <= _MAX_PANELS:  # no panel is wider than widest
        raise NumericError(
            f"times_to_blowup: (p, a) = ({p!r}, {a!r}) needs at least "
            f"{np.ceil(span / widest):.0f} tail panels, more than {_MAX_PANELS}"
        )
    # The tail nodes are x_top + offset: while the panels are 1 wide the
    # offsets are whole numbers, so the nodes are rounded once.
    offset, offsets = 0.0, []
    while offset < span:
        offset += min(max(1.0, 0.5 * (x_top + offset)), widest)
        offsets.append(offset)
    x_low = np.union1d(xs, x_top + np.arange(1.0 - np.ceil(x_top - xs.min()), 1.0))
    x = np.concatenate([x_low, x_top + np.array(offsets)])
    mid, half = 0.5 * (x[1:] + x[:-1]), 0.5 * (x[1:] - x[:-1])
    with np.errstate(over="ignore"):  # a tau beyond float64 is reported next
        dt_dx = _dt_dx(mid[:, None] + half[:, None] * _GL_NODES, params)
        tau = np.cumsum((half * (dt_dx @ _GL_WEIGHTS))[::-1])[::-1]
    tau = tau[np.searchsorted(x_low, xs)]
    if not (tau.min() >= np.finfo(float).tiny and np.isfinite(tau).all()):
        raise NumericError(
            f"times_to_blowup: tau in [{tau.min():.3e}, {tau.max():.3e}] leaves the "
            f"normal float64 range for M in [{M.min():.3e}, {M.max():.3e}]"
        )
    return tau


def time_to_blowup(M: float, params: Params) -> float:
    """tau(M), the remaining time of the ODE started at value M: the
    times_to_blowup rule on one sample.  Positive and strictly decreasing
    in M."""
    return float(times_to_blowup(np.array([M], dtype=float), params)[0])


def integrate_vT(params: Params, T: float, s_max: float) -> OdeTrajectory:
    """The blow-up solution with singularity at time T, sampled every 0.05
    in s = -log(T - t) on [1, s_max].  s_max may not exceed 708, where
    T - t = e^(-s) leaves the normal float64 range.

    Each sample inverts the ODE clock: v solves log tau(v) = -s, by Newton's
    method in x = log v from the asymptote kappa_a phi(s), with
    d log tau/dx = -v/(f(v) tau), safeguarded by bisection.  Raises
    NumericError when it does not converge or v leaves float64.
    """
    if not (0.0 < T <= 1.0):
        raise DomainError(f"integrate_vT requires T in (0, 1], got {T}")
    if not (10.0 <= s_max <= -_LOG_TINY):  # also rejects NaN
        raise DomainError(f"integrate_vT requires s_max in [10, 708], got {s_max}")
    n = int(round((s_max - 1.0) / _DS_SAMPLE)) + 1
    s = np.linspace(s_max, 1.0, n)[::-1]
    # The start log(kappa_a phi(s)) is formed in logs (kappa_a itself leaves
    # float64 for p near 1), and every iterate is clipped to the log of the
    # float64 range.  log tau + s falls strictly in x, so the iterates on
    # either side of the root bracket it.  A Newton step across the middle
    # of the bracket becomes a bisection; a step within _NEWTON_XTOL is
    # always taken.
    p, a = params.p, params.a
    x = (-a * LOG2 - (1.0 - a) * np.log(p - 1.0)) / (p - 1.0) + log_phi(s, params)
    x = np.clip(x, _LOG_TINY, _LOG_HUGE)
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    for _ in range(_NEWTON_MAX_ITER):
        tau = times_to_blowup(np.exp(x), params)
        g = np.log(tau) + s
        beyond = ((g > 0.0) & (x == _LOG_HUGE)) | ((g < 0.0) & (x == _LOG_TINY))
        if beyond.any():
            raise NumericError(f"integrate_vT: v leaves float64 at s={s[beyond][0]:.6g}")
        lo, hi = np.where(g >= 0.0, x, lo), np.where(g < 0.0, x, hi)
        step = g * tau / _dt_dx(x, params)
        far = (np.abs(step) > 0.5 * (hi - lo)) & (np.abs(step) > _NEWTON_XTOL)
        x = np.clip(np.where(far, 0.5 * (lo + hi), x + step), _LOG_TINY, _LOG_HUGE)
        if np.max(np.abs(step)) <= _NEWTON_XTOL:
            break
    else:
        raise NumericError(
            f"integrate_vT: Newton did not converge in {_NEWTON_MAX_ITER} "
            f"iterations (last step {np.max(np.abs(step)):.3e} in log v)"
        )
    v = np.exp(x)
    if np.any(np.diff(v) <= 0.0):
        raise NumericError("integrate_vT: trajectory lost monotonicity")
    return OdeTrajectory(t=T - np.exp(-s), v=v, s=s)


def asymptotic_ratio(trajectory: OdeTrajectory, params: Params) -> np.ndarray:
    """Ratio v(t(s)) / psi_T(t(s)) for every sample, as an (n, 2) array of
    (s, ratio) rows.  psi_T(t(s)) = phi(s), evaluated from the stored s."""
    s = trajectory.s
    return np.column_stack([s, trajectory.v / np.exp(log_phi(s, params))])


def trajectory_table(
    trajectory: OdeTrajectory, params: Params
) -> tuple[list[str], np.ndarray]:
    """The trajectory ledger: header and one (s, t, v, psi_T, ratio) row per
    sample, with psi_T = v / ratio."""
    s, ratio = asymptotic_ratio(trajectory, params).T
    v = trajectory.v
    return ["s", "t", "v", "psi_T", "ratio"], np.column_stack(
        [s, trajectory.t, v, v / ratio, ratio]
    )
