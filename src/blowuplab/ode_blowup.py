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
# times_to_blowup forms its panels _CHUNK at a time (about 10 MB), so that
# its memory does not grow with the tail, (45 + 2|a|)/(p-1) unit panels.
# _MAX_PANELS bounds its time instead: 4.7e7 panels (p - 1 = 1e-6, a = 1)
# take about 30 s on one Xeon core, and p - 1 = 1e-7 would take 4.7e8.
_CHUNK = 2**13
_MAX_PANELS = 2**26


@dataclass(frozen=True)
class OdeTrajectory:
    """Samples (t, v) of a blow-up solution with blow-up time T.  t and v
    are strictly increasing.

    s = -log(T - t) is stored alongside t: it is the exact variable each
    sample solves for, whereas recovering T - t from the rounded t loses
    relative accuracy once T - t drops below ~1e-13 T.
    """

    t: np.ndarray
    v: np.ndarray
    T: float
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

    In x = log v the integrand is e^((1-p)x) ell^(-a), analytic within
    pi/2 of the real axis.  The panels end at the samples and on a unit
    grid from the largest sample, down to the smallest and on up for
    (45 + 2|a|)/(p-1) units; none is wider than 1, and each takes 16-point
    Gauss-Legendre.  The tail left out is at most the share
    Q(|a| + 1, 45 + 2|a|) of tau (Q the regularised upper incomplete gamma),
    below 3e-17 for every a.  The panels are summed from the top down, in
    chunks of _CHUNK.  Every finite M > 0 is accepted; a tau outside the
    normal float64 range, or more than _MAX_PANELS unit panels (p near 1),
    is a NumericError.
    """
    M = np.asarray(M, dtype=float)
    if not (np.isfinite(M).all() and M.min() > 0.0):
        raise DomainError(f"times_to_blowup requires finite M > 0, got min {M.min()}")
    p, a = params.p, params.a
    xs = np.log(M)
    x_top = xs.max()
    n_tail = np.ceil((45.0 + 2.0 * abs(a)) / (p - 1.0))
    n_below = np.ceil(x_top - xs.min())
    if not n_below + n_tail <= _MAX_PANELS:
        raise NumericError(
            f"times_to_blowup: (p, a) = ({p!r}, {a!r}) needs "
            f"{n_below + n_tail:.0f} unit panels, more than {_MAX_PANELS}"
        )
    # The nodes are x_low, the samples and the unit grid up to x_top, then
    # x_top + j for j = 1 .. n_tail.  Chunk c holds panels [c, c + _CHUNK)
    # and adds the total of the chunks above into its top panel before its
    # cumsum, so each tau is the same sequence of sums as in one pass.
    x_low = np.union1d(xs, x_top + np.arange(1.0 - n_below, 1.0))
    k = x_low.size
    n = k - 1 + int(n_tail)
    tau, total = np.empty(k), 0.0
    with np.errstate(over="ignore"):  # a tau beyond float64 is reported next
        for c in range((n - 1) // _CHUNK * _CHUNK, -1, -_CHUNK):
            end = min(c + _CHUNK, n)
            tail = x_top + np.arange(max(c, k) - k + 1.0, end - k + 2.0)
            x = np.concatenate([x_low[c : end + 1], tail])
            mid, half = 0.5 * (x[1:] + x[:-1]), 0.5 * (x[1:] - x[:-1])
            dt_dx = _dt_dx(mid[:, None] + half[:, None] * _GL_NODES, params)
            panels = half * (dt_dx @ _GL_WEIGHTS)
            panels[-1] += total
            sums = np.cumsum(panels[::-1])[::-1]
            total = sums[0]
            if c < k:  # the chunk holds sample nodes
                tau[c : min(end, k)] = sums[: min(end, k) - c]
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
    return OdeTrajectory(t=T - np.exp(-s), v=v, T=float(T), s=s)


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
