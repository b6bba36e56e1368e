"""The blow-up ODE v' = f(v), v(T) = infinity, and its rate asymptotics.

Trajectories are built backward from the singularity: the blow-up time of a
large anchor value is computed by quadrature, then the ODE is integrated in
the slow variable s = -log(T - t), where d v/d s = e^(-s) f(v) has O(1)
logarithmic derivative and adaptive Runge-Kutta stepping is effortless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from .core_math import LOG2, Params, eval_f, log_phi
from .errors import DomainError, NumericError

_ANCHOR_FLOOR = 1e12
_ANCHOR_CAP = 1e100


@dataclass(frozen=True)
class OdeTrajectory:
    """Samples (t, v) of a blow-up solution, with the blow-up time T used to
    anchor the backward construction.  t and v are strictly increasing.

    s = -log(T - t) is stored alongside t: it is the exact integration
    variable, whereas recovering T - t from the rounded t loses relative
    accuracy once T - t drops below ~1e-13 T.
    """

    t: np.ndarray
    v: np.ndarray
    T: float
    s: np.ndarray

    @property
    def time_gap(self) -> np.ndarray:
        """T - t of each sample, computed from s without cancellation."""
        return np.exp(-self.s)


def time_to_blowup(M: float, params: Params) -> float:
    """Remaining time int_M^infinity dv/f(v) for the ODE started at value M.

    Uses the substitution v = M/sigma and adaptive quadrature with the
    integrand assembled in log form, so it stays finite for any M that
    float64 can represent.  Positive and strictly decreasing in M.
    """
    if not np.isfinite(M) or M < 1.0:
        raise DomainError(f"time_to_blowup requires M >= 1, got {M}")
    p, a = params.p, params.a
    lm = np.log(M)

    def integrand(sig: float) -> float:
        if sig <= 0.0:
            return 0.0
        ls = np.log(sig)
        ell = np.logaddexp(LOG2, 2.0 * (lm - ls))
        return float(np.exp((1.0 - p) * lm + (p - 2.0) * ls - a * np.log(ell)))

    val, err = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)
    if not val > 0.0:
        raise NumericError(f"time_to_blowup: non-positive integral {val!r} at M={M}")
    if err > 1e-9 * val:
        raise NumericError(
            f"time_to_blowup: quadrature error bound {err:.3e} too large at M={M}"
        )
    return float(val)


# 16-point Gauss-Legendre rule on [-1, 1], for times_to_blowup's panels.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def times_to_blowup(M: np.ndarray, params: Params) -> np.ndarray:
    """time_to_blowup at every sample of M, in one pass: time_to_blowup above
    the largest sample, plus int dv/f(v) = int e^((1-p)x) ell^(-a) dx in
    x = log v summed down over panels, each by 16-point Gauss-Legendre.  The
    panels end at the samples and on a unit grid down from the top, so none
    is wider than 1 in x, where the integrand is analytic within pi/2."""
    M = np.asarray(M, dtype=float)
    if not (np.isfinite(M).all() and M.min() >= 1.0):
        raise DomainError(f"times_to_blowup requires every M >= 1, got min {M.min()}")
    xs = np.log(M)
    x_top = xs.max()
    x = np.union1d(xs, x_top - np.arange(0.0, x_top - xs.min(), 1.0))
    mid, half = 0.5 * (x[1:] + x[:-1]), 0.5 * (x[1:] - x[:-1])
    pts = mid[:, None] + half[:, None] * _GL_NODES
    ell = np.logaddexp(LOG2, 2.0 * pts)
    panels = half * (np.exp((1.0 - params.p) * pts - params.a * np.log(ell)) @ _GL_WEIGHTS)
    below_top = np.append(np.cumsum(panels[::-1])[::-1], 0.0)
    tau = time_to_blowup(float(M.max()), params) + below_top
    return tau[np.searchsorted(x, xs)]


def _anchor(params: Params, s_max: float) -> tuple[float, float]:
    # Raise the anchor above the floor until its remaining time is shorter
    # than e^-(s_max + 1), so every requested sample lies before the anchor.
    v_a = _ANCHOR_FLOOR
    tau = time_to_blowup(v_a, params)
    while -np.log(tau) < s_max + 1.0:
        v_a *= 1e4
        if v_a > _ANCHOR_CAP:
            raise NumericError(
                f"integrate_vT: s_max={s_max} requires anchor beyond float64 range"
            )
        tau = time_to_blowup(v_a, params)
    return v_a, tau


def integrate_vT(
    params: Params,
    T: float,
    s_max: float,
    rel_tol: float = 1e-10,
    ds_sample: float = 0.05,
) -> OdeTrajectory:
    """Integrate v' = f(v) backward from the singularity at time T.

    Returns the trajectory sampled uniformly in s = -log(T - t) on
    [1, s_max], with local relative error <= rel_tol (DOP853).
    """
    if not (0.0 < T <= 1.0):
        raise DomainError(f"integrate_vT requires T in (0, 1], got {T}")
    if s_max < 10.0:
        raise DomainError(f"integrate_vT requires s_max >= 10, got {s_max}")
    if rel_tol > 1e-8:
        raise DomainError(f"integrate_vT requires rel_tol <= 1e-8, got {rel_tol}")

    v_a, tau_a = _anchor(params, s_max)
    s_a = -np.log(tau_a)
    n = int(round((s_max - 1.0) / ds_sample)) + 1
    s_samples = np.linspace(s_max, 1.0, n)  # descending, toward earlier times

    def rhs(s: float, V: np.ndarray) -> np.ndarray:
        return np.exp(-s) * eval_f(V, params)

    sol = solve_ivp(
        rhs,
        (s_a, 1.0),
        [v_a],
        t_eval=s_samples,
        method="DOP853",
        rtol=rel_tol,
        atol=0.0,
    )
    if not sol.success:
        raise NumericError(f"integrate_vT: integrator failed ({sol.message})")
    s = sol.t[::-1]
    v = sol.y[0][::-1]
    if np.any(v <= 0.0) or np.any(np.diff(v) <= 0.0):
        raise NumericError("integrate_vT: trajectory lost monotonicity")
    t = T - np.exp(-s)
    return OdeTrajectory(t=t, v=v, T=float(T), s=s)


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
