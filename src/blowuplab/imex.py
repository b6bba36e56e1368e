"""The IMEX trapezoidal step shared by the physical and similarity frames.

Space: second-order centered Laplacian on a uniform grid, homogeneous Neumann
at the outer boundary; radial geometry uses u'' + (N-1) u'/r with the origin
regularised to N u''(0).  Time, for du/dt = Lap u + g(t, u): Crank-Nicolson on
the diffusion, a backward-Euler predictor and Heun corrector on g,

    (I - dt Lap) u*      = u + dt g(t, u)
    (I - dt/2 Lap) u_new = u + dt/2 Lap u + dt/2 (g(t, u) + g(t + dt, u*)),

second order overall.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .errors import BlowupOvershootError, NumericError


def laplacian_bands(nodes: np.ndarray, geometry: str, dimension: int) -> np.ndarray:
    """Banded (3, n) representation of the Neumann Laplacian on the grid."""
    n = nodes.size
    h = nodes[1] - nodes[0]
    upper = np.zeros(n)
    diag = np.zeros(n)
    lower = np.zeros(n)
    inv_h2 = 1.0 / (h * h)
    diag[:] = -2.0 * inv_h2
    upper[1:] = inv_h2
    lower[:-1] = inv_h2
    if geometry == "line":
        upper[1] = 2.0 * inv_h2  # mirrored ghost at both ends
        lower[-2] = 2.0 * inv_h2
    else:
        N = dimension
        r = nodes[1:-1]
        drift = (N - 1) / (2.0 * h * r)
        upper[2:] += drift
        lower[:-2] -= drift
        # r = 0: Lap u = N u''(0) with even extension u(-h) = u(h)
        diag[0] = -2.0 * N * inv_h2
        upper[1] = 2.0 * N * inv_h2
        # outer Neumann: mirrored ghost, first-derivative term vanishes
        lower[-2] = 2.0 * inv_h2
    return np.vstack([upper, diag, lower])


def _solve(bands: np.ndarray, alpha: float, rhs: np.ndarray, t: float, stage: str):
    """Solve (I - alpha Lap) x = rhs; a non-finite value is an overshoot."""
    if not np.all(np.isfinite(rhs)):
        raise BlowupOvershootError(f"imex_step: non-finite {stage} input at t={t}")
    m = -alpha * bands
    m[1] += 1.0
    try:
        out = solve_banded((1, 1), m, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - CN matrix is SPD-like
        raise NumericError(f"imex_step: linear solve failed ({exc})") from exc
    if not np.all(np.isfinite(out)):
        raise BlowupOvershootError(f"imex_step: non-finite {stage} at t={t}")
    return out


def imex_step(
    bands: np.ndarray,
    u: np.ndarray,
    t: float,
    dt: float,
    explicit: Callable[[float, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Advance u by dt with the Laplacian bands of laplacian_bands and the
    explicit terms g(t, u) = explicit(t, u).  Raises BlowupOvershootError on
    any non-finite value (the step went past the singularity)."""
    g0 = explicit(t, u)
    u_star = _solve(bands, dt, u + dt * g0, t, "predictor")
    lap_u = bands[1] * u
    lap_u[:-1] += bands[0][1:] * u[1:]
    lap_u[1:] += bands[2][:-1] * u[:-1]
    rhs = u + 0.5 * dt * lap_u + 0.5 * dt * (g0 + explicit(t + dt, u_star))
    return _solve(bands, 0.5 * dt, rhs, t, "corrector")
