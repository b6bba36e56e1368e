"""The IMEX trapezoidal step shared by the physical and similarity frames.

Space: second-order centered Laplacian on a uniform grid, homogeneous Neumann
at the outer boundary; radial geometry uses u'' + (N-1) u'/r with the origin
regularised to N u''(0).  Time, for du/dt = Lap u + g(t, u): Crank-Nicolson on
the diffusion, a backward-Euler predictor and Heun corrector on g,

    (I - dt Lap) u*      = u + dt g(t, u)
    (I - dt/2 Lap) u_new = u + dt/2 Lap u + dt/2 (g(t, u) + g(t + dt, u*)),

second order overall.  Both tridiagonal matrices are LU-factored once per
(grid, dt) and kept in a small cache: a run steps one grid, and away from
blow-up every step has the same dt.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import BlowupOvershootError, NumericError

# Operators kept, one per (grid, dt).  A run steps one grid with one dt until
# a physical run nears blow-up and sets a new dt on every step; those entries
# cycle out instead of accumulating.
_OPERATOR_CACHE_SIZE = 4


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


def _factor(bands: np.ndarray, alpha: float) -> tuple:
    """dgttrf factors (dl, d, du, du2, ipiv) of I - alpha Lap."""
    m = -alpha * bands
    m[1] += 1.0
    *factors, info = dgttrf(m[2, :-1], m[1], m[0, 1:])
    if info != 0:  # pragma: no cover - CN matrix is diagonally dominant
        raise NumericError(
            f"imex_step: I - {alpha} Lap is singular (dgttrf info {info})"
        )
    for arr in factors:
        arr.setflags(write=False)  # shared by every step that hits the cache
    return tuple(factors)


@lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def _operator(nodes_key: bytes, geometry: str, dimension: int, dt: float) -> tuple:
    """(bands, predictor factors, corrector factors) for one grid and dt."""
    bands = laplacian_bands(np.frombuffer(nodes_key), geometry, dimension)
    bands.setflags(write=False)
    return bands, _factor(bands, dt), _factor(bands, 0.5 * dt)


def _solve(factors: tuple, rhs: np.ndarray, t: float, stage: str) -> np.ndarray:
    """Solve (I - alpha Lap) x = rhs from that matrix's dgttrf factors; a
    non-finite value is an overshoot."""
    if not np.all(np.isfinite(rhs)):
        raise BlowupOvershootError(f"imex_step: non-finite {stage} input at t={t}")
    out, info = dgttrs(*factors, rhs)
    if info != 0:  # pragma: no cover - only an invalid argument sets it
        raise NumericError(f"imex_step: {stage} solve failed (dgttrs info {info})")
    if not np.all(np.isfinite(out)):
        raise BlowupOvershootError(f"imex_step: non-finite {stage} at t={t}")
    return out


def imex_step(
    nodes: np.ndarray,
    geometry: str,
    dimension: int,
    u: np.ndarray,
    t: float,
    dt: float,
    explicit: Callable[[float, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Advance u by dt on the grid (nodes, geometry, dimension) with the
    explicit terms g(t, u) = explicit(t, u).  Raises BlowupOvershootError on
    any non-finite value (the step went past the singularity)."""
    nodes_key = np.asarray(nodes, dtype=float).tobytes()
    bands, predictor, corrector = _operator(nodes_key, geometry, dimension, dt)
    g0 = explicit(t, u)
    with np.errstate(over="ignore"):  # an inf is reported by _solve
        rhs = u + dt * g0
    u_star = _solve(predictor, rhs, t, "predictor")
    g1 = explicit(t + dt, u_star)
    with np.errstate(over="ignore"):
        lap_u = bands[1] * u
        lap_u[:-1] += bands[0][1:] * u[1:]
        lap_u[1:] += bands[2][:-1] * u[:-1]
        rhs = u + 0.5 * dt * lap_u + 0.5 * dt * (g0 + g1)
    return _solve(corrector, rhs, t, "corrector")
