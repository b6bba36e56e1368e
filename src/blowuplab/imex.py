"""The IMEX trapezoidal step shared by the physical and similarity frames.

Space: second-order centered Laplacian on a uniform grid, homogeneous Neumann
at the outer boundary; radial geometry uses u'' + (N-1) u'/r with the origin
regularised to N u''(0); the similarity frame adds the central drift
-(y/2) u', so its operator A is Lap - (y/2).grad.  Time, for
du/dt = A u + g(t, u): Crank-Nicolson on A, a backward-Euler predictor and
Heun corrector on g,

    (I - dt A) u*      = u + dt g(t, u)
    (I - dt/2 A) u_new = u + dt/2 A u + dt/2 (g(t, u) + g(t + dt, u*)),

second order overall.  The step returns u* next to u_new: their gap is the
local error of the first-order predictor, which the physical frame's step
controller uses.  An Operator holds A's bands for one grid and the last dt
a step asked for.  A step at a new dt solves each tridiagonal matrix with
one dgtsv call and keeps nothing; a step that repeats the last dt factors
both matrices with dgttrf, and later steps at that dt only back-substitute
with dgttrs.  The two routes give the same bits.  So a similarity run,
whose ds is fixed, factors once, on its second step, and the physical step
controller, which changes dt on nearly every step, almost never factors.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._lapack import dgtsv, dgttrf, dgttrs
from .errors import BlowupOvershootError, NumericError

def laplacian_bands(
    nodes: np.ndarray, geometry: str, dimension: int, drift: bool = False
) -> np.ndarray:
    """Banded (3, n) representation of the Neumann Laplacian on the grid;
    with drift, of Lap - (y/2) d/dy (radial: - (r/2) d/dr).  The boundary
    rows carry no drift: the Neumann ghost makes the central gradient 0.
    Off-diagonals turn negative once (R - h) h > 4, R the outer radius, yet
    the spectrum stays in Re <= 0 (measured up to R h = 312)."""
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
        radial = (N - 1) / (2.0 * h * r)
        upper[2:] += radial
        lower[:-2] -= radial
        # r = 0: Lap u = N u''(0) with even extension u(-h) = u(h)
        diag[0] = -2.0 * N * inv_h2
        upper[1] = 2.0 * N * inv_h2
        # outer Neumann: mirrored ghost, first-derivative term vanishes
        lower[-2] = 2.0 * inv_h2
    if drift:
        c = nodes[1:-1] / (4.0 * h)
        upper[2:] -= c
        lower[:-2] += c
    return np.vstack([upper, diag, lower])


def _matrix(bands: np.ndarray, alpha: float) -> np.ndarray:
    """The bands of I - alpha A, freshly formed."""
    m = -alpha * bands
    m[1] += 1.0
    return m


def _factor(bands: np.ndarray, alpha: float) -> tuple:
    """dgttrf factors (dl, d, du, du2, ipiv) of I - alpha A."""
    m = _matrix(bands, alpha)
    *factors, info = dgttrf(m[2, :-1], m[1], m[0, 1:])
    if info != 0:  # pragma: no cover - A's spectrum lies in Re <= 0
        raise NumericError(
            f"imex_step: I - {alpha} A is singular (dgttrf info {info})"
        )
    for arr in factors:
        arr.setflags(write=False)  # shared by every step at this dt
    return tuple(factors)


class Operator:
    """The implicit operator A of one grid: its read-only bands, the last dt
    a step asked for, and the dgttrf factors of I - dt A and I - dt/2 A once
    that dt is asked for again.  A field builds its operator once and hands
    it to every field stepped from it."""

    def __init__(self, nodes: np.ndarray, geometry: str, dimension: int, drift: bool = False):
        self.bands = laplacian_bands(np.asarray(nodes, dtype=float), geometry, dimension, drift)
        self.bands.setflags(write=False)
        self._dt = None
        self._factors = None

    def factors(self, dt: float) -> tuple | None:
        """(predictor factors, corrector factors) when dt repeats the last
        dt asked for, factored on its first repeat; None for a new dt, whose
        step solves each matrix once and factors nothing."""
        if dt != self._dt:
            self._dt, self._factors = dt, None
        elif self._factors is None:
            self._factors = _factor(self.bands, dt), _factor(self.bands, 0.5 * dt)
        return self._factors


def _solve(
    bands: np.ndarray, alpha: float, factors: tuple | None, rhs: np.ndarray, t: float, stage: str
) -> np.ndarray:
    """Solve (I - alpha A) x = rhs: from that matrix's dgttrf factors by
    dgttrs, or with factors None by one dgtsv call that overwrites the
    freshly formed matrix and the temporary rhs.  dgtsv eliminates with the
    same pivots and the same operations as dgttrf followed by dgttrs, so
    both routes give the same bits.  A non-finite value is an overshoot.

    Only the solution is checked.  The substitutions reach every entry of
    rhs and divide only by the nonzero pivots, and IEEE arithmetic keeps a
    value non-finite through additions, multiplications and such divisions,
    so a non-finite rhs always yields a non-finite solution.
    """
    if factors is None:
        m = _matrix(bands, alpha)
        *_, out, info = dgtsv(
            m[2, :-1], m[1], m[0, 1:], rhs,
            overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )
        routine = "dgtsv"
    else:
        out, info = dgttrs(*factors, rhs)
        routine = "dgttrs"
    if info != 0:  # pragma: no cover - a singular matrix or an invalid argument
        raise NumericError(f"imex_step: {stage} solve failed ({routine} info {info})")
    if not np.isfinite(out).all():
        raise BlowupOvershootError(f"imex_step: non-finite {stage} at t={t}")
    return out


def imex_step(
    operator: Operator,
    u: np.ndarray,
    t: float,
    dt: float,
    explicit: Callable[[float, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Advance u by dt with operator's A implicit and the explicit terms
    g(t, u) = explicit(t, u).  explicit runs with floating-point overflow
    silenced, so it may overflow to inf without a warning.  Returns
    (u_new, u*): the second-order result and the first-order predictor,
    whose gap is an embedded estimate of the predictor's local error.
    Raises BlowupOvershootError on any non-finite value (the step went past
    the singularity)."""
    bands = operator.bands
    predictor, corrector = operator.factors(dt) or (None, None)
    # One error state for the whole step, both explicit evaluations included:
    # an overflow anywhere leaves an inf in a right-hand side, and _solve
    # reports it.
    with np.errstate(over="ignore"):
        g0 = explicit(t, u)
        rhs = u + dt * g0
        u_star = _solve(bands, dt, predictor, rhs, t, "predictor")
        g1 = explicit(t + dt, u_star)
        lap_u = bands[1] * u
        lap_u[:-1] += bands[0][1:] * u[1:]
        lap_u[1:] += bands[2][:-1] * u[:-1]
        rhs = u + 0.5 * dt * lap_u + 0.5 * dt * (g0 + g1)
    return _solve(bands, 0.5 * dt, corrector, rhs, t, "corrector"), u_star
