"""Quadrature rules for integrals against the Gaussian weight rho(y) = e^(-|y|^2/4).

There is one rule, rule_for_grid: the rho-weighted trapezoid on the uniform
nodes of a solver grid, so sampled fields integrate without interpolation.
On a radial grid the weights carry the surface factor omega_{N-1} r^(N-1).

* Line grids (N = 1) and radial grids of odd N: the integrand has Gaussian
  decay and, at odd N, extends evenly through r = 0, so the trapezoid is
  accurate far beyond any polynomial order.
* Radial grids of even N: r^(N-1) rho is odd in r, so the trapezoid keeps
  its h^2 end term at r = 0.  Gregory's end correction of order 7 (Davis &
  Rabinowitz, Methods of Numerical Integration) removes it.

Acceptance criterion 3 checks the Gaussian mass and moments of the rule at
N = 1, 2 and 3.

cubic_spline is the one interpolant: the frame change, the profile error and
sampled initial data all resample a field through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dgtsv
from .errors import ConfigurationError, ContractViolation, NumericError

# Gregory's order-7 end correction as node weights: h * _GREGORY[j] is added
# to the trapezoid weight of node j.  The coefficients sum to zero.
_GREGORY = np.array([
    -3383 / 17280, 6961 / 15120, -66109 / 120960, 33 / 70,
    -31523 / 120960, 1247 / 15120, -275 / 24192,
])


def gaussian_mass(N: int) -> float:
    """int_{R^N} e^(-|y|^2/4) dy = (4 pi)^(N/2)."""
    return float((4.0 * np.pi) ** (N / 2.0))


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N: 2 pi^(N/2) / Gamma(N/2).

    Gamma(N/2) is taken in closed form: (N/2 - 1)! for even N, and
    (2k)! / (4^k k!) sqrt(pi) for N = 2k + 1.  For N <= 6 this is scipy's
    gamma function bit for bit.
    """
    k, odd = divmod(int(N), 2)
    if odd:
        gamma = math.factorial(2 * k) / (4**k * math.factorial(k)) * math.sqrt(math.pi)
    else:
        gamma = float(math.factorial(k - 1))
    return float(2.0 * np.pi ** (N / 2.0) / gamma)


def cubic_spline(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through (x, y), evaluated at the points at.

    This is scipy's cubic spline interpolator with its default not-a-knot
    ends, bit for bit, by the same arithmetic: the knot slopes s solve its
    banded system by LAPACK's dgtsv (what its solve_banded calls), the
    cubic on [x_i, x_i+1] has CubicHermiteSpline's coefficients, and a
    point is evaluated as PPoly evaluates it, on the interval that holds it
    (the last one for x[-1]), in powers of h = at - x_i summed from the
    constant term.  A point outside [x[0], x[-1]] takes the end interval's
    cubic.

    x must hold at least 4 strictly increasing knots, or ContractViolation
    is raised; scipy's special cases for 2 and 3 knots are not copied.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if x.ndim != 1 or y.shape != x.shape or n < 4:
        raise ContractViolation(
            f"cubic_spline: needs x and y of one shape (n,) with n >= 4, "
            f"got {x.shape} and {y.shape}"
        )
    dx = np.diff(x)
    if not np.all(dx > 0.0):
        raise ContractViolation("cubic_spline: x is not strictly increasing")
    slope = np.diff(y) / dx
    # Row i of the system for the knot slopes s: dx[i] s[i-1] +
    # 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = 3 (dx[i] slope[i-1] +
    # dx[i-1] slope[i]); rows 0 and n-1 make the third derivative
    # continuous at x[1] and x[-2].
    lower = np.empty(n - 1)
    diag = np.empty(n)
    upper = np.empty(n - 1)
    b = np.empty(n)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0] = dx[1]
    upper[0] = d
    b[0] = ((dx[0] + 2*d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1] = dx[-2]
    lower[-1] = d
    b[-1] = (dx[-1]**2*slope[-2] + (2*d + dx[-1])*dx[-2]*slope[-1]) / d
    *_, s, info = dgtsv(lower, diag, upper, b)
    if info != 0:
        raise NumericError(f"cubic_spline: the slope system is singular (dgtsv info {info})")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - s[:-1]) / dx - t
    at = np.asarray(at, dtype=float)
    i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, n - 2)
    h = at - x[i]
    hh = h * h
    return y[i] + s[i] * h + c1[i] * hh + c0[i] * (hh * h)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights approximating int g(y) rho(y) dy.

    On a line grid the nodes are signed coordinates; on a radial grid they
    are radii r >= 0 and the weights absorb the surface factor
    omega_{N-1} r^(N-1).
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray


def rule_for_grid(nodes: np.ndarray, N: int, geometry: str) -> QuadratureRule:
    """Grid-coincident rule: rho-weighted trapezoid on the given uniform nodes,
    with Gregory's end correction at r = 0 on radial grids of even N.

    The origin node of an N >= 2 radial grid receives weight zero (the
    measure vanishes there), and no weight is negative.
    """
    nodes = np.asarray(nodes, dtype=float)
    h = nodes[1] - nodes[0]
    w = np.full(nodes.shape, h)
    w[0] = w[-1] = h / 2.0
    if geometry == "line":
        weights = w * np.exp(-nodes * nodes / 4.0)
    elif geometry == "radial":
        if N % 2 == 0:
            if nodes.size <= _GREGORY.size:
                raise ConfigurationError(
                    f"rule_for_grid: a radial grid of even N needs more than "
                    f"{_GREGORY.size} nodes, got {nodes.size}"
                )
            w[: _GREGORY.size] += h * _GREGORY
        weights = w * sphere_area(N) * nodes ** (N - 1) * np.exp(-nodes * nodes / 4.0)
    else:
        raise ConfigurationError(f"rule_for_grid: unknown geometry {geometry!r}")
    return QuadratureRule(dimension=N, nodes=nodes, weights=weights)


def integrate(rule: QuadratureRule, g):
    """Sum w_i g_i over g sampled on the nodes, or the array of the rows'
    sums over a (rows, n) stack of such samples.

    A non-finite sample is a NumericError naming its node (and, in a stack,
    the first row that has one).  It always makes the sum non-finite (a zero
    weight included: 0 * inf is NaN, and the weights are never negative), so
    the samples are searched only when a sum is not finite.  A sum that
    overflows from finite samples is returned as it is, with numpy's
    overflow warning.

    Each sum is np.vdot, the same BLAS dot product as np.dot, bit for bit,
    but without numpy's floating-point checks, so the common finite case
    needs no error state; the overflow path reruns np.dot for its warning.
    A stack is summed one row at a time, so each row's sum is that of the
    row alone (weights @ stack sums by dgemv, in another order).
    """
    values = np.asarray(g, dtype=float)
    if values.shape[-1:] != rule.nodes.shape or values.ndim > 2:
        raise ContractViolation(
            f"integrate: sample shape {values.shape} does not match rule nodes "
            f"{rule.nodes.shape}"
        )
    rows = values if values.ndim == 2 else values[None]
    totals = [float(np.vdot(rule.weights, row)) for row in rows]
    if not math.isfinite(sum(totals)):  # or finite sums whose total overflows
        bad = ~np.isfinite(rows)
        if bad.any():
            r, i = divmod(int(np.argmax(bad)), rows.shape[1])
            where = f" of row {r}" if values.ndim == 2 else ""
            raise NumericError(
                f"integrate: non-finite sample at node {rule.nodes[i]:.6g} "
                f"(index {i}){where}"
            )
        with np.errstate(invalid="ignore"):  # inf - inf after the overflow
            totals = [float(np.dot(rule.weights, row)) for row in rows]
    return totals[0] if values.ndim == 1 else np.array(totals)
