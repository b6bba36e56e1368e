"""Quadrature rules for integrals against the Gaussian weight rho(y) = e^(-|y|^2/4).

Two rule modes:

* ``line`` (N = 1): uniform nodes on [-R_max, R_max] with trapezoidal weights
  times rho.  For integrands with Gaussian decay the trapezoidal rule on a
  uniform grid is accurate far beyond any polynomial order, and the nodes
  coincide with the PDE solvers' grids, so sampled fields integrate without
  interpolation.
* ``radial`` (any N): composite Gauss-Legendre panels in r on [0, R_max] with
  weights omega_{N-1} r^(N-1) e^(-r^2/4); used for radially symmetric
  integrands supplied as callables (or fields interpolated to the nodes).

Every rule is checked at construction against the exact Gaussian mass
int rho = (4 pi)^(N/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from .errors import ConfigurationError, ContractViolation, NumericError

_PANEL_POINTS = 16


def gaussian_mass(N: int) -> float:
    """int_{R^N} e^(-|y|^2/4) dy = (4 pi)^(N/2)."""
    return float((4.0 * np.pi) ** (N / 2.0))


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N: 2 pi^(N/2) / Gamma(N/2)."""
    return float(2.0 * np.pi ** (N / 2.0) / gamma(N / 2.0))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights approximating int g(y) rho(y) dy.

    In line mode the nodes are signed coordinates; in radial mode they are
    radii r >= 0 and the weights absorb the surface factor
    omega_{N-1} r^(N-1).
    """

    dimension: int
    mode: str
    nodes: np.ndarray
    weights: np.ndarray
    truncation_radius: float

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])


def build_rule(N: int, mode: str, resolution: int, R_max: float) -> QuadratureRule:
    """Construct a rule and verify the Gaussian-mass invariant to 1e-10.

    resolution is the total node count (>= 16); R_max >= 10 keeps the
    truncated tail below e^(-25) relative.
    """
    if int(N) != N or N < 1:
        raise ConfigurationError(f"build_rule: N must be a positive integer, got {N}")
    if resolution < 16:
        raise ConfigurationError(f"build_rule: resolution must be >= 16, got {resolution}")
    if R_max < 10.0:
        raise ConfigurationError(f"build_rule: R_max must be >= 10, got {R_max}")
    if mode not in ("line", "radial"):
        raise ConfigurationError(f"build_rule: unknown mode {mode!r}")
    if mode == "line" and N != 1:
        raise ConfigurationError("build_rule: line mode requires N = 1")

    if mode == "line":
        nodes = np.linspace(-R_max, R_max, resolution)
        h = nodes[1] - nodes[0]
        w = np.full(resolution, h)
        w[0] = w[-1] = h / 2.0
        weights = w * np.exp(-nodes * nodes / 4.0)
    else:
        n_panels = max(2, resolution // _PANEL_POINTS)
        base = resolution // n_panels
        extra = resolution - base * n_panels
        xg, wg = np.polynomial.legendre.leggauss(base)
        xg1, wg1 = np.polynomial.legendre.leggauss(base + 1)
        edges = np.linspace(0.0, R_max, n_panels + 1)
        nodes_l, wts_l = [], []
        for k in range(n_panels):
            x, wq = (xg1, wg1) if k < extra else (xg, wg)
            lo, hi = edges[k], edges[k + 1]
            nodes_l.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
            wts_l.append(0.5 * (hi - lo) * wq)
        nodes = np.concatenate(nodes_l)
        wq = np.concatenate(wts_l)
        weights = wq * sphere_area(N) * nodes ** (N - 1) * np.exp(-nodes * nodes / 4.0)

    rule = QuadratureRule(
        dimension=N,
        mode=mode,
        nodes=nodes,
        weights=weights,
        truncation_radius=float(R_max),
    )
    mass = float(np.sum(weights))
    rel = abs(mass / gaussian_mass(N) - 1.0)
    if rel > 1e-10:
        raise ConfigurationError(
            f"build_rule: mass invariant violated (relative error {rel:.3e} "
            f"for N={N}, mode={mode}, resolution={resolution}, R_max={R_max})"
        )
    if np.any(weights < 0.0) or np.any(np.diff(nodes) <= 0.0):
        raise ConfigurationError("build_rule: weights must be nonnegative and nodes increasing")
    return rule


def rule_for_grid(nodes: np.ndarray, N: int, geometry: str) -> QuadratureRule:
    """Grid-coincident rule: rho-weighted trapezoid on the given uniform nodes.

    Lets functionals integrate sampled fields without interpolation.  For
    radial geometry the weights carry the surface factor; the origin node of
    an N >= 2 radial grid receives weight zero (the measure vanishes there).
    """
    nodes = np.asarray(nodes, dtype=float)
    h = nodes[1] - nodes[0]
    w = np.full(nodes.shape, h)
    w[0] = w[-1] = h / 2.0
    if geometry == "line":
        weights = w * np.exp(-nodes * nodes / 4.0)
    elif geometry == "radial":
        weights = w * sphere_area(N) * nodes ** (N - 1) * np.exp(-nodes * nodes / 4.0)
    else:
        raise ConfigurationError(f"rule_for_grid: unknown geometry {geometry!r}")
    return QuadratureRule(
        dimension=N,
        mode="line" if geometry == "line" else "radial",
        nodes=nodes,
        weights=weights,
        truncation_radius=float(abs(nodes[-1])),
    )


def integrate(rule: QuadratureRule, g) -> float:
    """Sum w_i g(node_i).  g may be a callable or an array sampled on the nodes.

    A non-finite sample is a NumericError naming its node.  It always makes
    the sum non-finite (a zero weight included: 0 * inf is NaN, and the
    weights are never negative), so the samples are searched only when the
    sum is not finite.  A sum that overflows from finite samples is returned
    as it is, with numpy's overflow warning.

    The sum is np.vdot, the same BLAS dot product as np.dot, bit for bit,
    but without numpy's floating-point checks, so the common finite case
    needs no error state; the overflow path reruns np.dot for its warning.
    """
    if callable(g):
        values = np.asarray(g(rule.nodes), dtype=float)
    else:
        values = np.asarray(g, dtype=float)
    if values.shape != rule.nodes.shape:
        raise ContractViolation(
            f"integrate: sample shape {values.shape} does not match rule nodes "
            f"{rule.nodes.shape}"
        )
    total = float(np.vdot(rule.weights, values))
    if not math.isfinite(total):
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericError(
                f"integrate: non-finite sample at node {rule.nodes[i]:.6g} (index {i})"
            )
        with np.errstate(invalid="ignore"):  # inf - inf after the overflow
            total = float(np.dot(rule.weights, values))
    return total
