"""Solver for the similarity-frame equation and the frame change itself.

With y = (x - x0)/sqrt(T - t), s = -log(T - t), u = psi_T(t) w(y, s), the
field w obeys

    dw/ds = Lap w - (y/2).grad w - (1/(p-1)) (1 - a/s) w + source(s, w),

where the source is the cancellation form of e^(-ps/(p-1)) s^(a/(p-1))
f(phi(s) w).  step_w advances it by imex.imex_step; the drift is explicit
with second-order upwinding, which caps the step at ds <= ~2h/R_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.interpolate import CubicSpline

from .core_math import Params, psi_T, rescaled_nonlinearity
from .errors import (
    ConfigurationError,
    ContractViolation,
    DomainError,
    TruncationError,
)
from .imex import imex_step
from .physical_solver import GridField
from .quadrature import QuadratureRule, integrate

_CFL = 0.9


@dataclass(frozen=True)
class SimField:
    """Rescaled field w on a uniform y-grid (line) or r-grid (radial) at
    rescaled time s >= 1."""

    geometry: str
    nodes: np.ndarray
    values: np.ndarray
    s: float
    params: Params

    def __post_init__(self) -> None:
        if self.geometry not in ("line", "radial"):
            raise ConfigurationError(f"SimField: unknown geometry {self.geometry!r}")
        if self.geometry == "line" and self.params.N != 1:
            raise ConfigurationError("SimField: line geometry requires N = 1")
        if self.s < 1.0:
            raise DomainError(f"SimField requires s >= 1, got {self.s}")
        if self.values.shape != self.nodes.shape:
            raise ConfigurationError("SimField: values/nodes shape mismatch")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("SimField: non-finite values")

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    @property
    def radius(self) -> float:
        return float(abs(self.nodes[-1]))


def to_similarity(
    u: GridField,
    x0: float,
    T: float,
    params: Params,
    target_nodes: np.ndarray,
) -> SimField:
    """Transform a physical field into the similarity frame centred at (x0, T).

    w(y) = u(x0 + y sqrt(T - t)) / psi_T(t), cubic interpolation onto the
    target y-grid; raises TruncationError if the unscaled grid leaves the
    physical domain.
    """
    if not (u.time < T):
        raise DomainError(f"to_similarity requires u.time < T, got {u.time} >= {T}")
    if T - u.time >= 1.0:
        raise DomainError(f"to_similarity requires T - t < 1, got {T - u.time}")
    scale = np.sqrt(T - u.time)
    x_needed = x0 + np.asarray(target_nodes) * scale
    pad = 1e-12 * (u.nodes[-1] - u.nodes[0])
    if x_needed.min() < u.nodes[0] - pad or x_needed.max() > u.nodes[-1] + pad:
        raise TruncationError(
            "to_similarity: target y-grid maps outside the physical domain "
            f"([{x_needed.min():.4g}, {x_needed.max():.4g}] vs "
            f"[{u.nodes[0]:.4g}, {u.nodes[-1]:.4g}])"
        )
    spline = CubicSpline(u.nodes, u.values)
    w = spline(np.clip(x_needed, u.nodes[0], u.nodes[-1])) / psi_T(u.time, T, params)
    return SimField(
        geometry=u.geometry,
        nodes=np.asarray(target_nodes, dtype=float),
        values=w,
        s=float(-np.log(T - u.time)),
        params=params,
    )


def from_similarity(
    w: SimField, x0: float, T: float, target_nodes: np.ndarray
) -> GridField:
    """Inverse frame change: u(x) = psi_T(t) w((x - x0)/sqrt(T - t))."""
    t = T - np.exp(-w.s)
    scale = np.sqrt(T - t)
    y_needed = (np.asarray(target_nodes) - x0) / scale
    pad = 1e-12 * (w.nodes[-1] - w.nodes[0])
    if y_needed.min() < w.nodes[0] - pad or y_needed.max() > w.nodes[-1] + pad:
        raise TruncationError("from_similarity: target x-grid maps outside the y-grid")
    spline = CubicSpline(w.nodes, w.values)
    u = psi_T(t, T, w.params) * spline(np.clip(y_needed, w.nodes[0], w.nodes[-1]))
    return GridField(
        geometry=w.geometry,
        dimension=w.params.N,
        nodes=np.asarray(target_nodes, dtype=float),
        values=u,
        time=float(t),
    )


def _upwind_gradient(nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d w/d y biased against the outward drift y/2 (second order where two
    upwind neighbours exist, first order next to the origin, 0 at y = 0 and
    where no upwind neighbour exists).  nodes ascend uniformly."""
    h = nodes[1] - nodes[0]
    n = w.size
    neg = int(np.searchsorted(nodes, 0.0, side="left"))  # nodes[:neg] < 0
    pos = int(np.searchsorted(nodes, 0.0, side="right"))  # nodes[pos:] > 0
    out = np.zeros_like(w)
    lo = max(pos, 2)  # y > 0: backward differences
    out[lo:] = (3.0 * w[lo:] - 4.0 * w[lo - 1 : -1] + w[lo - 2 : -2]) / (2.0 * h)
    if pos <= 1:
        out[1] = (w[1] - w[0]) / h
    hi = min(neg, n - 2)  # y < 0: forward differences
    out[:hi] = (-3.0 * w[:hi] + 4.0 * w[1 : hi + 1] - w[2 : hi + 2]) / (2.0 * h)
    if neg >= n - 1:
        out[n - 2] = (w[-1] - w[-2]) / h
    return out


def _explicit_terms(nodes: np.ndarray, params: Params, s: float, w: np.ndarray) -> np.ndarray:
    drift = -0.5 * nodes * _upwind_gradient(nodes, w)
    linear = -(1.0 / (params.p - 1.0)) * (1.0 - params.a / s) * w
    return drift + linear + rescaled_nonlinearity(s, w, params)


def step_w(field_in: SimField, ds: float) -> SimField:
    """One imex_step of the similarity-frame equation, the drift, linear and
    source terms explicit.

    Raises DomainError when ds violates the drift CFL bound and
    BlowupOvershootError on non-finite values.
    """
    if not (ds > 0.0):
        raise DomainError(f"step_w: ds must be positive, got {ds}")
    nodes = field_in.nodes
    h = field_in.spacing
    c_max = 0.5 * max(abs(nodes[0]), abs(nodes[-1]))
    if ds * c_max > _CFL * h:
        raise DomainError(
            f"step_w: ds={ds} violates the drift CFL bound {_CFL * h / c_max:.3e}"
        )
    params = field_in.params
    explicit = partial(_explicit_terms, nodes, params)
    w_new = imex_step(
        nodes, field_in.geometry, params.N, field_in.values, field_in.s, ds, explicit
    )
    return SimField(
        geometry=field_in.geometry,
        nodes=nodes,
        values=w_new,
        s=field_in.s + ds,
        params=params,
    )


def ds_dissipation(before: SimField, after: SimField, rule: QuadratureRule) -> float:
    """Discrete dissipation density int ((w_after - w_before)/ds)^2 rho dy."""
    if after.s <= before.s:
        raise ContractViolation("ds_dissipation: after.s must exceed before.s")
    if before.nodes.shape != after.nodes.shape or not np.allclose(
        before.nodes, after.nodes
    ):
        raise ContractViolation("ds_dissipation: grid mismatch between fields")
    if rule.nodes.shape != before.nodes.shape or not np.allclose(
        rule.nodes, before.nodes
    ):
        raise ContractViolation("ds_dissipation: rule nodes do not match the grid")
    rate = (after.values - before.values) / (after.s - before.s)
    return integrate(rule, rate * rate)


def cfl_step(nodes: np.ndarray, ds_requested: float) -> float:
    """Largest step <= ds_requested that satisfies the drift CFL bound and
    divides 1 exactly (so runs land on unit-s boundaries).  Raises
    DomainError unless ds_requested is finite and positive."""
    if not (0.0 < ds_requested < np.inf):
        raise DomainError(f"cfl_step: ds must be finite and positive, got {ds_requested}")
    h = float(nodes[1] - nodes[0])
    c_max = 0.5 * max(abs(float(nodes[0])), abs(float(nodes[-1])))
    ds_cap = _CFL * h / c_max if c_max > 0 else ds_requested
    n_per_unit = int(np.ceil(1.0 / min(ds_requested, ds_cap)))
    return 1.0 / n_per_unit
