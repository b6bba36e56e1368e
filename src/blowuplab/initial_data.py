"""Initial data on a node array, shared by the CLI and the verification suites."""

from __future__ import annotations

import numpy as np

from .core_math import Params, kappa_a


def profile_shape(y: np.ndarray, s: float, params: Params) -> np.ndarray:
    """Self-similar near-profile kappa_a (1 + (p-1) y^2 / (4 p s))^(-1/(p-1))."""
    p = params.p
    return kappa_a(params) * (1.0 + (p - 1.0) * y * y / (4.0 * p * s)) ** (
        -1.0 / (p - 1.0)
    )


def random_smooth_shape(y: np.ndarray, params: Params, seed: int) -> np.ndarray:
    """kappa_a times (1 + localized low-frequency noise), max perturbation
    0.25.  Deterministic in the seed."""
    rng = np.random.default_rng(seed)
    R = float(np.max(np.abs(y)))
    bump = np.zeros_like(y)
    for k in range(1, 4):
        c, d = rng.standard_normal(2) / k
        bump += c * np.cos(k * np.pi * y / R) + d * np.sin(k * np.pi * y / R)
    bump *= np.exp(-(y * y) / 8.0)
    peak = np.max(np.abs(bump))
    if peak > 0.0:
        bump *= 0.25 / peak
    return kappa_a(params) * (1.0 + bump)


def line_grid(extent: float, resolution: int) -> np.ndarray:
    """Uniform symmetric grid with a node at the origin."""
    n = resolution if resolution % 2 == 1 else resolution + 1
    return np.linspace(-extent, extent, n)


def gaussian(
    nodes: np.ndarray, amplitude: float, width: float, floor: float = 0.0
) -> np.ndarray:
    """floor + amplitude exp(-(x/width)^2) on the nodes, width > 0; floor > 0
    gives constant-dominating data.  Where x/width or its square overflows,
    the exponential is its limit 0."""
    with np.errstate(over="ignore"):
        return floor + amplitude * np.exp(-((nodes / width) ** 2))
