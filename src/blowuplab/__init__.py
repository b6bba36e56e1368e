"""Numerical laboratory for finite-time blow-up in the semilinear heat
equation with a logarithmically perturbed nonlinearity
f(u) = |u|^(p-1) u log^a(2 + u^2)."""

__version__ = "0.1.0"

from .core_math import Params, kappa_a
from .errors import BlowupLabError

__all__ = ["Params", "kappa_a", "BlowupLabError", "__version__"]
