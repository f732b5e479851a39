"""Bijective sinh-arcsinh warp between response units and a latent Gaussian scale.

The forward map is

    z = f(y) = sinh(delta * asinh(y) - epsilon),    delta = exp(log_delta)

where epsilon controls skew (epsilon > 0 shifts mass toward larger y) and
delta controls tail weight. Parameterizing via log_delta keeps delta positive
under unconstrained optimization. The map is strictly increasing for any
parameter values, so the inverse

    y = f^{-1}(z) = sinh((asinh(z) + epsilon) / delta)

is exact, and the change-of-variables term needed by the model evidence is

    f'(y) = delta * cosh(delta * asinh(y) - epsilon) / sqrt(1 + y^2) > 0.

epsilon = 0 and log_delta = 0 give the identity map; that case is
short-circuited so an unwarped model is recovered exactly, not just to
floating-point error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WarpParams:
    """Skew (epsilon) and log tail-weight (log_delta) of the warp."""

    epsilon: float = 0.0
    log_delta: float = 0.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.epsilon) and np.isfinite(self.log_delta)):
            raise ValueError(
                f"warp parameters must be finite, got epsilon={self.epsilon}, "
                f"log_delta={self.log_delta}"
            )

    @property
    def delta(self) -> float:
        return float(np.exp(self.log_delta))

    def is_identity(self) -> bool:
        return self.epsilon == 0.0 and self.log_delta == 0.0

    def to_dict(self) -> dict:
        return {"epsilon": float(self.epsilon), "log_delta": float(self.log_delta)}

    @classmethod
    def from_dict(cls, d: dict) -> "WarpParams":
        return cls(epsilon=float(d["epsilon"]), log_delta=float(d["log_delta"]))


def _forward(y: np.ndarray, epsilon, delta) -> np.ndarray:
    """The forward map at epsilon and delta, which broadcast against y."""
    return np.sinh(delta * np.arcsinh(y) - epsilon)


def _inverse(z: np.ndarray, epsilon, delta) -> np.ndarray:
    """The inverse map at epsilon and delta, which broadcast against z."""
    return np.sinh((np.arcsinh(z) + epsilon) / delta)


def warp_forward(y: np.ndarray | float, params: WarpParams) -> np.ndarray | float:
    """Map observed responses to the latent Gaussian scale."""
    y = np.asarray(y, dtype=float)
    if params.is_identity():
        return y.copy()
    return _forward(y, params.epsilon, np.exp(params.log_delta))


def warp_inverse(z: np.ndarray | float, params: WarpParams) -> np.ndarray | float:
    """Map latent values back to response units; exact inverse of warp_forward."""
    z = np.asarray(z, dtype=float)
    if params.is_identity():
        return z.copy()
    return _inverse(z, params.epsilon, np.exp(params.log_delta))

