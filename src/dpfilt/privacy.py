"""Privacy budget arithmetic and Gaussian noise injection.

The noise multiplier kappa(delta, epsilon) = (K + sqrt(K^2 + 2*eps))/(2*eps)
with K the upper-tail standard-normal quantile of delta; Gaussian noise of
standard deviation kappa * (l2 sensitivity) added independently per output
makes a filter release (epsilon, delta)-differentially private.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidDelta
from .streams import EventStream


@dataclass(frozen=True)
class PrivacySpec:
    """(epsilon, delta) budget plus per-channel adjacency magnitudes k."""

    epsilon: float
    delta: float
    k: tuple

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (0.0 < self.delta < 1.0):
            raise InvalidDelta(f"delta must lie in (0, 1), got {self.delta}")
        object.__setattr__(self, "k",
                           tuple(float(v) for v in np.atleast_1d(self.k)))
        if any(v <= 0 for v in self.k):
            raise ValueError("all adjacency magnitudes k_i must be positive")

    @property
    def m(self) -> int:
        return len(self.k)

    def k_vector(self) -> np.ndarray:
        return np.asarray(self.k, dtype=float)

    def k_matrix(self) -> np.ndarray:
        return np.diag(self.k_vector())

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon, "delta": self.delta,
                "k": list(self.k)}


def q_function(x):
    """Upper tail of the standard normal: (1/sqrt(2pi)) int_x^inf e^{-u^2/2}."""
    return ndtr(-np.asarray(x, dtype=float)) if np.ndim(x) \
        else float(ndtr(-x))


def q_inverse(delta: float) -> float:
    """Upper-tail standard-normal quantile: q_function(x) = delta."""
    if not (0.0 < delta < 1.0):
        raise InvalidDelta(f"delta must lie in (0, 1), got {delta}")
    return float(-ndtri(delta))


def kappa(spec: PrivacySpec) -> float:
    """Gaussian mechanism noise multiplier for the (epsilon, delta) budget."""
    K = q_inverse(spec.delta)
    return float((K + np.sqrt(K * K + 2.0 * spec.epsilon))
                 / (2.0 * spec.epsilon))


def noise_sigma(sensitivity: float, spec: PrivacySpec) -> float:
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    return kappa(spec) * float(sensitivity)


def add_noise(stream: EventStream, sigma: float, seed: int) -> EventStream:
    """Add iid zero-mean Gaussian samples of std sigma to every entry.

    Noise comes from numpy's PCG64 generator (ziggurat normal sampling),
    so outputs are bit-reproducible for a fixed seed within one numpy
    major version.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return stream.with_data(stream.data.copy())
    rng = np.random.default_rng(seed)
    return stream.with_data(stream.data +
                            rng.normal(0.0, sigma, size=stream.data.shape))
