"""Privacy budget arithmetic of the Gaussian mechanism.

The noise multiplier kappa(delta, epsilon) = (K + sqrt(K^2 + 2*eps))/(2*eps)
with K the upper-tail standard-normal quantile of delta; Gaussian noise of
standard deviation kappa * (l2 sensitivity) added independently per output
makes a filter release (epsilon, delta)-differentially private.

gaussian_delta gives the exact privacy profile of that Gaussian mechanism
(Balle & Wang, ICML 2018), against which the calibration can be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidDelta


@dataclass(frozen=True)
class PrivacySpec:
    """(epsilon, delta) budget plus per-channel adjacency magnitudes k,
    each k_i finite and positive, and epsilon positive with a finite
    noise multiplier kappa."""

    epsilon: float
    delta: float
    k: tuple

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise InvalidDelta(f"delta must lie in (0, 1), got {self.delta}")
        # an infinite epsilon gives kappa = inf / inf, and 1e308 overflows
        if not (self.epsilon > 0 and math.isfinite(kappa(self))):
            raise ValueError("privacy.epsilon must be positive with a finite "
                             f"noise multiplier kappa, got {self.epsilon}")
        object.__setattr__(self, "k",
                           tuple(float(v) for v in np.atleast_1d(self.k)))
        if not all(0.0 < v < math.inf for v in self.k):
            raise ValueError("privacy.k: every adjacency magnitude k_i must "
                             f"be finite and positive, got {list(self.k)}")

    @property
    def m(self) -> int:
        return len(self.k)

    def k_vector(self) -> np.ndarray:
        return np.asarray(self.k, dtype=float)

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon, "delta": self.delta,
                "k": list(self.k)}


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_function(x):
    """Upper tail of the standard normal: (1/sqrt(2pi)) int_x^inf e^{-u^2/2}.

    By erfc, so the tail keeps its relative accuracy far out.
    """
    if np.ndim(x):
        return np.vectorize(_q, otypes=[float])(np.asarray(x, dtype=float))
    return _q(float(x))


def q_inverse(delta: float) -> float:
    """Upper-tail standard-normal quantile: q_function(x) = delta."""
    if not (0.0 < delta < 1.0):
        raise InvalidDelta(f"delta must lie in (0, 1), got {delta}")
    return -NormalDist().inv_cdf(delta)


def gaussian_delta(eps: float, sigma: float, Delta: float) -> float:
    """Smallest delta for which Gaussian noise of std sigma on a release of
    l2 sensitivity Delta is (eps, delta)-DP, by the exact profile

        delta(eps) = Phi(Delta/2sigma - eps sigma/Delta)
                     - e^eps Phi(-Delta/2sigma - eps sigma/Delta)

    (Balle & Wang, ICML 2018, "analytic Gaussian mechanism").
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if Delta <= 0.0:
        return 0.0
    a, b = Delta / (2.0 * sigma), eps * sigma / Delta
    tail = _q(a + b)
    return _q(b - a) - (math.exp(eps + math.log(tail)) if tail > 0.0 else 0.0)


def kappa(spec: PrivacySpec) -> float:
    """Gaussian mechanism noise multiplier for the (epsilon, delta) budget."""
    K = q_inverse(spec.delta)
    return (K + math.sqrt(K * K + 2.0 * spec.epsilon)) / (2.0 * spec.epsilon)


def noise_sigma(sensitivity: float, spec: PrivacySpec) -> float:
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    return kappa(spec) * float(sensitivity)
