"""Markov-chain event sources: stationary analysis, z-spectrum of the
indicator streams, sampling, and the 4-state idle/busy server example."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotErgodic
from .lti import grid_omega

ERGODIC_TOL = 1e-9


@dataclass
class MarkovSource:
    """Column-stochastic transition matrix plus event-channel selectors.

    Pi[i, j] = P(x_{t+1} = e_i | x_t = e_j); channel c emits 1 whenever
    the chain sits in state selectors[c] (0-based). As a stream source,
    sample(T, seed) is a stationary (T, m) sample path.
    """

    Pi: np.ndarray
    selectors: tuple
    name = "markov"

    def __post_init__(self):
        self.Pi = np.asarray(self.Pi, dtype=float)
        n = self.Pi.shape[0]
        if self.Pi.shape != (n, n):
            raise ConfigError("transition matrix must be square")
        if np.any(self.Pi < -1e-12):
            raise ConfigError("transition probabilities must be nonnegative")
        if np.max(np.abs(self.Pi.sum(axis=0) - 1.0)) > 1e-9:
            raise ConfigError("columns of the transition matrix must sum to 1")
        self.selectors = tuple(int(s) for s in np.atleast_1d(self.selectors))
        if any(not 0 <= s < n for s in self.selectors):
            raise ConfigError("selector indices out of range")

    @property
    def n_states(self) -> int:
        return self.Pi.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.selectors)

    def sample(self, T: int, seed: int) -> np.ndarray:
        return sample_chain(self, T, seed)

    def selector_matrix(self) -> np.ndarray:
        E = np.zeros((self.n_states, self.n_channels))
        for c, s in enumerate(self.selectors):
            E[s, c] = 1.0
        return E


def stationary_distribution(src: MarkovSource) -> np.ndarray:
    """Unique probability vector with Pi p = p, via the eigenproblem."""
    vals, vecs = np.linalg.eig(src.Pi)
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    if abs(vals[0] - 1.0) > 1e-9:
        raise NotErgodic("no unit eigenvalue: not a stochastic matrix?")
    if len(vals) > 1 and abs(vals[1]) >= 1.0 - ERGODIC_TOL:
        raise NotErgodic(
            f"second eigenvalue {vals[1]:.6g} too close to the unit circle; "
            "chain is reducible or periodic")
    p = np.real(vecs[:, 0])
    p = p / p.sum()
    if np.any(p < -1e-12):
        raise NotErgodic("stationary vector has negative entries")
    p = np.maximum(p, 0.0)
    p = p / p.sum()
    # polish with a few power iterations for a residual at solver precision
    for _ in range(5):
        p = src.Pi @ p
        p /= p.sum()
    return p


def chain_spectrum(src: MarkovSource, N: int = 1024
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Centered z-spectrum of the indicator channels on the grid.

    Uses the centered resolvent Z = Pi - p 1^T, whose spectral radius is
    strictly below one for an ergodic chain, so every grid point
    (including omega = 0, where zI - Pi itself is singular) is a plain
    linear solve. Returns (spectrum of u - mean, mean vector).
    """
    p = stationary_distribution(src)
    n = src.n_states
    D = np.diag(p)
    Z = src.Pi - np.outer(p, np.ones(n))
    if np.max(np.abs(np.linalg.eigvals(Z))) >= 1.0 - ERGODIC_TOL:
        raise NotErgodic("centered transition operator is not a contraction")
    E = src.selector_matrix()
    R0 = (np.eye(n) - np.outer(p, np.ones(n))) @ D
    eye = np.eye(n)
    # one batched solve per term over the whole grid
    z = np.exp(1j * grid_omega(N))[:, None, None]
    shape = (N + 1, n, n)
    A1 = Z @ np.linalg.solve(z * eye - Z, np.broadcast_to(D, shape))
    A2 = np.linalg.solve((1.0 / z) * eye - Z.T, np.broadcast_to(Z.T, shape))
    out = E.T @ (R0 + A1 + D @ A2) @ E
    # enforce exact Hermitian symmetry against roundoff
    out = 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))
    return out, p[list(src.selectors)]


def autocovariance(src: MarkovSource, lags: int) -> np.ndarray:
    """Matrix-power oracle R[k] = E^T (Pi^k D - p p^T) E for k = 0..lags."""
    p = stationary_distribution(src)
    D = np.diag(p)
    E = src.selector_matrix()
    out = np.empty((lags + 1, src.n_channels, src.n_channels))
    Pk = np.eye(src.n_states)
    for k in range(lags + 1):
        out[k] = E.T @ (Pk @ D - np.outer(p, p)) @ E
        Pk = src.Pi @ Pk
    return out


def sample_chain(src: MarkovSource, T: int, seed: int) -> np.ndarray:
    """Stationary (T, m) sample path of the indicator channels (values in
    {0, 1})."""
    p = stationary_distribution(src)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(src.Pi, axis=0)
    cum[-1, :] = 1.0
    # next state = first index whose cumulative probability reaches the
    # draw (searchsorted's side='left', which bisect_left matches)
    columns = cum.T.tolist()
    state = int(np.searchsorted(np.cumsum(p), rng.random()))
    states = [0] * T
    for t, draw in enumerate(rng.random(T).tolist()):
        states[t] = state
        state = bisect_left(columns[state], draw)
    states = np.asarray(states, dtype=np.int64)
    data = np.zeros((T, src.n_channels))
    for c, s in enumerate(src.selectors):
        data[:, c] = states == s
    return data


def server_example(alpha: float, beta: float) -> MarkovSource:
    """Idle/busy server with transition events on the intermediate states.

    State order (idle, s1, busy, s2); entering s1 marks channel 1 and
    entering s2 marks channel 2. Stationary probabilities are
    (beta, alpha*beta, alpha, alpha*beta)/(alpha + beta + 2*alpha*beta).
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ConfigError("server chain alpha and beta are probabilities, "
                          f"got alpha {alpha!r} and beta {beta!r}")
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise NotErgodic("server chain requires alpha, beta in (0, 1)")
    Pi = np.array([
        [1.0 - alpha, 0.0, 0.0,        1.0],
        [alpha,       0.0, 0.0,        0.0],
        [0.0,         1.0, 1.0 - beta, 0.0],
        [0.0,         0.0, beta,       0.0],
    ])
    return MarkovSource(Pi=Pi, selectors=(1, 3))


def server_stationary(alpha: float, beta: float) -> np.ndarray:
    q = alpha + beta + 2.0 * alpha * beta
    return np.array([beta, alpha * beta, alpha, alpha * beta]) / q
