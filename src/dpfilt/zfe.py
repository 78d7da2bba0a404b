"""Zero-forcing equalization mechanisms: diagonal prefilter design by
spectral factorization of column-norm spectra, the closed-form MSE
bounds, and mechanism assembly (prefilter + calibrated noise + exact
inverting postfilter)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotFactorizable, UnstableInverse
from .lti import (DEFAULT_GRID, ZERO_FILTER, RationalFilter, TransferMatrix,
                  freq_response, grid_omega, h2_norm, simulate,
                  trapezoid_mean)
from .privacy import PrivacySpec, kappa, noise_sigma
from .sensitivity import diagonal_sensitivity
from .spectral import factor_grid_error, scalar_spectral_factor

DEFAULT_FACTOR_ORDER = 40


@dataclass
class MechanismDesign:
    """A complete privacy mechanism: prefilter, noise scale, postfilter.

    kind is its document kind, that of a row of fileio.MECHANISMS. The
    postfilter maps the release v (T, m) to the centered estimate (T, p)
    by apply(v), except a df.DfDesign, whose closed loop
    df.run_df_mechanism runs. Its margins() are the (lead, tail) of the
    Monte Carlo burn-in and of the last samples, which need inputs past
    the run. `target` keeps the desired filter F for simulation and MSE
    evaluation. `input_mean` holds the public mean subtracted before the
    prefilter (its F(1)-image is added back on the output).
    """

    kind: str
    target: TransferMatrix
    prefilter: TransferMatrix
    noise_sigma: float
    privacy: PrivacySpec
    postfilter: object = None
    theory_mse: float | None = None
    input_mean: np.ndarray | None = None
    info: dict = field(default_factory=dict)

    @property
    def mu(self) -> np.ndarray:
        """The public input mean, zero when none is declared."""
        return self.input_mean if self.input_mean is not None \
            else np.zeros(self.prefilter.shape[1])

    def release(self, u: np.ndarray, seed) -> np.ndarray:
        """The private release v = G (u - mu) + noise of one input array
        (T, m); everything after it is post-processing."""
        m = self.prefilter.shape[1]
        if u.shape[1] != m:
            raise DimensionMismatch(
                f"stream has {u.shape[1]} channels, target expects {m}")
        v = simulate(self.prefilter, u - self.mu[None, :])
        if self.noise_sigma > 0:
            # not in place: with += the bank ZFE Monte Carlo peaked 1.6 MB
            # higher in resident memory (heap reuse, same arrays)
            v = v + np.random.default_rng(seed).normal(
                0.0, self.noise_sigma, size=v.shape)
        return v


def zfe_postfilter(F: TransferMatrix, G: TransferMatrix) -> TransferMatrix:
    """The exact zero-forcing postfilter H = F G^-1: entry (i, j) is
    F_ij / g_j, for G diagonal with stable minimum-phase entries g_j;
    UnstableInverse otherwise."""
    for i, gii in enumerate(G.diagonal_entries()):
        if not (gii.is_stable() and gii.is_minimum_phase()):
            raise UnstableInverse(
                f"prefilter entry {i + 1} is not stable minimum phase; "
                "refusing to invert")
    if not G.is_diagonal():
        raise UnstableInverse("ZFE prefilter must be diagonal")
    # 1 / g_j, then its product with F_ij, each normalized by its lag-0
    # denominator tap: one combined division would round differently
    inv = [RationalFilter(g.den, g.num) for g in G.diagonal_entries()]
    return TransferMatrix([
        [ZERO_FILTER if e.is_zero() else RationalFilter(
            np.convolve(e.num, v.num), np.convolve(e.den, v.den))
         for e, v in zip(row, inv, strict=True)] for row in F.entries])


def design_diag_prefilter(Fg, k, order: int = DEFAULT_FACTOR_ORDER
                          ) -> TransferMatrix:
    """Optimal diagonal prefilter: factor |F_i|_2 / k_i per input column
    of the target grid Fg."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.size != Fg.shape[2]:
        raise DimensionMismatch("k length must match the input count of F")
    cn = np.linalg.norm(Fg, axis=1)
    entries = []
    for i in range(k.size):
        try:
            g, _ = scalar_spectral_factor(cn[:, i] / k[i], order)
        except NotFactorizable as exc:
            raise NotFactorizable(
                f"column {i + 1} is not factorizable: {exc}") from exc
        entries.append(g)
    return TransferMatrix.diagonal(entries)


def zfe_mse_diag_bound(Fg, privacy: PrivacySpec) -> float:
    """Best MSE achievable by any diagonal-prefilter ZFE mechanism, on the
    grid of the target Fg."""
    integrand = np.linalg.norm(Fg, axis=1) @ privacy.k_vector()
    return float(kappa(privacy) ** 2 * trapezoid_mean(integrand) ** 2)


def zfe_general_lower_bound(Fg, privacy: PrivacySpec) -> float:
    """Nuclear-norm lower bound on the MSE of any ZFE mechanism, on the
    grid of the target Fg."""
    FK = Fg * privacy.k_vector()[None, None, :]
    nuclear = np.linalg.svd(FK, compute_uv=False).sum(axis=1)
    return float(kappa(privacy) ** 2 * trapezoid_mean(nuclear) ** 2)


def assemble_zfe(F: TransferMatrix, G: TransferMatrix, privacy: PrivacySpec,
                 N: int = DEFAULT_GRID) -> MechanismDesign:
    """Build the full ZFE mechanism for a diagonal minimum-phase prefilter.

    The postfilter H = F G^-1 is formed by exact per-column rational
    division, so H G = F holds identically. Noise is calibrated from the
    exact FIR/Gramian sensitivity of G; the reported theoretical MSE uses
    grid quadrature consistently in both norm factors.
    """
    H = zfe_postfilter(F, G)
    k = privacy.k_vector()
    if k.size != F.shape[1]:
        raise DimensionMismatch("privacy k length must match F inputs")
    kap = kappa(privacy)
    sens = diagonal_sensitivity(G, k)
    sigma = noise_sigma(sens, privacy)

    Fg = freq_response(F, N)
    omega = grid_omega(N)
    g2 = np.abs(np.stack([g.freq(omega) for g in G.diagonal_entries()],
                         axis=1)) ** 2
    gk2 = float(trapezoid_mean(g2 @ (k ** 2)))
    cn2 = np.linalg.norm(Fg, axis=1) ** 2
    hg2 = float(trapezoid_mean((cn2 / g2).sum(axis=1)))
    theory_mse = kap ** 2 * gk2 * hg2

    diag_bound = zfe_mse_diag_bound(Fg, privacy)
    nuclear_bound = zfe_general_lower_bound(Fg, privacy)
    cn = np.sqrt(cn2)
    info = {
        "sensitivity": sens,
        "prefilter_h2_grid": float(np.sqrt(gk2)),
        "postfilter_h2_grid": float(np.sqrt(hg2)),
        "prefilter_fit_errors": [factor_grid_error(cn[:, i] / k[i], g2[:, i])
                                 for i in range(k.size)],
        "diag_bound": diag_bound,
        "nuclear_bound": nuclear_bound,
        "optimality_gap": float(theory_mse - nuclear_bound),
        "grid_n": N,
    }
    return MechanismDesign(kind="zero_forcing", target=F, prefilter=G,
                           noise_sigma=float(sigma), privacy=privacy,
                           postfilter=H, theory_mse=float(theory_mse),
                           info=info)


def assemble_output_perturbation(F: TransferMatrix, privacy: PrivacySpec,
                                 N: int = DEFAULT_GRID) -> MechanismDesign:
    """Baseline mechanism: publish F u + w with noise scaled to the
    upper-bound sensitivity |k|_2 ||F||_2 on every output."""
    k = privacy.k_vector()
    if k.size != F.shape[1]:
        raise DimensionMismatch("privacy k length must match F inputs")
    sens = float(np.linalg.norm(k)) * h2_norm(F)
    sigma = noise_sigma(sens, privacy)
    p = F.shape[0]
    theory_mse = p * sigma ** 2
    Fg = freq_response(F, N)
    info = {"sensitivity": sens, "grid_n": N,
            "diag_bound": zfe_mse_diag_bound(Fg, privacy),
            "nuclear_bound": zfe_general_lower_bound(Fg, privacy)}
    return MechanismDesign(kind="output_perturbation", target=F, prefilter=F,
                           noise_sigma=float(sigma), privacy=privacy,
                           postfilter=TransferMatrix.identity(p),
                           theory_mse=float(theory_mse), info=info)
