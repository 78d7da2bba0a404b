"""Spectral factorization kernels.

Scalar targets are factored by the cepstral (Kolmogorov) construction:
FFT of the log spectrum, causal folding of the cepstrum, exponentiation.
Matrix spectra use Bauer's method, reading the factor off the bottom
block row of a Cholesky of the truncated block-Toeplitz covariance. That
matrix is block-banded, so its factor is formed chunk by chunk (the
banded block-Toeplitz Cholesky of Kailath and Sayed, "Fast Reliable
Algorithms for Matrices with Structure", 1999) and never held whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (FactorizationStalled, NotFactorizable,
                     NotPositiveDefinite)
from .lti import RationalFilter, grid_omega, taps_grid

# Log floor (relative to the peak), the share of the grid a spectrum may
# spend below it, and the autocovariance tail Bauer's method drops.
LOG_FLOOR_FRAC = 1e-12
PW_MAX_ZERO_FRAC = 0.01
BAUER_TAIL_TOL = 1e-10
# The truncated scalar factor is re-factored from its magnitude sampled on
# this many times the spectrum's grid; 2x moves the bench designs by 1e-10.
REFACTOR_OVERSAMPLE = 4
# Largest problem Bauer's method takes on, as the bytes of its dense
# block-Toeplitz matrix ((blocks * m)^2 floats). The banded kernel never
# allocates that matrix; the bound caps its time, which grows with it.
BAUER_MAX_BYTES = 256 * 2 ** 20
# Least rows of one chunk of Bauer's banded Cholesky (a chunk also spans
# at least the bandwidth). Narrow bands gain at most 1.5 ms from smaller
# chunks, and a problem of up to 64 rows is one chunk: the dense Cholesky.
BAUER_CHUNK_ROWS = 64
# Remedy for a spectrum that inherits a singular input spectrum.
FLOOR_HINT = "; add a white `spectrum.floor` to the input spectrum"


def _two_sided(values: np.ndarray) -> np.ndarray:
    """Extend samples on [0, pi] to the full circle by conjugate symmetry."""
    return np.concatenate([values, np.conj(values[-2:0:-1])], axis=0)


def grid_lags(values: np.ndarray) -> np.ndarray:
    """Real lags 0..N-1, -N..-1 (2N rows) of a conjugate-symmetric grid
    (N+1, ...) on omega_q = q pi / N: the inverse of lti.taps_grid."""
    return np.fft.ifft(_two_sided(values), axis=0).real


def paley_wiener_check(s) -> bool:
    """Operational log-integrability test on the grid.

    Fails when the spectrum is identically zero or vanishes (below the
    relative floor LOG_FLOOR_FRAC) on PW_MAX_ZERO_FRAC or more of it.
    """
    s = np.asarray(s, dtype=float)
    peak = float(s.max(initial=0.0))
    if peak <= 0.0 or not np.all(np.isfinite(s)):
        return False
    floor = LOG_FLOOR_FRAC * peak
    frac_below = float(np.mean(s < floor))
    if frac_below >= PW_MAX_ZERO_FRAC:
        return False
    return bool(np.isfinite(np.sum(np.log(np.maximum(s, floor)))))


def _cepstral_impulse(s: np.ndarray) -> np.ndarray:
    """Full-length minimum-phase impulse response with |g|^2 = s on the grid."""
    floor = LOG_FLOOR_FRAC * float(s.max())
    cep = grid_lags(np.log(np.maximum(s, floor))) / 2.0
    L = cep.size
    fold = np.zeros(L)
    fold[0] = 1.0
    fold[1: L // 2] = 2.0
    fold[L // 2] = 1.0
    gw = np.exp(np.fft.fft(cep * fold))
    return np.fft.ifft(gw).real


def factor_grid_error(s, mag2) -> float:
    """Relative L-infinity error of a factor's squared magnitude mag2
    against the target s, both sampled on one grid."""
    s = np.asarray(s, dtype=float)
    return float(np.max(np.abs(mag2 - s)) / max(s.max(), 1e-300))


def scalar_spectral_factor(s, order: int, *, enforce_pw: bool = True
                           ) -> tuple[RationalFilter, float]:
    """Minimum-phase FIR factor g of a nonnegative grid spectrum.

    Returns (g, relative L-infinity grid error of |g|^2 vs s). The
    impulse response of the exact cepstral factor is truncated to
    order+1 taps, which may leave zeros on or outside the circle; those
    taps are then replaced by the cepstral factor of their own |taps|^2,
    sampled on a grid REFACTOR_OVERSAMPLE times finer, and truncated
    again (the homomorphic construction of Oppenheim and Schafer).
    """
    s = np.asarray(s, dtype=float)
    if order < 1:
        raise ValueError("order must be at least 1")
    if np.any(s < 0):
        raise NotFactorizable("spectrum has negative samples")
    if enforce_pw and not paley_wiener_check(s):
        raise NotFactorizable(
            "spectrum violates the log-integrability condition")
    if float(s.max(initial=0.0)) <= 0.0:
        raise NotFactorizable("spectrum is identically zero")
    h = _cepstral_impulse(s)[: order + 1]
    mag2 = np.abs(np.fft.rfft(h, 2 * REFACTOR_OVERSAMPLE * (s.size - 1))) ** 2
    g = RationalFilter(_cepstral_impulse(mag2)[: order + 1])
    return g, factor_grid_error(
        s, np.abs(g.freq(grid_omega(s.size - 1))) ** 2)


@dataclass
class MatrixFactorization:
    """Canonical factor P(z) = L(z) Pe L(z^-1)^T with L causal, L(inf) = I."""

    coeffs: np.ndarray          # (K+1, m, m), coeffs[0] = I
    pe: np.ndarray              # (m, m) symmetric positive definite
    grid_error: float = 0.0
    causally_invertible: bool = True
    meta: dict = field(default_factory=dict)

    def eval_grid(self, N: int) -> np.ndarray:
        """L(e^{j omega_q}) on omega_q = q pi / N, q = 0..N, shape
        (N+1, m, m), from one taps_grid FFT."""
        return taps_grid(self.coeffs, N)

    def reconstruct(self, N: int) -> np.ndarray:
        """L Pe L^H on the grid of eval_grid(N)."""
        Lg = self.eval_grid(N)
        LP = Lg @ self.pe
        np.conj(Lg, out=Lg)
        return LP @ np.swapaxes(Lg, 1, 2)


def _det_winding(Lg: np.ndarray) -> int:
    det = np.linalg.det(Lg)
    det_full = _two_sided(det)
    ang = np.unwrap(np.angle(np.concatenate([det_full, det_full[:1]])))
    return int(np.round((ang[-1] - ang[0]) / (2 * np.pi)))


def _truncate_tail(h: np.ndarray, tol: float,
                   peak: float | None = None) -> np.ndarray:
    """h cut after its last tap above tol times peak (default: its own)."""
    mags = np.abs(h).reshape(h.shape[0], -1).max(axis=1)
    keep = np.nonzero(mags > tol * (mags.max() if peak is None else peak))[0]
    stop = int(keep[-1]) + 1 if keep.size else 1
    return h[:stop]


def _diagonal_factor(P: np.ndarray, off_peak: float,
                     scale: float) -> MatrixFactorization:
    """Per-entry cepstral factorization for (block-free) diagonal spectra.

    off_peak is the largest off-diagonal |P_ij| and scale the largest
    |P_ij|. The factor is diagonal, so its grid error is the larger of
    off_peak and the per-channel max |pe_ii |g_i|^2 - P_ii|, over scale.
    """
    N, m = P.shape[0] - 1, P.shape[1]
    idx = np.arange(m)
    diag = P[:, idx, idx]
    max_len = 1
    taps = []
    gains = np.zeros(m)
    for i in range(m):
        h = _cepstral_impulse(diag[:, i].real)
        h = _truncate_tail(h[: N], 1e-12)
        gains[i] = h[0]
        taps.append(h / h[0])
        max_len = max(max_len, h.size)
    coeffs = np.zeros((max_len, m, m))
    for i in range(m):
        coeffs[: taps[i].size, i, i] = taps[i]
    fact = MatrixFactorization(coeffs=coeffs, pe=np.diag(gains ** 2))
    g = taps_grid(coeffs[:, idx, idx], N)
    mag2 = g.real ** 2 + g.imag ** 2
    diag_err = float(np.max(np.abs(gains ** 2 * mag2 - diag)))
    fact.grid_error = max(diag_err, off_peak) / max(scale, 1e-300)
    return fact


def _toeplitz_chunk(R: np.ndarray, band: int, c: int,
                    offset: int) -> np.ndarray:
    """The c x c block chunk of the block-Toeplitz matrix whose block
    (i, j) is R[i - j] on and below the diagonal and R[j - i]^T above it,
    starting offset blocks below the diagonal (lags up to band)."""
    m = R.shape[1]
    chunk = np.zeros((c * m, c * m))
    C4 = chunk.reshape(c, m, c, m)      # C4[a, :, b, :] is block (a, b)
    for d in range(max(offset - c + 1, -band), min(offset + c, band + 1)):
        a = np.arange(max(0, d - offset), min(c, c + d - offset))
        C4[a, :, a + offset - d, :] = R[d] if d >= 0 else R[-d].T
    return chunk


def _bauer_rows(R: np.ndarray, band: int, n: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Block rows n-1 and n-2 of the lower Cholesky factor of the n-block
    Toeplitz matrix of the autocovariance lags R (lags above band are
    zero), from the diagonal block outward: (depth, m, m) and
    (min(depth, n - 1), m, m), depth = min(band + 1, n).

    In chunks of c >= max(band, 2) blocks the matrix is block tridiagonal,
    with the same diagonal chunk D and sub-diagonal chunk E throughout.
    Its factor is formed chunk by chunk, the first chunk taking the
    remainder r of n blocks: L = chol(D[:r, :r]), then M = E L^-T and
    L = chol(D - M M^T) per chunk (E cut to the previous chunk's
    columns). Only the last pair [M, L] is held; with c >= 2 it holds
    both rows. LinAlgError when a chunk is not positive definite.
    """
    m = R.shape[1]
    c = min(n, max(band, 2, -(-BAUER_CHUNK_ROWS // m)))
    r = n - (-(-n // c) - 1) * c
    D = _toeplitz_chunk(R, band, c, 0)
    E = _toeplitz_chunk(R, band, c, c)
    L = np.linalg.cholesky(D[: r * m, : r * m])
    below = E[:, (c - r) * m:]
    M = None
    for _ in range(r, n, c):
        M = np.linalg.solve(L, below.T).T
        L = np.linalg.cholesky(D - M @ M.T)
        below = E
    # the last chunk's rows of the factor over its columns and the
    # previous chunk's
    W4 = (L if M is None else np.concatenate([M, L], axis=1)).reshape(
        c, m, -1, m)
    w = W4.shape[2]
    depth = min(band + 1, n)
    row = np.stack([W4[c - 1, :, w - 1 - k] for k in range(depth)])
    prev = np.stack([W4[c - 2, :, w - 2 - k]
                     for k in range(min(depth, n - 1))])
    return row, prev


def matrix_canonical_factor(P: np.ndarray, tol: float = 1e-6,
                            max_blocks: int = 4096, name: str = "spectrum",
                            hint: str = "") -> MatrixFactorization:
    """Canonical spectral factorization of a Hermitian PD grid spectrum
    P, an (N+1, m, m) array.

    Diagonal spectra are dispatched to the scalar cepstral kernel; the
    general case runs Bauer's block-Toeplitz Cholesky with the bandwidth
    chosen so the discarded autocovariance tail is below BAUER_TAIL_TOL,
    factoring the band chunk by chunk and keeping only the factor's last
    two block rows (_bauer_rows).
    A singular sample raises NotPositiveDefinite naming the spectrum
    (name), the worst frequency and its eigenvalue ratio, then the hint.
    The block count doubles until the grid error is within tol (and the
    factor's last rows agree); FactorizationStalled names the block counts
    and grid errors tried once a doubling fails to halve the grid error,
    or before a block count whose dense (blocks * m)^2 matrix would exceed
    BAUER_MAX_BYTES is factored.
    """
    samples = np.asarray(P, dtype=complex)
    N, m = samples.shape[0] - 1, samples.shape[1]
    if samples.shape[1:] != (m, m):
        raise NotPositiveDefinite("spectrum must be square matrix-valued")
    scale = float(np.max(np.abs(samples)))
    PH = np.conj(np.swapaxes(samples, 1, 2))
    if np.max(np.abs(samples - PH)) > 1e-8 * max(scale, 1e-300):
        raise NotPositiveDefinite("spectrum samples are not Hermitian")
    lam = np.linalg.eigvalsh(0.5 * (samples + PH)).min(axis=1)
    worst = int(np.argmin(lam))
    if lam[worst] <= 1e-13 * scale:
        raise NotPositiveDefinite(
            f"{name} has a (numerically) singular sample on the grid: "
            f"min eigenvalue / max |P| = {lam[worst] / max(scale, 1e-300):.3g}"
            f" at omega = {grid_omega(N)[worst]:.6g}{hint}")
    off = samples.copy()
    idx = np.arange(m)
    off[:, idx, idx] = 0.0
    off_peak = float(np.max(np.abs(off)))
    if off_peak <= 1e-14 * scale:
        return _diagonal_factor(samples, off_peak, scale)

    R = grid_lags(samples)
    norms = np.linalg.norm(R, axis=(1, 2))
    above = np.nonzero(norms > BAUER_TAIL_TOL * norms[0])[0]
    band = int(min(above[above < N].max(initial=0) + 1, N))
    n_blocks = min(max(4 * band + 16, 32), max_blocks)
    tried = []                  # (blocks, grid error) per Cholesky
    while True:
        n = n_blocks
        if 8 * (n * m) ** 2 > BAUER_MAX_BYTES:
            raise FactorizationStalled(
                f"{name} needs Bauer's method at {n} blocks (autocovariance "
                f"bandwidth {band} lags, {m} channels): its dense "
                f"{8 * (n * m) ** 2 / 2 ** 20:.0f} MB block-Toeplitz matrix "
                f"exceeds the {BAUER_MAX_BYTES / 2 ** 20:.0f} MB budget"
                + ("" if not tried else f" (grid error {tried[-1][1]:.2e} "
                   f"at {tried[-1][0]} blocks)")
                + "; shorten the spectrum's memory with a white "
                "`spectrum.floor` or a lower `mechanism.factor_order`")
        try:
            row, prev = _bauer_rows(R, band, n)
        except np.linalg.LinAlgError as exc:
            raise FactorizationStalled(
                f"block-Toeplitz Cholesky failed at {n} blocks: {exc}"
            ) from exc
        drift = float(np.max(np.abs(row[: prev.shape[0]] - prev)))
        W0 = row[0]
        coeffs = np.einsum("kij,jl->kil", row, np.linalg.inv(W0))
        fact = MatrixFactorization(coeffs=_truncate_tail(coeffs, 1e-13),
                                   pe=W0 @ W0.T,
                                   meta={"blocks": n, "bandwidth": band})
        recon = fact.reconstruct(N)
        err = float(np.max(np.abs(recon - samples)) / scale)
        fact.grid_error = err
        tried.append((n, err))
        if err <= tol and drift <= 10 * tol:
            break
        # a doubling that fails to halve the grid error stalls
        if n_blocks >= max_blocks or (
                len(tried) > 1 and err > max(tol, tried[-2][1] / 2)):
            errors = ", ".join(f"{e:.2e} at {b}" for b, e in tried)
            raise FactorizationStalled(
                f"Bauer iteration stalled at {n} blocks (grid error "
                f"{errors} blocks, row drift {drift:.2e})")
        n_blocks = min(2 * n_blocks, max_blocks)
    Lg = fact.eval_grid(N)
    fact.causally_invertible = (_det_winding(Lg) == 0 and
                                float(np.min(np.abs(np.linalg.det(Lg)))) > 0)
    return fact


def conjugate_factorization(P: np.ndarray, **kwargs) -> MatrixFactorization:
    """Factor P as S(z^-1)^T T S(z) with S monic causal: the factorization
    holding the coefficients of S, with T as its pe.

    Obtained from the canonical factorization of the transposed spectrum.
    """
    fact = matrix_canonical_factor(np.swapaxes(P, 1, 2), **kwargs)
    fact.coeffs = np.swapaxes(fact.coeffs, 1, 2)
    return fact
