"""Linear mean-square mechanisms: Wiener smoother and causal Wiener
postfilters exploiting public second-order input statistics, and the
convex allocation of prefilter magnitude across channels and
frequencies (waterfilling closed form / projected gradient).

Throughout, tilde quantities absorb the privacy calibration:
Ft = kappa * F * K, Pt = K^-1 P_u K^-1 / kappa^2, and the squared
prefilter magnitudes x_iq integrate (trapezoidally) to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateObjective, DimensionMismatch,
                     NotDiagonal, NotPositiveDefinite, OptimizerStalled)
from .lti import (RationalFilter, TransferMatrix, freq_response, grid_omega,
                  next_fast_len, taps_grid, trapezoid_mean, trapezoid_weights)
from .privacy import PrivacySpec, kappa, noise_sigma
from .sensitivity import diagonal_sensitivity
from .spectral import (FLOOR_HINT, _truncate_tail, grid_lags,
                       matrix_canonical_factor, scalar_spectral_factor)
from .zfe import DEFAULT_FACTOR_ORDER, MechanismDesign

_ZERO_CHANNEL_TOL = 1e-12
# Causal postfilter and DF forward taps are cut after the last one above
# this fraction of their peak.
TAP_CUT = 1e-12
# The optimizer stops after three steps that each gain less than this
# relative amount; smoother taps are cut at this fraction of their peak.
OPTIMIZER_TOL = 1e-12
SMOOTHER_TAIL_TOL = 1e-10


def _tilde(Fg: np.ndarray, Pg: np.ndarray, k: np.ndarray, kap: float):
    Ft = kap * Fg * k[None, None, :]
    scale = np.outer(1.0 / k, 1.0 / k) / kap ** 2
    Pt = Pg * scale[None, :, :]
    return Ft, Pt


def _psd_sqrt(P: np.ndarray) -> np.ndarray:
    """Batched Hermitian PSD square root (eigenvalues clipped at zero)."""
    w, V = np.linalg.eigh(0.5 * (P + np.conj(np.swapaxes(P, 1, 2))))
    Vc = np.conj(V)
    V *= np.sqrt(np.maximum(w, 0.0))[:, None, :]
    return V @ np.swapaxes(Vc, 1, 2)


def _bracket_inverse_times(Pt: np.ndarray, C: np.ndarray,
                           B: np.ndarray) -> np.ndarray:
    """(Pt^-1 + C)^-1 @ B without forming Pt^-1.

    Uses the identity (P^-1 + C)^-1 = R (I + R C R)^-1 R with R = P^{1/2},
    which stays exact (zero in the null directions) when Pt is singular
    on part of the grid; direct inversion of a near-singular Pt loses all
    precision in the finite directions.
    """
    R = _psd_sqrt(Pt)
    m = Pt.shape[1]
    inner = np.eye(m)[None, :, :] + R @ C @ R
    return R @ np.linalg.solve(inner, R @ B)


def wiener_spectra(Fg: np.ndarray, P_u: np.ndarray, Gg: np.ndarray,
                   sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """(P_yv, P_v) of the release v = G u + w, w white of scale s: the cross
    spectrum F P_u G* of y = F u with v, and G P_u G* + s^2 I, which must
    be nonsingular when s = 0."""
    GgH = np.conj(np.swapaxes(Gg, 1, 2))
    Pv = Gg @ P_u @ GgH + sigma ** 2 * np.eye(P_u.shape[1])[None, :, :]
    if sigma == 0.0:
        eig = np.linalg.eigvalsh(0.5 * (Pv + np.conj(np.swapaxes(Pv, 1, 2))))
        if np.min(eig) <= 1e-13 * max(float(np.max(np.abs(Pv))), 1e-300):
            raise NotPositiveDefinite(
                "noise-free observation spectrum is singular on the grid")
    return Fg @ P_u @ GgH, Pv


def wiener_smoother(P_yv: np.ndarray, P_v: np.ndarray) -> np.ndarray:
    """Non-causal linear MMSE postfilter H = P_yv P_v^-1 on the grid of the
    spectra of wiener_spectra."""
    try:
        return np.conj(np.swapaxes(
            np.linalg.solve(P_v, np.conj(np.swapaxes(P_yv, 1, 2))), 1, 2))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"observation spectrum singular on the grid: {exc}") from exc


def lms_objective(Fg, P_u: np.ndarray, privacy: PrivacySpec, x) -> float:
    """Smoother-postfilter MSE for a feasible allocation profile x on the
    grid of Fg: x[q, i] = |g~_ii(e^{j omega_q})|^2, shape (N+1, m).

    When P_u is exactly diagonal (every off-diagonal entry is 0) the
    integrand is the per-channel sum of |Ft_i|^2 pt_i / (1 + pt_i x_i),
    exact also where pt_i = 0; any other P_u takes the dense route.
    """
    x = np.asarray(x, dtype=float)
    N = Fg.shape[0] - 1
    if x.shape[0] != N + 1:
        raise ConfigError(f"profile grid {x.shape[0] - 1} does not match "
                          f"the spectrum grid {N}")
    k = privacy.k_vector()
    kap = kappa(privacy)
    m = x.shape[1]
    idx = np.arange(m)
    if _is_diagonal(P_u):
        # negative entries clip to zero, as in the dense route's square root
        pt = np.maximum(np.real(P_u[:, idx, idx]), 0.0) \
            / (kap ** 2 * (k ** 2)[None, :])
        integrand = np.sum(_column_tilde_sq(Fg, k, kap) * pt
                           / (1.0 + pt * x), axis=1)
    else:
        Ft, Pt = _tilde(Fg, P_u, k, kap)
        X = np.zeros((x.shape[0], m, m))
        X[:, idx, idx] = x
        Y = _bracket_inverse_times(Pt, X, np.conj(np.swapaxes(Ft, 1, 2)))
        integrand = np.einsum("qij,qji->q", Ft, Y).real
    return float(trapezoid_mean(integrand))


def _is_diagonal(P: np.ndarray) -> bool:
    """Whether every off-diagonal entry of the (N+1, m, m) grid P is 0."""
    return not np.any(P[:, ~np.eye(P.shape[1], dtype=bool)])


def _column_tilde_sq(Fg: np.ndarray, k: np.ndarray, kap: float) -> np.ndarray:
    """|Ft_i(omega)|_2^2 per column, shape (N+1, m)."""
    return (kap ** 2) * (np.linalg.norm(Fg, axis=1) ** 2) * (k ** 2)[None, :]


def waterfill_diagonal(Fg, P_u: np.ndarray, privacy: PrivacySpec):
    """Closed-form allocation for uncorrelated (diagonal-spectrum) inputs.

    x_i(omega) = max(0, |Ft_i(omega)|_2 / sqrt(lam) - 1/pt_i(omega)), with
    the multiplier lam (an exact hinge root) that makes the profile
    integrate to one.
    Returns (x, lam). NotDiagonal unless every off-diagonal entry of P_u
    is 0, NotPositiveDefinite unless its diagonal is positive on the grid.
    """
    if not _is_diagonal(P_u):
        raise NotDiagonal("waterfilling requires a diagonal input spectrum")
    idx = np.arange(P_u.shape[1])
    k = privacy.k_vector()
    kap = kappa(privacy)
    Ft_sq = _column_tilde_sq(Fg, k, kap)
    if float(Ft_sq.max(initial=0.0)) <= 0.0:
        raise DegenerateObjective("target filter is identically zero")
    p_diag = np.real(P_u[:, idx, idx])
    if np.any(p_diag <= 0):
        raise NotPositiveDefinite("input spectrum must be positive")
    pt = p_diag / (kap ** 2 * (k ** 2)[None, :])
    x, lam = _waterfill_level(np.sqrt(Ft_sq), pt)
    x /= trapezoid_mean(x.sum(axis=1))
    return x, lam


def _hinge_root(w: np.ndarray, p: np.ndarray, r: np.ndarray) -> float:
    """Exact s with sum(w * max(0, p s - r)) = 1, for w > 0, p >= 0.

    The sum is nondecreasing and piecewise linear in s with kinks at
    r / p (terms with p = 0 never switch on). Sorted kinks and cumulative
    sums of w p and w r give its value at every kink; s lies on the
    segment that first reaches one, where the active terms are known.
    """
    w, p, r = w.ravel(), p.ravel(), r.ravel()
    live = p > 0
    w, p, r = w[live], p[live], r[live]
    kink = r / p
    order = np.argsort(kink)
    kink = kink[order]
    cwp = np.cumsum((w * p)[order])
    cwr = np.cumsum((w * r)[order])
    reach = kink * cwp - cwr >= 1.0
    j = int(np.argmax(reach)) if reach.any() else kink.size
    s = (1.0 + cwr[j - 1]) / cwp[j - 1]
    # one Newton step with pairwise sums removes the cumulative sums'
    # rounding, which cancellation can amplify when p s is close to r
    on = p * s > r
    return float(s - (np.sum(w[on] * (p[on] * s - r[on])) - 1.0)
                 / np.sum(w[on] * p[on]))


def _waterfill_level(amp: np.ndarray, pt: np.ndarray):
    """Waterfilling profile x = max(0, amp / sqrt(lam) - 1 / pt) on the
    (N+1, m) grid with the multiplier lam that makes it integrate to one;
    returns (x, lam)."""
    w = np.broadcast_to(trapezoid_weights(amp.shape[0] - 1)[:, None],
                        amp.shape)
    t = _hinge_root(w, amp, 1.0 / pt)
    return np.maximum(0.0, amp * t - 1.0 / pt), 1.0 / t ** 2


def _project_profile(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(weights * x) = 1}: the
    projection is max(0, y + s weights) with s the exact hinge root."""
    return np.maximum(0.0, y + _hinge_root(weights, weights, -y) * weights)


def optimize_prefilter_general(Fg, P_u: np.ndarray, privacy: PrivacySpec,
                               max_iter: int = 2000):
    """Minimize the smoother MSE over feasible diagonal allocations;
    returns (x, objective).

    When P_u is exactly diagonal (every off-diagonal entry is 0) and its
    diagonal is positive on the whole grid, the waterfilling profile of
    waterfill_diagonal is the exact minimizer and is returned with its
    objective. Any other P_u runs the projected gradient.
    """
    try:
        x, _ = waterfill_diagonal(Fg, P_u, privacy)
    except (NotDiagonal, NotPositiveDefinite):
        return _projected_gradient(Fg, P_u, privacy, max_iter)
    return x, lms_objective(Fg, P_u, privacy, x)


def _projected_gradient(Fg, P_u: np.ndarray, privacy: PrivacySpec,
                        max_iter: int = 2000):
    """(x, objective) by projected gradient with Armijo backtracking on
    the discretized convex objective, warm-started from waterfilling on
    the diagonal part of P_u; the closed-form gradient is the negated
    diagonal of (Pt^-1 + X)^-1 Ft* Ft (Pt^-1 + X)^-1 weighted by the
    trapezoid rule.
    """
    N, m = Fg.shape[0] - 1, P_u.shape[1]
    k = privacy.k_vector()
    kap = kappa(privacy)
    Ft, Pt = _tilde(Fg, P_u, k, kap)
    if float(np.max(np.abs(Ft))) <= 0.0:
        raise DegenerateObjective("target filter is identically zero")
    R = _psd_sqrt(Pt)
    eye = np.eye(m)[None, :, :]
    idx = np.arange(m)
    w_q = trapezoid_weights(N)
    weights = np.repeat(w_q[:, None], m, axis=1)
    RFtH = R @ np.conj(np.swapaxes(Ft, 1, 2))

    def value_grad(x: np.ndarray):
        RXR = (R * x[:, None, :]) @ R       # R diag(x) R
        Y = R @ np.linalg.solve(eye + RXR, RFtH)        # (N+1, m, p)
        val = float(np.einsum("qij,qji->", Ft * w_q[:, None, None], Y).real)
        grad = -w_q[:, None] * np.einsum("qir,qir->qi",
                                         np.conj(Y), Y).real
        return val, grad

    # warm start from waterfilling on the diagonal part of the spectrum
    p_diag = np.maximum(np.real(P_u[:, idx, idx]), 1e-300)
    pt = p_diag / (kap ** 2 * (k ** 2)[None, :])
    x, _ = _waterfill_level(np.sqrt(_column_tilde_sq(Fg, k, kap)), pt)
    x = _project_profile(x, weights)

    val, grad = value_grad(x)
    step = 1.0 / max(float(np.max(np.abs(grad))) * N, 1e-12)
    stall = 0
    rel_impr = np.inf
    for _ in range(max_iter):
        accepted = False
        for _ in range(60):
            xn = _project_profile(x - step * grad, weights)
            vn, gn = value_grad(xn)
            d = xn - x
            if vn <= val + float((grad * d).sum()) \
                    + 0.5 / step * float((d * d).sum()) + 1e-15:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        rel_impr = (val - vn) / max(abs(val), 1e-300)
        x, val, grad = xn, vn, gn
        step *= 1.3
        if rel_impr < OPTIMIZER_TOL:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
    else:
        if rel_impr > 1e-7:
            raise OptimizerStalled(
                f"projected gradient stalled at objective {val}", x)
    return x, val


class FirBank:
    """A MIMO FIR filter, taps (L, p, m), run by overlap-save block
    convolution (Stockham 1966) with its tap spectra taken once.

    Blocks are N = next_fast_len(8 L) samples long and each yields its
    last N - L + 1 outputs. A run takes the block rffts of one input
    channel at a time, adds that channel's frequency-domain products
    into one accumulator per output, and takes one batched irfft per
    output. So a run holds the output, the p accumulators of
    (blocks, N / 2 + 1) complex values, and one input channel's spectra
    and product.
    """

    def __init__(self, taps: np.ndarray):
        self.taps = np.asarray(taps, dtype=float)
        L = self.taps.shape[0]
        self.n = next_fast_len(8 * L)
        # (p, m, n // 2 + 1): one contiguous spectrum per tap column
        self.spectra = np.ascontiguousarray(
            np.moveaxis(np.fft.rfft(self.taps, self.n, axis=0), 0, -1))

    def run(self, v: np.ndarray, offset: int = 0) -> np.ndarray:
        """Samples offset..offset+T-1 of the convolution of the taps with
        v (T, m), zero past its end."""
        T, m = v.shape
        L, p, _ = self.taps.shape
        n = self.n
        step = n - L + 1
        nb = max(-(-T // step), 1)
        # z[i] = v[start + i], zero outside v; block b is z[b step:][:n]
        start = offset - L + 1
        z = np.zeros(nb * step + L - 1)
        lo, hi = max(start, 0), min(T, start + z.size)
        blocks = np.lib.stride_tricks.as_strided(
            z, (nb, n), (step * z.itemsize, z.itemsize), writeable=False)
        Y = np.zeros((p, nb, n // 2 + 1), dtype=complex)
        for j in range(m):
            if hi > lo:
                z[lo - start:hi - start] = v[lo:hi, j]
            X = np.fft.rfft(blocks, axis=-1)
            for i in range(p):
                Y[i] += self.spectra[i, j] * X
        # every block's outputs, written in place; the run is the first T
        y = np.empty((nb * step, p))
        for i in range(p):
            y.reshape(nb, step, p)[:, :, i] = \
                np.fft.irfft(Y[i], n, axis=-1)[:, L - 1:]
        y[max(T + L - 1 - offset, 0):] = 0.0
        return y[:T]


def monic_inverse_filter(coeffs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve L e = v recursively for a monic FIR matrix polynomial L
    (coeffs (K+1, m, m), coeffs[0] = I) and v of shape (T, m), or
    (T, B, m) for B right-hand sides solved at once.

    Forward substitution: step t subtracts the taps applied to the last K
    outputs (zero-padded), summed oldest lag first, the order in which a
    long recursion stays closest to exact.
    """
    x = v[:, None] if v.ndim == 2 else v
    T, B, m = x.shape
    K = coeffs.shape[0] - 1
    rev = coeffs[1:][::-1]                           # oldest lag first
    hist = np.zeros((T + K, B, m))
    e = hist[K:]
    for t in range(T):
        np.subtract(x[t], np.einsum("kij,kbj->bi", rev, hist[t:t + K]),
                    out=e[t])
    return e[:, 0].copy() if v.ndim == 2 else e.copy()


def causal_taps(mc: np.ndarray, pe: np.ndarray, l_coeffs: np.ndarray
                ) -> np.ndarray:
    """Impulse response (n, p, m) of mc * Pe^-1 L^-1, cut after its last
    tap above TAP_CUT times its peak.

    W = Mc Pe^-1 L^-1 solves W L = Mc Pe^-1, so the rows of W are the
    monic recursion in L^T run on the rows of Mc Pe^-1, all in one call.
    The horizon doubles until the kept taps end in its first three
    quarters (or reaches 2^16).
    """
    r = mc @ np.linalg.inv(pe)                        # (Tc, p, m)
    lt = np.swapaxes(l_coeffs, 1, 2)
    n = max(256, 2 * (r.shape[0] + lt.shape[0]))
    while True:
        v = np.zeros((n,) + r.shape[1:])
        v[:r.shape[0]] = r
        w = monic_inverse_filter(lt, v)
        w = _truncate_tail(w, TAP_CUT)
        if w.shape[0] <= n - n // 4 or n >= 1 << 16:
            return w.copy()
        n *= 2


@dataclass
class CausalWienerFilter:
    """A Wiener postfilter as one FIR run `lookahead` samples ahead: tap j
    acts on v_{t + lookahead - j} (Kailath, Sayed and Hassibi, "Linear
    Estimation", 2000, on fixed-lag smoothing).

    At lookahead 0 it is the causal filter [P_yv L^-*]_+ Pe^-1 L^-1 of
    causal_wiener, over the full taps of causal_taps; from_grid makes the
    smoother, over lags -half..half at lookahead half. The DF forward
    filter is one at the design lookahead.
    """

    taps: np.ndarray            # (n, p, m)
    lookahead: int = 0

    @classmethod
    def from_grid(cls, H: np.ndarray) -> "CausalWienerFilter":
        """The smoother of grid H: taps over lags -K..K, K >= 1 the last
        lag at which the larger of the lag-K and lag-(-K) taps exceeds
        SMOOTHER_TAIL_TOL times the peak."""
        N = H.shape[0] - 1
        h = grid_lags(H)                        # lags 0..N-1, -N..-1
        mags = np.abs(h).reshape(h.shape[0], -1).max(axis=1)
        peak = max(float(mags.max()), 1e-300)
        # the larger of the lag-k and lag-(-k) taps, k = 1..N-1
        above = np.flatnonzero(np.maximum(mags[1:N], mags[:N:-1])
                               > SMOOTHER_TAIL_TOL * peak)
        K = int(above[-1]) + 1 if above.size else 1
        return cls(taps=np.concatenate([h[-K:], h[: K + 1]], axis=0),
                   lookahead=K)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.bank().run(v, self.lookahead)

    def bank(self) -> "FirBank":
        """The FirBank of the taps, built on first use and kept."""
        if "_bank" not in self.__dict__:
            self._bank = FirBank(self.taps)
        return self._bank

    def margins(self) -> tuple[int, int]:
        return self.taps.shape[0] - self.lookahead, self.lookahead


def causal_wiener(P_yv: np.ndarray, P_v: np.ndarray
                  ) -> tuple[CausalWienerFilter, np.ndarray, float]:
    """Causal Wiener postfilter via canonical factorization P_v = L Pe L*,
    on the grid of the spectra of wiener_spectra.

    Returns the filter, its exact grid response Mc Pe^-1 L^-1 (Mc the
    causal part of M = P_yv L^-*) and the anticausal tail of M: its
    largest anticausal tap over its peak.
    """
    N = P_v.shape[0] - 1
    fact = matrix_canonical_factor(P_v, hint=FLOOR_HINT,
                                   name="observation spectrum G P G* + s^2 I")
    Lg = fact.eval_grid(N)
    # M(z) = P_yv(z) L(z^-1)^-T; on the circle L(z^-1)^T is L(omega)^H
    Mg = np.conj(np.swapaxes(
        np.linalg.solve(Lg, np.conj(np.swapaxes(P_yv, 1, 2))), 1, 2))
    h = grid_lags(Mg)                       # lags 0..N-1, -N..-1
    peak = max(float(np.max(np.abs(h))), 1e-300)
    mc = _truncate_tail(h[:N], TAP_CUT, peak)
    filt = CausalWienerFilter(taps=causal_taps(mc, fact.pe, fact.coeffs))
    Hg = taps_grid(mc, N) @ np.linalg.inv(fact.pe) @ np.linalg.inv(Lg)
    return filt, Hg, float(np.max(np.abs(h[N:])) / peak)


def postfilter_mse(Fg: np.ndarray, P_u: np.ndarray, P_yv: np.ndarray,
                   P_v: np.ndarray, Hg: np.ndarray) -> float:
    """MSE of an arbitrary postfilter grid Hg against the desired output,
    given the spectra of wiener_spectra on the grid of Fg and P_u."""
    HgH = np.conj(np.swapaxes(Hg, 1, 2))
    FgH = np.conj(np.swapaxes(Fg, 1, 2))
    P_vy = np.conj(np.swapaxes(P_yv, 1, 2))
    integrand = (np.einsum("qij,qji->q", Fg @ P_u, FgH)
                 - np.einsum("qij,qji->q", Hg, P_vy)
                 - np.einsum("qij,qji->q", P_yv, HgH)
                 + np.einsum("qij,qji->q", Hg @ P_v, HgH)).real
    return float(max(trapezoid_mean(integrand), 0.0))


def lms_prefilter(Fg: np.ndarray, P_u: np.ndarray,
                  privacy: PrivacySpec, order: int = DEFAULT_FACTOR_ORDER):
    """The LMS prefilter and its noise: optimize the allocation profile on
    the grid of Fg and P_u, realize it by scalar factorization, and
    recalibrate the noise from the realized filter. Returns (G, sigma,
    info).

    info.achieved_objective is the smoother MSE at the profile the FIR
    prefilter actually achieves, so Monte Carlo estimates are directly
    comparable with it.
    """
    k = privacy.k_vector()
    if k.size != Fg.shape[2]:
        raise DimensionMismatch("privacy k length must match F inputs")
    x, objective = optimize_prefilter_general(Fg, P_u, privacy)

    entries = []
    fit_errors = []
    for i in range(k.size):
        target = x[:, i] / k[i] ** 2
        if trapezoid_mean(target) < _ZERO_CHANNEL_TOL:
            entries.append(RationalFilter([0.0]))
            fit_errors.append(0.0)
            continue
        g, err = scalar_spectral_factor(target, order, enforce_pw=False)
        entries.append(g)
        fit_errors.append(err)
    G = TransferMatrix.diagonal(entries)

    sens = diagonal_sensitivity(G, k)
    N = Fg.shape[0] - 1
    omega = grid_omega(N)
    gmag2 = np.stack([np.abs(g.freq(omega)) ** 2
                      for g in G.diagonal_entries()], axis=1)
    achieved = gmag2 * (k ** 2)[None, :]
    achieved /= trapezoid_mean(achieved.sum(axis=1))
    info = {
        "grid_n": N,
        "optimal_objective": objective,
        "achieved_objective": lms_objective(Fg, P_u, privacy, achieved),
        "prefilter_fit_errors": fit_errors,
        "sensitivity": sens,
        "factor_order": order,
    }
    return G, noise_sigma(sens, privacy), info


def assemble_lms(F: TransferMatrix, P_u: np.ndarray, privacy: PrivacySpec,
                 mode: str = "smoother", order: int = DEFAULT_FACTOR_ORDER,
                 input_mean=None) -> MechanismDesign:
    """Design the LMS mechanism: the prefilter and noise of lms_prefilter
    with the smoother or causal postfilter attached.

    theory_mse is the achieved objective of lms_prefilter for the
    smoother and the quadrature MSE of the causal postfilter (also
    info.causal_mse_quadrature) for the causal mode.
    """
    if mode not in ("smoother", "causal"):
        raise ConfigError(f"unknown LMS mode: {mode}")
    N = P_u.shape[0] - 1
    Fg = freq_response(F, N)
    G, sigma, info = lms_prefilter(Fg, P_u, privacy, order)
    # the prefilter grid is not kept alive past the spectra (peak memory)
    P_yv, P_v = wiener_spectra(Fg, P_u, freq_response(G, N), sigma)
    if mode == "smoother":
        postfilter = CausalWienerFilter.from_grid(wiener_smoother(P_yv, P_v))
        theory = info["achieved_objective"]
    else:
        postfilter, Hg, info["anticausal_tail"] = causal_wiener(P_yv, P_v)
        info["smoother_mse"] = info["achieved_objective"]
        theory = info["causal_mse_quadrature"] = postfilter_mse(
            Fg, P_u, P_yv, P_v, Hg)
    return MechanismDesign(
        kind="wiener_smoother" if mode == "smoother" else "wiener_causal",
        target=F, prefilter=G, noise_sigma=float(sigma), privacy=privacy,
        postfilter=postfilter, theory_mse=theory,
        input_mean=None if input_mean is None
        else np.asarray(input_mean, dtype=float),
        info=info)
