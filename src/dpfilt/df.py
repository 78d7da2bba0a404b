"""Decision-feedback mechanisms: forward/feedback filter synthesis under
the correct-past-decisions assumption, the monic-feedback optimum
B = S^-1 Q^-1, the closed-form assumed-correct MSE kappa^2 Tr(T R),
a nonlinear decision device, and the closed-loop simulator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, UnstableInverse
from .lms import (TAP_CUT, CausalWienerFilter, _bracket_inverse_times,
                  _tilde, wiener_smoother, wiener_spectra)
from .lti import (TransferMatrix, as_signal, freq_response,
                  simulate as lti_simulate, taps_grid, trapezoid_mean)
from .privacy import PrivacySpec, kappa
from .spectral import (FLOOR_HINT, MatrixFactorization, _truncate_tail,
                       conjugate_factorization, grid_lags,
                       matrix_canonical_factor)
from .zfe import MechanismDesign

# The decision device when neither the config nor the design names one.
DEFAULT_DECISION_DOMAIN = "nonneg_integers"


@dataclass
class DfDesign:
    """The DF postfilter: the forward filter (its taps run at the
    lookahead d), the monic feedback polynomial P of the feedback
    B = P^-1, and the decision device of the input domain. It has no
    `apply`: run_df_mechanism forward-filters each release, runs the
    closed loop over the batch and applies the target F to the
    decisions.

    closed_loop runs B by solving P y = u one step at a time, so the
    strictly causal feedback B - I never touches the current sample.
    """

    forward: CausalWienerFilter     # taps (T1, m, m) at lookahead d >= 0
    p_coeffs: np.ndarray            # (K+1, m, m), p_coeffs[0] = I
    decision_domain: str

    def closed_loop(self, u_tilde, mu, fed_back=None):
        """Pre-decision estimates and decisions (u_tilde, u_hat), centered
        and time-major (T, B, m), for B trials of inputs with public mean
        mu (m,). u_tilde enters as the forward filter's estimates
        (forward.apply of each trial's release) and takes the feedback in
        place. fed_back (T, B, m), the centered true inputs, replaces the
        decisions in the feedback (oracle feedback)."""
        decide = decision_op(self.decision_domain)
        T, B, m = u_tilde.shape
        # feedback term: one (B, K m) @ (K m, m) product per step against
        # the flattened windows of the last K rows of r = fed_back -
        # fb_term (zero-padded), one window row per trial. Every per-step
        # operand has the step's (B, m) shape, so no ufunc broadcasts, and
        # every array is walked time-major, one contiguous row per step.
        P = self.p_coeffs
        K = P.shape[0] - 1
        A = np.concatenate(P[1:][::-1], axis=1).T if K else np.zeros((0, m))
        flat = np.zeros((B, (T + K) * m))
        r = flat.reshape(B, T + K, m)[:, K:].swapaxes(0, 1)
        item = flat.itemsize
        windows = np.lib.stride_tricks.as_strided(
            flat, (T, B, K * m), (m * item, flat.strides[0], item),
            writeable=False)
        mu = np.tile(np.asarray(mu, dtype=float), (B, 1))
        zero = np.zeros((B, m))
        fb_term = np.empty((B, m))
        u_hat = np.empty((T, B, m))
        if fed_back is None:
            fed_back = u_hat
        for w, x, h, f, r_t in zip(windows, u_tilde, u_hat, fed_back, r):
            np.matmul(w, A, out=fb_term)
            x += fb_term
            np.add(x, mu, out=h)
            np.subtract(decide(h, zero), mu, out=h)
            np.subtract(f, fb_term, out=r_t)
        return u_tilde, u_hat

    def margins(self) -> tuple[int, int]:
        return self.forward.taps.shape[0], self.forward.lookahead


def df_factorizations(Fg, P_u: np.ndarray, Gg, privacy: PrivacySpec
                      ) -> tuple[MatrixFactorization, MatrixFactorization]:
    """Spectral factorization pair (Q, S) behind the DF design, from the
    target and prefilter grids Fg and Gg and the input spectrum P_u on one
    grid.

    K (Pt^-1 + Gt* Gt)^-1 K = Q R Q* and F* F = S* T S, with Q, S monic
    causal and R = Q.pe, T = S.pe positive definite.
    """
    m = P_u.shape[1]
    k = privacy.k_vector()
    Km = np.diag(k)
    gk_sq = trapezoid_mean(
        np.einsum("qij,qij->q", np.conj(Gg @ Km), Gg @ Km).real)
    Gt = (Gg @ Km) / np.sqrt(gk_sq)
    _, Pt = _tilde(Fg, P_u, k, kappa(privacy))
    eye = np.eye(m)[None, :, :].astype(complex)
    bracket = _bracket_inverse_times(
        Pt, np.conj(np.swapaxes(Gt, 1, 2)) @ Gt, eye)
    spec_g = Km[None, :, :] @ bracket @ Km[None, :, :]
    Qf = matrix_canonical_factor(
        spec_g, hint=FLOOR_HINT,
        name="input-side spectrum K (Pt^-1 + Gt* Gt)^-1 K")
    FHF = np.conj(np.swapaxes(Fg, 1, 2)) @ Fg
    Sf = conjugate_factorization(
        FHF, name="target spectrum F* F",
        hint="; F has a zero on the unit circle there, which DF cannot use")
    return Qf, Sf


def optimal_feedback(Q: MatrixFactorization,
                     S: MatrixFactorization) -> np.ndarray:
    """The monic polynomial P = Q S, (K+1, m, m), of the optimal feedback
    B = S^-1 Q^-1 = P^-1."""
    if not (Q.causally_invertible and S.causally_invertible):
        raise UnstableInverse("Q and S must be causally invertible")
    qc, sc = Q.coeffs, S.coeffs
    K = qc.shape[0] + sc.shape[0] - 2
    m = qc.shape[1]
    prod = np.zeros((K + 1, m, m))
    for a in range(qc.shape[0]):
        for b in range(sc.shape[0]):
            prod[a + b] += qc[a] @ sc[b]
    if np.max(np.abs(prod[0] - np.eye(m))) > 1e-8:
        raise UnstableInverse("product Q S is not monic")
    prod[0] = np.eye(m)
    return prod


def df_theory_mse(T: np.ndarray, R: np.ndarray,
                  privacy: PrivacySpec) -> float:
    """Assumed-correct-decision MSE kappa^2 Tr(T R)."""
    return float(kappa(privacy) ** 2 * np.trace(np.asarray(T) @ np.asarray(R)))


def _nonneg_integers(x, zero):
    return np.maximum(np.rint(x, out=x), zero, out=x)


def _sign(x, zero):
    return np.where(x >= zero, 1.0, -1.0)


def _reals(x, zero):
    return x


# Decision op per input domain. Each op takes a float array it may
# overwrite and a zero array of the same shape, and returns the
# decisions.
_DECISION_OPS = {"nonneg_integers": _nonneg_integers, "sign": _sign,
                 "reals": _reals}
DECISION_DOMAINS = tuple(_DECISION_OPS)


def decision_op(domain: str):
    """The decision op of an input domain; ConfigError if unknown."""
    try:
        return _DECISION_OPS[domain]
    except KeyError:
        raise ConfigError(f"unknown decision domain: {domain};"
                          f" expected one of {DECISION_DOMAINS}") from None


def design_df(F: TransferMatrix, P_u: np.ndarray, privacy: PrivacySpec,
              G: TransferMatrix, sigma: float, lookahead: int = 2,
              decision_domain: str = DEFAULT_DECISION_DOMAIN,
              input_mean=None) -> MechanismDesign:
    """Assemble a DF mechanism around an existing (LMS-designed) prefilter,
    on the grid of P_u.

    The forward filter is the Wiener smoother for B u truncated to
    lookahead d; theory_mse reports the assumed-correct-decision value.
    """
    decision_op(decision_domain)
    N = P_u.shape[0] - 1
    if not 0 <= lookahead <= N:
        raise ConfigError(f"lookahead must lie in [0, {N}], the grid's "
                          "anticausal lags")
    if privacy.m != F.shape[1]:
        raise DimensionMismatch("privacy k length must match F inputs")
    Gg = freq_response(G, N)
    Qf, Sf = df_factorizations(freq_response(F, N), P_u, Gg, privacy)
    P = optimal_feedback(Qf, Sf)
    theory = df_theory_mse(Sf.pe, Qf.pe, privacy)

    # the forward filter estimates B u, whose target grid is B's own
    Bg = np.linalg.inv(taps_grid(P, N))
    h = grid_lags(wiener_smoother(*wiener_spectra(Bg, P_u, Gg, sigma)))
    d = int(lookahead)
    # lags -d..N-1, cut after the last tap above TAP_CUT of their peak
    taps = _truncate_tail(np.concatenate([h[2 * N - d:], h[:N]]), TAP_CUT)
    return MechanismDesign(
        kind="decision_feedback", target=F, prefilter=G,
        noise_sigma=float(sigma), privacy=privacy,
        postfilter=DfDesign(forward=CausalWienerFilter(taps, d), p_coeffs=P,
                            decision_domain=decision_domain),
        theory_mse=theory,
        input_mean=None if input_mean is None
        else np.asarray(input_mean, dtype=float),
        info={"grid_n": N, "decision_domain": decision_domain,
              "assumed_correct_mse": theory})


def run_df_mechanism(design: MechanismDesign, u, seed,
                     oracle_feedback: bool = False):
    """Closed-loop DF simulation of a (T, m) input with actual (possibly
    erroneous) decisions fed back, with diagnostics.

    Returns ((T, p) estimates of y_t aligned at index t, diagnostics:
    the pre-decision input estimates u_tilde, the decisions u_hat and
    decision_error_rate, the share of steps with a decision that differs
    from the true input). Publication of the estimate of y_t happens d
    steps later; alignment keeps MSE bookkeeping uniform across
    mechanisms.

    A sequence of inputs with a matching sequence of seeds (one per
    trial) returns a list of such pairs. The trials run in one loop over
    time: each step takes the feedback of every trial by one matrix
    product, so the per-step cost is paid once, not once per trial.

    oracle_feedback replaces fed-back decisions by the true inputs,
    reproducing the correct-past-decisions assumption behind the
    closed-form MSE; useful only for validation, never for release.
    """
    df: DfDesign = design.postfilter
    single = not isinstance(u, (list, tuple))
    data = [as_signal(x) for x in ([u] if single else u)]
    seeds = [seed] if single else list(seed)
    if len(seeds) != len(data):
        raise DimensionMismatch(
            f"{len(data)} streams but {len(seeds)} seeds")
    if any(x.shape != data[0].shape for x in data):
        raise DimensionMismatch("batched streams must share one shape")
    mu = design.mu
    # release, then forward filter, one trial at a time: the releases are
    # never all held at once
    u_tilde = np.empty((data[0].shape[0], len(data), data[0].shape[1]))
    for b, (x, s) in enumerate(zip(data, seeds)):
        u_tilde[:, b] = df.forward.apply(design.release(x, s))
    fed_back = np.stack(data, axis=1) - mu if oracle_feedback else None
    u_hat = df.closed_loop(u_tilde, mu, fed_back)[1]
    del fed_back
    # F u_hat + F(1) mu, trial by trial
    y_hat = np.empty((len(data), u_hat.shape[0], design.target.shape[0]))
    for b in range(len(data)):
        y_hat[b] = lti_simulate(design.target, u_hat[:, b])
    y_hat += design.target.dc_gain() @ mu

    out = []
    for b in range(len(data)):
        # decide(x) - mu equals u - mu bit for bit when the decision is u
        wrong = np.any(u_hat[:, b] != data[b] - mu, axis=1)
        out.append((y_hat[b], {
            "u_tilde": u_tilde[:, b], "u_hat": u_hat[:, b],
            "decision_error_rate": float(np.mean(wrong))}))
    u_tilde += mu                 # the diagnostics report uncentered values
    u_hat += mu
    return out[0] if single else out
