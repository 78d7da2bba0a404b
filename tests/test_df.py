import numpy as np
import pytest

from dpfilt import (PrivacySpec, RationalFilter, TransferMatrix,
                    chain_spectrum, design_df, df_factorizations,
                    df_theory_mse, freq_response, grid_omega, kappa,
                    optimal_feedback, run_df_mechanism, server_example,
                    simulate, trapezoid_mean)
from dpfilt.df import DECISION_DOMAINS, decision_op
from dpfilt.errors import ConfigError
from dpfilt.lti import taps_grid
from dpfilt.spectral import MatrixFactorization

from conftest import feedback_impulse

N = 256
OMEGA = grid_omega(N)


def priv(k, eps=1.0, delta=0.1):
    return PrivacySpec(epsilon=eps, delta=delta, k=tuple(np.atleast_1d(k)))


def white_spectrum(m, n=N, scale=1.0):
    return np.repeat((scale * np.eye(m, dtype=complex))[None], n + 1, axis=0)


def random_monic_fir(rng, m, K):
    coeffs = np.zeros((K + 1, m, m))
    coeffs[0] = np.eye(m)
    for k in range(1, K + 1):
        coeffs[k] = rng.normal(scale=0.4 / k, size=(m, m))
    return coeffs


def fir_h2_sq(coeffs_seq):
    return float(sum(np.sum(c ** 2) for c in coeffs_seq))


class TestFactorizations:
    def test_white_everything(self):
        F = TransferMatrix.identity(2)
        G = TransferMatrix.identity(2)
        Pu = white_spectrum(2)
        pk = priv((1.0, 1.0))
        Q, S = df_factorizations(freq_response(F, N), Pu,
                                 freq_response(G, N), pk)
        T = S.pe
        assert np.max(np.abs(Q.coeffs[0] - np.eye(2))) < 1e-8
        if Q.coeffs.shape[0] > 1:
            assert np.max(np.abs(Q.coeffs[1:])) < 1e-7
        assert np.max(np.abs(S.coeffs[0] - np.eye(2))) < 1e-8
        assert np.allclose(T, np.eye(2), atol=1e-8)

    def test_scalar_geometric_means(self):
        # 1x1 case: T and R are the log-integral (geometric) means of the
        # respective spectra -- the Szego constant
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5])])
        G = TransferMatrix.diagonal([RationalFilter([1.0, -0.3])])
        Pu = (2.0 + np.cos(OMEGA)).astype(complex)[:, None, None]
        k = (1.5,)
        pk = priv(k)
        Q, S = df_factorizations(freq_response(F, N), Pu,
                                 freq_response(G, N), pk)
        R, T = Q.pe, S.pe
        Fg2 = np.abs(RationalFilter([1.0, 0.5]).freq(OMEGA)) ** 2
        t_want = np.exp(trapezoid_mean(np.log(Fg2)))
        assert T[0, 0] == pytest.approx(t_want, rel=1e-6)
        kap = kappa(pk)
        gmag2 = np.abs(RationalFilter([1.0, -0.3]).freq(OMEGA)) ** 2
        gk_sq = trapezoid_mean(gmag2 * k[0] ** 2)
        gt2 = gmag2 * k[0] ** 2 / gk_sq
        pt = np.real(Pu[:, 0, 0]) / (kap ** 2 * k[0] ** 2)
        bracket = k[0] ** 2 / (1.0 / pt + gt2)
        r_want = np.exp(trapezoid_mean(np.log(bracket)))
        assert R[0, 0] == pytest.approx(r_want, rel=1e-6)

    def test_reconstruction_residuals(self):
        # correlated full-rank input spectrum from a shaping filter
        W = TransferMatrix([[RationalFilter([1.0, 0.4]),
                             RationalFilter([0.0, 0.3])],
                            [RationalFilter([0.0, -0.2]),
                             RationalFilter([1.0, 0.25])]])
        Wg = freq_response(W, N)
        Pu = Wg @ np.conj(np.swapaxes(Wg, 1, 2)) + 0.4 * np.eye(2)[None, :, :]
        F = TransferMatrix([[RationalFilter([1.0, 0.4]),
                             RationalFilter([0.3])],
                            [RationalFilter([0.2, -0.1]),
                             RationalFilter([0.9, 0.2])]])
        G = TransferMatrix.diagonal([RationalFilter([1.0, 0.2]),
                                     RationalFilter([0.8, -0.1])])
        k = (1.0, 2.0)
        pk = priv(k)
        Q, S = df_factorizations(freq_response(F, N), Pu,
                                 freq_response(G, N), pk)
        T = S.pe
        assert Q.grid_error < 1e-5
        assert S.grid_error < 1e-5
        # explicit S* T S reconstruction of F*F
        Fg = freq_response(F, N)
        FHF = np.conj(np.swapaxes(Fg, 1, 2)) @ Fg
        Sg = S.eval_grid(N)
        recon = np.einsum("qji,jk,qkl->qil", np.conj(Sg), T, Sg)
        assert np.max(np.abs(recon - FHF)) / np.max(np.abs(FHF)) < 1e-5


class TestOptimalFeedback:
    def test_identity_degenerates_to_lms(self):
        eye = MatrixFactorization(coeffs=np.eye(2)[None], pe=np.eye(2))
        P = optimal_feedback(eye, eye)
        assert P.shape[0] == 1
        h = feedback_impulse(P, 5)
        assert np.allclose(h[0], np.eye(2))
        assert np.max(np.abs(h[1:])) == 0.0

    def test_scalar_series_expansion(self):
        Q = MatrixFactorization(coeffs=np.array([[[1.0]], [[0.5]]]),
                                pe=np.eye(1))
        S = MatrixFactorization(coeffs=np.eye(1)[None], pe=np.eye(1))
        h = feedback_impulse(optimal_feedback(Q, S), 6)[:, 0, 0]
        want = (-0.5) ** np.arange(6)      # 1/(1+0.5 z^-1)
        assert np.allclose(h, want, atol=1e-12)

    def test_monic_product(self, rng):
        qc = random_monic_fir(rng, 2, 2)
        sc = random_monic_fir(rng, 2, 3)
        Q = MatrixFactorization(coeffs=qc, pe=np.eye(2))
        S = MatrixFactorization(coeffs=sc, pe=np.eye(2))
        P = optimal_feedback(Q, S)
        assert np.allclose(P[0], np.eye(2))
        assert np.allclose(feedback_impulse(P, 1)[0], np.eye(2))


class TestTheoryMse:
    def test_identity_matrices(self):
        pk = priv((1.0,) * 3)
        assert df_theory_mse(np.eye(3), np.eye(3), pk) == pytest.approx(
            3 * kappa(pk) ** 2, rel=1e-12)

    def test_lemma_equality_at_identity(self, rng):
        A = rng.normal(size=(3, 3))
        T = A @ A.T + 0.5 * np.eye(3)
        B = rng.normal(size=(3, 3))
        R = B @ B.T + 0.5 * np.eye(3)
        W = [np.eye(3)]
        Ts, Rs = np.linalg.cholesky(T), np.linalg.cholesky(R)
        val = fir_h2_sq([Ts.T @ w @ Rs for w in W])
        assert val == pytest.approx(float(np.trace(T @ R)), rel=1e-12)

    def test_lemma_random_monic(self, rng):
        # ||T^{1/2} W R^{1/2}||_2^2 >= Tr(T R) for monic stable FIR W
        for _ in range(20):
            m = int(rng.integers(1, 4))
            A = rng.normal(size=(m, m))
            T = A @ A.T + 0.3 * np.eye(m)
            B = rng.normal(size=(m, m))
            R = B @ B.T + 0.3 * np.eye(m)
            W = random_monic_fir(rng, m, int(rng.integers(1, 4)))
            Th = np.linalg.cholesky(T)
            Rh = np.linalg.cholesky(R)
            val = fir_h2_sq([Th.T @ W[k] @ Rh for k in range(W.shape[0])])
            assert val >= float(np.trace(T @ R)) - 1e-10

    def test_two_evaluation_paths_agree(self, rng):
        # kappa^2 Tr(TR) vs the Frobenius form kappa^2 ||T^{1/2} R^{1/2}||^2
        A = rng.normal(size=(2, 2))
        T = A @ A.T + 0.4 * np.eye(2)
        B = rng.normal(size=(2, 2))
        R = B @ B.T + 0.4 * np.eye(2)
        pk = priv((1.0, 1.0))
        direct = df_theory_mse(T, R, pk)
        Th = np.linalg.cholesky(T)
        Rh = np.linalg.cholesky(R)
        fro = kappa(pk) ** 2 * float(np.sum((Th.T @ Rh) ** 2))
        assert direct == pytest.approx(fro, rel=1e-8)


class TestDecisionDevice:
    """The decision op of each domain, called as the closed loop calls it:
    on a scratch float array, with a zero array of its shape."""

    @staticmethod
    def decide(x, domain):
        x = np.array(x, dtype=float)
        return decision_op(domain)(x, np.zeros_like(x))

    def test_integer_rounding(self):
        assert self.decide(np.array([2.4]), "nonneg_integers")[0] == 2.0

    def test_clamp_at_zero(self):
        assert self.decide(np.array([-0.3]), "nonneg_integers")[0] == 0.0
        assert self.decide(np.array([-1.7]), "nonneg_integers")[0] == 0.0

    def test_sign_rule(self):
        out = self.decide(np.array([0.1, -0.1, 0.0]), "sign")
        assert np.array_equal(out, [1.0, -1.0, 1.0])

    def test_reals_identity(self):
        x = np.array([1.234, -5.6])
        assert np.array_equal(self.decide(x, "reals"), x)

    def test_unknown_domain(self):
        with pytest.raises(ConfigError):
            self.decide(np.array([1.0]), "complex")


class TestClosedLoop:
    def setup_method(self):
        self.src = server_example(0.3, 0.6)
        Pu_raw, self.mean = chain_spectrum(self.src, N)
        # the alternation constraint makes the 2x2 indicator spectrum
        # exactly singular at omega = 0; add an explicit white modeling
        # floor so the DF factorizations have a PD spectrum to work with
        floor = 1e-4 * float(np.max(np.abs(Pu_raw)))
        self.Pu = Pu_raw + floor * np.eye(2)[None, :, :]
        # DF needs F*F invertible on the circle (even-length moving
        # averages vanish at omega = pi), so use a min-phase smoothing
        # target here
        f = RationalFilter([0.6, 0.3, 0.1])
        self.F = TransferMatrix.diagonal([f, f])
        self.k = (1.0, 1.0)
        self.pk = priv(self.k)

    def test_noiseless_identity_prefilter_exact(self):
        G = TransferMatrix.identity(2)
        d = design_df(self.F, self.Pu, self.pk, G, sigma=0.0, lookahead=2,
                      decision_domain="nonneg_integers",
                      input_mean=self.mean)
        from dpfilt import sample_chain
        u = sample_chain(self.src, 3000, seed=4)
        out, diag = run_df_mechanism(d, u, seed=0)
        y = simulate(self.F, u)
        # decisions exact after the filter transient
        assert np.max(np.abs(out[100:] - y[100:])) < 1e-8
        assert np.allclose(diag["u_hat"][100:], u[100:])

    def test_assumed_correct_feedback_matches_theory(self):
        # feeding back the true inputs reproduces the correct-decision
        # assumption behind kappa^2 Tr(T R); generous lookahead removes
        # the anticausal truncation penalty
        pk = priv(self.k, eps=3.0, delta=0.2)
        from dpfilt import assemble_lms, sample_chain
        lms_design = assemble_lms(self.F, self.Pu, pk, mode="smoother",
                                  input_mean=self.mean)
        d = design_df(self.F, self.Pu, pk, lms_design.prefilter,
                      sigma=lms_design.noise_sigma, lookahead=24,
                      decision_domain="nonneg_integers",
                      input_mean=self.mean)
        u = sample_chain(self.src, 120000, seed=5)
        _, diag = run_df_mechanism(d, u, seed=6, oracle_feedback=True)
        e_lin = simulate(self.F, u - diag["u_tilde"])
        mse_lin = float(np.mean(np.sum(e_lin[500:] ** 2, axis=1)))
        assert mse_lin == pytest.approx(d.theory_mse, rel=0.10)

    def test_high_snr_closed_loop(self):
        # with a loose budget decision errors are rare (~2%); the
        # published decision-aided output then beats the linear theory
        pk = priv(self.k, eps=22.0, delta=0.2)
        from dpfilt import assemble_lms, sample_chain
        lms_design = assemble_lms(self.F, self.Pu, pk, mode="smoother",
                                  input_mean=self.mean)
        d = design_df(self.F, self.Pu, pk, lms_design.prefilter,
                      sigma=lms_design.noise_sigma, lookahead=8,
                      decision_domain="nonneg_integers",
                      input_mean=self.mean)
        u = sample_chain(self.src, 120000, seed=5)
        out, diag = run_df_mechanism(d, u, seed=6)
        err_rate = float(np.mean(np.abs(diag["u_hat"] - u) > 0.5))
        assert err_rate < 0.05
        y = simulate(self.F, u)
        mse_pub = float(np.mean(np.sum((y - out)[500:] ** 2, axis=1)))
        assert mse_pub < 1.25 * d.theory_mse

    def test_determinism(self):
        G = TransferMatrix.identity(2)
        d = design_df(self.F, self.Pu, self.pk, G, sigma=0.3, lookahead=2,
                      input_mean=self.mean)
        from dpfilt import sample_chain
        u = sample_chain(self.src, 2000, seed=7)
        a, _ = run_df_mechanism(d, u, seed=8)
        b, _ = run_df_mechanism(d, u, seed=8)
        assert np.array_equal(a, b)

    def test_bounded_output(self):
        G = TransferMatrix.identity(2)
        d = design_df(self.F, self.Pu, self.pk, G, sigma=1.0, lookahead=2,
                      input_mean=self.mean)
        from dpfilt import sample_chain
        u = sample_chain(self.src, 20000, seed=9)
        out, _ = run_df_mechanism(d, u, seed=10)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out)) < 100.0

    def test_df_theory_leq_lms_objective_same_prefilter(self):
        from dpfilt import assemble_lms
        lms_design = assemble_lms(self.F, self.Pu, self.pk, mode="smoother")
        d = design_df(self.F, self.Pu, self.pk, lms_design.prefilter,
                      sigma=lms_design.noise_sigma)
        assert d.theory_mse <= lms_design.theory_mse * (1 + 1e-6)


class TestSignDomain:
    def test_noiseless_sign_decisions_exact(self):
        rng = np.random.default_rng(3)
        T = 3000
        u = np.where(rng.random((T, 2)) < 0.5, -1.0, 1.0)
        f = RationalFilter([0.7, 0.2, 0.1])
        F = TransferMatrix.diagonal([f, f])
        Pu = white_spectrum(2)
        pk = priv((1.0, 1.0))
        d = design_df(F, Pu, pk, TransferMatrix.identity(2), sigma=0.0,
                      lookahead=2, decision_domain="sign")
        out, diag = run_df_mechanism(d, u, seed=0)
        assert set(np.unique(diag["u_hat"])).issubset({-1.0, 1.0})
        y = simulate(F, u)
        assert np.max(np.abs(out[50:] - y[50:])) < 1e-8

    def test_one_dimensional_stream_is_one_channel(self):
        # a raw 1-D array is T samples of one channel, as in lti.simulate
        u = np.where(np.random.default_rng(4).random(500) < 0.5, -1.0, 1.0)
        f = RationalFilter([0.7, 0.2, 0.1])
        d = design_df(TransferMatrix([[f]]), white_spectrum(1), priv(1.0),
                      TransferMatrix.identity(1), sigma=0.0, lookahead=2,
                      decision_domain="sign")
        out, diag = run_df_mechanism(d, u, seed=0)
        want, _ = run_df_mechanism(d, u[:, None], seed=0)
        assert out.shape == (500, 1)
        assert np.array_equal(out, want)
        assert np.array_equal(diag["u_hat"][:, 0], u)


def run_df_reference(design, u, seed, oracle_feedback=False):
    """The seed's DF closed loop (per-pair fftconvolve forward filter,
    per-step einsum feedback), kept as the agreement reference for
    run_df_mechanism. Returns (u_hat, u_tilde) without the mean."""
    from scipy.signal import fftconvolve
    df = design.postfilter
    d = df.forward.lookahead
    T, m = u.shape
    mu = design.input_mean if design.input_mean is not None else np.zeros(m)
    uc = u - mu[None, :]
    v = simulate(design.prefilter, uc)
    if design.noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        v = v + rng.normal(0.0, design.noise_sigma, size=v.shape)
    taps = df.forward.taps
    fwd = np.zeros((T, m))
    for i in range(m):
        for j in range(m):
            seg = fftconvolve(v[:, j], taps[:, i, j])[d: d + T]
            fwd[: seg.shape[0], i] += seg
    P = df.p_coeffs
    K = P.shape[0] - 1
    Prev = P[1:][::-1] if K else np.zeros((0, m, m))
    decide, zero = decision_op(df.decision_domain), np.zeros(m)
    u_hat = np.zeros((T, m))
    u_tilde = np.zeros((T, m))
    r = np.zeros((T, m))
    for t in range(T):
        window = r[max(t - K, 0): t]
        if window.shape[0]:
            fb_term = np.einsum("kij,kj->i",
                                Prev[K - window.shape[0]:], window)
        else:
            fb_term = np.zeros(m)
        u_tilde[t] = fwd[t] + fb_term
        u_hat[t] = decide(u_tilde[t] + mu, zero) - mu
        fed_back = uc[t] if oracle_feedback else u_hat[t]
        r[t] = fed_back - fb_term
    return u_hat, u_tilde


class TestClosedLoopAgreement:
    """run_df_mechanism against the seed loop on the TestClosedLoop seeds:
    decisions identical, pre-decision estimates within 1e-12 relative."""

    setup_method = TestClosedLoop.setup_method

    def check(self, d, u, seed):
        for oracle in (False, True):
            _, diag = run_df_mechanism(d, u, seed=seed,
                                       oracle_feedback=oracle)
            u_hat, u_tilde = run_df_reference(d, u, seed, oracle)
            mu = d.input_mean
            assert np.array_equal(diag["u_hat"], u_hat + mu)
            scale = np.max(np.abs(u_tilde + mu))
            assert np.max(np.abs(diag["u_tilde"] - (u_tilde + mu))) \
                <= 1e-12 * scale

    @pytest.mark.parametrize("sigma,u_seed,seed", [(0.0, 4, 0),
                                                   (0.3, 7, 8),
                                                   (1.0, 9, 10)])
    def test_identity_prefilter(self, sigma, u_seed, seed):
        from dpfilt import sample_chain
        d = design_df(self.F, self.Pu, self.pk, TransferMatrix.identity(2),
                      sigma=sigma, lookahead=2, input_mean=self.mean)
        self.check(d, sample_chain(self.src, 4000, seed=u_seed), seed)

    @pytest.mark.parametrize("eps,lookahead", [(3.0, 24), (22.0, 8)])
    def test_lms_prefilter(self, eps, lookahead):
        from dpfilt import assemble_lms, sample_chain
        pk = priv(self.k, eps=eps, delta=0.2)
        lms_design = assemble_lms(self.F, self.Pu, pk, mode="smoother",
                                  input_mean=self.mean)
        d = design_df(self.F, self.Pu, pk, lms_design.prefilter,
                      sigma=lms_design.noise_sigma, lookahead=lookahead,
                      input_mean=self.mean)
        self.check(d, sample_chain(self.src, 20000, seed=5), 6)


class TestBatchedClosedLoop:
    """One closed loop over a batch of trials against the per-trial seed
    loop, for real and oracle feedback: pre-decision estimates within
    1e-12 relative and, where the decision quantizes, every trial's
    decisions identical. On the reals the decision is the identity, so
    u_hat is u_tilde with its rounding and is held to the same bound."""

    setup_method = TestClosedLoop.setup_method
    TRIALS = ((4, 0), (7, 8), (9, 10))      # (input seed, noise seed)

    def design(self, domain):
        # at this budget about 7% of the integer decisions are wrong
        from dpfilt import assemble_lms
        pk = priv(self.k, eps=10.0, delta=0.2)
        lms_design = assemble_lms(self.F, self.Pu, pk, mode="smoother",
                                  input_mean=self.mean)
        return design_df(self.F, self.Pu, pk, lms_design.prefilter,
                         sigma=lms_design.noise_sigma, lookahead=8,
                         decision_domain=domain, input_mean=self.mean)

    def streams(self, domain, u_seeds):
        from dpfilt import sample_chain
        if domain != "sign":
            return [sample_chain(self.src, 3000, seed=s) for s in u_seeds]
        return [np.where(
            np.random.default_rng(s).random((3000, 2)) < 0.5, -1.0, 1.0)
            for s in u_seeds]

    @staticmethod
    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("domain", DECISION_DOMAINS)
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("oracle", [False, True])
    def test_matches_per_trial_reference(self, domain, batch, oracle):
        d = self.design(domain)
        trials = self.TRIALS[:batch] if batch > 1 else self.TRIALS[1:2]
        us = self.streams(domain, [u for u, _ in trials])
        seeds = [s for _, s in trials]
        runs = run_df_mechanism(d, us, seeds, oracle_feedback=oracle)
        assert len(runs) == batch
        same = self.close if domain == "reals" else np.array_equal
        mu = d.input_mean
        for u, seed, (out, diag) in zip(us, seeds, runs):
            u_hat, u_tilde = run_df_reference(d, u, seed, oracle)
            assert same(diag["u_hat"], u_hat + mu)
            assert self.close(diag["u_tilde"], u_tilde + mu)
            single, _ = run_df_mechanism(d, u, seed, oracle_feedback=oracle)
            assert same(out, single)

    def test_unknown_domain_raises_before_the_loop(self):
        d = self.design("nonneg_integers")
        d.postfilter.decision_domain = "complex"
        with pytest.raises(ConfigError, match="nonneg_integers"):
            run_df_mechanism(d, self.streams("reals", [4]), [0])

    def test_seed_count_must_match(self):
        from dpfilt.errors import DimensionMismatch
        d = self.design("nonneg_integers")
        with pytest.raises(DimensionMismatch):
            run_df_mechanism(d, self.streams("reals", [4, 7]), [0])


class TestDecisionErrorRate:
    setup_method = TestClosedLoop.setup_method

    def test_matches_an_independent_count(self):
        # at epsilon = 10 a few percent of the integer decisions are wrong;
        # the rate is the share of steps where any channel's decision is
        # not the true input
        from dpfilt import assemble_lms, sample_chain
        pk = priv(self.k, eps=10.0, delta=0.2)
        lms_design = assemble_lms(self.F, self.Pu, pk, mode="smoother",
                                  input_mean=self.mean)
        d = design_df(self.F, self.Pu, pk, lms_design.prefilter,
                      sigma=lms_design.noise_sigma, lookahead=8,
                      input_mean=self.mean)
        u = sample_chain(self.src, 3000, seed=4)
        _, diag = run_df_mechanism(d, u, seed=8)
        wrong = np.any(np.abs(diag["u_hat"] - u) > 0.5, axis=1)
        assert diag["decision_error_rate"] == float(np.mean(wrong))
        assert 0.0 < diag["decision_error_rate"] < 0.5
        assert "decision_disagreement" not in diag


def h1_taps_reference(design, P_u, N):
    """The forward filter design_df wrote by hand before it took the
    Wiener smoother of lms: H1 = B P_u G* (G P_u G* + s^2 I)^-1, solved
    against the conjugate transpose of the observation spectrum, taken to
    lags by its own two-sided ifft and cut like the causal taps."""
    df = design.postfilter
    m = P_u.shape[1]
    Gg = freq_response(design.prefilter, N)
    GgH = np.conj(np.swapaxes(Gg, 1, 2))
    Bg = np.linalg.inv(taps_grid(df.p_coeffs, N))
    Pv = Gg @ P_u @ GgH + design.noise_sigma ** 2 * np.eye(m)[None, :, :]
    H1g = np.conj(np.swapaxes(
        np.linalg.solve(np.conj(np.swapaxes(Pv, 1, 2)),
                        np.conj(np.swapaxes(Bg @ P_u @ GgH, 1, 2))), 1, 2))
    full = np.concatenate([H1g, np.conj(H1g[-2:0:-1])], axis=0)
    h = np.fft.ifft(full, axis=0).real
    causal = h[:N]
    anti = h[N:][::-1]           # lags -1, -2, ...
    d = df.forward.lookahead
    taps = np.concatenate([anti[:d][::-1], causal], axis=0)
    mags = np.abs(taps).reshape(taps.shape[0], -1).max(axis=1)
    peak = max(float(mags.max()), 1e-300)
    keep = np.nonzero(mags > 1e-12 * peak)[0]
    return taps[: (int(keep[-1]) + 1 if keep.size else 1)]


class TestForwardFilterReference:
    """design_df's forward taps, now the lms Wiener smoother of the
    feedback grid B, against the hand-written formula they replace:
    same length, within 1e-14 of the peak."""

    setup_method = TestClosedLoop.setup_method
    design = TestBatchedClosedLoop.design

    @staticmethod
    def check(design, P_u, N):
        want = h1_taps_reference(design, P_u, N)
        got = design.postfilter.forward.taps
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_epsilon_10_design(self):
        self.check(self.design("nonneg_integers"), self.Pu, N)

    def test_server_workload(self, monkeypatch):
        import os
        from dpfilt.cli import _make_design
        from dpfilt.config import Config
        from dpfilt.fileio import spectrum_from_spec
        monkeypatch.chdir(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        cfg = Config.load("benchmark/workloads/server_df.yaml")
        Pu, _ = spectrum_from_spec(cfg.spectrum, cfg.grid_n, 2)
        self.check(_make_design(cfg), Pu, cfg.grid_n)

    def test_lookahead_bounded_by_the_grid(self):
        # the grid holds anticausal lags -1..-N: a lookahead of N takes
        # them all, one beyond it has no taps to take
        G = TransferMatrix.identity(2)
        d = design_df(self.F, self.Pu, self.pk, G, sigma=0.3, lookahead=N,
                      input_mean=self.mean)
        self.check(d, self.Pu, N)
        for bad in (-1, N + 1):
            with pytest.raises(ConfigError, match="lookahead"):
                design_df(self.F, self.Pu, self.pk, G, sigma=0.3,
                          lookahead=bad)


class TestServerFeedbackPrecision:
    """The batched DF feedback (one flattened (B, K m) @ (K m, m) product
    per step) against a long-double sequential recursion on the
    benchmark server design (K = 118, m = 2), with oracle feedback: the
    summation order of the product costs no accuracy that a long
    recursion amplifies."""

    def test_oracle_feedback_matches_long_double(self, monkeypatch):
        import os
        from dpfilt.cli import _make_design
        from dpfilt.config import Config
        from dpfilt.fileio import source_from_spec
        from dpfilt.lms import FirBank
        monkeypatch.chdir(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        cfg = Config.load("benchmark/workloads/server_df.yaml")
        design = _make_design(cfg)
        df = design.postfilter
        P = df.p_coeffs
        K, m = P.shape[0] - 1, P.shape[1]
        assert (K, m) == (118, 2)
        T = 3000
        mu = design.mu
        uc = source_from_spec(cfg.source, m).sample(T, 1) - mu
        v = design.release(uc + mu, 2)
        u_tilde, _ = df.closed_loop(df.forward.apply(v)[:, None], mu,
                                    uc[:, None])

        fwd = FirBank(df.forward.taps).run(v, df.forward.lookahead).astype(
            np.longdouble)
        Pl = P.astype(np.longdouble)
        r = np.zeros((T, m), dtype=np.longdouble)
        want = np.empty((T, m), dtype=np.longdouble)
        for t in range(T):
            ks = min(t, K)
            fb = np.einsum("kij,kj->i", Pl[1:ks + 1], r[t - ks:t][::-1])
            want[t] = fwd[t] + fb
            r[t] = uc[t] - fb
        want = want.astype(float)
        assert np.max(np.abs(u_tilde[:, 0] - want)) \
            <= 1e-12 * np.max(np.abs(want))


def test_server_trials_peak_memory(monkeypatch):
    # regression: the 10 releases (3.2 MB) were all held while the
    # closed loop ran, a traced peak of 12.24 MB; released and forward
    # filtered one trial at a time, the peak is 9.93 MB
    import os
    import tracemalloc
    from dpfilt.cli import _make_design
    from dpfilt.config import Config
    from dpfilt.fileio import source_from_spec
    monkeypatch.chdir(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    cfg = Config.load("benchmark/workloads/server_df.yaml")
    design = _make_design(cfg)
    source = source_from_spec(cfg.source, 2)
    data = [source.sample(20000, seed) for seed in range(10)]
    tracemalloc.start()
    try:
        run_df_mechanism(design, data, list(range(10)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2 ** 20
