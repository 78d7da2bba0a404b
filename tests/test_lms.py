from types import SimpleNamespace

import numpy as np
import pytest

from dpfilt import (PrivacySpec, RationalFilter, TransferMatrix,
                    assemble_lms, assemble_zfe, causal_wiener, chain_spectrum,
                    demo_filter, design_diag_prefilter, freq_response,
                    grid_omega, kappa, lms_objective, matrix_canonical_factor,
                    optimize_prefilter_general, postfilter_mse,
                    server_example, simulate, trapezoid_mean,
                    waterfill_diagonal, wiener_smoother, wiener_spectra)
from dpfilt.errors import (ConfigError, DegenerateObjective, NotDiagonal,
                           NotPositiveDefinite)
from dpfilt.lms import (_bracket_inverse_times, _projected_gradient, _tilde,
                        monic_inverse_filter)
from dpfilt.lti import taps_grid
from dpfilt.sensitivity import diagonal_sensitivity
from dpfilt.spectral import _truncate_tail, grid_lags
from dpfilt.zfe import zfe_postfilter

from conftest import feedback_impulse

N = 256
OMEGA = grid_omega(N)


def priv(k, eps=1.0, delta=0.1):
    return PrivacySpec(epsilon=eps, delta=delta, k=tuple(np.atleast_1d(k)))


def diag_spectrum(entries):
    m = len(entries)
    P = np.zeros((len(entries[0]), m, m), dtype=complex)
    for i, e in enumerate(entries):
        P[:, i, i] = e
    return P


def white_spectrum(m, n=N, scale=1.0):
    return np.repeat((scale * np.eye(m, dtype=complex))[None], n + 1, axis=0)


def zfe_profile(G, k, n=N):
    """Feasible allocation implied by a diagonal prefilter."""
    x = np.stack([np.abs(g.freq(grid_omega(n))) ** 2
                  for g in G.diagonal_entries()], axis=1) \
        * (np.asarray(k, float) ** 2)[None, :]
    x /= trapezoid_mean(x.sum(axis=1))
    return x


def spectra(F, P_u, G, sigma):
    """wiener_spectra of the target F and the prefilter G, both sampled on
    the grid of P_u."""
    n = P_u.shape[0] - 1
    return wiener_spectra(freq_response(F, n), P_u, freq_response(G, n),
                          sigma)


def assert_feasible(x, tol=1e-8):
    """x is an allocation profile: nonnegative, integrating to one."""
    assert np.all(x >= -1e-12)
    assert abs(float(trapezoid_mean(x.sum(axis=1))) - 1.0) <= tol


class TestWienerSmoother:
    def test_large_noise_kills_gain(self, rng):
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5]),
                                     RationalFilter([0.7])])
        H = wiener_smoother(*spectra(F, white_spectrum(2),
                                     TransferMatrix.identity(2), sigma=1e6))
        assert np.max(np.abs(H)) < 1e-3

    def test_zero_noise_zero_forcing_limit(self, rng):
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5]),
                                     RationalFilter([0.7, 0.2])])
        G = TransferMatrix.diagonal([RationalFilter([1.0, 0.3]),
                                     RationalFilter([2.0])])
        H = wiener_smoother(*spectra(F, white_spectrum(2), G, sigma=1e-8))
        HG = freq_response(zfe_postfilter(F, G), N)
        assert np.max(np.abs(H - HG)) < 1e-6

    def test_scalar_white_closed_form(self):
        F = TransferMatrix.diagonal([RationalFilter([1.0, -0.4])])
        sigma = 0.8
        H = wiener_smoother(*spectra(F, white_spectrum(1),
                                     TransferMatrix.identity(1), sigma))
        want = freq_response(F, N) / (1.0 + sigma ** 2)
        assert np.max(np.abs(H - want)) < 1e-12


class TestObjective:
    def test_zfe_limit_large_input_power(self, rng):
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5]),
                                     RationalFilter([0.6, -0.2])])
        k = (1.0, 2.0)
        pk = priv(k)
        G = design_diag_prefilter(freq_response(F, N), k, order=48)
        design = assemble_zfe(F, G, pk, N)
        prof = zfe_profile(G, k)
        big = white_spectrum(2) * 1e8
        val = lms_objective(freq_response(F, N), big, pk, prof)
        assert val == pytest.approx(design.theory_mse, rel=0.01)

    def test_zero_profile_is_output_power(self):
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5]),
                                     RationalFilter([0.6])])
        Pu = diag_spectrum([2.0 + np.cos(OMEGA), 1.5 + np.sin(OMEGA) ** 2])
        k = (1.0, 1.0)
        Fg = freq_response(F, N)
        val = lms_objective(Fg, Pu, priv(k), np.zeros((N + 1, 2)))
        power = trapezoid_mean(np.einsum(
            "qij,qjl,qil->q", Fg, Pu, np.conj(Fg)).real)
        assert val == pytest.approx(float(power), rel=1e-10)

    def test_quadratic_homogeneity_in_target(self, rng):
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5])])
        F2 = TransferMatrix.diagonal([RationalFilter([2.0, 1.0])])
        Pu = diag_spectrum([1.0 + 0.3 * np.cos(OMEGA)])
        prof = np.ones((N + 1, 1))
        a = lms_objective(freq_response(F, N), Pu, priv((1.0,)), prof)
        b = lms_objective(freq_response(F2, N), Pu, priv((1.0,)), prof)
        assert np.sqrt(b) == pytest.approx(2 * np.sqrt(a), rel=1e-10)

    def test_profile_off_the_spectrum_grid_rejected(self):
        # the grid comes from P_u; a profile sampled on another grid is
        # refused by name, not by a broadcasting error
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5])])
        prof = np.ones((N // 2 + 1, 1))
        with pytest.raises(ConfigError, match="profile grid"):
            lms_objective(freq_response(F, N), white_spectrum(1),
                          priv((1.0,)), prof)


    def test_diagonal_closed_form_matches_dense_route(self, rng):
        # a zero channel (pt = 0) and zero profile entries included
        m = 3
        Pu = diag_spectrum([2.0 + np.cos(OMEGA), np.zeros(N + 1),
                            0.5 + 0.4 * np.sin(2 * OMEGA) ** 2])
        F = TransferMatrix([[RationalFilter(rng.normal(size=3))
                             for _ in range(m)] for _ in range(2)])
        pk = priv((1.0, 2.0, 0.7))
        Fg = freq_response(F, N)
        x = rng.uniform(0.0, 2.0, size=(N + 1, m))
        x[rng.random(x.shape) < 0.3] = 0.0
        x[:, 2] = 0.0
        Ft, Pt = _tilde(Fg, Pu, pk.k_vector(), kappa(pk))
        X = np.zeros((N + 1, m, m))
        X[:, np.arange(m), np.arange(m)] = x
        Y = _bracket_inverse_times(Pt, X, np.conj(np.swapaxes(Ft, 1, 2)))
        dense = trapezoid_mean(np.einsum("qij,qji->q", Ft, Y).real)
        assert lms_objective(Fg, Pu, pk, x) == pytest.approx(dense,
                                                             rel=1e-12)


class TestWaterfilling:
    def test_single_channel_constant(self):
        F = TransferMatrix.diagonal([RationalFilter([1.5])])
        Pu = diag_spectrum([np.full(N + 1, 2.0)])
        x, _ = waterfill_diagonal(freq_response(F, N), Pu, priv((1.0,)))
        assert np.allclose(x, 1.0, atol=1e-9)
        assert_feasible(x)

    def test_normalization(self, rng):
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5]),
                                     RationalFilter([0.4, 0.3])])
        Pu = diag_spectrum([2.0 + np.cos(OMEGA), 1.0 + 0.4 * np.sin(OMEGA)])
        x, _ = waterfill_diagonal(freq_response(F, N), Pu, priv((1.0, 2.0)))
        assert abs(trapezoid_mean(x.sum(axis=1)) - 1.0) < 1e-10

    def test_kkt_stationarity(self):
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5]),
                                     RationalFilter([0.4, 0.3])])
        Pu = diag_spectrum([2.0 + np.cos(OMEGA), 1.0 + 0.4 * np.sin(OMEGA)])
        k = (1.0, 2.0)
        pk = priv(k)
        Fg = freq_response(F, N)
        x, lam = waterfill_diagonal(Fg, Pu, pk)
        kap = kappa(pk)
        Ft2 = kap ** 2 * np.linalg.norm(Fg, axis=1) ** 2 \
            * (np.asarray(k) ** 2)[None, :]
        pt = np.stack([np.real(Pu[:, i, i]) for i in range(2)],
                      axis=1) / (kap ** 2 * (np.asarray(k) ** 2)[None, :])
        mask = x > 1e-10
        resid = np.abs(Ft2[mask] / (1.0 / pt[mask] + x[mask]) ** 2 - lam)
        assert np.max(resid) < 1e-6
        # complementary slackness
        slack = x * (Ft2 / (1.0 / pt + x) ** 2 - lam)
        assert np.max(np.abs(slack)) < 1e-6

    def test_zfe_shape_in_high_power_limit(self):
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5]),
                                     RationalFilter([0.4, 0.3])])
        k = (1.0, 2.0)
        Pu = diag_spectrum([np.full(N + 1, 1e8), np.full(N + 1, 1e8)])
        Fg = freq_response(F, N)
        x, _ = waterfill_diagonal(Fg, Pu, priv(k))
        # x_i should be proportional to |Ft_i|_2, the ZFE magnitude rule
        shape = np.linalg.norm(Fg, axis=1) * np.asarray(k)[None, :]
        a = x.ravel()
        b = shape.ravel()
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos > 0.999

    def test_non_diagonal_rejected(self):
        P = np.repeat(np.array([[2.0, 0.5], [0.5, 1.0]],
                               dtype=complex)[None], N + 1, axis=0)
        F = TransferMatrix.identity(2)
        with pytest.raises(NotDiagonal):
            waterfill_diagonal(freq_response(F, N), P, priv((1, 1)))

    def test_zero_target_rejected(self):
        F = TransferMatrix.diagonal([RationalFilter([0.0])])
        Pu = diag_spectrum([np.ones(N + 1)])
        with pytest.raises(DegenerateObjective):
            waterfill_diagonal(freq_response(F, N), Pu, priv((1.0,)))


class TestGeneralOptimizer:
    def test_matches_waterfilling_on_diagonal(self, rng):
        for trial in range(5):
            d1 = 2.0 + np.cos(OMEGA + trial) + 0.2 * rng.random()
            d2 = 1.0 + 0.5 * np.sin(2 * OMEGA + trial) ** 2
            Pu = diag_spectrum([d1, d2])
            F = TransferMatrix([[RationalFilter(rng.normal(size=3)),
                                 RationalFilter(rng.normal(size=2))],
                                [RationalFilter(rng.normal(size=2)),
                                 RationalFilter(rng.normal(size=3))]])
            k = tuple(rng.uniform(0.5, 2.0, 2))
            pk = priv(k)
            Fg = freq_response(F, N)
            x, _ = waterfill_diagonal(Fg, Pu, pk)
            _, objective = _projected_gradient(Fg, Pu, pk)
            assert objective == pytest.approx(
                lms_objective(Fg, Pu, pk, x), rel=1e-4)

    def test_single_channel_exact(self, rng):
        Pu = diag_spectrum([1.5 + np.cos(OMEGA) ** 2])
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.7, 0.2])])
        pk = priv((1.3,))
        Fg = freq_response(F, N)
        x, _ = waterfill_diagonal(Fg, Pu, pk)
        _, objective = _projected_gradient(Fg, Pu, pk)
        assert objective == pytest.approx(
            lms_objective(Fg, Pu, pk, x), rel=1e-6)

    def test_diagonal_spectrum_returns_waterfilling(self, rng):
        # a positive diagonal P_u takes the closed form, exactly
        Pu = diag_spectrum([2.0 + np.cos(OMEGA), 1.0 + 0.5 * np.sin(OMEGA)])
        F = TransferMatrix([[RationalFilter([1.0, 0.4]),
                             RationalFilter([0.3])],
                            [RationalFilter(rng.normal(size=2)),
                             RationalFilter([0.8, -0.2])]])
        pk = priv((1.0, 1.7))
        Fg = freq_response(F, N)
        x_wf, _ = waterfill_diagonal(Fg, Pu, pk)
        x, objective = optimize_prefilter_general(Fg, Pu, pk)
        assert np.array_equal(x, x_wf)
        assert objective == lms_objective(Fg, Pu, pk, x_wf)

    def test_zero_channel_still_iterates(self):
        # the bank_lms_causal problem with the fourth channel's input
        # spectrum zeroed: waterfilling refuses it, so the projected
        # gradient runs and reaches the objective it always reached
        from dpfilt import occupancy_filter_bank
        rates = np.array([1.4, 1.836, 1.641, 0.76, 0.88, 1.798, 0.408,
                          1.714, 1.675, 1.149, 0.885, 0.845, 0.808, 1.112,
                          1.207])
        rates[3] = 0.0
        n = 1024
        Pu = np.repeat(np.diag(rates).astype(complex)[None], n + 1, axis=0)
        pk = PrivacySpec(epsilon=float(np.log(5)), delta=0.05,
                         k=(4.0,) * 15)
        Fg = freq_response(occupancy_filter_bank(), n)
        with pytest.raises(NotPositiveDefinite):
            waterfill_diagonal(Fg, Pu, pk)
        x, objective = optimize_prefilter_general(Fg, Pu, pk)
        assert_feasible(x)
        assert objective == pytest.approx(1.567668835350433, rel=1e-12)

    def test_correlated_spectrum_dominates_diag_approx(self):
        src = server_example(0.3, 0.6)
        Pu, _ = chain_spectrum(src, N)
        Fg = freq_response(demo_filter(), N)
        k = (1.0, 1.0)
        pk = priv(k)
        _, objective = optimize_prefilter_general(Fg, Pu, pk)
        diag_only = diag_spectrum([np.real(Pu[:, i, i]) for i in range(2)])
        x, _ = waterfill_diagonal(Fg, diag_only, pk)
        # evaluating the diagonal-approximation profile under the true
        # correlated spectrum cannot beat the optimizer
        val_diag_profile = lms_objective(Fg, Pu, pk, x)
        assert objective <= val_diag_profile * (1 + 1e-9)

    def test_profile_feasible(self, rng):
        src = server_example(0.4, 0.5)
        Pu, _ = chain_spectrum(src, N)
        x, _ = optimize_prefilter_general(freq_response(demo_filter(), N),
                                          Pu, priv((1.0, 1.0)))
        assert_feasible(x)


class TestCausalWiener:
    def test_already_causal_no_penalty(self):
        # causal FIR target, white input, identity prefilter: the
        # smoother F/(1+s^2) is itself causal
        F = TransferMatrix.diagonal([RationalFilter([1.0, 0.5, 0.25])])
        sigma = 1.0
        Pu = white_spectrum(1)
        P_yv, P_v = spectra(F, Pu, TransferMatrix.identity(1), sigma)
        _, causal, anticausal_tail = causal_wiener(P_yv, P_v)
        smoother = wiener_smoother(P_yv, P_v)
        Fg = freq_response(F, N)
        mse_c = postfilter_mse(Fg, Pu, P_yv, P_v, causal)
        mse_s = postfilter_mse(Fg, Pu, P_yv, P_v, smoother)
        assert mse_c == pytest.approx(mse_s, rel=1e-6)
        assert anticausal_tail < 1e-10

    def test_pure_predictor_hopeless(self):
        # F = z (one-step prediction of white noise): causal Wiener is 0
        # and the MSE equals the signal power
        Fg = np.exp(1j * OMEGA)[:, None, None]
        Pu = white_spectrum(1)
        sigma = 0.5
        P_yv, P_v = wiener_spectra(
            Fg, Pu, freq_response(TransferMatrix.identity(1), N), sigma)
        _, causal, _ = causal_wiener(P_yv, P_v)
        assert np.max(np.abs(causal)) < 1e-10
        mse_c = postfilter_mse(Fg, Pu, P_yv, P_v, causal)
        assert mse_c == pytest.approx(1.0, rel=1e-9)

    def test_markov_siso_causal_gap_nonnegative(self):
        src = server_example(0.3, 0.6)
        src_one = type(src)(src.Pi, (1,))
        Pu, _ = chain_spectrum(src_one, N)
        F = TransferMatrix.diagonal([RationalFilter(np.full(6, 1 / 6.0))])
        k = (1.0,)
        pk = priv(k)
        G = TransferMatrix.identity(1)
        sigma = kappa(pk) * diagonal_sensitivity(G, k)
        P_yv, P_v = spectra(F, Pu, G, sigma)
        Fg = freq_response(F, N)
        mse_s = postfilter_mse(Fg, Pu, P_yv, P_v, wiener_smoother(P_yv, P_v))
        mse_c = postfilter_mse(Fg, Pu, P_yv, P_v, causal_wiener(P_yv, P_v)[1])
        assert mse_c >= mse_s - 1e-12


class TestAssemble:
    def setup_method(self):
        self.src = server_example(0.3, 0.6)
        self.Pu, self.mean = chain_spectrum(self.src, N)
        self.F = demo_filter()
        self.k = (1.0, 1.0)
        self.pk = priv(self.k)

    def test_smoother_design_consistent(self):
        d = assemble_lms(self.F, self.Pu, self.pk, mode="smoother",
                         input_mean=self.mean)
        assert d.kind == "wiener_smoother"
        want_sigma = kappa(self.pk) * diagonal_sensitivity(d.prefilter,
                                                           self.k)
        assert d.noise_sigma == pytest.approx(want_sigma, rel=1e-12)
        assert d.theory_mse == pytest.approx(
            d.info["achieved_objective"], rel=1e-12)
        assert d.info["achieved_objective"] >= \
            d.info["optimal_objective"] - 1e-12

    def test_optimal_leq_zfe_profile_and_zfe_mse(self):
        # MA(8) zeros sit exactly on the N=256 grid and trip the
        # operational log-integrability test, so this comparison uses the
        # MA(6) variant whose zeros fall between grid points
        F6 = demo_filter(6)
        d = assemble_lms(F6, self.Pu, self.pk, mode="smoother")
        Gz = design_diag_prefilter(freq_response(F6, N), self.k, order=48)
        zfe_design = assemble_zfe(F6, Gz, self.pk, N)
        prof_z = zfe_profile(Gz, self.k)
        val_z = lms_objective(freq_response(F6, N), self.Pu,
                              self.pk, prof_z)
        assert d.info["optimal_objective"] <= val_z * (1 + 1e-9)
        assert val_z <= zfe_design.theory_mse * (1 + 1e-9)
        assert d.theory_mse <= zfe_design.theory_mse * (1 + 1e-9)

    def test_zfe_recovered_in_high_power_limit(self):
        F6 = demo_filter(6)
        big = self.Pu * 1e8 + 1e2 * np.eye(2)[None, :, :]
        d = assemble_lms(F6, big, self.pk, mode="smoother")
        Gz = design_diag_prefilter(freq_response(F6, N), self.k)
        zfe_design = assemble_zfe(F6, Gz, self.pk, N)
        ratio = d.theory_mse / zfe_design.theory_mse
        assert 0.99 <= ratio <= 1.0 + 1e-6

    def test_causal_mode(self):
        d = assemble_lms(self.F, self.Pu, self.pk, mode="causal")
        assert d.kind == "wiener_causal"
        assert d.theory_mse == d.info["causal_mse_quadrature"]
        assert d.info["causal_mse_quadrature"] >= \
            d.info["smoother_mse"] - 1e-12

    def test_bank_fit_converges_in_factor_order(self):
        # regression: on the bank_lms_causal workload, reflecting the
        # truncated taps' zeros by root finding raised the smoother fit loss
        # from 2.76 % to 4.16 % and 8.21 % over these orders, and sigma to
        # 1.1e20 at order 160; an exact fit gives sigma = kappa
        import os
        from dpfilt.config import Config
        from dpfilt.fileio import build_filter, spectrum_from_spec
        from dpfilt.lms import lms_prefilter
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = Config.load(os.path.join(root, "benchmark", "workloads",
                                       "bank_lms_causal.yaml"))
        F = build_filter(cfg.filter)
        Pu, _ = spectrum_from_spec(cfg.spectrum, cfg.grid_n, F.shape[1])
        pk = cfg.privacy_spec()
        losses = []
        for order in (40, 80, 160):
            _, sigma, info = lms_prefilter(freq_response(F, cfg.grid_n), Pu,
                                           pk, order)
            losses.append(info["achieved_objective"]
                          / info["optimal_objective"] - 1.0)
        assert losses[1] <= losses[0] and losses[2] <= losses[1]
        assert abs(sigma / kappa(pk) - 1.0) < 0.1

    def test_determinism(self):
        d1 = assemble_lms(self.F, self.Pu, self.pk, mode="smoother")
        d2 = assemble_lms(self.F, self.Pu, self.pk, mode="smoother")
        for g1, g2 in zip(d1.prefilter.diagonal_entries(),
                          d2.prefilter.diagonal_entries()):
            assert np.array_equal(g1.num, g2.num)
        assert d1.noise_sigma == d2.noise_sigma
        assert d1.theory_mse == d2.theory_mse


class TestOrthogonality:
    def test_residual_uncorrelated_with_observation(self):
        src = server_example(0.3, 0.6)
        Pu, mean = chain_spectrum(src, N)
        F = demo_filter()
        pk = priv((1.0, 1.0))
        d = assemble_lms(F, Pu, pk, mode="smoother", input_mean=mean)
        from dpfilt import sample_chain
        T = 200000
        u = sample_chain(src, T, seed=11)
        rng = np.random.default_rng(12)
        uc = u - mean[None, :]
        v = simulate(d.prefilter, uc) \
            + rng.normal(0.0, d.noise_sigma, size=(T, 2))
        yhat = d.postfilter.apply(v)
        y = simulate(F, uc)
        resid = (y - yhat)[500: -500]
        vv = v[500: -500]
        B = 20
        blocks = np.array_split(np.arange(resid.shape[0]), B)
        for lag in range(-10, 11):
            prod = resid[max(lag, 0): resid.shape[0] + min(lag, 0), 0] \
                * vv[max(-lag, 0): vv.shape[0] + min(-lag, 0), 0]
            means = np.array([prod[b[b < prod.shape[0]]].mean()
                              for b in blocks])
            se = means.std(ddof=1) / np.sqrt(B)
            assert abs(prod.mean()) < 3.5 * se + 1e-4


class TestOptimizerErrorPath:
    def test_stall_reported_with_best_iterate(self):
        from dpfilt.errors import OptimizerStalled
        src = server_example(0.3, 0.6)
        Pu, _ = chain_spectrum(src, N)
        pk = priv((1.0, 1.0))
        with pytest.raises(OptimizerStalled) as exc:
            optimize_prefilter_general(freq_response(demo_filter(6), N), Pu,
                                       pk, max_iter=0)
        assert exc.value.best_profile.shape == (N + 1, 2)


class TestQuadratureVsSimulation:
    def test_smoother_quadrature_identity(self):
        # two formulas for the same smoother MSE: the profile objective
        # (matrix-inversion-lemma form) and the generic quadratic form
        src = server_example(0.3, 0.6)
        Pu, mean = chain_spectrum(src, N)
        F = demo_filter(6)
        pk = priv((1.0, 1.0))
        d = assemble_lms(F, Pu, pk, mode="smoother", input_mean=mean)
        P_yv, P_v = spectra(F, Pu, d.prefilter, d.noise_sigma)
        quad = postfilter_mse(freq_response(F, N), Pu, P_yv, P_v,
                              wiener_smoother(P_yv, P_v))
        assert quad == pytest.approx(d.theory_mse, rel=1e-9)

    def test_causal_empirical_matches_quadrature(self):
        from dpfilt import empirical_mse
        src = server_example(0.3, 0.6)
        Pu, mean = chain_spectrum(src, N)
        F = demo_filter(6)
        pk = priv((1.0, 1.0))
        d = assemble_lms(F, Pu, pk, mode="causal", input_mean=mean)
        emp, se = empirical_mse(d, src, trials=16, T=24000, seed=31)
        assert emp == pytest.approx(d.info["causal_mse_quadrature"],
                                    abs=3 * se)
        assert d.info["causal_mse_quadrature"] >= \
            d.info["smoother_mse"] - 1e-12


def monic_inverse_reference(coeffs, v):
    """The seed's sliding-window recursion for L e = v, kept as the
    agreement reference for monic_inverse_filter."""
    T, m = v.shape
    K = coeffs.shape[0] - 1
    e = np.zeros((T, m))
    if K == 0:
        e[:] = v
        return e
    rev = coeffs[1:][::-1]
    for t in range(T):
        lo = max(t - K, 0)
        window = e[lo:t]
        if window.shape[0]:
            e[t] = v[t] - np.einsum("kij,kj->i",
                                    rev[K - window.shape[0]:], window)
        else:
            e[t] = v[t]
    return e


def mimo_fir_reference(taps, v, offset):
    """The seed's per-(i, j) fftconvolve loop, kept as the agreement
    reference for FirBank.run."""
    from scipy.signal import fftconvolve
    T, m = v.shape
    y = np.zeros((T, taps.shape[1]))
    for i in range(taps.shape[1]):
        for j in range(m):
            seg = fftconvolve(v[:, j], taps[:, i, j])[offset: offset + T]
            y[: seg.shape[0], i] += seg
    return y


def stable_monic_poly(rng, K, radius=0.9):
    """Coefficients 1, a_1..a_K of a real polynomial in z^-1 whose roots
    lie inside `radius`."""
    roots = []
    while len(roots) < K:
        r = radius * np.sqrt(rng.random())
        if K - len(roots) >= 2:
            th = rng.uniform(0, np.pi)
            roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        else:
            roots.append(r)
    return np.real(np.poly(roots))


def rel_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestSequentialKernelAgreement:
    def test_monic_inverse_diagonal_bank_shape(self, rng):
        K, m, T = 40, 15, 3000
        coeffs = np.zeros((K + 1, m, m))
        for i in range(m):
            coeffs[:, i, i] = stable_monic_poly(rng, K)
        v = rng.normal(size=(T, m))
        got = monic_inverse_filter(coeffs, v)
        assert rel_gap(got, monic_inverse_reference(coeffs, v)) <= 1e-12

    def test_monic_inverse_coupled(self, rng):
        K, m, T = 5, 3, 3000
        coeffs = np.zeros((K + 1, m, m))
        coeffs[0] = np.eye(m)
        for k in range(1, K + 1):
            coeffs[k] = rng.normal(scale=0.1 / k, size=(m, m))
        # small-gain: sum of tap norms below one keeps L^-1 stable
        assert sum(np.linalg.norm(c, 2) for c in coeffs[1:]) < 1.0
        v = rng.normal(size=(T, m))
        got = monic_inverse_filter(coeffs, v)
        assert rel_gap(got, monic_inverse_reference(coeffs, v)) <= 1e-12

    def test_monic_inverse_order_zero(self, rng):
        v = rng.normal(size=(50, 4))
        got = monic_inverse_filter(np.eye(4)[None], v)
        assert np.array_equal(got, monic_inverse_reference(np.eye(4)[None],
                                                           v))

    @pytest.mark.parametrize("L,p,m,T,offset", [
        # offsets: causal postfilter, DF lookahead, smoother half-width
        # (taps span lags -7..7), and one past the end of the taps
        pytest.param(15, 3, 4, 2000, 0, id="0"),
        pytest.param(15, 3, 4, 2000, 2, id="2"),
        pytest.param(15, 3, 4, 2000, 7, id="7"),
        pytest.param(15, 3, 4, 2000, 40, id="40"),
        # block edges of the overlap-save kernel
        pytest.param(15, 3, 4, 10, 0, id="T_below_L"),
        pytest.param(15, 3, 4, 10, 7, id="T_below_L_offset"),
        pytest.param(5, 2, 3, 3000, 0, id="84_blocks"),
        pytest.param(15, 3, 4, 2000, 14, id="offset_L_minus_1"),
        pytest.param(15, 3, 4, 300, 100, id="offset_far_past_taps"),
        pytest.param(31, 1, 1, 500, 0, id="siso"),
        pytest.param(31, 1, 1, 500, 5, id="siso_offset"),
        pytest.param(522, 3, 15, 20000, 0, id="bank_lms_causal_shape"),
    ])
    def test_mimo_fir_matches_pairwise_fftconvolve(self, rng, L, p, m, T,
                                                   offset):
        from dpfilt.lms import FirBank
        taps = rng.normal(size=(L, p, m))
        v = rng.normal(size=(T, m))
        got = FirBank(taps).run(v, offset)
        assert got.shape == (T, p)
        assert rel_gap(got, mimo_fir_reference(taps, v, offset)) <= 1e-12

    def test_mimo_fir_zero_past_the_full_convolution(self, rng):
        # samples at or past T + L - 1 are exactly zero
        from dpfilt.lms import FirBank
        bank = FirBank(rng.normal(size=(15, 2, 3)))
        v = rng.normal(size=(30, 3))
        assert not np.any(bank.run(v, 44))
        got = bank.run(v, 40)
        assert np.all(got[4:] == 0.0) and np.all(got[:4] != 0.0)


def psd_sqrt_reference(P):
    sym = 0.5 * (P + np.conj(np.swapaxes(P, 1, 2)))
    w, V = np.linalg.eigh(sym)
    w = np.sqrt(np.maximum(w, 0.0))
    return np.einsum("qij,qj,qkj->qik", V, w, np.conj(V))


def project_profile_bisection(y, weights):
    """Projection onto {x >= 0, sum(weights x) = 1} by bisection on mu."""
    a = weights.ravel()
    yf = y.ravel()

    def excess(mu):
        return float(a @ np.maximum(0.0, yf - mu * a) - 1.0)

    lo, hi = -1.0, 1.0
    while excess(lo) < 0.0:
        lo *= 4.0
    while excess(hi) > 0.0:
        hi *= 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    mu = 0.5 * (lo + hi)
    return np.maximum(0.0, yf - mu * a).reshape(y.shape)


def waterfill_bisection(amp, pt):
    """Waterfilling level max(0, amp / sqrt(lam) - 1 / pt) with lam
    bisected until the profile integrates to one; returns (x, lam)."""
    def level(lam):
        return np.maximum(0.0, amp / np.sqrt(lam) - 1.0 / pt)

    lo = hi = 1.0
    while trapezoid_mean(level(hi).sum(axis=1)) > 1.0:
        hi *= 4.0
    while trapezoid_mean(level(lo).sum(axis=1)) < 1.0:
        lo /= 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if trapezoid_mean(level(mid).sum(axis=1)) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    lam = 0.5 * (lo + hi)
    return level(lam), lam


class TestAllocationKernelAgreement:
    """Exact and batched allocation kernels against the bisection and
    einsum forms they replace."""

    def test_psd_sqrt_matches_einsum(self, rng):
        from dpfilt.lms import _psd_sqrt
        A = rng.normal(size=(65, 5, 5)) + 1j * rng.normal(size=(65, 5, 5))
        P = A @ np.conj(np.swapaxes(A, 1, 2))
        P[:, :, 4] = P[:, 4, :] = 0.0       # singular: clipped eigenvalue
        want = psd_sqrt_reference(P)
        got = _psd_sqrt(P)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(got @ got - P)) <= 1e-12 * np.max(np.abs(P))

    @pytest.mark.parametrize("shape", [(N + 1, 1), (N + 1, 3), (1025, 15)])
    def test_projection_matches_bisection(self, rng, shape):
        from dpfilt.lms import _project_profile
        w_q = np.ones(shape[0])
        w_q[0] = w_q[-1] = 0.5
        weights = np.repeat((w_q / (shape[0] - 1))[:, None], shape[1], axis=1)
        for scale in (0.1, 1.0, 30.0):
            y = scale * rng.normal(size=shape) + rng.uniform(-1, 1)
            got = _project_profile(y, weights)
            want = project_profile_bisection(y, weights)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.min(got) >= 0.0
            assert abs(float((weights * got).sum()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("m", [1, 4, 15])
    def test_waterfill_level_matches_bisection(self, rng, m):
        from dpfilt.lms import _waterfill_level
        amp = rng.uniform(0.0, 3.0, size=(N + 1, m))
        amp[:, 0] *= np.abs(np.cos(OMEGA))      # a zero at omega = pi / 2
        pt = rng.uniform(0.05, 5.0, size=(N + 1, m))
        x, lam = _waterfill_level(amp, pt)
        x_ref, lam_ref = waterfill_bisection(amp, pt)
        assert lam == pytest.approx(lam_ref, rel=1e-12)
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
        assert float(trapezoid_mean(x.sum(axis=1))) == pytest.approx(
            1.0, rel=1e-12)


def causal_parts(design, P_u):
    """The design-time parts of a causal LMS design's postfilter, formed
    as causal_wiener forms them from the design's spectra: l_coeffs, the
    monic canonical factor L of the release spectrum; its pe; and mc, the
    causal part of P_yv L^-* cut like the causal taps."""
    n = P_u.shape[0] - 1
    P_yv, P_v = wiener_spectra(freq_response(design.target, n), P_u,
                               freq_response(design.prefilter, n),
                               design.noise_sigma)
    fact = matrix_canonical_factor(P_v)
    h = grid_lags(np.conj(np.swapaxes(np.linalg.solve(
        fact.eval_grid(n), np.conj(np.swapaxes(P_yv, 1, 2))), 1, 2)))
    return SimpleNamespace(
        l_coeffs=fact.coeffs, pe=fact.pe,
        mc=_truncate_tail(h[:n], 1e-12, float(np.max(np.abs(h)))))


def iir_apply_reference(post, v):
    """CausalWienerFilter.apply in its IIR form from the causal_parts
    post: the monic inverse L^-1 (one scipy lfilter per channel when L is
    diagonal, else the seed loop), then Pe^-1 and the causal taps mc; the
    agreement reference for the single-FIR apply over the full causal
    taps."""
    from scipy.signal import lfilter
    from dpfilt.lms import FirBank
    L = post.l_coeffs
    m = L.shape[1]
    if np.any(L[:, ~np.eye(m, dtype=bool)]):
        e = monic_inverse_reference(L, v)
    else:
        e = np.stack([lfilter([1.0], np.r_[1.0, L[1:, i, i]], v[:, i])
                      for i in range(m)], axis=1)
    return FirBank(post.mc).run(e @ np.linalg.inv(post.pe).T)


class TestCausalTaps:
    def test_bank_lms_causal_matches_iir_apply(self):
        # the bank_lms_causal design: occupancy bank, i.i.d. Poisson input
        # statistics, causal LMS at the README privacy settings
        from dpfilt import occupancy_filter_bank
        rates = np.array([1.4, 1.836, 1.641, 0.76, 0.88, 1.798, 0.408,
                          1.714, 1.675, 1.149, 0.885, 0.845, 0.808, 1.112,
                          1.207])
        n = 1024
        Pu = np.repeat(np.diag(rates).astype(complex)[None], n + 1, axis=0)
        pk = PrivacySpec(epsilon=float(np.log(5)), delta=0.05,
                         k=(4.0,) * 15)
        d = assemble_lms(occupancy_filter_bank(), Pu, pk, mode="causal",
                         order=40, input_mean=rates)
        post = d.postfilter
        rng = np.random.default_rng(5)
        u = rng.poisson(rates, size=(6000, 15)) - rates
        v = simulate(d.prefilter, u) \
            + rng.normal(0.0, d.noise_sigma, size=u.shape)
        assert rel_gap(post.apply(v), iir_apply_reference(
            causal_parts(d, Pu), v)) <= 1e-11
        # cut by the 1e-12-of-peak rule, like mc
        mags = np.abs(post.taps).reshape(post.taps.shape[0], -1).max(axis=1)
        assert mags[-1] > 1e-12 * mags.max()
        assert post.taps.shape == (522, 3, 15)

    def test_coupled_factor_matches_iir_apply(self):
        src = server_example(0.3, 0.6)
        Pu, mean = chain_spectrum(src, N)
        F = demo_filter(6)
        d = assemble_lms(F, Pu, priv((1.0, 1.0)), mode="causal",
                         input_mean=mean)
        parts = causal_parts(d, Pu)
        assert np.any(parts.l_coeffs[:, 0, 1])
        v = np.random.default_rng(6).normal(size=(3000, 2))
        assert rel_gap(d.postfilter.apply(v),
                       iir_apply_reference(parts, v)) <= 1e-11


class TestCausalTapsDoubling:
    """A causal filter longer than three quarters of the 2N lags of its
    design grid: F = 1, white P_u, G = 1 - 0.99 z^-1, sigma = 0.01; at
    n = 64 and 256 the taps outrun the first horizon of causal_taps, which
    doubles. The taps match the monic recursion run on the rows of mc Pe^-1 over 2^15
    steps, and the lags of its exact response Mc Pe^-1 L^-1 on a grid of
    2^14 + 1 points, within 1e-13 of the peak over the common length, and
    are within one tap as long as either."""

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_matches_recursion_and_grid_lags(self, n):
        F = TransferMatrix([[RationalFilter([1.0])]])
        G = TransferMatrix([[RationalFilter([1.0, -0.99])]])
        Pu = white_spectrum(1, n)
        got = causal_wiener(*spectra(F, Pu, G, 0.01))[0].taps
        parts = causal_parts(SimpleNamespace(target=F, prefilter=G,
                                             noise_sigma=0.01), Pu)
        recursion = _truncate_tail(monic_inverse_filter(
            *TestBatchedMonicRecursion.causal_rows(parts, 1 << 15)), 1e-12)
        M = 1 << 14
        lags = _truncate_tail(grid_lags(
            taps_grid(parts.mc, M) @ np.linalg.inv(parts.pe)
            @ np.linalg.inv(taps_grid(parts.l_coeffs, M))), 1e-12)
        assert recursion.shape[0] > 3 * n // 2
        for want in (recursion, lags):
            assert abs(got.shape[0] - want.shape[0]) <= 1
            L = min(got.shape[0], want.shape[0])
            assert rel_gap(got[:L], want[:L]) <= 1e-13


@pytest.fixture(scope="module")
def bank_causal_factor():
    """The causal_parts of the bank_lms_causal postfilter (the design of
    TestCausalTaps)."""
    from dpfilt import occupancy_filter_bank
    rates = np.array([1.4, 1.836, 1.641, 0.76, 0.88, 1.798, 0.408, 1.714,
                      1.675, 1.149, 0.885, 0.845, 0.808, 1.112, 1.207])
    n = 1024
    Pu = np.repeat(np.diag(rates).astype(complex)[None], n + 1, axis=0)
    pk = PrivacySpec(epsilon=float(np.log(5)), delta=0.05, k=(4.0,) * 15)
    return causal_parts(assemble_lms(occupancy_filter_bank(), Pu, pk,
                                     mode="causal", order=40,
                                     input_mean=rates), Pu)


class TestBatchedMonicRecursion:
    """Several right-hand sides in one monic_inverse_filter call against
    the seed loop run on each of them, within 1e-13 of the peak."""

    @staticmethod
    def check(coeffs, v):
        got = monic_inverse_filter(coeffs, v)
        want = np.stack([monic_inverse_reference(coeffs, v[:, b])
                         for b in range(v.shape[1])], axis=1)
        assert got.shape == want.shape
        assert rel_gap(got, want) <= 1e-13

    @staticmethod
    def causal_rows(post, n):
        # the right-hand sides of causal_taps: rows of mc Pe^-1, padded
        r = post.mc @ np.linalg.inv(post.pe)
        v = np.zeros((n,) + r.shape[1:])
        v[:r.shape[0]] = r
        return np.swapaxes(post.l_coeffs, 1, 2), v

    def test_bank_lms_causal_rows(self, bank_causal_factor):
        self.check(*self.causal_rows(bank_causal_factor, 1200))

    def test_coupled_two_channel_rows(self):
        src = server_example(0.3, 0.6)
        Pu, mean = chain_spectrum(src, N)
        d = assemble_lms(demo_filter(6), Pu, priv((1.0, 1.0)), mode="causal",
                         input_mean=mean)
        parts = causal_parts(d, Pu)
        assert np.any(parts.l_coeffs[:, 0, 1])
        self.check(*self.causal_rows(parts, 800))

    def test_feedback_impulse_columns(self):
        from dpfilt import design_df
        src = server_example(0.3, 0.6)
        Pu, mean = chain_spectrum(src, N)
        Pu = Pu + 1e-4 * np.max(np.abs(Pu)) * np.eye(2)[None]
        f = RationalFilter([0.6, 0.3, 0.1])
        F = TransferMatrix.diagonal([f, f])
        P = design_df(F, Pu, priv((1.0, 1.0)), TransferMatrix.identity(2),
                      sigma=1.0, input_mean=mean).postfilter.p_coeffs
        assert np.any(P[1:, 0, 1])
        delta = np.zeros((300, 2, 2))
        delta[0] = np.eye(2)
        want = np.stack([monic_inverse_reference(P, delta[:, :, c])
                         for c in range(2)], axis=2)
        assert rel_gap(feedback_impulse(P, 300), want) <= 1e-13


def smoother_reference(H, tail_tol=1e-10):
    """The lag loop the smoother's from_grid ran before it was vectorized:
    (taps, half)."""
    N = H.shape[0] - 1
    full = np.concatenate([H, np.conj(H[-2:0:-1])], axis=0)
    h = np.fft.ifft(full, axis=0).real      # lags 0..N-1, -N..-1
    mags = np.abs(h).reshape(h.shape[0], -1).max(axis=1)
    peak = max(float(mags.max()), 1e-300)
    K = 1
    for lag in range(1, N):
        if mags[lag] > tail_tol * peak or mags[2 * N - lag] > tail_tol * peak:
            K = lag
    return np.concatenate([h[-K:], h[: K + 1]], axis=0), K


class TestSmootherFromGrid:
    """CausalWienerFilter.from_grid against the lag loop it replaced: the
    same half (its lookahead) and bitwise the same taps."""

    @staticmethod
    def check(H, half=None):
        from dpfilt.lms import CausalWienerFilter
        got = CausalWienerFilter.from_grid(H)
        taps, K = smoother_reference(H)
        assert got.lookahead == K
        assert np.array_equal(got.taps, taps)
        if half is not None:
            assert K == half

    def test_tail_on_the_negative_side_only(self):
        # lags -30..2: every tap beyond lag 2 is anticausal
        taps = np.zeros((33, 2, 2))
        taps[:, 0, 0] = 0.8 ** np.arange(33)[::-1]
        taps[:, 1, 0] = 0.5 * taps[:, 0, 0]
        self.check(taps_grid(taps, N, -30), half=30)

    def test_all_small_tail(self):
        # nothing beyond lag 0 reaches 1e-10 of the peak: half stays 1
        taps = np.full((5, 1, 1), 1e-12)
        taps[2] = 1.0
        self.check(taps_grid(taps, N, -2), half=1)

    def test_bench_bank(self):
        # the Wiener smoother of the bank_lms_causal prefilter and noise
        from dpfilt import occupancy_filter_bank
        from dpfilt.lms import lms_prefilter
        rates = np.array([1.4, 1.836, 1.641, 0.76, 0.88, 1.798, 0.408,
                          1.714, 1.675, 1.149, 0.885, 0.845, 0.808, 1.112,
                          1.207])
        n = 1024
        Pu = np.repeat(np.diag(rates).astype(complex)[None], n + 1, axis=0)
        pk = PrivacySpec(epsilon=float(np.log(5)), delta=0.05,
                         k=(4.0,) * 15)
        F = occupancy_filter_bank()
        G, sigma, _ = lms_prefilter(freq_response(F, n), Pu, pk, 40)
        self.check(wiener_smoother(*spectra(F, Pu, G, sigma)))
