"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figure of merit. Tolerances are fixed here, not
calibrated elsewhere."""

import time

import numpy as np
import pytest

from dpfilt import (MechanismDesign, OccupancySource, PrivacySpec,
                    RationalFilter, TransferMatrix, assemble_lms,
                    assemble_zfe, autocovariance, brute_force_sensitivity,
                    causal_wiener, chain_spectrum, demo_filter,
                    design_diag_prefilter, empirical_mse, freq_response,
                    grid_omega, kappa, lms_objective,
                    matrix_canonical_factor, mimo_exact,
                    occupancy_filter_bank, postfilter_mse, q_function,
                    q_inverse, sample_chain,
                    scalar_spectral_factor, server_example, server_stationary,
                    stationary_distribution, trapezoid_mean,
                    waterfill_diagonal, wiener_smoother, wiener_spectra)
from dpfilt.lms import _projected_gradient

from conftest import delay, random_fir_matrix, random_transfer_matrix


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def merl_privacy():
    return PrivacySpec(epsilon=float(np.log(5)), delta=0.05, k=(4.0,) * 15)


def test_criterion_1_zfe_bound_attainment():
    t0 = time.monotonic()
    F = occupancy_filter_bank()
    priv = merl_privacy()
    G = design_diag_prefilter(freq_response(F, 1024), priv.k_vector())
    design = assemble_zfe(F, G, priv, 1024)
    ratio = design.theory_mse / design.info["diag_bound"]
    elapsed = time.monotonic() - t0
    ok = 1.0 - 1e-9 <= ratio <= 1.05 and elapsed < 30.0
    report(1, ok, f"theory/bound ratio = {ratio:.6f} (limit [1.0, 1.05]), "
                  f"runtime {elapsed:.1f}s < 30s")


def test_criterion_2_monte_carlo_consistency():
    t0 = time.monotonic()
    F = occupancy_filter_bank()
    priv = merl_privacy()
    G = design_diag_prefilter(freq_response(F, 1024), priv.k_vector())
    design = assemble_zfe(F, G, priv, 1024)
    src_a = OccupancySource(m=15, rates=None, period=480, amplitude=0.6,
                            phase_seed=3)
    src_b = OccupancySource(m=15, rates=2.5, period=160, amplitude=0.2,
                            phase_seed=9)
    mean_a, se_a = empirical_mse(design, src_a, trials=10, T=20000, seed=100)
    mean_b, se_b = empirical_mse(design, src_b, trials=10, T=20000, seed=200)
    elapsed = time.monotonic() - t0
    th = design.theory_mse
    ok_a = abs(mean_a - th) < 3 * se_a
    ok_b = abs(mean_b - th) < 3 * se_b
    joint = float(np.hypot(se_a, se_b))
    ok_sources = abs(mean_a - mean_b) < 3 * joint
    ok = ok_a and ok_b and ok_sources and elapsed < 120.0
    report(2, ok,
           f"theory {th:.1f}; source A {mean_a:.1f} (se {se_a:.2f}), "
           f"source B {mean_b:.1f} (se {se_b:.2f}); "
           f"|A-B| = {abs(mean_a - mean_b):.2f} < {3 * joint:.2f}; "
           f"runtime {elapsed:.1f}s < 120s")


def test_criterion_3_sensitivity_sandwich_and_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        G = random_transfer_matrix(rng, p, m, max_order=3, radius=0.7)
        k = rng.uniform(0.5, 2.0, m)
        rep = mimo_exact(G, k)
        assert rep.lower <= rep.exact * (1 + 1e-10)
        assert rep.exact <= rep.upper * (1 + 1e-10)
    for _ in range(50):
        G = random_fir_matrix(rng, 2, 2, max_lag=3)
        k = rng.uniform(0.5, 2.0, 2)
        exact = mimo_exact(G, k).exact
        oracle = brute_force_sensitivity(G, k, T=8)
        worst = max(worst, abs(exact - oracle))
    delays = TransferMatrix([[delay(t) for t in range(3)]])
    rep = mimo_exact(delays, np.ones(3))
    ex1 = abs(rep.exact - 3.0) < 1e-10 and abs(rep.upper - 3.0) < 1e-10
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and ex1 and elapsed < 120.0
    report(3, ok,
           f"sandwich held on 100 systems; max |exact - oracle| = "
           f"{worst:.2e} < 1e-9 on 50 FIR instances; aligned-delay bank "
           f"exact = upper = 3; runtime {elapsed:.1f}s < 120s")


def test_criterion_4_spectral_round_trips():
    N = 1024
    omega = grid_omega(N)
    worst_scalar = 0.0
    worst_root = 0.0
    smooth_targets = [
        np.abs(1.0 + 0.5 * np.exp(-1j * omega)
               + 0.2 * np.exp(-2j * omega)) ** 2,
        1.0 / np.abs(1.0 - 0.6 * np.exp(-1j * omega)) ** 2,
        2.0 + np.cos(omega) + 0.3 * np.cos(2 * omega),
        np.exp(np.cos(omega)),
    ]
    for s in smooth_targets:
        g, err = scalar_spectral_factor(np.asarray(s, float), order=40)
        worst_scalar = max(worst_scalar, err)
        z = g.zeros()
        if z.size:
            worst_root = max(worst_root, float(np.max(np.abs(z))))
    theta = np.array([[0.4, 0.1], [-0.2, 0.3]])
    pe0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    coeffs0 = np.stack([np.eye(2), theta])
    z = np.exp(-1j * np.outer(omega, np.arange(2)))
    Lg = np.einsum("qk,kij->qij", z, coeffs0)
    P = np.einsum("qij,jk,qlk->qil", Lg, pe0, np.conj(Lg))
    fact = matrix_canonical_factor(P)
    recon = fact.reconstruct(N)
    mat_err = float(np.max(np.abs(recon - P)) / np.max(np.abs(P)))
    ok = worst_scalar < 1e-4 and mat_err < 1e-5 and worst_root < 1.0 \
        and fact.causally_invertible
    report(4, ok,
           f"scalar recon rel Linf = {worst_scalar:.2e} < 1e-4 (smooth, "
           f"N=1024); matrix recon = {mat_err:.2e} < 1e-5; max factor "
           f"zero radius = {worst_root:.6f} < 1")


def test_criterion_5_waterfilling_vs_optimizer():
    rng = np.random.default_rng(5)
    N = 256
    omega = grid_omega(N)
    worst_gap = 0.0
    worst_kkt = 0.0
    for trial in range(20):
        m = int(rng.integers(1, 4))
        pk = PrivacySpec(epsilon=1.0, delta=0.1,
                         k=tuple(rng.uniform(0.5, 2.0, m)))
        Pu = np.zeros((N + 1, m, m), dtype=complex)
        for i in range(m):
            Pu[:, i, i] = (rng.uniform(0.5, 2.0)
                             + rng.uniform(0.1, 0.8)
                             * np.cos(omega * rng.integers(1, 4)
                                      + rng.uniform(0, np.pi)) ** 2)
        F = random_fir_matrix(rng, int(rng.integers(1, 4)), m, max_lag=3)
        k = pk.k_vector()
        Fg = freq_response(F, N)
        x, lam = waterfill_diagonal(Fg, Pu, pk)
        wf_objective = lms_objective(Fg, Pu, pk, x)
        _, pg_objective = _projected_gradient(Fg, Pu, pk)
        worst_gap = max(worst_gap, abs(pg_objective - wf_objective)
                        / wf_objective)
        kap = kappa(pk)
        Ft2 = kap ** 2 * np.linalg.norm(Fg, axis=1) ** 2 * (k ** 2)[None, :]
        idx = np.arange(m)
        pt = np.real(Pu[:, idx, idx]) / (kap ** 2 * (k ** 2)[None, :])
        mask = x > 1e-10
        if np.any(mask):
            resid = np.abs(Ft2[mask] / (1.0 / pt[mask] + x[mask]) ** 2 - lam)
            worst_kkt = max(worst_kkt, float(np.max(resid / lam)))
    ok = worst_gap < 1e-4 and worst_kkt < 1e-6
    report(5, ok,
           f"max relative objective gap = {worst_gap:.2e} < 1e-4 over 20 "
           f"diagonal instances; max KKT residual = {worst_kkt:.2e} < 1e-6")


def test_criterion_6_mechanism_ordering():
    N = 512
    src = server_example(0.3, 0.6)
    Pu, mean = chain_spectrum(src, N)
    F = demo_filter(8)
    pk = PrivacySpec(epsilon=1.0, delta=0.1, k=(1.0, 1.0))
    k = pk.k_vector()
    lms_design = assemble_lms(F, Pu, pk, mode="smoother",
                              input_mean=mean)
    Fg = freq_response(F, N)
    Gz = design_diag_prefilter(Fg, k, order=48)
    zfe_design = assemble_zfe(F, Gz, pk, N)
    xz = np.stack([np.abs(g.freq(grid_omega(N))) ** 2
                   for g in Gz.diagonal_entries()], axis=1) * k[None, :] ** 2
    xz /= trapezoid_mean(xz.sum(axis=1))
    val_zfe_profile = lms_objective(Fg, Pu, pk, xz)
    opt = lms_design.info["optimal_objective"]
    ordering = opt <= val_zfe_profile * (1 + 1e-9) \
        and val_zfe_profile <= zfe_design.theory_mse * (1 + 1e-9)
    sigma = lms_design.noise_sigma
    G = lms_design.prefilter
    P_yv, P_v = wiener_spectra(Fg, Pu, freq_response(G, N), sigma)
    smoother = wiener_smoother(P_yv, P_v)
    _, causal, _ = causal_wiener(P_yv, P_v)
    mse_s = postfilter_mse(Fg, Pu, P_yv, P_v, smoother)
    mse_c = postfilter_mse(Fg, Pu, P_yv, P_v, causal)
    causal_ok = mse_c >= mse_s - 1e-12
    big = Pu * 1e8 + 1e2 * np.eye(2)[None, :, :]
    d_big = assemble_lms(F, big, pk, mode="smoother")
    limit_ratio = d_big.theory_mse / zfe_design.theory_mse
    limit_ok = abs(limit_ratio - 1.0) <= 0.01
    ok = ordering and causal_ok and limit_ok
    report(6, ok,
           f"lms(opt) {opt:.4f} <= lms(zfe profile) {val_zfe_profile:.4f} "
           f"<= zfe {zfe_design.theory_mse:.4f}; causal {mse_c:.4f} >= "
           f"smoother {mse_s:.4f}; high-power ratio {limit_ratio:.4f} "
           f"within 1% of 1")


def test_criterion_7_df_lemma_and_formula():
    rng = np.random.default_rng(17)
    pk = PrivacySpec(epsilon=1.0, delta=0.1, k=(1.0, 1.0))
    kap2 = kappa(pk) ** 2
    min_slack = np.inf
    for _ in range(100):
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(m, m))
        T = A @ A.T + 0.3 * np.eye(m)
        B = rng.normal(size=(m, m))
        R = B @ B.T + 0.3 * np.eye(m)
        K = int(rng.integers(1, 4))
        W = np.zeros((K + 1, m, m))
        W[0] = np.eye(m)
        for kk in range(1, K + 1):
            W[kk] = rng.normal(scale=0.4 / kk, size=(m, m))
        Th = np.linalg.cholesky(T)
        Rh = np.linalg.cholesky(R)
        val = float(sum(np.sum((Th.T @ W[kk] @ Rh) ** 2)
                        for kk in range(K + 1)))
        tr = float(np.trace(T @ R))
        min_slack = min(min_slack, val - tr)
        # equality at W = identity
        val_id = float(np.sum((Th.T @ np.eye(m) @ Rh) ** 2))
        assert val_id == pytest.approx(tr, rel=1e-10)
    A = rng.normal(size=(2, 2))
    T = A @ A.T + 0.4 * np.eye(2)
    B = rng.normal(size=(2, 2))
    R = B @ B.T + 0.4 * np.eye(2)
    from dpfilt import df_theory_mse
    direct = df_theory_mse(T, R, pk)
    Th = np.linalg.cholesky(T)
    Rh = np.linalg.cholesky(R)
    fro = kap2 * float(np.sum((Th.T @ Rh) ** 2))
    two_ways = abs(direct - fro) <= 1e-8 * max(direct, 1.0)
    ok = min_slack >= -1e-10 and two_ways
    report(7, ok,
           f"lemma slack >= {min_slack:.2e} over 100 monic filters "
           f"(equality at identity); Tr(TR) two-way agreement "
           f"|{direct:.6f} - {fro:.6f}| <= 1e-8")


def test_criterion_8_markov_analytics():
    for alpha, beta in ((0.3, 0.6), (0.9, 0.1)):
        src = server_example(alpha, beta)
        p = stationary_distribution(src)
        err = np.max(np.abs(p - server_stationary(alpha, beta)))
        assert err < 1e-12, f"stationary formula error {err}"
    src = server_example(0.3, 0.6)
    grid, _ = chain_spectrum(src, N=1024)
    full = np.concatenate([grid, np.conj(grid[-2:0:-1])], axis=0)
    R_grid = np.fft.ifft(full, axis=0).real
    R_true = autocovariance(src, 20)
    autocov_err = max(np.max(np.abs(R_grid[k] - R_true[k]))
                      for k in range(21))
    T = 1000000
    s = sample_chain(src, T, seed=88)
    p = stationary_distribution(src)
    R_long = autocovariance(src, 300)
    mc_ok = True
    for c, st in enumerate(src.selectors):
        lrv = R_long[0][c, c] + 2 * np.sum(R_long[1:, c, c])
        se = np.sqrt(max(lrv, 1e-12) / T)
        mc_ok &= abs(s[:, c].mean() - p[st]) < 3 * se
    x = s - s.mean(axis=0, keepdims=True)
    for kk in range(1, 11):
        emp = (x[kk:, :, None] * x[:-kk, None, :]).mean(axis=0)
        mc_ok &= bool(np.max(np.abs(emp - R_true[kk])) < 9.0 / np.sqrt(T))
    ok = autocov_err < 1e-10 and mc_ok
    report(8, ok,
           f"stationary formulas to 1e-12 at two settings; spectrum vs "
           f"matrix-power autocovariances: {autocov_err:.2e} < 1e-10 for "
           f"lags <= 20; Monte Carlo means/correlations within 3 stderr "
           f"at 1e6 steps")


def test_criterion_9_privacy_calibration():
    rng = np.random.default_rng(9)
    worst_rt = 0.0
    for delta in rng.uniform(1e-6, 1 - 1e-6, 50):
        worst_rt = max(worst_rt,
                       abs(q_function(q_inverse(float(delta))) - delta))
    kappa_err = 0.0
    for eps in (0.25, 1.0, np.log(5), 4.0):
        spec = PrivacySpec(epsilon=eps, delta=0.5, k=(1.0,))
        want = 1.0 / np.sqrt(2.0 * eps)
        kappa_err = max(kappa_err, abs(kappa(spec) - want) / want)
    sigma = 0.7
    eye = TransferMatrix.identity(1)
    noisy = MechanismDesign(
        kind="output_perturbation", target=eye, prefilter=eye,
        noise_sigma=sigma, privacy=PrivacySpec(1.0, 0.1, (1.0,))
    ).release(np.zeros((1000000, 1)), seed=5)
    var = float(noisy.var())
    var_ok = abs(var - sigma ** 2) < 0.02 * sigma ** 2
    ok = worst_rt < 1e-10 and kappa_err < 5e-16 and var_ok
    report(9, ok,
           f"Q/Q^-1 round trip max err = {worst_rt:.2e} < 1e-10; "
           f"kappa(delta=0.5) matches 1/sqrt(2 eps) to {kappa_err:.1e} "
           f"(float-exact); noise variance {var:.5f} within 2% of "
           f"{sigma ** 2:.5f} at 1e6 samples")
