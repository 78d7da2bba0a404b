import numpy as np
import pytest

from dpfilt import (PrivacySpec, RationalFilter, TransferMatrix,
                    assemble_output_perturbation, assemble_zfe,
                    design_diag_prefilter, freq_response,
                    grid_omega, kappa, occupancy_filter_bank,
                    zfe_general_lower_bound, zfe_mse_diag_bound)
from dpfilt.errors import DimensionMismatch, UnstableInverse
from dpfilt.zfe import zfe_postfilter

from conftest import delay, random_fir_matrix, random_poly_from_roots

N = 512
PRIV1 = PrivacySpec(epsilon=1.0, delta=0.1, k=(1.0,))


def priv(k):
    return PrivacySpec(epsilon=1.0, delta=0.1, k=tuple(k))


def merl_privacy():
    return PrivacySpec(epsilon=float(np.log(5)), delta=0.05, k=(4.0,) * 15)


class TestSimoDesign:
    """A single-input target: the diagonal design with one channel."""

    def test_constant_column(self):
        F = TransferMatrix([[RationalFilter([3.0])], [RationalFilter([4.0])]])
        g = design_diag_prefilter(freq_response(F, N), [1.0])[0, 0]
        # |G|^2 = |col|_2 = 5 everywhere
        assert np.abs(g.freq(0.7)) ** 2 == pytest.approx(5.0, rel=1e-8)

    def test_moving_average_dc(self):
        taps = np.zeros(21)
        taps[1:] = 1.0 / 20.0
        F = TransferMatrix([[RationalFilter(taps)]])
        g = design_diag_prefilter(freq_response(F, 1024), [1.0])[0, 0]
        assert np.abs(g.freq(0.0)) ** 2 == pytest.approx(1.0, abs=2e-2)

    def test_defining_identity_on_grid(self, rng):
        F = random_fir_matrix(rng, 3, 1, max_lag=4)
        Fg = freq_response(F, N)
        g = design_diag_prefilter(Fg, [2.0], order=48)[0, 0]
        target = np.linalg.norm(Fg, axis=1)[:, 0] / 2.0
        got = np.abs(g.freq(grid_omega(N))) ** 2
        assert np.max(np.abs(got - target)) / target.max() < 1e-3

    def test_multi_input_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            design_diag_prefilter(freq_response(random_fir_matrix(rng, 2, 2),
                                                N), [1.0])


class TestDiagDesign:
    def test_single_column_consistency(self, rng):
        # one column is factored alone: the scalar factor of |F_1|_2 / k_1
        from dpfilt.spectral import scalar_spectral_factor
        from dpfilt.zfe import DEFAULT_FACTOR_ORDER
        F = random_fir_matrix(rng, 2, 1, max_lag=3)
        Fg = freq_response(F, N)
        g_simo, _ = scalar_spectral_factor(np.linalg.norm(Fg, axis=1)[:, 0]
                                           / 2.0, DEFAULT_FACTOR_ORDER)
        G = design_diag_prefilter(Fg, (2.0,))
        assert np.allclose(G[0, 0].num, g_simo.num, atol=1e-12)

    def test_constant_columns(self):
        F = TransferMatrix.diagonal([RationalFilter([2.0]),
                                     RationalFilter([5.0])])
        G = design_diag_prefilter(freq_response(F, N), (1.0, 1.0))
        assert np.abs(G[0, 0].freq(1.0)) ** 2 == pytest.approx(2.0, rel=1e-8)
        assert np.abs(G[1, 1].freq(1.0)) ** 2 == pytest.approx(5.0, rel=1e-8)

    def test_occupancy_bank_all_columns(self):
        # order-40 truncation leaves localized cusp error at the columns'
        # near-circle zeros; measured worst-column error is 0.083
        F = occupancy_filter_bank()
        Fg = freq_response(F, 1024)
        G = design_diag_prefilter(Fg, (4.0,) * 15)
        cn = np.linalg.norm(Fg, axis=1)
        omega = grid_omega(1024)
        for i in range(15):
            got = np.abs(G[i, i].freq(omega)) ** 2
            want = cn[:, i] / 4.0
            assert np.max(np.abs(got - want)) / want.max() < 0.1


class TestDiagBound:
    def test_scalar_identity(self):
        F = TransferMatrix.identity(1)
        assert zfe_mse_diag_bound(freq_response(F, N), PRIV1) \
            == pytest.approx(kappa(PRIV1) ** 2, rel=1e-12)

    def test_constant_diagonal(self):
        F = TransferMatrix.diagonal([RationalFilter([2.0]),
                                     RationalFilter([3.0])])
        p2 = priv((1.5, 0.5))
        want = kappa(p2) ** 2 * (1.5 * 2.0 + 0.5 * 3.0) ** 2
        assert zfe_mse_diag_bound(freq_response(F, N), p2) \
            == pytest.approx(want, rel=1e-12)

    def test_cauchy_schwarz_direction(self, rng):
        # kappa^2 ||GK||^2 ||F G^-1||^2 >= bound for random diagonal G
        F = random_fir_matrix(rng, 2, 2, max_lag=3)
        k = np.array([1.0, 2.0])
        p2 = priv(k)
        Fg = freq_response(F, N)
        bound = zfe_mse_diag_bound(Fg, p2)
        omega = grid_omega(N)
        cn2 = np.linalg.norm(Fg, axis=1) ** 2
        from dpfilt import trapezoid_mean
        for _ in range(10):
            taps = rng.normal(size=3)
            taps[0] += 3.0
            gmag2 = np.abs(RationalFilter(taps).freq(omega)) ** 2
            gmag2_2 = np.abs(RationalFilter(taps[::-1] + 4.0).freq(omega)) ** 2
            G2 = np.stack([gmag2, gmag2_2], axis=1)
            val = kappa(p2) ** 2 \
                * trapezoid_mean((G2 * k ** 2).sum(axis=1)) \
                * trapezoid_mean((cn2 / G2).sum(axis=1))
            assert val >= bound * (1 - 1e-10)


class TestNuclearBound:
    def test_single_input_coincides(self, rng):
        F = random_fir_matrix(rng, 3, 1, max_lag=3)
        Fg = freq_response(F, N)
        a = zfe_mse_diag_bound(Fg, priv((2.0,)))
        b = zfe_general_lower_bound(Fg, priv((2.0,)))
        assert a == pytest.approx(b, rel=1e-10)

    def test_identity_orthogonal_columns(self):
        F = TransferMatrix.identity(3)
        p3 = priv((1.0,) * 3)
        Fg = freq_response(F, N)
        a = zfe_mse_diag_bound(Fg, p3)
        b = zfe_general_lower_bound(Fg, p3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_never_exceeds_diag_bound(self, rng):
        for _ in range(10):
            F = random_fir_matrix(rng, 2, 3, max_lag=3)
            k = rng.uniform(0.5, 2.0, 3)
            pk = priv(k)
            Fg = freq_response(F, N)
            assert zfe_general_lower_bound(Fg, pk) <= \
                zfe_mse_diag_bound(Fg, pk) * (1 + 1e-10)


class TestAssemble:
    def test_identity_prefilter_recovers_target_postfilter(self, rng):
        F = random_fir_matrix(rng, 2, 2, max_lag=3)
        G = TransferMatrix.identity(2)
        design = assemble_zfe(F, G, priv((1.0, 1.0)), N)
        for i in range(2):
            for j in range(2):
                assert np.allclose(design.postfilter[i, j].num, F[i, j].num)

    def test_zero_forcing_identity_on_grid(self, rng):
        F = random_fir_matrix(rng, 2, 2, max_lag=3)
        G = design_diag_prefilter(freq_response(F, N), (1.0, 1.0))
        design = assemble_zfe(F, G, priv((1.0, 1.0)), N)
        omega = grid_omega(N)
        H = design.postfilter
        Fg = freq_response(F, N)
        Hg = freq_response(H, N)
        Gg = np.stack([g.freq(omega) for g in G.diagonal_entries()], axis=1)
        prod = Hg * Gg[:, None, :]
        assert np.max(np.abs(prod - Fg)) < 1e-6

    def test_sigma_recomputation(self, rng):
        from dpfilt import diagonal_sensitivity
        F = random_fir_matrix(rng, 2, 2, max_lag=3)
        G = design_diag_prefilter(freq_response(F, N), (1.0, 2.0))
        p2 = priv((1.0, 2.0))
        design = assemble_zfe(F, G, p2, N)
        want = kappa(p2) * diagonal_sensitivity(G, (1.0, 2.0))
        assert design.noise_sigma == pytest.approx(want, rel=1e-12)

    def test_bound_attainment(self, rng):
        F = random_fir_matrix(rng, 2, 2, max_lag=4)
        k = (1.0, 2.0)
        G = design_diag_prefilter(freq_response(F, N), k, order=48)
        design = assemble_zfe(F, G, priv(k), N)
        ratio = design.theory_mse / design.info["diag_bound"]
        assert 1.0 - 1e-9 <= ratio <= 1.05

    def test_non_minimum_phase_rejected(self):
        F = TransferMatrix.identity(1)
        G = TransferMatrix.diagonal([RationalFilter([1.0, 2.0])])  # zero at -2
        with pytest.raises(UnstableInverse):
            assemble_zfe(F, G, PRIV1, N)

    def test_non_diagonal_rejected(self, rng):
        F = random_fir_matrix(rng, 2, 2)
        with pytest.raises(UnstableInverse):
            assemble_zfe(F, random_fir_matrix(rng, 2, 2), priv((1.0, 1.0)), N)


class TestZfePostfilter:
    @pytest.mark.parametrize("seed", range(5))
    def test_times_prefilter_is_target_on_grid(self, seed):
        # G diagonal, minimum phase of orders 1-6 with a positive lag-0
        # tap; F of FIR entries, IIR entries of order <= 2 and a zero
        rng = np.random.default_rng(seed)
        G = TransferMatrix.diagonal([RationalFilter(
            rng.uniform(0.5, 2.0) * random_poly_from_roots(
                rng, int(rng.integers(1, 7)), 0.8),
            random_poly_from_roots(rng, int(rng.integers(0, 3)), 0.8))
            for _ in range(3)])
        F = TransferMatrix([[RationalFilter(
            rng.normal(size=int(rng.integers(1, 6))),
            random_poly_from_roots(rng, int(rng.integers(0, 3)), 0.9))
            for _ in range(3)] for _ in range(2)])
        F.entries[1][2] = RationalFilter([0.0])
        H = zfe_postfilter(F, G)
        assert H.shape == (2, 3) and H[1, 2].is_zero()
        Fg = freq_response(F, N)
        Gg = np.stack([g.freq(grid_omega(N)) for g in G.diagonal_entries()],
                      axis=1)
        err = np.max(np.abs(freq_response(H, N) * Gg[:, None, :] - Fg))
        assert err <= 1e-12 * np.max(np.abs(Fg))

    def test_delayed_prefilter_rejected(self):
        # a leading z^-1 is a zero at infinity, whose inverse is acausal
        G = TransferMatrix.diagonal([RationalFilter([1.0]),
                                     delay(1)])
        with pytest.raises(UnstableInverse, match="prefilter entry 2 is not "
                           "stable minimum phase; refusing to invert"):
            zfe_postfilter(TransferMatrix.identity(2), G)

    def test_minimum_phase_checked_before_diagonal(self):
        G = TransferMatrix([[RationalFilter([1.0, 2.0]), RationalFilter([1.0])],
                            [RationalFilter([0.0]), RationalFilter([1.0])]])
        with pytest.raises(UnstableInverse, match="prefilter entry 1"):
            zfe_postfilter(TransferMatrix.identity(2), G)
        G.entries[0][0] = RationalFilter([1.0, 0.5])
        with pytest.raises(UnstableInverse,
                           match="ZFE prefilter must be diagonal"):
            zfe_postfilter(TransferMatrix.identity(2), G)


class TestMerlBank:
    def test_bound_attainment_ratio(self):
        F = occupancy_filter_bank()
        p15 = merl_privacy()
        G = design_diag_prefilter(freq_response(F, 1024), p15.k)
        design = assemble_zfe(F, G, p15, 1024)
        ratio = design.theory_mse / design.info["diag_bound"]
        assert 1.0 - 1e-9 <= ratio <= 1.05

    def test_nuclear_gap_reported(self):
        F = occupancy_filter_bank()
        p15 = merl_privacy()
        G = design_diag_prefilter(freq_response(F, 1024), p15.k)
        design = assemble_zfe(F, G, p15, 1024)
        assert design.info["nuclear_bound"] <= design.info["diag_bound"]
        assert design.info["optimality_gap"] >= 0.0

    def test_output_perturbation_dominated(self):
        F = occupancy_filter_bank()
        p15 = merl_privacy()
        G = design_diag_prefilter(freq_response(F, 1024), p15.k)
        zfe_design = assemble_zfe(F, G, p15, 1024)
        op_design = assemble_output_perturbation(F, p15, 1024)
        assert zfe_design.theory_mse <= op_design.theory_mse

    def test_bound_attainment_random_banks(self, rng):
        # 20 random filter banks
        for _ in range(20):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            F = random_fir_matrix(rng, p, m, max_lag=4)
            k = tuple(rng.uniform(0.5, 3.0, m))
            pk = priv(k)
            G = design_diag_prefilter(freq_response(F, N), k, order=48)
            design = assemble_zfe(F, G, pk, N)
            ratio = design.theory_mse / design.info["diag_bound"]
            assert 1.0 - 1e-9 <= ratio <= 1.05
