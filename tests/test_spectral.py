import numpy as np
import pytest

from dpfilt import (MatrixFactorization, RationalFilter, grid_omega,
                    matrix_canonical_factor, paley_wiener_check,
                    scalar_spectral_factor)
from dpfilt.errors import NotFactorizable, NotPositiveDefinite
from dpfilt.lti import taps_grid
from dpfilt.spectral import conjugate_factorization

N = 1024
OMEGA = grid_omega(N)


def mag2(filt, omega=OMEGA):
    return np.abs(filt.freq(omega)) ** 2


def f1_magnitude():
    """|f1(e^{jw})| for the 20-step moving average (unit-circle zeros)."""
    taps = np.zeros(21)
    taps[1:] = 1.0 / 20.0
    return np.abs(RationalFilter(taps).freq(OMEGA))


class TestPaleyWiener:
    def test_constant(self):
        assert paley_wiener_check(np.ones(N + 1))

    def test_zero(self):
        assert not paley_wiener_check(np.zeros(N + 1))

    def test_single_circle_zero(self):
        s = np.abs(1.0 - np.exp(1j * OMEGA)) ** 2
        assert paley_wiener_check(s)

    def test_dead_band_fails(self):
        s = np.ones(N + 1)
        s[: N // 4] = 0.0
        assert not paley_wiener_check(s)


class TestScalarFactor:
    def test_constant(self):
        g, err = scalar_spectral_factor(np.full(N + 1, 4.0), order=4)
        assert g.num[0] == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(g.num[1:], 0.0, atol=1e-12)
        assert err < 1e-12

    def test_known_factor_round_trip(self):
        g0 = RationalFilter([1.0, 0.5])
        g, err = scalar_spectral_factor(mag2(g0), order=4)
        assert np.allclose(g.num[:2], [1.0, 0.5], atol=1e-10)
        assert err < 1e-10

    def test_smooth_spectra_high_accuracy(self, rng):
        # acceptance-grade: relative L-inf below 1e-4 on smooth targets
        targets = [
            np.abs(1.0 + 0.5 * np.exp(-1j * OMEGA)
                   + 0.2 * np.exp(-2j * OMEGA)) ** 2,
            1.0 / np.abs(1.0 - 0.6 * np.exp(-1j * OMEGA)) ** 2,
            2.0 + np.cos(OMEGA) + 0.3 * np.cos(2 * OMEGA),
        ]
        for s in targets:
            g, err = scalar_spectral_factor(np.asarray(s, float), order=40)
            assert err < 1e-4
            assert g.is_minimum_phase() or g.zeros().size == 0

    def test_moving_average_magnitude_order40(self):
        # the factor of |f1| has square-root cusps at the unit-circle
        # zeros; measured truncation error at order 40 is ~2.9e-2
        # (spec sheet optimistically suggested 1e-4; unattainable by any
        # degree-40 magnitude approximant, see decisions ledger)
        g, err = scalar_spectral_factor(f1_magnitude(), order=40)
        assert err < 0.05
        z = g.zeros()
        assert np.max(np.abs(z)) < 1.0

    def test_scaling_property(self):
        s = 2.0 + np.cos(OMEGA)
        g1, _ = scalar_spectral_factor(s, order=16)
        for c in (4.0, 0.25):
            gc, _ = scalar_spectral_factor(c * s, order=16)
            assert np.allclose(gc.num, np.sqrt(c) * g1.num, rtol=1e-9,
                               atol=1e-12)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(NotFactorizable):
            scalar_spectral_factor(np.zeros(N + 1), order=8)

    def test_min_phase_zeros_inside(self, rng):
        for _ in range(5):
            taps = rng.normal(size=6)
            s = np.abs(RationalFilter(taps).freq(OMEGA)) ** 2 + 0.1
            g, _ = scalar_spectral_factor(s, order=24)
            z = g.zeros()
            if z.size:
                assert np.max(np.abs(z)) < 1.0


class TestFactorOrderConvergence:
    def test_refactored_taps_converge(self):
        # regression: on this target, zero on 56 % of the band, reflecting
        # the truncated taps' zeros by root finding gave grid errors 0.075,
        # 2.83 and 6.6e41 at these orders, taps up to 5.7e19 and a factor
        # off minimum phase from order 80
        s = np.maximum(0.0, np.cos(OMEGA) - 0.2)
        errors = []
        for order in (40, 80, 160):
            g, err = scalar_spectral_factor(s, order, enforce_pw=False)
            assert g.num.size == order + 1
            assert g.num[0] > 0 and g.is_minimum_phase()
            errors.append(err)
        assert errors[0] < 0.1
        assert errors[1] <= errors[0] and errors[2] <= errors[1]


def eval_mat_fir(coeffs, omega):
    K = coeffs.shape[0] - 1
    z = np.exp(-1j * np.outer(omega, np.arange(K + 1)))
    return np.einsum("qk,kij->qij", z, coeffs)


def spectrum_from_factor(coeffs, pe, omega):
    Lg = eval_mat_fir(coeffs, omega)
    return np.einsum("qij,jk,qlk->qil", Lg, pe, np.conj(Lg))


class TestMatrixFactor:
    def test_white_spectrum(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        P = np.repeat(sigma[None, :, :].astype(complex), N + 1, axis=0)
        fact = matrix_canonical_factor(P)
        assert np.allclose(fact.coeffs[0], np.eye(2), atol=1e-10)
        if fact.coeffs.shape[0] > 1:
            assert np.max(np.abs(fact.coeffs[1:])) < 1e-8
        assert np.allclose(fact.pe, sigma, atol=1e-8)

    def test_known_factor_round_trip(self):
        theta = np.array([[0.4, 0.1], [-0.2, 0.3]])
        pe0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        coeffs0 = np.stack([np.eye(2), theta])
        P = spectrum_from_factor(coeffs0, pe0, OMEGA)
        fact = matrix_canonical_factor(P)
        assert np.max(np.abs(fact.coeffs[1] - theta)) < 1e-5
        assert np.max(np.abs(fact.pe - pe0)) < 1e-5
        assert fact.grid_error < 1e-6
        assert fact.causally_invertible

    def test_scalar_case_matches_cepstral(self):
        s = 2.0 + np.cos(OMEGA) + 0.3 * np.cos(2 * OMEGA)
        fact = matrix_canonical_factor(s.astype(complex)[:, None, None])
        g, _ = scalar_spectral_factor(s, order=fact.coeffs.shape[0] - 1,
                                      enforce_pw=False)
        # canonical factor is monic; cepstral factor carries the gain
        g0 = g.num[0]
        assert fact.pe[0, 0] == pytest.approx(g0 ** 2, rel=1e-6)
        want = g.num / g0
        got = fact.coeffs[: want.size, 0, 0]
        assert np.max(np.abs(got - want)) < 1e-6

    def test_not_pd_rejected(self):
        s = np.ones((N + 1, 2, 2), dtype=complex)  # rank-1 everywhere
        with pytest.raises(NotPositiveDefinite):
            matrix_canonical_factor(s)

    def test_diagonal_dispatch(self):
        d1 = 2.0 + np.cos(OMEGA)
        d2 = 1.0 + 0.5 * np.sin(OMEGA) ** 2
        P = np.zeros((N + 1, 2, 2), dtype=complex)
        P[:, 0, 0] = d1
        P[:, 1, 1] = d2
        fact = matrix_canonical_factor(P)
        assert fact.grid_error < 1e-6
        off = fact.coeffs.copy()
        off[:, [0, 1], [0, 1]] = 0.0
        assert np.max(np.abs(off)) == 0.0

    def test_conjugate_arrangement(self):
        theta = np.array([[0.3, -0.1], [0.15, 0.25]])
        pe0 = np.array([[1.5, 0.2], [0.2, 0.8]])
        coeffs0 = np.stack([np.eye(2), theta])
        P = spectrum_from_factor(coeffs0, pe0, OMEGA)
        S = conjugate_factorization(P)
        T = S.pe
        Sg = S.eval_grid(N)
        recon = np.einsum("qji,jk,qkl->qil", np.conj(Sg), T, Sg)
        err = np.max(np.abs(recon - P)) / np.max(np.abs(P))
        assert err < 1e-6
        assert np.allclose(S.coeffs[0], np.eye(2), atol=1e-10)


class TestFactorizationErrorPaths:
    def test_stall_when_block_budget_too_small(self):
        from dpfilt.errors import FactorizationStalled
        theta = np.array([[0.7, 0.2], [-0.3, 0.6]])
        pe0 = np.eye(2)
        coeffs0 = np.stack([np.eye(2), theta])
        P = spectrum_from_factor(coeffs0, pe0, OMEGA)
        with pytest.raises(FactorizationStalled):
            matrix_canonical_factor(P, tol=1e-12, max_blocks=4)


def bauer_loop_reference(samples, n, band):
    """Bauer's coefficients and Pe at n blocks from the block-Toeplitz
    matrix assembled one block at a time (the original assembly)."""
    from scipy import linalg as sla
    from dpfilt.spectral import _truncate_tail, _two_sided
    m = samples.shape[1]
    R = np.fft.ifft(_two_sided(samples), axis=0).real
    T = np.zeros((n * m, n * m))
    for d in range(min(band + 1, n)):
        blk = R[d]
        for i in range(d, n):
            T[i * m:(i + 1) * m, (i - d) * m:(i - d + 1) * m] = blk
            if d:
                T[(i - d) * m:(i - d + 1) * m, i * m:(i + 1) * m] = blk.T
    Lc = sla.cholesky(T, lower=True, check_finite=False)
    row = np.stack([Lc[(n - 1) * m: n * m, (n - 1 - k) * m:(n - k) * m]
                    for k in range(min(band + 1, n))])
    W0 = row[0]
    coeffs = np.einsum("kij,jl->kil", row, np.linalg.inv(W0))
    return _truncate_tail(coeffs, 1e-13), W0 @ W0.T


class TestGridKernelAgreement:
    """The FFT/matmul grid kernels against the exp/einsum forms."""

    @pytest.mark.parametrize("L,n_grid,first_lag", [
        (41, 1024, 0),          # canonical factor taps
        (527, 256, 0),          # longer than 2N: folded
        (15, 64, -7),           # two-sided smoother, lags -7..7
        (300, 64, -150),        # two-sided and longer than 2N
        (5, 16, 40),            # every lag past 2N
    ])
    def test_taps_grid_matches_exp_sum(self, rng, L, n_grid, first_lag):
        taps = rng.normal(size=(L, 3, 2))
        omega = grid_omega(n_grid)
        z = np.exp(-1j * np.outer(omega, np.arange(L) + first_lag))
        ref = np.einsum("qk,kij->qij", z, taps)
        got = taps_grid(taps, n_grid, first_lag)
        assert got.shape == (n_grid + 1, 3, 2)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_taps_grid_scalar_taps(self):
        got = taps_grid([1.0, -0.5], 8)
        ref = 1.0 - 0.5 * np.exp(-1j * grid_omega(8))
        assert np.max(np.abs(got - ref)) <= 1e-15

    def test_eval_grid_and_reconstruct_match_einsum(self, rng):
        coeffs = rng.normal(scale=0.3, size=(12, 3, 3))
        coeffs[0] = np.eye(3)
        A = rng.normal(size=(3, 3))
        fact = MatrixFactorization(coeffs=coeffs, pe=A @ A.T + np.eye(3))
        Lg = fact.eval_grid(N)
        ref = eval_mat_fir(coeffs, OMEGA)
        assert np.max(np.abs(Lg - ref)) <= 1e-12 * np.max(np.abs(ref))
        recon = fact.reconstruct(N)
        want = spectrum_from_factor(coeffs, fact.pe, OMEGA)
        assert np.max(np.abs(recon - want)) <= 1e-12 * np.max(np.abs(want))

    def test_bauer_bitwise_equal_to_loop_assembly(self):
        theta1 = np.array([[0.4, 0.1], [-0.2, 0.3]])
        theta2 = np.array([[0.1, -0.05], [0.02, 0.15]])
        pe0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        coeffs0 = np.stack([np.eye(2), theta1, theta2])
        samples = spectrum_from_factor(coeffs0, pe0, OMEGA)
        fact = matrix_canonical_factor(samples)
        assert fact.meta["bandwidth"] == 3
        coeffs, pe = bauer_loop_reference(samples, fact.meta["blocks"],
                                          fact.meta["bandwidth"])
        assert np.array_equal(fact.coeffs, coeffs)
        assert np.array_equal(fact.pe, pe)


class TestDiagonalGridError:
    """The diagonal path's per-channel grid error equals the dense
    max |L Pe L^H - P| / max |P| to 1e-15 (both already relative)."""

    @staticmethod
    def dense(fact, P):
        recon = fact.reconstruct(P.shape[0] - 1)
        return float(np.max(np.abs(recon - P)) / np.max(np.abs(P)))

    @staticmethod
    def diagonal(rng, m, exact):
        # exact: |1 + a e^{-jw}|^2 has an FIR factor, so the error sits
        # at rounding level; otherwise the truncated factor leaves ~1e-6
        if exact:
            a = rng.uniform(-0.6, 0.6, m)
            s = np.abs(1.0 + a * np.exp(-1j * OMEGA[:, None])) ** 2 \
                * rng.uniform(0.5, 2.0, m)
        else:
            s = 1.2 + rng.uniform(0.1, 1.0, m) * np.cos(
                OMEGA[:, None] + rng.uniform(0.0, np.pi, m))
        S = np.zeros((N + 1, m, m), dtype=complex)
        S[:, np.arange(m), np.arange(m)] = s
        return S

    @pytest.mark.parametrize("m,exact", [(1, True), (3, True), (3, False),
                                         (15, True), (15, False)])
    def test_matches_dense_reconstruction(self, rng, m, exact):
        P = self.diagonal(rng, m, exact)
        fact = matrix_canonical_factor(P)
        assert abs(fact.grid_error - self.dense(fact, P)) <= 1e-15

    @pytest.mark.parametrize("exact", [True, False])
    def test_nearly_diagonal_spectrum(self, rng, exact):
        # off-diagonal entries just inside the 1e-14 gate take the
        # diagonal path; the grid error then includes the dropped |P_ij|
        P = self.diagonal(rng, 3, exact)
        off = 9e-15 * np.max(np.abs(P)) * np.exp(1j * OMEGA)
        P[:, 0, 2] = off
        P[:, 2, 0] = np.conj(off)
        fact = matrix_canonical_factor(P)
        assert not np.any(fact.coeffs[:, 0, 2]) and "blocks" not in fact.meta
        assert fact.grid_error >= 9e-15 * (1 - 1e-12)
        assert abs(fact.grid_error - self.dense(fact, P)) <= 1e-15


class TestBauerBudget:
    @staticmethod
    def long_memory_spectrum(m=3, pole=0.995):
        # I + c s(w) 1 1^T with s the AR(1) spectrum of a slow pole: positive
        # definite, coupled, and its autocovariance outlives the grid
        s = 1.0 / np.abs(1.0 - pole * np.exp(-1j * OMEGA)) ** 2
        S = np.eye(m)[None] + 0.01 * (s / s.max())[:, None, None] \
            * np.ones((m, m))[None]
        return S.astype(complex)

    def test_refused_before_allocating(self):
        import tracemalloc
        from dpfilt.errors import FactorizationStalled
        from dpfilt.spectral import BAUER_MAX_BYTES
        P = self.long_memory_spectrum()
        tracemalloc.start()
        try:
            with pytest.raises(FactorizationStalled) as info:
                matrix_canonical_factor(P, name="the test spectrum")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        msg = str(info.value)
        # 4096 blocks of 3 channels: a 1152 MB matrix
        assert "the test spectrum" in msg and "bandwidth 1024" in msg
        assert "1152 MB" in msg
        assert "spectrum.floor" in msg and "factor_order" in msg
        assert peak < BAUER_MAX_BYTES // 16

    def test_budget_bounds_the_block_count(self, monkeypatch):
        import dpfilt.spectral
        from dpfilt.errors import FactorizationStalled
        theta = np.array([[0.4, 0.1], [-0.2, 0.3]])
        samples = spectrum_from_factor(np.stack([np.eye(2), theta]),
                                       np.eye(2), OMEGA)
        fact = matrix_canonical_factor(samples)
        n, m = fact.meta["blocks"], 2
        assert fact.grid_error <= 1e-6
        # the same spectrum fits at its block count and is refused below it
        monkeypatch.setattr(dpfilt.spectral, "BAUER_MAX_BYTES",
                            8 * (n * m) ** 2)
        matrix_canonical_factor(samples)
        monkeypatch.setattr(dpfilt.spectral, "BAUER_MAX_BYTES",
                            8 * (n * m) ** 2 - 1)
        with pytest.raises(FactorizationStalled, match="budget"):
            matrix_canonical_factor(samples)


class TestBauerDoubling:
    """Bauer's block count doubles only while each doubling at least
    halves the grid error, on the server chain spectrum (alpha 0.3,
    beta 0.6) plus a white floor."""

    @staticmethod
    def spectrum(floor):
        from dpfilt import chain_spectrum, server_example
        P, _ = chain_spectrum(server_example(0.3, 0.6), N)
        return P + floor * np.eye(2)[None]

    @staticmethod
    def count_choleskys(monkeypatch) -> list:
        """The block count of each block-Toeplitz Cholesky from here on."""
        import dpfilt.spectral
        blocks = []
        rows = dpfilt.spectral._bauer_rows

        def counted(R, band, n):
            blocks.append(n)
            return rows(R, band, n)

        monkeypatch.setattr(dpfilt.spectral, "_bauer_rows", counted)
        return blocks

    def test_converging_doublings_continue(self, monkeypatch):
        # grid errors 1.81e-5, 2.30e-6 and 6.78e-8: each doubling cuts the
        # error by 4x or more, so the iteration runs on to its tolerance
        blocks = self.count_choleskys(monkeypatch)
        fact = matrix_canonical_factor(self.spectrum(1e-6))
        assert blocks == [228, 456, 912]
        assert fact.meta["blocks"] == 912 and fact.grid_error <= 1e-6

    def test_stalled_doubling_raises(self, monkeypatch):
        # regression: at tol 1e-12 the grid error stays at 1.43e-10 from
        # 220 to 1760 blocks, and only the byte budget stopped the
        # doubling, after 4 Cholesky factorizations and at 3520 blocks
        from dpfilt.errors import FactorizationStalled
        blocks = self.count_choleskys(monkeypatch)
        with pytest.raises(FactorizationStalled) as info:
            matrix_canonical_factor(self.spectrum(1e-2), tol=1e-12)
        assert blocks == [220, 440]
        assert "1.43e-10 at 220, 1.43e-10 at 440 blocks" in str(info.value)


@pytest.fixture(scope="module")
def server_input_spectrum():
    """The input-side spectrum K (Pt^-1 + Gt* Gt)^-1 K that the DF design
    of the server_df workload factors: 2 channels, 480 blocks, bandwidth
    116."""
    import os
    import dpfilt.df
    from dpfilt.cli import _make_design
    from dpfilt.config import Config
    factored = []
    factor = dpfilt.df.matrix_canonical_factor

    def kept(P, **kwargs):
        factored.append(P)
        return factor(P, **kwargs)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpfilt.df, "matrix_canonical_factor", kept)
        _make_design(Config.load(
            os.path.join(root, "benchmark/workloads/server_df.yaml")))
    return factored[0]


class TestBandedBauer:
    """Bauer's chunked band Cholesky against the dense Cholesky of the
    whole block-Toeplitz matrix (bauer_loop_reference), with more than
    one chunk."""

    @staticmethod
    def chunk_sizes(monkeypatch) -> list:
        """The size of each Cholesky factorization from here on."""
        sizes = []
        cholesky = np.linalg.cholesky

        def counted(T):
            sizes.append(T.shape[0])
            return cholesky(T)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        return sizes

    @staticmethod
    def coupled_3_channel(rng, order=29):
        # a monic FIR factor of the given order: the autocovariance has
        # order + 1 lags, so the bandwidth is order + 1
        coeffs = np.zeros((order + 1, 3, 3))
        coeffs[0] = np.eye(3)
        coeffs[1:] = rng.normal(scale=0.3, size=(order, 3, 3)) \
            * 0.9 ** np.arange(1, order + 1)[:, None, None]
        A = rng.normal(size=(3, 3))
        return spectrum_from_factor(coeffs, A @ A.T + np.eye(3), OMEGA)

    @staticmethod
    def agreement(fact, samples):
        coeffs, pe = bauer_loop_reference(samples, fact.meta["blocks"],
                                          fact.meta["bandwidth"])
        assert fact.coeffs.shape == coeffs.shape
        return (float(np.max(np.abs(fact.coeffs - coeffs))
                      / np.max(np.abs(coeffs))),
                float(np.max(np.abs(fact.pe - pe)) / np.max(np.abs(pe))))

    def test_server_spectrum(self, monkeypatch, server_input_spectrum):
        # 480 blocks in chunks of 116: a first chunk of 16 blocks, then
        # 4 full ones. Measured: coeffs 5.6e-16, pe 2.8e-16 of their
        # peaks; the bound leaves a factor of 18
        sizes = self.chunk_sizes(monkeypatch)
        fact = matrix_canonical_factor(server_input_spectrum)
        assert fact.meta == {"blocks": 480, "bandwidth": 116}
        assert sizes == [32] + [232] * 4
        err_coeffs, err_pe = self.agreement(fact, server_input_spectrum)
        assert err_coeffs <= 1e-14 and err_pe <= 1e-14

    @pytest.mark.parametrize("extra", [0, 1])
    def test_last_rows_straddling_chunks(self, rng, monkeypatch, extra):
        # n mod c = 0 (full chunks only) and = 1 (a first chunk of one
        # block); both last rows then lie in the last chunk, over its
        # columns and the previous chunk's. Measured: coeffs 6.7e-16 and
        # 1.1e-15, pe 2.8e-16 and 2.8e-16 of their peaks; the bound leaves
        # a factor of 9
        from dpfilt.spectral import BAUER_CHUNK_ROWS
        samples = self.coupled_3_channel(rng)
        band = 30
        c = max(band, -(-BAUER_CHUNK_ROWS // 3))
        n = 3 * c + extra
        sizes = self.chunk_sizes(monkeypatch)
        # a loose tol stops at the first block count, max_blocks
        fact = matrix_canonical_factor(samples, tol=1.0, max_blocks=n)
        assert fact.meta == {"blocks": n, "bandwidth": band}
        assert sizes == [3 * extra] * extra + [3 * c] * 3
        err_coeffs, err_pe = self.agreement(fact, samples)
        assert err_coeffs <= 1e-14 and err_pe <= 1e-14

    def test_server_spectrum_peak_memory(self, server_input_spectrum):
        # regression: the dense (960, 960) matrix and its Cholesky factor
        # peaked at 14.6 MB under tracemalloc; the chunks peak at 2.8 MB
        import tracemalloc
        tracemalloc.start()
        try:
            matrix_canonical_factor(server_input_spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
