import numpy as np
import pytest

from dpfilt import (RationalFilter, TransferMatrix, brute_force_sensitivity,
                    diagonal_sensitivity, mimo_bounds, mimo_exact,
                    realize_state_space, simo_sensitivity)
from dpfilt.errors import (DimensionMismatch, HorizonExceeded, NotDiagonal,
                           OracleTooLarge, UnstableSystem)
from dpfilt.fileio import build_filter
from dpfilt.lti import StateSpace

from conftest import (random_fir_matrix, random_rational,
                      random_transfer_matrix)

# mimo_exact on the 3x15 occupancy bank with k = 4, from the lag-stepping
# state-space scan that preceded the FFT cross-correlation
BANK_SENSITIVITY = 14.623372109931632


def moving_average_20():
    taps = np.zeros(21)
    taps[1:] = 1.0 / 20.0
    return TransferMatrix([[RationalFilter(taps)]])


def aligned_delay_bank(taus):
    """Single-output system [z^-tau_1, ..., z^-tau_m]."""
    return TransferMatrix([[RationalFilter.delay(t) for t in taus]])


def correlate_oracle(G, k, tol=1e-14):
    """Independent time-domain pairwise-worst-lag value: impulse responses
    truncated once the last 16 samples carry below tol of the energy,
    cross terms from np.correlate over every lag."""
    n = 256
    while True:
        h = G.impulse(n)
        if np.sum(h[-16:] ** 2) <= tol * np.sum(h ** 2):
            break
        n *= 2
    p, m = G.shape
    total = 0.0
    for i in range(m):
        for j in range(m):
            c = sum(np.correlate(h[:, r, i], h[:, r, j], "full")
                    for r in range(p))
            total += k[i] * k[j] * (np.sum(h[:, :, i] ** 2) if i == j
                                    else np.max(np.abs(c)))
    return float(np.sqrt(total))


def random_diag_fir(rng, m, max_lag=3):
    return TransferMatrix.diagonal(
        [RationalFilter(rng.normal(size=int(rng.integers(1, max_lag + 2))))
         for _ in range(m)])


class TestSimo:
    def test_identity(self):
        assert simo_sensitivity(TransferMatrix.identity(1), 1.0) == \
            pytest.approx(1.0)

    def test_moving_average_k4(self):
        assert simo_sensitivity(moving_average_20(), 4.0) == pytest.approx(
            4.0 / np.sqrt(20.0), rel=1e-12)

    def test_linearity_in_k(self, rng):
        G = random_transfer_matrix(rng, 3, 1)
        assert simo_sensitivity(G, 3.0) == pytest.approx(
            3.0 * simo_sensitivity(G, 1.0), rel=1e-12)

    def test_multi_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            simo_sensitivity(TransferMatrix.identity(2), 1.0)


class TestDiagonal:
    def test_identity_two(self):
        assert diagonal_sensitivity(TransferMatrix.identity(2), (1, 1)) == \
            pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_three_four_five(self):
        G = TransferMatrix.diagonal([RationalFilter([1.0]),
                                     RationalFilter.delay(1)])
        assert diagonal_sensitivity(G, (3.0, 4.0)) == pytest.approx(5.0)

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            G = random_diag_fir(rng, 2)
            k = rng.uniform(0.5, 2.0, 2)
            exact = diagonal_sensitivity(G, k)
            oracle = brute_force_sensitivity(G, k, T=8)
            assert exact == pytest.approx(oracle, abs=1e-9)

    def test_non_diagonal_rejected(self, rng):
        with pytest.raises(NotDiagonal):
            diagonal_sensitivity(random_transfer_matrix(rng, 2, 2), (1, 1))


class TestBounds:
    def test_diagonal_lower_equals_exact_formula(self, rng):
        G = random_diag_fir(rng, 3)
        k = rng.uniform(0.5, 2.0, 3)
        lower, upper = mimo_bounds(G, k)
        assert lower == pytest.approx(diagonal_sensitivity(G, k), rel=1e-10)
        assert lower <= upper + 1e-12

    def test_aligned_delay_bank(self):
        for m in (2, 3, 4):
            G = aligned_delay_bank(range(m))
            lower, upper = mimo_bounds(G, np.ones(m))
            assert lower == pytest.approx(np.sqrt(m), rel=1e-12)
            assert upper == pytest.approx(float(m), rel=1e-12)

    def test_zero_k_limit(self, rng):
        G = random_transfer_matrix(rng, 2, 2)
        lower, upper = mimo_bounds(G, np.zeros(2))
        assert lower == 0.0 and upper == 0.0

    def test_unstable_rejected(self):
        bad = TransferMatrix([[RationalFilter([1.0], [1.0, -1.2])]])
        with pytest.raises(UnstableSystem):
            mimo_bounds(bad, (1.0,))


class TestExact:
    def test_diagonal_cross_terms_vanish(self, rng):
        G = random_diag_fir(rng, 2)
        k = rng.uniform(0.5, 2.0, 2)
        rep = mimo_exact(G, k)
        assert rep.exact == pytest.approx(diagonal_sensitivity(G, k),
                                          rel=1e-9)

    def test_aligned_delay_bank_attains_upper(self):
        for m in (2, 3):
            rep = mimo_exact(aligned_delay_bank(range(m)), np.ones(m))
            assert rep.exact == pytest.approx(float(m), rel=1e-10)
            assert rep.upper == pytest.approx(float(m), rel=1e-10)

    def test_matches_brute_force_on_random_fir(self, rng):
        for _ in range(10):
            G = random_fir_matrix(rng, 2, 2, max_lag=3)
            k = rng.uniform(0.5, 2.0, 2)
            rep = mimo_exact(G, k)
            oracle = brute_force_sensitivity(G, k, T=8)
            assert rep.exact == pytest.approx(oracle, abs=1e-9)

    def test_three_inputs_formula_is_safe_upper_bound(self, rng):
        # with three inputs the per-pair worst lags need not be jointly
        # realizable; the cross-term value then strictly exceeds the
        # enumerated worst case (observed gaps up to ~6%) but never
        # undershoots it, so noise calibrated on it stays sufficient
        strict = 0
        for _ in range(15):
            G = random_fir_matrix(rng, 2, 3, max_lag=2)
            k = rng.uniform(0.5, 1.5, 3)
            formula = mimo_exact(G, k).exact
            oracle = brute_force_sensitivity(G, k, T=6)
            assert formula >= oracle - 1e-9
            assert formula <= mimo_bounds(G, k)[1] * (1 + 1e-9)
            if formula > oracle * (1 + 1e-9):
                strict += 1
        assert strict >= 1     # the coupling gap is real, not hidden

    def test_sandwich_on_random_systems(self, rng):
        for _ in range(20):
            G = random_transfer_matrix(rng, 2, 2, max_order=3, radius=0.7)
            k = rng.uniform(0.5, 2.0, 2)
            rep = mimo_exact(G, k)
            assert rep.lower <= rep.exact * (1 + 1e-12)
            assert rep.exact <= rep.upper * (1 + 1e-12)

    def test_similarity_invariance(self, rng):
        tm = random_transfer_matrix(rng, 2, 2, radius=0.7)
        ss = realize_state_space(tm)
        T = rng.normal(size=(ss.n, ss.n)) + 2 * np.eye(ss.n)
        Ti = np.linalg.inv(T)
        ss2 = StateSpace(T @ ss.A @ Ti, T @ ss.B, ss.C @ Ti, ss.D)
        k = rng.uniform(0.5, 2.0, 2)
        a = mimo_exact(ss, k).exact
        b = mimo_exact(ss2, k).exact
        assert a == pytest.approx(b, rel=1e-8)

    def test_homogeneity_in_k(self, rng):
        G = random_fir_matrix(rng, 2, 2)
        k = rng.uniform(0.5, 2.0, 2)
        a = mimo_exact(G, k).exact
        b = mimo_exact(G, 2.5 * k).exact
        assert b == pytest.approx(2.5 * a, rel=1e-10)

    def test_horizon_reported(self, rng):
        rep = mimo_exact(random_fir_matrix(rng, 2, 2), np.ones(2))
        assert rep.horizon_used is not None and rep.horizon_used >= 1


class TestFftCrossCorrelation:
    def test_occupancy_bank_pinned(self):
        rep = mimo_exact(build_filter({"preset": "occupancy_bank"}),
                         np.full(15, 4.0))
        assert rep.exact == pytest.approx(BANK_SENSITIVITY, rel=1e-9)
        assert rep.exact >= BANK_SENSITIVITY * (1 - 1e-12)
        assert rep.lower <= rep.exact <= rep.upper
        assert not rep.is_exact

    def test_two_input_iir_matches_correlate_oracle(self, rng):
        for _ in range(10):
            G = random_transfer_matrix(rng, 2, 2, radius=0.85)
            k = rng.uniform(0.5, 2.0, 2)
            rep = mimo_exact(G, k)
            assert rep.exact == pytest.approx(correlate_oracle(G, k),
                                              rel=1e-9)
            assert rep.is_exact

    def test_slow_pole_stays_above_oracle(self):
        slow = TransferMatrix(
            [[RationalFilter([1.0], [1.0, -0.99]), RationalFilter([0.3])],
             [RationalFilter([0.5, 0.2]), RationalFilter([1.0, 0.4],
                                                         [1.0, 0.99])]])
        k = np.array([1.0, 1.5])
        rep = mimo_exact(slow, k)
        # the oracle's truncation only lowers it; the 1e-13 allowance
        # covers rounding in the Gramian diagonal energies (a few ulps at
        # pole radius 0.99), which the lag-stepping scan shared
        assert rep.exact >= correlate_oracle(slow, k) * (1 - 1e-13)
        assert rep.horizon_used > 1024          # the tail forced doubling
        with pytest.raises(HorizonExceeded):
            mimo_exact(slow, k, max_horizon=1)

    def test_is_exact_flag(self, rng):
        two = random_transfer_matrix(rng, 2, 2, radius=0.7)
        assert mimo_exact(two, np.ones(2)).is_exact
        three = random_fir_matrix(rng, 2, 3, max_lag=2)
        assert not mimo_exact(three, np.ones(3)).is_exact
        diag = TransferMatrix.diagonal(
            [random_rational(rng, radius=0.7) for _ in range(3)])
        k = rng.uniform(0.5, 2.0, 3)
        rep = mimo_exact(diag, k)
        assert rep.is_exact
        assert rep.exact == pytest.approx(diagonal_sensitivity(diag, k),
                                          rel=1e-9)
        assert rep.to_dict()["is_exact"] is True


class TestBruteForce:
    def test_single_input_recovers_h2(self, rng):
        G = TransferMatrix([[RationalFilter(rng.normal(size=3))]])
        from dpfilt import h2_norm
        assert brute_force_sensitivity(G, (1.7,), T=6) == pytest.approx(
            1.7 * h2_norm(G), rel=1e-12)

    def test_sandwich(self, rng):
        G = random_fir_matrix(rng, 2, 2)
        k = rng.uniform(0.5, 2.0, 2)
        val = brute_force_sensitivity(G, k, T=8)
        lower, upper = mimo_bounds(G, k)
        assert lower - 1e-9 <= val <= upper + 1e-9

    def test_limits(self, rng):
        with pytest.raises(OracleTooLarge):
            brute_force_sensitivity(random_fir_matrix(rng, 1, 4), np.ones(4),
                                    T=5)
        with pytest.raises(OracleTooLarge):
            brute_force_sensitivity(random_fir_matrix(rng, 1, 2), np.ones(2),
                                    T=11)
        iir = TransferMatrix([[RationalFilter([1.0], [1.0, -0.5])]])
        with pytest.raises(OracleTooLarge):
            brute_force_sensitivity(iir, (1.0,), T=5)


class TestHorizonErrorPath:
    def test_horizon_exceeded(self):
        slow = TransferMatrix(
            [[RationalFilter([1.0], [1.0, -0.95]), RationalFilter([0.5])],
             [RationalFilter([0.2]), RationalFilter([1.0], [1.0, -0.9])]])
        from dpfilt.errors import HorizonExceeded
        with pytest.raises(HorizonExceeded):
            mimo_exact(slow, np.ones(2), max_horizon=1)
