import numpy as np
import pytest

from dpfilt import (MarkovSource, autocovariance, chain_spectrum,
                    sample_chain, server_example, server_stationary,
                    stationary_distribution)
from dpfilt.errors import ConfigError, NotErgodic


def power_iteration_stationary(Pi, iters=20000):
    p = np.full(Pi.shape[0], 1.0 / Pi.shape[0])
    for _ in range(iters):
        p = Pi @ p
        p /= p.sum()
    return p


class TestStationary:
    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.6), (0.9, 0.1)])
    def test_server_example_formulas(self, alpha, beta):
        src = server_example(alpha, beta)
        p = stationary_distribution(src)
        assert np.max(np.abs(p - server_stationary(alpha, beta))) < 1e-12
        assert np.max(np.abs(src.Pi @ p - p)) < 1e-12

    def test_two_state_symmetric(self):
        src = MarkovSource(np.array([[0.5, 0.5], [0.5, 0.5]]), (0,))
        assert np.allclose(stationary_distribution(src), [0.5, 0.5])

    def test_matches_power_iteration(self):
        src = server_example(0.35, 0.55)
        p = stationary_distribution(src)
        q = power_iteration_stationary(src.Pi)
        assert np.max(np.abs(p - q)) < 1e-10

    def test_reducible_rejected(self):
        src = MarkovSource(np.eye(2), (0,))
        with pytest.raises(NotErgodic):
            stationary_distribution(src)

    def test_periodic_rejected(self):
        src = MarkovSource(np.array([[0.0, 1.0], [1.0, 0.0]]), (0,))
        with pytest.raises(NotErgodic):
            stationary_distribution(src)


class TestSpectrum:
    def test_iid_chain_constant(self):
        p = np.array([0.2, 0.3, 0.5])
        Pi = np.tile(p[:, None], (1, 3))
        src = MarkovSource(Pi, (0, 1, 2))
        grid, mean = chain_spectrum(src, N=64)
        want = np.diag(p) - np.outer(p, p)
        for q in (0, 17, 64):
            assert np.max(np.abs(grid[q] - want)) < 1e-12
        assert np.allclose(mean, p)

    def test_autocovariance_oracle(self):
        src = server_example(0.3, 0.6)
        grid, _ = chain_spectrum(src, N=1024)
        full = np.concatenate([grid, np.conj(grid[-2:0:-1])], axis=0)
        R_grid = np.fft.ifft(full, axis=0).real
        R_true = autocovariance(src, 20)
        for k in range(21):
            assert np.max(np.abs(R_grid[k] - R_true[k])) < 1e-10

    def test_psd_on_grid(self):
        src = server_example(0.4, 0.25)
        grid, _ = chain_spectrum(src, N=256)
        grid_h = np.conj(np.swapaxes(grid, 1, 2))
        assert np.max(np.abs(grid - grid_h)) < 1e-12
        assert np.min(np.linalg.eigvalsh(0.5 * (grid + grid_h))) > -1e-10

    def test_lag_zero_bernoulli_variance(self):
        src = server_example(0.3, 0.6)
        p = stationary_distribution(src)
        R0 = autocovariance(src, 0)[0]
        for c, s in enumerate(src.selectors):
            assert R0[c, c] == pytest.approx(p[s] * (1 - p[s]), abs=1e-12)

    def test_round_trip_spectrum_autocov(self):
        # eigengap of the server chain is comfortable; round trip to 1e-8
        src = server_example(0.5, 0.45)
        grid, _ = chain_spectrum(src, N=512)
        full = np.concatenate([grid, np.conj(grid[-2:0:-1])], axis=0)
        R = np.fft.ifft(full, axis=0).real
        z = np.exp(1j * 0.613)
        # rebuild the spectrum at an off-grid frequency from autocovariances
        val = R[0].astype(complex)
        for k in range(1, 200):
            val = val + R[k] * z ** (-k) + R[k].T * z ** k
        direct_grid, _ = chain_spectrum(src, N=512)
        # compare against the value rebuilt from the direct formula
        p = stationary_distribution(src)
        n = src.n_states
        Z = src.Pi - np.outer(p, np.ones(n))
        D = np.diag(p)
        E = src.selector_matrix()
        A1 = Z @ np.linalg.solve(z * np.eye(n) - Z, D)
        A2 = np.linalg.solve((1 / z) * np.eye(n) - Z.T, Z.T)
        want = E.T @ ((np.eye(n) - np.outer(p, np.ones(n))) @ D
                      + A1 + D @ A2) @ E
        assert np.max(np.abs(val - want)) < 1e-8


class TestSampling:
    def test_values_binary(self):
        src = server_example(0.3, 0.6)
        s = sample_chain(src, 5000, seed=0)
        assert set(np.unique(s)).issubset({0.0, 1.0})

    def test_determinism(self):
        src = server_example(0.3, 0.6)
        a = sample_chain(src, 1000, seed=5)
        b = sample_chain(src, 1000, seed=5)
        assert np.array_equal(a, b)

    def test_empirical_means(self):
        src = server_example(0.3, 0.6)
        T = 1000000
        s = sample_chain(src, T, seed=1)
        p = stationary_distribution(src)
        R = autocovariance(src, 200)
        for c, st in enumerate(src.selectors):
            mean = s[:, c].mean()
            # CLT stderr for a stationary binary chain: long-run variance
            lrv = R[0][c, c] + 2 * np.sum(R[1:, c, c])
            se = np.sqrt(max(lrv, 1e-12) / T)
            assert abs(mean - p[st]) < 3 * se + 1e-9

    def test_empirical_lag_correlations(self):
        src = server_example(0.3, 0.6)
        T = 1000000
        s = sample_chain(src, T, seed=2)
        x = s - s.mean(axis=0, keepdims=True)
        R_true = autocovariance(src, 10)
        for k in range(1, 11):
            emp = (x[k:, :, None] * x[:-k, None, :]).mean(axis=0)
            # conservative stderr bound for bounded indicator products
            se = 3.0 / np.sqrt(T)
            assert np.max(np.abs(emp - R_true[k])) < 3 * se

    def test_alternation_property(self):
        # the 4-cycle structure forces channel-1 and channel-2 events
        # to strictly alternate along any sample path
        src = server_example(0.45, 0.55)
        s = sample_chain(src, 200000, seed=3)
        ev1 = np.nonzero(s[:, 0])[0]
        ev2 = np.nonzero(s[:, 1])[0]
        merged = sorted([(t, 1) for t in ev1] + [(t, 2) for t in ev2])
        kinds = [kind for _, kind in merged]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))


class TestServerExample:
    def test_column_stochastic(self):
        src = server_example(0.3, 0.6)
        assert np.allclose(src.Pi.sum(axis=0), 1.0)
        assert np.all(src.Pi >= 0)

    def test_boundary_rejected(self):
        for a, b in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(NotErgodic):
                server_example(a, b)

    @pytest.mark.parametrize("alpha,beta", [(1.5, 0.5), (0.5, -0.1),
                                            (float("nan"), 0.5),
                                            (0.5, float("inf"))])
    def test_non_probability_rejected(self, alpha, beta):
        # regression: these exited 4 as a non-ergodic chain; they are no
        # probabilities, a bad input (exit 2)
        with pytest.raises(ConfigError, match="are probabilities"):
            server_example(alpha, beta)

    def test_selector_validation(self):
        with pytest.raises(ConfigError):
            MarkovSource(np.eye(2), (5,))


def sample_chain_states_reference(src, T, seed):
    """The seed's searchsorted stepping loop, kept as the agreement
    reference for sample_chain."""
    p = stationary_distribution(src)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(src.Pi, axis=0)
    cum[-1, :] = 1.0
    state = int(np.searchsorted(np.cumsum(p), rng.random()))
    draws = rng.random(T)
    states = np.empty(T, dtype=np.int64)
    for t in range(T):
        states[t] = state
        state = int(np.searchsorted(cum[:, state], draws[t]))
    return states


class TestSamplingAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 5, 11, 88])
    def test_states_match_searchsorted_loop(self, seed):
        src = server_example(0.3, 0.6)
        states = sample_chain_states_reference(src, 20000, seed)
        want = np.stack([states == s for s in src.selectors], axis=1)
        got = sample_chain(src, 20000, seed)
        assert np.array_equal(got, want.astype(float))

    def test_states_match_on_random_chain(self, rng):
        Pi = rng.random((5, 5)) + 0.05
        Pi /= Pi.sum(axis=0, keepdims=True)
        src = MarkovSource(Pi, (0, 2, 4))
        states = sample_chain_states_reference(src, 5000, 3)
        want = np.stack([states == s for s in src.selectors], axis=1)
        assert np.array_equal(sample_chain(src, 5000, 3),
                              want.astype(float))
