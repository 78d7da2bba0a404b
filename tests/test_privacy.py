import numpy as np
import pytest
from scipy.special import erfcinv

from dpfilt import (EventStream, PrivacySpec, add_noise, kappa, noise_sigma,
                    q_function, q_inverse)
from dpfilt.errors import InvalidDelta

# frozen oracle values (high-precision complementary-error-function series)
Q_AT_STANDARD_QUANTILE = 0.050000000000000053   # Q(1.6448536269514722)
KAPPA_LN5_005 = 1.2671711640349419              # kappa(eps=ln5, delta=0.05)


def bisect_q_inverse(delta, lo=-40.0, hi=40.0, iters=200):
    """Independent bisection oracle on q_function."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if q_function(mid) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_limit(self):
        assert q_function(40.0) < 1e-300
        assert q_function(-40.0) == pytest.approx(1.0, abs=1e-15)

    def test_standard_quantile(self):
        assert q_function(1.6448536269514722) == pytest.approx(
            Q_AT_STANDARD_QUANTILE, abs=1e-14)

    def test_strictly_decreasing(self):
        xs = np.linspace(-6, 6, 200)
        vals = q_function(xs)
        assert np.all(np.diff(vals) < 0)


class TestQInverse:
    def test_median(self):
        assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_five_percent(self):
        assert q_inverse(0.05) == pytest.approx(1.6448536269514722, abs=1e-9)

    def test_round_trip_random(self, rng):
        for delta in rng.uniform(1e-6, 1 - 1e-6, 50):
            x = q_inverse(float(delta))
            assert q_function(x) == pytest.approx(float(delta), abs=1e-10)

    def test_matches_bisection_oracle(self, rng):
        for delta in rng.uniform(1e-4, 0.9, 10):
            assert q_inverse(float(delta)) == pytest.approx(
                bisect_q_inverse(float(delta)), abs=1e-9)

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidDelta):
                q_inverse(bad)

    def test_tiny_delta_relative_accuracy(self):
        # regression: a residual stop |Q(x) - delta| <= 1e-16 returned
        # Q^-1(1e-16) = 8.21457 instead of 8.22208, under-noising by 0.09%
        for delta in (1e-16, 1e-15, 1e-14, 1e-13, 1e-12):
            assert q_inverse(delta) == pytest.approx(
                np.sqrt(2.0) * erfcinv(2.0 * delta), rel=1e-12)
            assert q_function(q_inverse(delta)) == pytest.approx(delta,
                                                                 rel=1e-12)

    def test_strictly_decreasing(self):
        deltas = np.linspace(0.01, 0.99, 50)
        vals = [q_inverse(float(d)) for d in deltas]
        assert np.all(np.diff(vals) < 0)


class TestKappa:
    def test_half_delta_closed_form(self):
        for eps in (0.1, 0.5, 1.0, np.log(5)):
            spec = PrivacySpec(epsilon=eps, delta=0.5, k=(1.0,))
            assert kappa(spec) == pytest.approx(1.0 / np.sqrt(2 * eps),
                                                rel=1e-15)

    def test_building_monitoring_setting(self):
        spec = PrivacySpec(epsilon=np.log(5), delta=0.05, k=(4.0,) * 15)
        assert kappa(spec) == pytest.approx(KAPPA_LN5_005, abs=1e-12)

    def test_decreasing_in_epsilon(self):
        vals = [kappa(PrivacySpec(epsilon=e, delta=0.05, k=(1.0,)))
                for e in np.linspace(0.05, 5.0, 20)]
        assert np.all(np.diff(vals) < 0)

    def test_lower_bound_for_small_delta(self):
        # kappa >= 1/sqrt(2 eps), equality iff delta = 0.5
        for delta in (0.01, 0.1, 0.3, 0.5):
            spec = PrivacySpec(epsilon=1.0, delta=delta, k=(1.0,))
            bound = 1.0 / np.sqrt(2.0)
            if delta == 0.5:
                assert kappa(spec) == pytest.approx(bound, rel=1e-15)
            else:
                assert kappa(spec) > bound


class TestNoiseSigma:
    def test_zero_sensitivity(self):
        spec = PrivacySpec(epsilon=1.0, delta=0.1, k=(1.0,))
        assert noise_sigma(0.0, spec) == 0.0

    def test_unit_case(self):
        spec = PrivacySpec(epsilon=0.5, delta=0.5, k=(1.0,))
        assert noise_sigma(1.0, spec) == pytest.approx(1.0, rel=1e-15)

    def test_linearity(self):
        spec = PrivacySpec(epsilon=1.0, delta=0.1, k=(1.0,))
        assert noise_sigma(2.0, spec) == pytest.approx(
            2 * noise_sigma(1.0, spec), rel=1e-15)

    def test_negative_rejected(self):
        spec = PrivacySpec(epsilon=1.0, delta=0.1, k=(1.0,))
        with pytest.raises(ValueError):
            noise_sigma(-1.0, spec)


class TestPrivacySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacySpec(epsilon=0.0, delta=0.1, k=(1.0,))
        with pytest.raises(InvalidDelta):
            PrivacySpec(epsilon=1.0, delta=1.5, k=(1.0,))
        with pytest.raises(ValueError):
            PrivacySpec(epsilon=1.0, delta=0.1, k=(0.0,))

    def test_k_matrix(self):
        spec = PrivacySpec(epsilon=1.0, delta=0.1, k=(1.0, 2.0))
        assert np.allclose(spec.k_matrix(), np.diag([1.0, 2.0]))


class TestAddNoise:
    def test_zero_sigma_identity(self, rng):
        s = EventStream(rng.normal(size=(100, 2)))
        out = add_noise(s, 0.0, seed=1)
        assert np.array_equal(out.data, s.data)

    def test_determinism(self, rng):
        s = EventStream(rng.normal(size=(100, 2)))
        a = add_noise(s, 1.5, seed=42)
        b = add_noise(s, 1.5, seed=42)
        assert np.array_equal(a.data, b.data)
        c = add_noise(s, 1.5, seed=43)
        assert not np.array_equal(a.data, c.data)

    def test_empirical_variance(self):
        s = EventStream(np.zeros((500000, 2)))
        sigma = 0.7
        out = add_noise(s, sigma, seed=9)
        for ch in range(2):
            var = out.data[:, ch].var()
            assert abs(var - sigma ** 2) < 0.02 * sigma ** 2

    def test_normality_kurtosis(self):
        s = EventStream(np.zeros((1000000, 1)))
        noise = add_noise(s, 1.0, seed=3).data.ravel()
        kurt = np.mean(noise ** 4) / np.mean(noise ** 2) ** 2
        assert 2.8 < kurt < 3.2
