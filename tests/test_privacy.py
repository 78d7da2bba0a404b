import numpy as np
import pytest
from scipy.special import erfcinv

from dpfilt import (MechanismDesign, PrivacySpec, TransferMatrix,
                    gaussian_delta, kappa, noise_sigma, q_function,
                    q_inverse)
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


def identity_release(u, sigma, seed):
    """MechanismDesign.release of u through an identity prefilter: u plus
    Gaussian noise of std sigma drawn from seed."""
    m = u.shape[1]
    eye = TransferMatrix.identity(m)
    return MechanismDesign(
        kind="output_perturbation", target=eye, prefilter=eye,
        noise_sigma=sigma, privacy=PrivacySpec(1.0, 0.1, (1.0,) * m)
    ).release(u, seed)


class TestAddNoise:
    """The Gaussian noise that MechanismDesign.release adds."""

    def test_zero_sigma_identity(self, rng):
        u = rng.normal(size=(100, 2))
        assert np.array_equal(identity_release(u, 0.0, seed=1), u)

    def test_determinism(self, rng):
        u = rng.normal(size=(100, 2))
        a = identity_release(u, 1.5, seed=42)
        b = identity_release(u, 1.5, seed=42)
        assert np.array_equal(a, b)
        c = identity_release(u, 1.5, seed=43)
        assert not np.array_equal(a, c)

    def test_empirical_variance(self):
        sigma = 0.7
        out = identity_release(np.zeros((500000, 2)), sigma, seed=9)
        for ch in range(2):
            var = out[:, ch].var()
            assert abs(var - sigma ** 2) < 0.02 * sigma ** 2

    def test_normality_kurtosis(self):
        noise = identity_release(np.zeros((1000000, 1)), 1.0, seed=3).ravel()
        kurt = np.mean(noise ** 4) / np.mean(noise ** 2) ** 2
        assert 2.8 < kurt < 3.2


def scipy_gaussian_delta(eps, sigma, Delta):
    """The analytic Gaussian profile with scipy's ndtr as the oracle."""
    from scipy.special import ndtr
    a, b = Delta / (2.0 * sigma), eps * sigma / Delta
    return float(ndtr(a - b) - np.exp(eps) * ndtr(-a - b))


DELTAS = np.logspace(-16, np.log10(0.5), 61)
EPSILONS = (0.05, 0.5, 1.0, float(np.log(5)), 3.0, 10.0)


class TestGaussianProfile:
    def test_matches_scipy_oracle(self):
        for eps in EPSILONS:
            for ratio in (0.3, 1.0, 1.267, 3.7, 12.0):
                want = scipy_gaussian_delta(eps, ratio * 2.5, 2.5)
                got = gaussian_delta(eps, ratio * 2.5, 2.5)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-300)

    def test_roadmap_values(self):
        # delta actually met by kappa at the README, server and 1e-5 budgets
        for eps, delta, met in ((np.log(5), 0.05, 0.0127), (1.0, 0.1, 0.0234),
                                (1.0, 1e-5, 4.7e-7)):
            k = kappa(PrivacySpec(epsilon=eps, delta=delta, k=(1.0,)))
            assert gaussian_delta(eps, k, 1.0) == pytest.approx(met, rel=0.01)

    def test_decreasing_in_sigma(self):
        vals = [gaussian_delta(1.0, s, 1.0) for s in np.linspace(0.3, 6, 40)]
        assert np.all(np.diff(vals) < 0)

    def test_kappa_meets_profile(self):
        # the calibration sigma = kappa * Delta is (eps, delta)-DP under the
        # exact profile for every delta in [1e-16, 0.5]
        for eps in EPSILONS:
            for delta in DELTAS:
                k = kappa(PrivacySpec(epsilon=eps, delta=float(delta),
                                      k=(1.0,)))
                for Delta in (0.25, 1.0, 14.6):
                    assert gaussian_delta(eps, k * Delta, Delta) <= delta

    def test_bench_designs_meet_profile(self, tmp_path, monkeypatch):
        # the three benchmark designs, with Delta recomputed from the
        # stored prefilter as the noise check on load does
        import json
        import os
        from dpfilt.cli import main
        from dpfilt.fileio import transfer_matrix_from_dict
        from dpfilt.sensitivity import diagonal_sensitivity
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.chdir(root)
        for w in ("bank_zfe", "bank_lms_causal", "server_df"):
            out = tmp_path / f"{w}.json"
            assert main(["design", "--config",
                         f"benchmark/workloads/{w}.yaml", "--seed", "3",
                         "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            p = doc["privacy"]
            Delta = diagonal_sensitivity(
                transfer_matrix_from_dict(doc["prefilter"]), p["k"])
            assert gaussian_delta(p["epsilon"], doc["noise_sigma"], Delta) \
                <= p["delta"]

    def test_q_inverse_matches_ndtri(self):
        from scipy.special import ndtri
        deltas = np.concatenate([DELTAS, np.linspace(1e-6, 1 - 1e-6, 2001),
                                 1.0 - DELTAS[DELTAS < 0.1]])
        for delta in deltas:
            want = -float(ndtri(delta))
            assert abs(q_inverse(float(delta)) - want) \
                <= 1e-15 * max(1.0, abs(want))
