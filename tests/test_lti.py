import numpy as np
import pytest

from dpfilt import (RationalFilter, TransferMatrix, column_energies,
                    effective_length, freq_response, h2_norm,
                    observability_gramian, simulate, trapezoid_mean)
from dpfilt.errors import (DimensionMismatch, ImproperTransferFunction,
                           UnstableSystem)
from dpfilt.lti import EFFECTIVE_LENGTH_CAP, EFFECTIVE_TAIL_TOL, ZERO_FILTER

from conftest import (delay, gramian_series_oracle, h2_impulse_oracle,
                      random_fir_matrix, random_poly_from_roots,
                      random_state_space, random_transfer_matrix)


def h2_quadrature(sys, N):
    """H2 norm by trapezoidal quadrature of Tr(G* G) on the N-grid: the
    frequency-domain reference for the energy sums of h2_norm."""
    g = freq_response(sys, N)
    return float(np.sqrt(trapezoid_mean(
        np.einsum("qij,qij->q", np.conj(g), g).real)))


def moving_average_20():
    taps = np.zeros(21)
    taps[1:] = 1.0 / 20.0
    return RationalFilter(taps)


class TestRationalFilter:
    def test_denominator_normalized(self):
        f = RationalFilter([2.0, 4.0], [2.0, 1.0])
        assert f.den[0] == 1.0
        assert np.allclose(f.num, [1.0, 2.0])

    def test_zero_leading_denominator_rejected(self):
        with pytest.raises(ImproperTransferFunction):
            RationalFilter([1.0], [0.0, 1.0])

    def test_stability(self):
        assert RationalFilter([1.0], [1.0, -0.5]).is_stable()
        assert not RationalFilter([1.0], [1.0, -1.0]).is_stable()


class TestFreqResponse:
    def test_identity(self):
        grid = freq_response(TransferMatrix.identity(1), 64)
        assert np.allclose(grid[:, 0, 0], 1.0)

    def test_pure_delay_at_pi(self):
        grid = freq_response(TransferMatrix([[delay(1)]]), 16)
        assert grid[-1, 0, 0] == pytest.approx(-1.0)

    def test_moving_average_dc(self):
        grid = freq_response(TransferMatrix([[moving_average_20()]]), 64)
        assert grid[0, 0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_unstable_rejected(self):
        bad = TransferMatrix([[RationalFilter([1.0], [1.0, -1.1])]])
        with pytest.raises(UnstableSystem):
            freq_response(bad, 64)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            freq_response(TransferMatrix.identity(1), 4)


class TestH2Norm:
    def test_moving_average(self):
        assert h2_norm(moving_average_20()) == pytest.approx(
            1.0 / np.sqrt(20.0), rel=1e-12)

    def test_identity(self):
        for m in (1, 2, 5):
            assert h2_norm(TransferMatrix.identity(m)) == pytest.approx(
                np.sqrt(m), rel=1e-12)

    def test_paths_agree_on_random_fir(self, rng):
        for _ in range(10):
            tm = random_fir_matrix(rng, 2, 2)
            a = h2_norm(tm)
            b = h2_quadrature(tm, 256)
            assert a == pytest.approx(b, rel=1e-8)

    def test_paths_agree_on_100_random_stable_systems(self, rng):
        # module invariant: Gramian energies vs frequency path, 1e-6
        # relative
        for _ in range(100):
            p = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            tm = random_transfer_matrix(rng, p, m, max_order=6, radius=0.8)
            a = h2_norm(tm)
            b = h2_quadrature(tm, 1024)
            assert a == pytest.approx(b, rel=1e-6)

    def test_entrywise_decomposition(self, rng):
        for _ in range(5):
            tm = random_transfer_matrix(rng, 2, 3)
            total_sq = h2_norm(tm) ** 2
            per_entry = sum(h2_norm(tm[i, j]) ** 2
                            for i in range(2) for j in range(3))
            assert total_sq == pytest.approx(per_entry, rel=1e-9)

    def test_matches_impulse_oracle(self, rng):
        for _ in range(5):
            tm = random_transfer_matrix(rng, 2, 2, radius=0.7)
            assert h2_norm(tm) == pytest.approx(h2_impulse_oracle(tm),
                                                rel=1e-9)


class TestColumnEnergies:
    @pytest.mark.parametrize("lag", [0, 1, 2, 7, 64])
    def test_match_long_impulse_sums(self, rng, lag):
        # IIR entries up to pole radius 0.99, and FIR entries with taps
        # shorter and longer than the lag; the sums run to 20000 lags,
        # where 0.99^20000 leaves nothing
        for _ in range(10):
            rows = []
            for _ in range(2):
                den = random_poly_from_roots(rng, int(rng.integers(1, 5)),
                                             0.99)
                rows.append([
                    RationalFilter(rng.normal(size=int(rng.integers(1, 5))),
                                   den),
                    RationalFilter(rng.normal(size=int(rng.integers(1, 4)))),
                    RationalFilter(rng.normal(size=lag + 5))])
            tm = TransferMatrix(rows)
            h = tm.impulse(20000)
            want = np.sum(h[lag:] ** 2, axis=(0, 1))
            energy, slack = column_energies(tm, lag)
            assert np.all(slack >= 0.0)
            assert np.all(slack[1:] == 0.0)     # FIR columns are exact
            assert np.allclose(energy, want, rtol=1e-9,
                               atol=1e-12 * np.max(want))


class TestGramian:
    def test_zero_dynamics(self):
        C = np.array([[1.0, 2.0]])
        P0 = observability_gramian(np.zeros((2, 2)), C)
        assert np.allclose(P0, C.T @ C)

    def test_scalar_geometric_series(self):
        P0 = observability_gramian([[0.5]], [[1.0]])
        assert P0[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_matches_truncated_series(self, rng):
        for _ in range(5):
            A, C = random_state_space(rng, 4, 2, radius=0.7)
            P0 = observability_gramian(A, C)
            assert np.max(np.abs(P0 - gramian_series_oracle(A, C))) < 1e-8

    def test_residual(self, rng):
        A, C = random_state_space(rng, 5, 2, radius=0.9)
        P0 = observability_gramian(A, C)
        res = A.T @ P0 @ A - P0 + C.T @ C
        assert np.max(np.abs(res)) < 1e-9 * max(np.max(np.abs(P0)), 1.0)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystem):
            observability_gramian([[1.0]], [[1.0]])


class TestSimulate:
    def test_identity(self, rng):
        u = rng.normal(size=(50, 2))
        y = simulate(TransferMatrix.identity(2), u)
        assert np.allclose(y, u)

    def test_delay_impulse(self):
        u = np.zeros((5, 1))
        u[0, 0] = 1.0
        y = simulate(TransferMatrix([[delay(1)]]), u)
        assert np.allclose(y[:, 0], [0, 1, 0, 0, 0])

    def test_moving_average_steady_state(self):
        u = np.ones((40, 1))
        y = simulate(TransferMatrix([[moving_average_20()]]), u)
        assert np.allclose(y[21:, 0], 1.0)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionMismatch):
            simulate(TransferMatrix.identity(2), np.ones((10, 3)))
        with pytest.raises(DimensionMismatch):
            simulate(TransferMatrix.identity(2), np.ones(10))

    def test_one_dimensional_input_is_one_channel(self):
        # T samples of one channel, as a (T, 1) array reads them
        f = RationalFilter([1.0, 0.5])
        y = simulate(f, np.ones(10))
        assert y.shape == (10, 1)
        assert np.array_equal(y, simulate(f, np.ones((10, 1))))

    def test_impulse_matches_freq_inverse_transform(self, rng):
        # invariant: simulate on impulses reproduces the response implied
        # by freq_response via inverse transform, on FIR systems
        tm = random_fir_matrix(rng, 2, 2, max_lag=4)
        N = 64
        g = freq_response(tm, N)
        full = np.concatenate([g, np.conj(g[-2:0:-1])], axis=0)
        h_freq = np.fft.ifft(full, axis=0).real
        for j in range(2):
            u = np.zeros((8, 2))
            u[0, j] = 1.0
            y = simulate(tm, u)
            assert np.max(np.abs(y - h_freq[:8, :, j])) < 1e-6


class TestEffectiveLength:
    """effective_length, which sets every Monte Carlo burn-in."""

    @pytest.mark.parametrize("a,want", [(0.9, 88), (0.99, 917),
                                        (0.999, 9206)])
    def test_first_order_pole(self, a, want):
        # the taps of 1 / (1 - a z^-1) past the first n hold a^(2n) of the
        # energy, so the length is ceil(ln tol / ln a^2)
        assert want == int(np.ceil(np.log(EFFECTIVE_TAIL_TOL)
                                   / np.log(a * a)))
        assert effective_length(RationalFilter([1.0], [1.0, -a])) == want

    def test_cap(self):
        # 0.9999 would need 92099 taps
        assert effective_length(RationalFilter([1.0], [1.0, -0.9999])) \
            == EFFECTIVE_LENGTH_CAP

    @pytest.mark.parametrize("f", [ZERO_FILTER,
                                   RationalFilter([0.0], [1.0, -0.5])],
                             ids=["fir", "recursive"])
    def test_zero_system(self, f):
        assert effective_length(f) == 1

    def test_fir_is_its_numerator_length(self):
        assert effective_length(RationalFilter([1.0, 0.5, 0.25])) == 3
        tm = TransferMatrix([[RationalFilter([1.0, 2.0]),
                              RationalFilter([0.1, 0.0, 0.0, 0.0, 0.3])]])
        assert effective_length(tm) == 5


def test_trapezoid_mean_constant():
    assert trapezoid_mean(np.ones(65)) == pytest.approx(1.0)


def lfilter_reference(tm, u):
    """The seed's lti.simulate: one scipy lfilter call per nonzero entry,
    summed per row; kept as the agreement reference for the IIR kernel."""
    from scipy.signal import lfilter
    y = np.zeros((u.shape[0], tm.p))
    for i in range(tm.p):
        for j in range(tm.m):
            e = tm[i, j]
            if not e.is_zero():
                y[:, i] += lfilter(e.num, e.den, u[:, j])
    return y


def long_double_filter(num, den, x):
    """num / den run over x by the direct recursion in long double."""
    b = np.asarray(num, dtype=np.longdouble)
    a = np.asarray(den, dtype=np.longdouble)
    x = np.asarray(x, dtype=np.longdouble)
    y = np.zeros(x.size, dtype=np.longdouble)
    for t in range(x.size):
        k = min(t + 1, b.size)
        acc = np.dot(b[:k], x[t::-1][:k])
        k = min(t, a.size - 1)
        if k:
            acc -= np.dot(a[1:k + 1], y[t - 1::-1][:k])
        y[t] = acc
    return y


def rel_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.fixture(scope="module")
def bank_zfe_filters():
    """Prefilter, postfilter and target of the bank ZFE design (the
    occupancy bank, k = 4, factor order 40, N = 1024)."""
    from dpfilt import design_diag_prefilter, occupancy_filter_bank
    from dpfilt.zfe import zfe_postfilter
    F = occupancy_filter_bank()
    G = design_diag_prefilter(freq_response(F, 1024), np.full(15, 4.0),
                              order=40)
    return {"pre": G, "post": zfe_postfilter(F, G), "target": F}


class TestTransferMatrixCaches:
    @pytest.mark.parametrize("name", ["pre", "target"])
    def test_freq_equals_entrywise_bitwise(self, bank_zfe_filters, name):
        # the shared z^-1 and the skipped zero entries change no bit, the
        # sign of a zero included
        tm = bank_zfe_filters[name]
        omega = np.arange(1025) * np.pi / 1024
        want = np.stack([np.stack([tm[i, j].freq(omega) for j in range(tm.m)],
                                  axis=1) for i in range(tm.p)], axis=1)
        assert np.array_equal(tm.freq(omega).view(float), want.view(float))

    def test_dc_gain_kept_read_only(self, bank_zfe_filters):
        tm = bank_zfe_filters["target"]
        gain = tm.dc_gain()
        assert gain is tm.dc_gain()
        assert not gain.flags.writeable
        assert np.array_equal(gain, tm.freq(0.0)[0].real)
        with pytest.raises(ValueError):
            gain[0, 0] = 1.0


class TestIirKernelAgreement:
    @pytest.mark.parametrize("name", ["pre", "post", "target"])
    def test_bank_zfe_filters_match_lfilter(self, bank_zfe_filters, name):
        rng = np.random.default_rng(7)
        tm = bank_zfe_filters[name]
        u = rng.poisson(1.2, size=(20000, 15)).astype(float)
        if name == "post":      # what the postfilter sees: G u + noise
            u = lfilter_reference(bank_zfe_filters["pre"], u) \
                + rng.normal(0.0, 3.7, size=u.shape)
        assert rel_gap(simulate(tm, u), lfilter_reference(tm, u)) <= 1e-14

    def test_random_stable_denominators(self):
        # orders 1-8, numerators of 1-8 taps, lengths around the block
        # edges; the gap is the larger of the two implementations' errors
        from scipy.signal import lfilter
        from conftest import random_poly_from_roots
        rng = np.random.default_rng(2024)
        for _ in range(100):
            den = random_poly_from_roots(rng, int(rng.integers(1, 9)), 0.9)
            num = rng.normal(size=int(rng.integers(1, 9)))
            f = RationalFilter(num, den)
            for T in (1, 7, 127, 128, 129, 3000):
                x = rng.normal(size=T)
                want, got = lfilter(num, den, x), simulate(f, x)[:, 0]
                if rel_gap(got, want) > 1e-13:
                    exact = long_double_filter(num, den, x)
                    assert rel_gap(got, exact) <= rel_gap(want, exact)

    @pytest.mark.parametrize("seed", range(3))
    def test_clustered_poles(self, seed):
        # (1 - 0.9 z^-1)^5, where the float64 carry between blocks is
        # ill-conditioned: 5.8e-11 to 1.3e-10 of the peak from the
        # long-double recursion over seeds 0-2, lfilter 0.9e-11 to 2.1e-11
        rng = np.random.default_rng(seed)
        num, den = rng.normal(size=7), np.poly(np.full(5, 0.9))
        x = rng.normal(size=3001)
        got = simulate(RationalFilter(num, den), x)[:, 0]
        assert rel_gap(got, long_double_filter(num, den, x)) <= 1e-9

    def test_impulse_responses(self, bank_zfe_filters):
        # lfilter itself is 1.4e-15 from the long-double recursion on the
        # bank postfilter, so the tight bound is taken against the latter
        from scipy.signal import lfilter
        from conftest import random_poly_from_roots
        rng = np.random.default_rng(11)
        n = 700
        delta = np.zeros(n)
        delta[0] = 1.0
        cases = []
        for tm in bank_zfe_filters.values():
            h = tm.impulse(n)
            cases += [(tm[i, j], h[:, i, j]) for i in range(tm.p)
                      for j in range(tm.m) if not tm[i, j].is_zero()]
        for _ in range(30):
            f = RationalFilter(rng.normal(size=int(rng.integers(1, 9))),
                               random_poly_from_roots(
                                   rng, int(rng.integers(1, 9)), 0.9))
            cases.append((f, simulate(f, delta)[:, 0]))
        for f, h in cases:
            assert rel_gap(h, long_double_filter(f.num, f.den, delta)) \
                <= 1e-15
            assert rel_gap(h, lfilter(f.num, f.den, delta)) <= 1e-13

    def test_rows_group_by_denominator(self, rng):
        # entries sharing a row and a denominator are summed before one
        # pass of the recursion; mixed rows keep one group per denominator
        a1, a2 = [1.0, -0.5], [1.0, 0.3, 0.2]
        tm = TransferMatrix([
            [RationalFilter([1.0, 2.0], a1), RationalFilter([0.5], a1),
             RationalFilter([1.0, -1.0], a2)],
            [RationalFilter([0.0]), RationalFilter([3.0], a2),
             RationalFilter([1.0, 0.0, 0.25])]])
        u = rng.normal(size=(1000, 3))
        assert rel_gap(simulate(tm, u), lfilter_reference(tm, u)) <= 1e-14
        bank = tm.bank()
        assert sorted(map(len, bank.cols)) == [1, 1, 1, 2]

    def test_long_numerators_and_orders_past_one_block(self, rng):
        # a numerator longer than a block (the window reaches back over
        # several blocks) and a denominator order above the block length
        comb = np.zeros(201)
        comb[[0, 200]] = [1.0, -0.5]
        tm = TransferMatrix([
            [RationalFilter(rng.normal(size=300)),
             RationalFilter(rng.normal(size=300), [1.0, -0.9, 0.2])],
            [RationalFilter(rng.normal(size=5), comb), ZERO_FILTER]])
        u = rng.normal(size=(2000, 2))
        assert rel_gap(simulate(tm, u), lfilter_reference(tm, u)) <= 1e-14
        assert np.array_equal(simulate(TransferMatrix([[ZERO_FILTER]]),
                                       u[:, :1]), np.zeros((2000, 1)))

    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len as scipy_next_fast_len
        from dpfilt.lti import next_fast_len
        assert all(next_fast_len(n) == scipy_next_fast_len(n, real=True)
                   for n in range(1, 70001))
