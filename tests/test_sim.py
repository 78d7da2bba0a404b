import dataclasses

import numpy as np
import pytest

from dpfilt import (OccupancySource, PrivacySpec, assemble_lms,
                    assemble_output_perturbation, assemble_zfe,
                    chain_spectrum, compare_mechanisms, demo_filter,
                    design_diag_prefilter, empirical_mse, freq_response,
                    gaussian_fir, occupancy_filter_bank, run_mechanism,
                    server_example, simulate)
from dpfilt.errors import ConfigError, MissingForecastModel
from dpfilt.fileio import read_csv, source_from_spec, write_csv

N = 256


def priv(k, eps=1.0, delta=0.1):
    return PrivacySpec(epsilon=eps, delta=delta, k=tuple(np.atleast_1d(k)))


class TestOccupancyBank:
    def test_shape(self):
        F = occupancy_filter_bank()
        assert F.shape == (3, 15)

    def test_row1_dc_gains(self):
        F = occupancy_filter_bank()
        for j in range(5):
            assert F[0, j].eval(1.0).real == pytest.approx(1.0, abs=1e-12)

    def test_row1_zero_block(self):
        F = occupancy_filter_bank()
        for j in range(5, 15):
            assert F[0, j].is_zero()

    def test_row2_support(self):
        F = occupancy_filter_bank()
        for j in range(15):
            if 4 <= j <= 11:
                assert not F[1, j].is_zero()
            else:
                assert F[1, j].is_zero()

    def test_gaussian_row_properties(self):
        f2 = gaussian_fir()
        assert f2.num.size == 20
        assert np.all(f2.num >= 0)
        assert f2.num.sum() == pytest.approx(1.0, abs=1e-12)

    def test_forecast_row_stable(self):
        F = occupancy_filter_bank()
        for j in range(15):
            assert F[2, j].is_stable()

    def test_missing_forecast_model(self):
        with pytest.raises(MissingForecastModel):
            occupancy_filter_bank(forecast={"a": [0.5]})
        with pytest.raises(MissingForecastModel):
            occupancy_filter_bank(forecast={"a": [0.1] * 4, "b0": [1.0]})

    def test_custom_forecast_model(self):
        model = {"a": [0.2, 0.0, 0.0, 0.0], "b0": [0.1] * 15,
                 "b1": [0.0] * 15}
        F = occupancy_filter_bank(forecast=model)
        assert F[2, 0].eval(1.0).real == pytest.approx(0.1 / 0.8, rel=1e-12)


class TestOccupancySource:
    def test_zero_rate(self):
        src = OccupancySource(m=3, rates=0.0)
        s = src.sample(1000, seed=0)
        assert np.all(s == 0.0)

    def test_integer_nonnegative(self):
        src = OccupancySource(m=4, phase_seed=3)
        s = src.sample(5000, seed=1)
        assert np.all(s >= 0)
        assert np.allclose(s, np.rint(s))

    def test_mean_matches_rate(self):
        rates = [0.8, 1.6]
        src = OccupancySource(m=2, rates=rates, period=480)
        T = 480 * 400
        s = src.sample(T, seed=2)
        for i, r in enumerate(rates):
            se = np.sqrt(r * 1.2 / T)
            assert abs(s[:, i].mean() - r) < 3 * se + 1e-3

    @pytest.mark.parametrize("kwargs,key", [
        ({"rates": [-1.0, 1.0]}, "rates"),
        ({"rates": [np.nan, 1.0]}, "rates"),
        ({"rates": [1.0, np.inf]}, "rates"),
        ({"rates": -0.5}, "rates"),
        ({"period": 0}, "period"),
        ({"period": -3}, "period"),
        ({"period": 2.7}, "period"),
        ({"period": "abc"}, "period"),
        ({"amplitude": "x"}, "amplitude"),
        ({"rates": "x"}, "rates"),
        ({"rates": [1.0, "x"]}, "rates")],
        ids=["negative", "nan", "inf", "negative_scalar", "zero_period",
             "negative_period", "fractional_period", "text_period",
             "text_amplitude", "text_rates", "text_in_rates"])
    def test_bad_inputs_fail_early(self, kwargs, key):
        with pytest.raises(ConfigError, match=key):
            OccupancySource(m=2, **kwargs)

    def test_whole_float_period_runs_as_int(self):
        # a config's `period: 480.0` draws what `period: 480` draws
        a = OccupancySource(m=2, rates=[1.0, 2.0], period=480.0)
        b = OccupancySource(m=2, rates=[1.0, 2.0], period=480)
        assert a.period == 480 and type(a.period) is int
        assert np.array_equal(a.sample(600, seed=1),
                              b.sample(600, seed=1))

    @pytest.mark.parametrize("amplitude", [0.0, 0.6])
    def test_draws_match_the_rate_table(self, amplitude):
        # the draws of the broadcast rate table rates * (1 + amplitude
        # sin(2 pi t / period + phase)), bit for bit, on either path
        src = OccupancySource(m=3, rates=[0.5, 1.0, 2.0], period=48,
                              amplitude=amplitude)
        t = np.arange(500)[:, None]
        lam = src.rates[None, :] * (1.0 + amplitude * np.sin(
            2.0 * np.pi * t / src.period + src.phases[None, :]))
        want = np.random.default_rng(4).poisson(np.maximum(lam, 0.0))
        assert np.array_equal(src.sample(500, seed=4), want)

    @pytest.mark.parametrize("amplitude", [0.0, 0.6])
    @pytest.mark.parametrize("period", [48, 160, 480])
    def test_draws_match_the_per_step_formula(self, period, amplitude):
        # the one-period table draws what a (T, m) rate array built step by
        # step draws, row by row, past the first period too
        src = OccupancySource(period=period, amplitude=amplitude)

        def per_step(T, seed):
            rng = np.random.default_rng(seed)
            if amplitude == 0.0:
                return rng.poisson(src.rates, size=(T, src.m)).astype(float)
            lam = np.add(2.0 * np.pi * np.arange(T)[:, None] / period,
                         src.phases, out=np.empty((T, src.m)))
            np.sin(lam, out=lam)
            lam *= amplitude
            lam += 1.0
            lam *= src.rates
            return rng.poisson(lam).astype(float)

        for T in (1, period - 1, period, period + 1, 20000):
            for seed in (0, 3, 901):
                got = src.sample(T, seed)
                assert got.shape == (T, src.m)
                assert np.array_equal(got, per_step(T, seed))

    def test_huge_period_costs_only_the_run(self):
        # the rates are tabulated for min(T, period) steps: a period of
        # 10**6 (a 114 MB table when it was built for the whole period)
        # costs what its 100-step run needs, and draws the same
        import tracemalloc
        tracemalloc.start()
        try:
            src = OccupancySource(period=10 ** 6)
            got = src.sample(100, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        t = np.arange(100)[:, None]
        lam = src.rates * (1.0 + src.amplitude * np.sin(
            2.0 * np.pi * t / src.period + src.phases))
        assert np.array_equal(got, np.random.default_rng(2).poisson(lam))

    def test_determinism(self):
        src = OccupancySource(m=2, phase_seed=5)
        assert np.array_equal(src.sample(100, seed=9),
                              src.sample(100, seed=9))


class TestRunMechanism:
    def setup_method(self):
        self.F = demo_filter(6)
        self.k = (1.0, 1.0)
        self.pk = priv(self.k)
        self.G = design_diag_prefilter(freq_response(self.F, N), self.k)
        self.design = assemble_zfe(self.F, self.G, self.pk, N)
        self.src = server_example(0.3, 0.6)

    def test_noise_free_zero_forcing_is_exact(self):
        noiseless = dataclasses.replace(self.design, noise_sigma=0.0)
        u = self.src.sample(2000, seed=0)
        yhat = run_mechanism(noiseless, u, seed=1)
        y = simulate(self.F, u)
        assert np.max(np.abs(y - yhat)) < 1e-8

    def test_determinism(self):
        u = self.src.sample(500, seed=0)
        a = run_mechanism(self.design, u, seed=7)
        b = run_mechanism(self.design, u, seed=7)
        assert np.array_equal(a, b)


class TestEmpiricalMse:
    def setup_method(self):
        self.F = demo_filter(6)
        self.k = (1.0, 1.0)
        self.pk = priv(self.k)
        self.src = server_example(0.3, 0.6)

    def test_zfe_consistency_and_input_independence(self):
        G = design_diag_prefilter(freq_response(self.F, N), self.k)
        design = assemble_zfe(self.F, G, self.pk, N)
        mean1, se1 = empirical_mse(design, self.src, trials=8, T=12000,
                                   seed=21)
        assert abs(mean1 - design.theory_mse) < 3 * se1
        other = OccupancySource(m=2, rates=[0.5, 1.5], period=200,
                                amplitude=0.4)
        mean2, se2 = empirical_mse(design, other, trials=8, T=12000,
                                   seed=22)
        assert abs(mean2 - design.theory_mse) < 3 * se2
        joint = np.hypot(se1, se2)
        assert abs(mean1 - mean2) < 3 * joint

    def test_lms_smoother_consistency_on_matched_source(self):
        Pu, mean = chain_spectrum(server_example(0.3, 0.6), N)
        design = assemble_lms(self.F, Pu, self.pk, mode="smoother",
                              input_mean=mean)
        emp, se = empirical_mse(design, self.src, trials=8, T=12000, seed=4)
        assert abs(emp - design.theory_mse) < 3 * se

    def test_df_batched_equals_per_trial_loop(self):
        # empirical_mse steps every DF trial in one closed loop; the
        # per-trial seed loop (run_df_reference) on the same SeedSequence
        # children gives the same mean and stderr, bit for bit
        from test_df import run_df_reference
        from dpfilt import RationalFilter, TransferMatrix, design_df
        from dpfilt.sim import _margins
        markov = server_example(0.3, 0.6)
        Pu_raw, mean = chain_spectrum(markov, N)
        floor = 1e-4 * float(np.max(np.abs(Pu_raw)))
        Pu = Pu_raw + floor * np.eye(2)[None, :, :]
        f = RationalFilter([0.6, 0.3, 0.1])
        F = TransferMatrix.diagonal([f, f])
        # a budget at which the decisions depend on the noise: at
        # epsilon = 1 every decision is 0 and the noise seeds would not
        # show in the MSE
        pk = priv(self.k, eps=10.0, delta=0.2)
        lms_design = assemble_lms(F, Pu, pk, mode="smoother",
                                  input_mean=mean)
        d = design_df(F, Pu, pk, lms_design.prefilter,
                      sigma=lms_design.noise_sigma, lookahead=8,
                      input_mean=mean)
        trials, T, seed = 4, 3000, 13
        got = empirical_mse(d, self.src, trials=trials, T=T, seed=seed)
        burn, tail = _margins(d, T)
        vals = []
        for child in np.random.SeedSequence(seed).spawn(trials):
            child = child.spawn(2)
            u = self.src.sample(T, child[0])
            u_hat, _ = run_df_reference(d, u, child[1])
            y_hat = simulate(F, u_hat) + F.dc_gain() @ mean
            err = (simulate(F, u) - y_hat)[burn: T - tail]
            vals.append(float(np.mean(np.sum(err ** 2, axis=1))))
        vals = np.asarray(vals)
        assert got == (float(vals.mean()),
                       float(vals.std(ddof=1) / np.sqrt(trials)))

    def test_too_short_run_rejected(self):
        G = design_diag_prefilter(freq_response(self.F, N), self.k)
        design = assemble_zfe(self.F, G, self.pk, N)
        with pytest.raises(ConfigError):
            empirical_mse(design, self.src, trials=1, T=10, seed=0)


class TestCompare:
    def setup_method(self):
        self.F = demo_filter(6)
        self.k = (1.0, 1.0)
        self.pk = priv(self.k)
        self.src = server_example(0.3, 0.6)

    def zfe(self):
        G = design_diag_prefilter(freq_response(self.F, N), self.k)
        return assemble_zfe(self.F, G, self.pk, N)

    def test_zfe_dominates_output_perturbation(self):
        # one report per design, at seeds 1 and 1001
        zfe_row = compare_mechanisms(self.zfe(), self.src, trials=3, T=6000,
                                     seed=1)["mechanisms"]["zero_forcing"]
        op_row = compare_mechanisms(
            assemble_output_perturbation(self.F, self.pk, N), self.src,
            trials=3, T=6000, seed=1001)["mechanisms"]["output_perturbation"]
        assert zfe_row["theory_mse"] <= op_row["theory_mse"]
        assert zfe_row["empirical_mse"] <= op_row["empirical_mse"]

    def test_one_design_bounds_ordered(self):
        report = compare_mechanisms(self.zfe(), self.src, trials=2, T=4000,
                                    seed=1)
        assert list(report["mechanisms"]) == ["zero_forcing"]
        assert report["bounds"]["zfe_nuclear_bound"] <= \
            report["bounds"]["zfe_diag_bound"] * (1 + 1e-12)

    def test_deterministic_report(self):
        design = self.zfe()
        r1 = compare_mechanisms(design, self.src, trials=2, T=5000, seed=3)
        r2 = compare_mechanisms(design, self.src, trials=2, T=5000, seed=3)
        assert r1 == r2

    def test_plot_csv_written(self, tmp_path):
        compare_mechanisms(self.zfe(), self.src, trials=2, T=5000, seed=3,
                           plots_dir=tmp_path)
        path = tmp_path / "zero_forcing_paths.csv"
        assert path.exists()
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert "y1" in header and "yhat1" in header


class TestStreamsCsv:
    def test_round_trip(self, tmp_path, rng):
        x = rng.normal(size=(20, 3))
        path = tmp_path / "stream.csv"
        write_csv(path, x, ["a", "b", "c"])
        assert path.read_text().splitlines()[0] == "a,b,c"
        assert np.array_equal(read_csv(path), x)


class TestSourceContract:
    """What every source of source_from_spec gives its callers, the
    benchmark's oracle check included."""

    @pytest.fixture(params=["occupancy", "markov_server", "markov", "csv"])
    def source(self, request, tmp_path, rng):
        kind = request.param
        if kind == "occupancy":
            return source_from_spec({"kind": kind, "period": 48}, 3), 3
        if kind == "markov_server":
            return source_from_spec({"kind": kind, "alpha": 0.3,
                                     "beta": 0.6}, 2), 2
        if kind == "markov":
            Pi = [[0.5, 0.2, 0.3], [0.25, 0.6, 0.3], [0.25, 0.2, 0.4]]
            return source_from_spec({"kind": kind, "Pi": Pi,
                                     "selectors": [0, 2]}, 2), 2
        path = tmp_path / "given.csv"
        write_csv(path, rng.normal(size=(60, 3)), ["a", "b", "c"])
        return source_from_spec({"kind": kind, "csv": str(path)}, 3), 3

    def test_sample_is_a_c_contiguous_float_array(self, source):
        src, m = source
        x = src.sample(40, seed=5)
        assert type(x) is np.ndarray and x.dtype == np.float64
        assert x.shape == (40, m) and x.flags.c_contiguous
        # the buffer of the array reads back as the array itself
        assert np.array_equal(x.data - np.zeros_like(x), x)

    def test_same_seed_same_array(self, source):
        src, _ = source
        assert np.array_equal(src.sample(40, seed=5), src.sample(40, seed=5))

    def test_csv_round_trip_is_exact(self, source, tmp_path):
        src, m = source
        x = src.sample(40, seed=5)
        names = [f"u{c + 1}" for c in range(m)]
        path = tmp_path / "stream.csv"
        write_csv(path, x, names)
        assert path.read_text().splitlines()[0] == ",".join(names)
        back = read_csv(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, x)
        assert back.tobytes() == x.tobytes()


class TestMechanismOrdering:
    def test_empirical_ordering_on_matched_source(self):
        # lms(smoother) <= zfe <= output perturbation, in theory and
        # within joint error bars empirically, on the matched source
        F = demo_filter(6)
        k = (1.0, 1.0)
        pk = priv(k)
        markov = server_example(0.3, 0.6)
        src = markov
        Pu, mean = chain_spectrum(markov, N)
        designs = {
            "lms": assemble_lms(F, Pu, pk, mode="smoother",
                                input_mean=mean),
            "zfe": assemble_zfe(
                F, design_diag_prefilter(freq_response(F, N), k), pk, N),
            "op": assemble_output_perturbation(F, pk, N),
        }
        assert designs["lms"].theory_mse <= designs["zfe"].theory_mse
        assert designs["zfe"].theory_mse <= designs["op"].theory_mse
        rows = {}
        for name, d in designs.items():
            rows[name] = empirical_mse(d, src, trials=6, T=10000,
                                       seed=hash(name) % 2 ** 16)
        assert rows["lms"][0] <= rows["zfe"][0] \
            + 3 * np.hypot(rows["lms"][1], rows["zfe"][1])
        assert rows["zfe"][0] <= rows["op"][0] \
            + 3 * np.hypot(rows["zfe"][1], rows["op"][1])


def test_bank_zfe_simulate_peak_memory(tmp_path, monkeypatch):
    # regression: each IirBank run held per-group buffers and a copy of
    # its whole input; one bank_zfe trial of 20000 steps traced a peak of
    # 23.8 MB, and 17.6 MB with output-sized kernel memory
    import io
    import os
    import tracemalloc
    from contextlib import redirect_stdout
    from dpfilt.cli import main
    monkeypatch.chdir(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    design = str(tmp_path / "design.json")
    report = str(tmp_path / "report.json")
    with redirect_stdout(io.StringIO()):
        assert main(["design", "--config", "benchmark/workloads/bank_zfe.yaml",
                     "--out", design]) == 0
        # a short run first, so that lazy imports and the schema loads
        # are not traced
        assert main(["simulate", "--design", design, "--trials", "1",
                     "--steps", "200", "--report", report]) == 0
        tracemalloc.start()
        try:
            assert main(["simulate", "--design", design, "--trials", "1",
                         "--steps", "20000", "--report", report]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 20 * 2 ** 20
