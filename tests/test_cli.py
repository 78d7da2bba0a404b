import json
import os
import re

import numpy as np
import pytest
import yaml

from dpfilt.cli import main, validate_document
from dpfilt.config import Config, load_yaml
from dpfilt.errors import ConfigError, InsufficientNoise
from dpfilt.fileio import (design_from_dict, load_json, read_csv,
                           save_json, source_from_spec, spectrum_from_spec,
                           transfer_matrix_from_dict, transfer_matrix_to_dict)
from dpfilt import RationalFilter, TransferMatrix


def write_yaml(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)


def base_config(tmp_path, mech="zfe", spectrum=None, source=None,
                filter_block=None):
    doc = {
        "grid_n": 256,
        "seed": 7,
        "privacy": {"epsilon": 1.0, "delta": 0.1, "k": [1.0, 1.0]},
        "filter": filter_block or {"preset": "markov_demo", "ma_length": 6},
        "mechanism": {"kind": mech},
        "spectrum": spectrum or {"kind": "markov_server", "alpha": 0.3,
                                 "beta": 0.6},
        "source": source or {"kind": "markov_server", "alpha": 0.3,
                             "beta": 0.6},
        "simulate": {"trials": 2, "steps": 4000},
    }
    path = tmp_path / "config.yaml"
    write_yaml(path, doc)
    return path, doc


class TestAutocovarianceSpectrum:
    @pytest.mark.parametrize("L,m,N", [(1, 2, 16), (4, 1, 64), (6, 3, 8),
                                       (40, 2, 16)])
    def test_matches_direct_sum(self, L, m, N):
        # P(w) = sum_k R_k e^{-jwk} + sum_{k >= 1} R_k^T e^{jwk}; with
        # L = 40 > 2N the lags wrap around the grid more than once
        lags = np.random.default_rng(L).normal(size=(L, m, m))
        Pu, mean = spectrum_from_spec(
            {"kind": "autocovariance", "lags": lags.tolist()}, N, m)
        w = np.arange(N + 1) * np.pi / N
        want = np.zeros((N + 1, m, m), dtype=complex)
        for k in range(L):
            want += np.multiply.outer(np.exp(-1j * w * k), lags[k])
            if k:
                want += np.multiply.outer(np.exp(1j * w * k), lags[k].T)
        np.testing.assert_allclose(Pu, want, rtol=0,
                                   atol=1e-13 * np.abs(lags).sum())
        assert np.array_equal(mean, np.zeros(m))

    def test_scalar_lags(self):
        Pu, _ = spectrum_from_spec(
            {"kind": "autocovariance", "lags": [2.0, 0.5]}, 8, 1)
        w = np.arange(9) * np.pi / 8
        np.testing.assert_allclose(Pu[:, 0, 0], 2.0 + np.cos(w),
                                   rtol=0, atol=1e-15)


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"grid": 7})
        with pytest.raises(ConfigError):
            Config.from_dict({"privacy": {"epsilon": 1, "delta": 0.1,
                                          "k": [1], "foo": 2}})

    def test_hash_stable(self):
        a = Config.from_dict({"seed": 3}).hash()
        b = Config.from_dict({"seed": 3}).hash()
        c = Config.from_dict({"seed": 4}).hash()
        assert a == b and a != c

    def test_unknown_mechanism(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"mechanism": {"kind": "magic"}})

    def test_echo_holds_only_the_given_blocks(self):
        # regression: Config merged its own filter, spectrum and source
        # defaults into the given blocks, so the echo recorded keys that
        # the run never read (filter.preset beside filter.file,
        # spectrum.scale on every spectrum)
        echo = Config.from_dict({
            "filter": {"file": "target.yaml"},
            "spectrum": {"kind": "markov_server"}}).to_dict()
        assert echo["filter"] == {"file": "target.yaml"}
        assert echo["spectrum"] == {"kind": "markov_server"}
        assert echo["source"] == {}

    def test_no_spectrum_block_is_white(self, tmp_path):
        # an LMS design with no spectrum block runs spectrum_from_spec's
        # white default, the same design as an autocovariance of lag 0 = I
        cfg_path, doc = base_config(tmp_path, mech="lms_causal")
        docs = []
        for spectrum in (None, {"kind": "autocovariance",
                                "lags": [np.eye(2).tolist()]}):
            doc.pop("spectrum", None)
            if spectrum is not None:
                doc["spectrum"] = spectrum
            write_yaml(cfg_path, doc)
            out = tmp_path / "d.json"
            assert main(["design", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            design = load_json(out)
            del design["config"], design["config_hash"]
            docs.append(json.dumps(design, sort_keys=True))
        assert docs[0] == docs[1]


class TestFilterFiles:
    def test_round_trip(self, tmp_path):
        tm = TransferMatrix([[RationalFilter([1.0, 0.5], [1.0, -0.2]),
                              RationalFilter([0.0])],
                             [RationalFilter([2.0]),
                              RationalFilter([0.3, 0.1])]])
        d = transfer_matrix_to_dict(tm)
        tm2 = transfer_matrix_from_dict(d)
        assert tm2.shape == tm.shape
        for i in range(2):
            for j in range(2):
                assert np.allclose(tm2[i, j].num, tm[i, j].num)
                assert np.allclose(tm2[i, j].den, tm[i, j].den)

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            transfer_matrix_from_dict({"rows": 1})


class TestDesignCommand:
    def test_zfe_design_matches_bound(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        doc = load_json(out)
        validate_document(doc, "design.schema.json")
        ratio = doc["theory_mse"] / doc["info"]["diag_bound"]
        assert 1.0 - 1e-9 <= ratio <= 1.05
        assert doc["config_hash"]

    def test_invalid_delta_exit_code(self, tmp_path, capsys):
        doc = {"privacy": {"epsilon": 1.0, "delta": 1.5, "k": [1.0, 1.0]},
               "filter": {"preset": "markov_demo", "ma_length": 6}}
        path = tmp_path / "bad.yaml"
        write_yaml(path, doc)
        code = main(["design", "--config", str(path),
                     "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert "InvalidDelta" in capsys.readouterr().err

    def test_rerun_identical_bytes(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        out1 = tmp_path / "d1.json"
        out2 = tmp_path / "d2.json"
        main(["design", "--config", str(cfg_path), "--out", str(out1)])
        main(["design", "--config", str(cfg_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_lms_design(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, mech="lms_smoother",
                                  spectrum={"kind": "markov_server",
                                            "alpha": 0.3, "beta": 0.6})
        out = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        doc = load_json(out)
        assert doc["kind"] == "wiener_smoother"
        rebuilt = design_from_dict(doc)
        assert rebuilt.postfilter is not None


SCHEMAS = ["design.schema.json", "report.schema.json"]


def shipped_schema(name):
    import importlib.resources
    ref = importlib.resources.files("dpfilt").joinpath("schemas", name)
    return json.loads(ref.read_text())


class TestValidateDocument:
    @pytest.mark.parametrize("name", SCHEMAS)
    def test_shipped_schema_passes_check_schema(self, name):
        import jsonschema
        schema = shipped_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_errors_match_jsonschema_validate(self, tmp_path):
        # a ConfigError naming the JSON path, chained from the error that
        # jsonschema.validate raises
        import jsonschema
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        doc = load_json(out)
        missing = {k: v for k, v in doc.items() if k != "kind"}
        wrong_type = dict(doc, noise_sigma="large")
        nested = json.loads(json.dumps(doc))
        nested["privacy"]["epsilon"] = -1.0
        schema = shipped_schema("design.schema.json")
        for bad in (missing, wrong_type, nested, [], "design"):
            with pytest.raises(jsonschema.ValidationError) as want:
                jsonschema.validate(bad, schema)
            for _ in range(2):      # the compiled validator is reused
                with pytest.raises(ConfigError) as got:
                    validate_document(bad, "design.schema.json")
                cause = got.value.__cause__
                assert str(cause) == str(want.value)
                assert list(cause.path) == list(want.value.path)
                assert want.value.json_path in str(got.value)
        validate_document(doc, "design.schema.json")


class TestSaveJson:
    DOC = {"b": [1.0, 0.1 + 0.2, -3e-300], "a": {"z": None, "y": "\u00e9"}}

    def test_compact_is_one_dumps_string(self, tmp_path):
        path = tmp_path / "d.json"
        save_json(self.DOC, path, indent=None)
        assert path.read_text() == json.dumps(self.DOC, sort_keys=True) + "\n"

    def test_indented_output_unchanged(self, tmp_path):
        path = tmp_path / "d.json"
        save_json(self.DOC, path)
        with open(tmp_path / "want.json", "w") as fh:
            json.dump(self.DOC, fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "want.json").read_bytes()


class TestSensitivityCommand:
    def test_diagonal_filter(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "sens.json"
        assert main(["sensitivity", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        doc = load_json(out)
        assert doc["bounds_consistent"]
        assert doc["lower_equals_exact"]      # diagonal target
        assert doc["is_exact"]

    def test_aligned_delay_bank_hits_upper(self, tmp_path):
        bank = {"rows": 1, "cols": 2,
                "entries": [{"row": 0, "col": 0, "num": [1.0]},
                            {"row": 0, "col": 1, "num": [0.0, 1.0]}]}
        fpath = tmp_path / "bank.yaml"
        write_yaml(fpath, bank)
        cfg = {"privacy": {"epsilon": 1.0, "delta": 0.1, "k": [1.0, 1.0]},
               "filter": {"file": str(fpath)}}
        cpath = tmp_path / "cfg.yaml"
        write_yaml(cpath, cfg)
        out = tmp_path / "sens.json"
        assert main(["sensitivity", "--config", str(cpath),
                     "--out", str(out)]) == 0
        doc = load_json(out)
        assert doc["upper_equals_exact"]
        assert doc["exact"] == pytest.approx(2.0, rel=1e-9)
        assert doc["is_exact"]                # two inputs

    def test_three_input_bound_not_exact(self, tmp_path):
        bank = {"rows": 1, "cols": 3,
                "entries": [{"row": 0, "col": j, "num": [1.0, 0.5 * j]}
                            for j in range(3)]}
        fpath = tmp_path / "bank.yaml"
        write_yaml(fpath, bank)
        cfg = {"privacy": {"epsilon": 1.0, "delta": 0.1, "k": [1.0] * 3},
               "filter": {"file": str(fpath)}}
        cpath = tmp_path / "cfg.yaml"
        write_yaml(cpath, cfg)
        out = tmp_path / "sens.json"
        assert main(["sensitivity", "--config", str(cpath),
                     "--out", str(out)]) == 0
        doc = load_json(out)
        assert doc["bounds_consistent"]
        assert doc["is_exact"] is False


class TestPipeline:
    def test_markov_gen_then_simulate(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        main(["design", "--config", str(cfg_path),
              "--out", str(design_path)])
        stream_path = tmp_path / "stream.csv"
        assert main(["markov-gen", "--alpha", "0.3", "--beta", "0.6",
                     "--steps", "6000", "--seed", "3",
                     "--out", str(stream_path)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["simulate", "--design", str(design_path),
                     "--source", str(stream_path),
                     "--trials", "2", "--steps", "6000",
                     "--report", str(report_path)]) == 0
        doc = load_json(report_path)
        validate_document(doc, "report.schema.json")
        row = doc["mechanisms"]["zero_forcing"]
        assert row["empirical_mse"] > 0
        assert row["runtime_s"] is None     # timing off by default

    def test_source_file_goes_through_csv_source(self, tmp_path, capsys):
        # --source reads any file name as CSV, and checks its channel
        # count against the filter as a config csv source does
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        stream_path = tmp_path / "stream.txt"
        assert main(["markov-gen", "--alpha", "0.3", "--beta", "0.6",
                     "--steps", "4000", "--seed", "3",
                     "--out", str(stream_path)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["simulate", "--design", str(design_path),
                     "--source", str(stream_path), "--trials", "2",
                     "--steps", "4000", "--report", str(report_path)]) == 0
        assert load_json(report_path)["config"]["source"] == "csv"
        narrow = tmp_path / "narrow.dat"
        narrow.write_text("a\n" + "1.0\n" * 4000)
        capsys.readouterr()
        assert main(["simulate", "--design", str(design_path),
                     "--source", str(narrow), "--trials", "2",
                     "--steps", "4000", "--report", str(report_path)]) == 2
        assert "source emits 1 channels, filter expects 2" \
            in capsys.readouterr().err

    def test_simulate_uses_config_source(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        main(["design", "--config", str(cfg_path), "--out",
              str(design_path)])
        report_path = tmp_path / "report.json"
        assert main(["simulate", "--design", str(design_path),
                     "--report", str(report_path)]) == 0
        r1 = load_json(report_path)
        main(["simulate", "--design", str(design_path),
              "--report", str(report_path)])
        assert load_json(report_path) == r1   # reproducible

    @pytest.mark.parametrize("mech", ["zfe", "df"])
    def test_simulate_runs_compare_mechanisms(self, tmp_path, mech):
        # the command's report is the library's on the loaded design, but
        # for the two fields the command stamps on it
        from dpfilt.sim import compare_mechanisms
        fpath = tmp_path / "target.yaml"
        write_yaml(fpath, transfer_matrix_to_dict(
            TransferMatrix.diagonal([RationalFilter([0.6, 0.3, 0.1])] * 2)))
        cfg_path, cfg = base_config(
            tmp_path, mech=mech, filter_block={"file": str(fpath)},
            spectrum={"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                      "floor": 1e-4})
        design_path = tmp_path / "design.json"
        report_path = tmp_path / "report.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        assert main(["simulate", "--design", str(design_path),
                     "--trials", "2", "--steps", "3000", "--seed", "11",
                     "--report", str(report_path)]) == 0
        got = load_json(report_path)
        assert got.pop("tool_version") and got.pop("config_hash")
        doc = load_json(design_path)
        want = compare_mechanisms(
            design_from_dict(doc), source_from_spec(cfg["source"], 2),
            trials=2, T=3000, seed=11)
        assert got == json.loads(json.dumps(want))

    def test_report_merges(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        report_path = tmp_path / "report.json"
        merged_path = tmp_path / "merged.json"
        main(["design", "--config", str(cfg_path), "--out",
              str(design_path)])
        main(["simulate", "--design", str(design_path),
              "--report", str(report_path)])
        assert main(["report", "--inputs", str(design_path),
                     str(report_path), "--out", str(merged_path)]) == 0
        doc = load_json(merged_path)
        assert "zero_forcing" in doc["mechanisms"]
        assert doc["bounds"] is not None

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["design", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "d.json")])
        assert code == 2

    def test_missing_design_file(self, tmp_path):
        code = main(["simulate", "--design", str(tmp_path / "nope.json"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2


class TestDfRoundTrip:
    def test_df_design_and_simulate(self, tmp_path, capsys):
        fdoc = transfer_matrix_to_dict(
            TransferMatrix.diagonal([RationalFilter([0.6, 0.3, 0.1]),
                                     RationalFilter([0.6, 0.3, 0.1])]))
        fpath = tmp_path / "target.yaml"
        write_yaml(fpath, fdoc)
        cfg_path, _ = base_config(
            tmp_path, mech="df",
            spectrum={"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                      "floor": 1e-4},
            filter_block={"file": str(fpath)})
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        doc = load_json(design_path)
        assert doc["kind"] == "decision_feedback"
        # DF has no MSE at an exact prefilter fit to measure a loss by
        assert "note:" not in capsys.readouterr().err
        report_path = tmp_path / "report.json"
        assert main(["simulate", "--design", str(design_path),
                     "--trials", "2", "--steps", "4000",
                     "--report", str(report_path)]) == 0
        # singular spectra: the error names the spectrum and the worst
        # frequency, and suggests the floor only for the input side
        cfg_path, _ = base_config(tmp_path, mech="df",
                                  filter_block={"file": str(fpath)})
        capsys.readouterr()
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 4
        err = capsys.readouterr().err
        assert "input-side spectrum" in err and "omega = 0" in err
        assert "spectrum.floor" in err
        cfg_path, _ = base_config(
            tmp_path, mech="df",
            spectrum={"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                      "floor": 1e-4},
            filter_block={"preset": "markov_demo", "ma_length": 8})
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 4
        err = capsys.readouterr().err
        assert "target spectrum F* F" in err and "omega = 1.5708" in err
        assert "spectrum.floor" not in err


class TestSimulateDomain:
    """`dpfilt simulate --domain` overrides the decision domain of a DF
    design; an unknown domain or a non-DF design fails with exit 2."""

    def design(self, tmp_path, mech):
        fdoc = transfer_matrix_to_dict(
            TransferMatrix.diagonal([RationalFilter([0.6, 0.3, 0.1]),
                                     RationalFilter([0.6, 0.3, 0.1])]))
        write_yaml(tmp_path / "target.yaml", fdoc)
        cfg_path, _ = base_config(
            tmp_path, mech=mech,
            spectrum={"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                      "floor": 1e-4},
            filter_block={"file": str(tmp_path / "target.yaml")})
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        return design_path

    def simulate(self, tmp_path, design_path, domain):
        return main(["simulate", "--design", str(design_path),
                     "--trials", "2", "--steps", "2000", "--domain", domain,
                     "--report", str(tmp_path / "report.json")])

    def test_sign_on_df_design(self, tmp_path):
        design_path = self.design(tmp_path, "df")
        assert self.simulate(tmp_path, design_path, "sign") == 0
        assert (tmp_path / "report.json").exists()

    def test_unknown_domain(self, tmp_path, capsys):
        design_path = self.design(tmp_path, "df")
        capsys.readouterr()
        assert self.simulate(tmp_path, design_path, "bogus") == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "nonneg_integers" in err
        assert not (tmp_path / "report.json").exists()

    def test_report_states_the_domain(self, tmp_path):
        # regression: the default and --domain reals gave reports that
        # differed only in their Monte Carlo numbers
        design_path = self.design(tmp_path, "df")
        assert main(["simulate", "--design", str(design_path), "--trials",
                     "2", "--steps", "2000", "--report",
                     str(tmp_path / "default.json")]) == 0
        assert self.simulate(tmp_path, design_path, "reals") == 0
        rows = [load_json(tmp_path / name)["mechanisms"]["decision_feedback"]
                for name in ("default.json", "report.json")]
        assert [row["decision_domain"] for row in rows] == \
            ["nonneg_integers", "reals"]

    def test_non_df_design_rejected(self, tmp_path, capsys):
        design_path = self.design(tmp_path, "zfe")
        capsys.readouterr()
        assert self.simulate(tmp_path, design_path, "sign") == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "zero_forcing" in err
        assert not (tmp_path / "report.json").exists()


class TestByteDeterminism:
    def test_markov_gen_csv_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["markov-gen", "--alpha", "0.3", "--beta", "0.6",
                         "--steps", "500", "--seed", "11",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_report_bytes(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        main(["design", "--config", str(cfg_path), "--out",
              str(design_path)])
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for rp in (r1, r2):
            assert main(["simulate", "--design", str(design_path),
                         "--report", str(rp)]) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestCausalRoundTrip:
    def test_lms_causal_design_and_simulate(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, mech="lms_causal")
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        doc = load_json(design_path)
        assert doc["kind"] == "wiener_causal"
        assert doc["theory_mse"] == doc["info"]["causal_mse_quadrature"]
        report_path = tmp_path / "report.json"
        assert main(["simulate", "--design", str(design_path),
                     "--trials", "2", "--steps", "5000",
                     "--report", str(report_path)]) == 0
        row = load_json(report_path)["mechanisms"]["wiener_causal"]
        assert row["empirical_mse"] > 0


class TestFilterFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        from dpfilt.fileio import load_filter_file
        tm = TransferMatrix([[RationalFilter([1.0, 0.25], [1.0, -0.5])]])
        path = tmp_path / "f.yaml"
        path.write_text(yaml.safe_dump(transfer_matrix_to_dict(tm)))
        tm2 = load_filter_file(path)
        assert np.allclose(tm2[0, 0].num, tm[0, 0].num)
        assert np.allclose(tm2[0, 0].den, tm[0, 0].den)


class TestTamperedDesign:
    def test_non_minimum_phase_prefilter_rejected(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        main(["design", "--config", str(cfg_path), "--out",
              str(design_path)])
        doc = load_json(design_path)
        # plant a zero outside the unit circle in one prefilter entry
        doc["prefilter"]["entries"][0]["num"] = [1.0, 2.0]
        tampered = tmp_path / "tampered.json"
        with open(tampered, "w") as fh:
            json.dump(doc, fh)
        code = main(["simulate", "--design", str(tampered),
                     "--report", str(tmp_path / "r.json")])
        assert code == 4      # infeasible: refuses to invert

    @pytest.mark.parametrize("mech", ["zfe", "output_perturbation",
                                      "lms_smoother", "lms_causal", "df"])
    def test_under_noised_design_refused(self, tmp_path, capsys, mech):
        # regression: a stored noise_sigma edited below kappa * sensitivity
        # used to run with exit 0; untampered designs of every kind load
        fdoc = transfer_matrix_to_dict(
            TransferMatrix.diagonal([RationalFilter([0.6, 0.3, 0.1]),
                                     RationalFilter([0.6, 0.3, 0.1])]))
        fpath = tmp_path / "target.yaml"
        write_yaml(fpath, fdoc)
        cfg_path, _ = base_config(
            tmp_path, mech=mech, filter_block={"file": str(fpath)},
            spectrum={"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                      "floor": 1e-4})
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        doc = load_json(design_path)
        design = design_from_dict(doc)
        assert design.noise_sigma == doc["noise_sigma"]
        doc["noise_sigma"] *= 1.0 - 1e-6
        with pytest.raises(InsufficientNoise):
            design_from_dict(doc)
        doc["noise_sigma"] = 1e-6
        tampered = tmp_path / "tampered.json"
        with open(tampered, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        code = main(["simulate", "--design", str(tampered),
                     "--trials", "1", "--steps", "500",
                     "--report", str(tmp_path / "r.json")])
        assert code == 5
        assert "InsufficientNoise" in capsys.readouterr().err

    def test_ragged_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ConfigError, match="ragged rows"):
            read_csv(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_rejected(self, tmp_path, capsys, value):
        # regression: float() parses nan/inf, which used to flow through
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,b\n1.0,2.0\n3.0,{value}\n")
        with pytest.raises(ConfigError, match=r"data row 2, column 2 \('b'\)"):
            read_csv(bad)
        code = main(["simulate", "--design", str(design_path),
                     "--source", str(bad),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err


    @pytest.mark.parametrize("text", ["", "a,b\n", "a,b\n1.0,x\n"],
                             ids=["empty", "header_only", "non_numeric"])
    def test_unreadable_csv_rejected(self, tmp_path, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ConfigError, match="stream file"):
            read_csv(bad)

    @pytest.mark.parametrize("mech,edit,code,needle", [
        ("zfe", ("noise_sigma",), 2, "noise_sigma"),
        ("zfe", ("noise_sigma", "inf"), 2, "noise_sigma"),
        ("lms_causal", ("prefilter", 1, 3), 2, "prefilter: entries[1].num")],
        ids=["nan_sigma", "infinite_sigma", "nan_prefilter_coefficient"])
    def test_non_finite_design_refused(self, tmp_path, capsys, mech, edit,
                                       code, needle):
        # regression: a NaN noise_sigma fails `sigma < need` and released
        # the prefiltered signal with no noise, exit 0 at MSE 1.9e-29; an
        # infinite one, or a NaN coefficient (a NaN need), ran to a NaN MSE.
        # A NaN coefficient is refused as the document is read
        cfg_path, _ = base_config(tmp_path, mech=mech)
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        doc = load_json(design_path)
        if edit[0] == "noise_sigma":
            doc["noise_sigma"] = float(edit[1] if len(edit) > 1 else "nan")
        else:
            doc["prefilter"]["entries"][edit[1]]["num"][edit[2]] = \
                float("nan")
        tampered = tmp_path / "tampered.json"
        with open(tampered, "w") as fh:
            json.dump(doc, fh)     # writes NaN and Infinity, as json reads
        capsys.readouterr()
        assert main(["simulate", "--design", str(tampered),
                     "--trials", "1", "--steps", "500",
                     "--report", str(tmp_path / "r.json")]) == code
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("mech,path,value,needle", [
        ("lms_causal", ("input_mean", 0), float("inf"), "input_mean"),
        ("lms_causal", ("input_mean",), [0.5], "input_mean"),
        ("df", ("info", "decision_domain"), [], "info.decision_domain"),
        ("df", ("info", "decision_domain"), "ints", "info.decision_domain"),
        ("zfe", ("target", "entries", 0, "num", 1), float("nan"),
         "target: entries[0].num"),
        ("zfe", ("target", "entries", 0, "den"), [1.0, float("inf")],
         "target: entries[0].den"),
        ("zfe", ("theory_mse",), float("nan"), "theory_mse"),
        ("zfe", ("config", "mechanism", "kind"), ["zfe"], "mechanism kind"),
        ("zfe", ("config", "source", "alpha"), 10 ** 6, "alpha"),
        ("zfe", ("config", "source", "beta"), float("nan"), "beta"),
        ("df", ("lookahead",), 1e308, "lookahead"),
        ("zfe", ("noise_sigma",), 1e308, "not finite"),
        ("lms_causal", ("input_mean", 0), 1e308, "not finite"),
        ("df", ("postfilter", "p_coeffs", -1, 0, 0), 1e308, "not finite")],
        ids=["infinite_mean", "short_mean", "list_domain", "unknown_domain",
             "nan_target_num", "infinite_target_den", "nan_theory_mse",
             "list_mechanism_kind", "source_alpha_above_one",
             "nan_source_beta", "huge_lookahead", "huge_noise_sigma",
             "huge_input_mean", "huge_feedback_tap"])
    def test_bad_stored_field_exits_two(self, tmp_path, capsys, mech, path,
                                        value, needle):
        # regression: an infinite input_mean ran to empirical_mse=nan with
        # exit 0, and a list decision_domain exited 1 with a TypeError; a
        # NaN target coefficient exited 2 only through "SVD did not
        # converge" in the report bounds, an infinite target denominator
        # through "Array must not contain infs or NaNs", and a NaN
        # theory_mse exited 0 and printed theory=nan. Found by
        # tests/test_fuzz.py: a list mechanism kind in the config echo and
        # a lookahead of 1e308 exited 1 with a TypeError and an
        # OverflowError, a source alpha or beta outside [0, 1] exited 4,
        # and a stored 1e308 overflowed to a non-finite report, exit 0
        fpath = tmp_path / "target.yaml"
        write_yaml(fpath, transfer_matrix_to_dict(
            TransferMatrix.diagonal([RationalFilter([0.6, 0.3, 0.1])] * 2)))
        cfg_path, _ = base_config(
            tmp_path, mech=mech, filter_block={"file": str(fpath)},
            spectrum={"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                      "floor": 1e-4})
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        doc = load_json(design_path)
        *parents, last = path
        block = doc
        for key in parents:
            block = block[key]
        block[last] = value
        with open(design_path, "w") as fh:
            json.dump(doc, fh)     # writes Infinity, as json reads
        capsys.readouterr()
        assert main(["simulate", "--design", str(design_path),
                     "--trials", "1", "--steps", "500",
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and needle in err

    def test_overflowing_noise_refused_before_the_trials(
            self, tmp_path, capsys, monkeypatch):
        # regression: a noise_sigma of 1e308 ran every trial, printing
        # numpy overflow warnings, before the report check exited 2; its
        # square is known to overflow before the first trial
        import warnings
        import dpfilt.sim

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        doc = load_json(design_path)
        doc["noise_sigma"] = 1e308
        with open(design_path, "w") as fh:
            json.dump(doc, fh)
        monkeypatch.setattr(dpfilt.sim, "run_mechanism", no_trial)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--design", str(design_path),
                         "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "not finite" in err
        assert "noise_variance" in err
        assert not (tmp_path / "r.json").exists()

    def test_input_count_checked_before_allocating(self, tmp_path, capsys):
        # regression: target.cols 10**6 exited 1 with an IndexError and
        # 1e308 with a MemoryError, after building the matrix
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        for key in ("target", "prefilter"):
            for cols in (10 ** 6, 1e308, 3):
                doc = load_json(design_path)
                doc[key]["cols"] = cols
                with open(tmp_path / "tampered.json", "w") as fh:
                    json.dump(doc, fh)
                capsys.readouterr()
                assert main(["simulate", "--design",
                             str(tmp_path / "tampered.json"),
                             "--report", str(tmp_path / "r.json")]) == 2
                assert f"{key}.cols" in capsys.readouterr().err

    @pytest.mark.parametrize("mech", ["zfe", "df"])
    def test_output_rows_bounded_by_entries(self, tmp_path, capsys, mech):
        # regression: target.rows 10**6 ran for over a minute and 1e308
        # exited 1 with a MemoryError, building the matrix; every output
        # row lists an entry, so the entries bound the rows
        fpath = tmp_path / "target.yaml"
        write_yaml(fpath, transfer_matrix_to_dict(
            TransferMatrix.diagonal([RationalFilter([0.6, 0.3, 0.1])] * 2)))
        cfg_path, _ = base_config(
            tmp_path, mech=mech, filter_block={"file": str(fpath)},
            spectrum={"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                      "floor": 1e-4})
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        for key in ("target", "prefilter"):
            for rows in (10 ** 6, 1e308):
                doc = load_json(design_path)
                doc[key]["rows"] = rows
                with open(tmp_path / "tampered.json", "w") as fh:
                    json.dump(doc, fh)
                capsys.readouterr()
                assert main(["simulate", "--design",
                             str(tmp_path / "tampered.json"),
                             "--report", str(tmp_path / "r.json")]) == 2
                err = capsys.readouterr().err
                assert "ConfigError" in err and f"{key}.rows" in err

    def test_zero_output_row_round_trips(self, tmp_path):
        # a zero output row is legal: the design document lists it as a
        # zero entry, so the document still loads and runs
        row = [RationalFilter([0.6, 0.3, 0.1]), RationalFilter([0.2, 0.1])]
        zero = RationalFilter([0.0])
        F = TransferMatrix([row, [zero, zero]])
        fpath = tmp_path / "target.yaml"
        write_yaml(fpath, transfer_matrix_to_dict(F))
        cfg_path, _ = base_config(tmp_path, filter_block={"file": str(fpath)})
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        doc = load_json(design_path)
        assert doc["target"]["rows"] == 2 and doc["target"]["entries"] == [
            {"row": 0, "col": 0, "num": [0.6, 0.3, 0.1], "den": [1.0]},
            {"row": 0, "col": 1, "num": [0.2, 0.1], "den": [1.0]},
            {"row": 1, "col": 0, "num": [0.0], "den": [1.0]}]
        assert design_from_dict(doc).target.shape == (2, 2)
        assert main(["simulate", "--design", str(design_path),
                     "--trials", "1", "--steps", "500",
                     "--report", str(tmp_path / "r.json")]) == 0

    def test_schema_invalid_design_names_its_path(self, tmp_path, capsys):
        # regression: a jsonschema error escaped main with exit 1 and a
        # traceback
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        doc = dict(load_json(design_path), noise_sigma="x")
        with open(design_path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert main(["simulate", "--design", str(design_path),
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "$.noise_sigma" in err

class TestFitNote:
    """The prefilter fit note compares fit_tol with the MSE-level loss."""

    def _design(self, tmp_path, capsys, doc):
        path = tmp_path / "config.yaml"
        write_yaml(path, doc)
        out = tmp_path / "design.json"
        capsys.readouterr()
        assert main(["design", "--config", str(path),
                     "--out", str(out)]) == 0
        return load_json(out), capsys.readouterr().err

    def test_silent_on_bank_zfe(self, tmp_path, capsys):
        doc = {
            "grid_n": 1024,
            "seed": 7,
            "privacy": {"epsilon": 1.6094379124341003, "delta": 0.05,
                        "k": [4.0] * 15},
            "filter": {"preset": "occupancy_bank"},
            "mechanism": {"kind": "zfe", "factor_order": 40},
        }
        d, err = self._design(tmp_path, capsys, doc)
        # every channel's grid residual is above fit_tol ...
        assert min(d["info"]["prefilter_fit_errors"]) > 1e-3
        # ... but the MSE-level loss is not, so no note
        assert d["theory_mse"] / d["info"]["diag_bound"] - 1.0 < 1e-3
        assert "note:" not in err

    def test_fires_on_low_order_zfe(self, tmp_path, capsys):
        _, doc = base_config(tmp_path)
        doc["mechanism"] = {"kind": "zfe", "factor_order": 4}
        d, err = self._design(tmp_path, capsys, doc)
        loss = d["theory_mse"] / d["info"]["diag_bound"] - 1.0
        assert loss > 0.1
        assert "note:" in err and f"{loss:.3g}" in err
        assert "theory_mse / diag_bound - 1" in err

    def test_fires_on_lms(self, tmp_path, capsys):
        _, doc = base_config(tmp_path, mech="lms_smoother")
        d, err = self._design(tmp_path, capsys, doc)
        info = d["info"]
        loss = info["achieved_objective"] / info["optimal_objective"] - 1.0
        assert 1e-3 < loss < 0.01
        assert "note:" in err and f"{loss:.3g}" in err
        assert "theory_mse / optimal_objective - 1" in err
        assert len(info["prefilter_fit_errors"]) == 2
        # a looser fit_tol silences it
        doc["mechanism"]["fit_tol"] = 0.01
        _, err = self._design(tmp_path, capsys, doc)
        assert "note:" not in err

    def test_silent_on_bank_lms_causal(self, tmp_path, capsys):
        # regression: the note measured the smoother objective (a 2.76 %
        # loss here) and advised a higher factor_order, which raises the
        # causal theory_mse from 1.681 to 1.739 at order 160
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        doc = load_yaml(os.path.join(root, "benchmark", "workloads",
                                     "bank_lms_causal.yaml"), "config")
        assert doc["mechanism"] == {"kind": "lms_causal", "factor_order": 40}
        _, err = self._design(tmp_path, capsys, doc)
        assert "note:" not in err


class TestOccupancyBankCli:
    def test_design_on_occupancy_bank(self, tmp_path):
        doc = {
            "grid_n": 1024,
            "seed": 1,
            "privacy": {"epsilon": 1.6094379124341003, "delta": 0.05,
                        "k": [4.0] * 15},
            "filter": {"preset": "occupancy_bank"},
            "mechanism": {"kind": "zfe"},
        }
        path = tmp_path / "bank.yaml"
        write_yaml(path, doc)
        out = tmp_path / "design.json"
        assert main(["design", "--config", str(path),
                     "--out", str(out)]) == 0
        d = load_json(out)
        ratio = d["theory_mse"] / d["info"]["diag_bound"]
        assert 1.0 - 1e-9 <= ratio <= 1.05
        assert d["info"]["optimality_gap"] >= 0.0


class TestConfigErrorsExitTwo:
    def test_markov_source_without_pi(self, tmp_path, capsys):
        # the design reads only the spectrum block; simulate then builds
        # the source and must name the missing key instead of a traceback
        cfg_path, _ = base_config(tmp_path, source={"kind": "markov",
                                                    "selectors": [1, 3]})
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--design", str(out),
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "'Pi'" in err

    def test_malformed_yaml(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text("grid_n: [256\nseed: 7\n")
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "malformed config" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad,key", [
        ({"rates": [-1.0, 1.0]}, "rates"),
        ({"rates": [float("nan"), 1.0]}, "rates"),
        ({"period": 0}, "period"),
        ({"period": 2.7}, "period"),
        ({"period": "abc"}, "period"),
        ({"amplitude": "x"}, "amplitude"),
        ({"rates": "x"}, "rates"),
        ({"rates": [1.0, "x"]}, "rates")],
        ids=["negative_rate", "nan_rate", "zero_period", "fractional_period",
             "text_period", "text_amplitude", "text_rates", "text_in_rates"])
    def test_bad_occupancy_source(self, tmp_path, capsys, bad, key):
        # regression: a negative rate became an all-zero channel, a NaN
        # rate ended in numpy's "lam value too large", period 0 divided
        # by zero
        cfg_path, _ = base_config(tmp_path,
                                  source={"kind": "occupancy", **bad})
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--design", str(out),
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and key in err

    @pytest.mark.parametrize("mech,bad,key", [
        ("zfe", {"factor_order": "x"}, "factor_order"),
        ("zfe", {"factor_order": 40.5}, "factor_order"),
        ("df", {"lookahead": 2.7}, "lookahead"),
        ("df", {"lookahead": "x"}, "lookahead"),
        ("zfe", {"fit_tol": "x"}, "fit_tol")],
        ids=["text_factor_order", "fractional_factor_order",
             "fractional_lookahead", "text_lookahead", "text_fit_tol"])
    def test_bad_mechanism_number(self, tmp_path, capsys, mech, bad, key):
        # regression: 40.5 and 2.7 were truncated silently, text failed
        # naming no key, and a text fit_tol failed after the design was
        # written
        cfg_path, doc = base_config(tmp_path, mech=mech)
        doc["mechanism"].update(bad)
        write_yaml(cfg_path, doc)
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("bad,key", [
        ({"grid_n": 256.5}, "grid_n"),
        ({"grid_n": "x"}, "grid_n"),
        ({"seed": 3.5}, "seed")],
        ids=["fractional_grid_n", "text_grid_n", "fractional_seed"])
    def test_bad_top_level_integer(self, tmp_path, capsys, bad, key):
        # regression: 256.5 designed at N = 256, 3.5 seeded 3, and text
        # failed naming no key
        cfg_path, doc = base_config(tmp_path)
        doc.update(bad)
        write_yaml(cfg_path, doc)
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("block,flags,key", [
        ({"trials": 2.9}, [], "trials"),
        ({"steps": 4000.7}, [], "steps"),
        ({"trials": 0}, [], "trials"),
        ({}, ["--trials", "0"], "trials"),
        ({}, ["--trials", "-2"], "trials"),
        ({}, ["--steps", "0"], "T=0")],
        ids=["fractional_trials", "fractional_steps", "zero_trials",
             "zero_trials_flag", "negative_trials_flag", "zero_steps_flag"])
    def test_bad_simulate_counts(self, tmp_path, capsys, block, flags, key):
        # regression: 2.9 trials ran 2 and 4000.7 steps ran 4000, zero
        # trials wrote a NaN empirical_mse, a zero flag fell back to the
        # config value, and --trials -2 died with an OverflowError; a bad
        # simulate block is refused by design, before a design is written
        cfg_path, doc = base_config(tmp_path)
        doc["simulate"].update(block)
        write_yaml(cfg_path, doc)
        out = tmp_path / "d.json"
        code = main(["design", "--config", str(cfg_path), "--out", str(out)])
        if block:
            assert code == 2
            err = capsys.readouterr().err
            assert "ConfigError" in err and f"simulate.{key}" in err
            assert not out.exists()
            return
        assert code == 0
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert main(["simulate", "--design", str(out),
                     "--report", str(report)] + flags) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and key in err
        assert not report.exists()

    def test_short_run_names_steps_and_the_shortest(self, tmp_path, capsys):
        # regression: --steps 1 failed in empirical_mse with "T=0 leaves
        # no analysis window", naming neither the option nor a length
        # that works
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        capsys.readouterr()

        def simulate(steps):
            return main(["simulate", "--design", str(out), "--steps",
                         str(steps), "--report", str(tmp_path / "r.json")])

        assert simulate(1) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "--steps" in err
        shortest = int(re.search(r"at least (\d+) steps", err).group(1))
        assert simulate(shortest - 1) == 2
        assert simulate(shortest) == 0

    @pytest.mark.parametrize("bad", ["x", 8.9, 0],
                             ids=["text", "fractional", "zero"])
    def test_bad_ma_length(self, tmp_path, capsys, bad):
        # regression: "x" failed naming no key, 8.9 designed length 8 and
        # 0 divided by zero
        cfg_path, _ = base_config(
            tmp_path, filter_block={"preset": "markov_demo",
                                    "ma_length": bad})
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "ma_length" in err
        assert not out.exists()

    def test_occupancy_source_m_key_rejected(self, tmp_path, capsys):
        # the occupancy source takes its channel count from the filter
        cfg_path, _ = base_config(tmp_path,
                                  source={"kind": "occupancy", "m": 2})
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(tmp_path / "d.json")]) == 2
        err = capsys.readouterr().err
        assert "unknown source keys" in err and "'m'" in err

    def test_dt_label_flag_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["markov-gen", "--alpha", "0.3", "--beta", "0.6",
                  "--steps", "10", "--dt-label", "x",
                  "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert "--dt-label" in capsys.readouterr().err

    @pytest.mark.parametrize("bad,key", [
        ({"kind": "markov_server", "floor": "x"}, "spectrum.floor"),
        ({"kind": "markov_server", "floor": -1e-4}, "spectrum.floor"),
        ({"kind": "markov_server", "floor": float("nan")}, "spectrum.floor"),
        ({"kind": "markov_server", "floor": float("inf")}, "spectrum.floor"),
        ({"kind": "white", "scale": "s"}, "spectrum.scale"),
        ({"kind": "white", "scale": 0.0}, "spectrum.scale"),
        ({"kind": "white", "scale": -1.0}, "spectrum.scale"),
        ({"kind": "white", "scale": float("nan")}, "spectrum.scale"),
        ({"kind": "white", "scale": float("inf")}, "spectrum.scale"),
        ({"kind": "markov_server", "alpha": "a"}, "alpha"),
        ({"kind": "markov_server", "beta": "b"}, "beta"),
        ({"kind": "markov_server", "alpha": 1.5}, "alpha 1.5"),
        ({"kind": "markov_server", "mean": float("nan")}, "spectrum.mean"),
        ({"kind": "markov_server", "mean": [0.5, float("inf")]},
         "spectrum.mean"),
        ({"kind": "markov_server", "mean": "x"}, "spectrum.mean"),
        ({"kind": "autocovariance", "lags": ["x"]}, "spectrum.lags"),
        ({"kind": "autocovariance",
          "lags": [[[0.2, 0.0], [0.0, 0.2]], [[float("inf"), 0.0],
                                              [0.0, 0.0]]]},
         "spectrum.lags"),
        ({"kind": "autocovariance", "lags": [[0.2, 0.0], [0.0, 0.2]]},
         "spectrum.lags")],
        ids=["text_floor", "negative_floor", "nan_floor", "inf_floor",
             "text_scale", "zero_scale", "negative_scale", "nan_scale",
             "inf_scale", "text_alpha", "text_beta", "alpha_above_one",
             "nan_mean", "inf_mean",
             "text_mean", "text_lags", "inf_lags", "unstacked_lags"])
    def test_bad_spectrum_number(self, tmp_path, capsys, bad, key):
        # regression: text failed naming no key, a negative or NaN floor
        # was dropped silently, a NaN mean was written to the design and
        # an infinite lag gave theory_mse NaN with exit 0
        cfg_path, _ = base_config(tmp_path, mech="lms_smoother", spectrum=bad)
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and key in err
        assert not out.exists()

    def test_bad_markov_source_number(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, source={"kind": "markov_server",
                                                    "beta": "b"})
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--design", str(out),
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "beta must be a number" in err

    def test_markov_spectrum_without_selectors(self, tmp_path, capsys):
        cfg_path, _ = base_config(
            tmp_path, mech="lms_smoother",
            spectrum={"kind": "markov", "Pi": [[0.5, 0.5], [0.5, 0.5]]})
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(tmp_path / "d.json")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "'selectors'" in err

    def test_spectrum_file_key_rejected(self, tmp_path, capsys):
        cfg_path, _ = base_config(
            tmp_path, mech="lms_smoother",
            spectrum={"kind": "markov_server", "file": "x.csv"})
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(tmp_path / "d.json")]) == 2
        err = capsys.readouterr().err
        assert "unknown spectrum keys" in err and "'file'" in err

    def test_unknown_mechanism_flag(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["design", "--config", str(cfg_path), "--mechanism",
                  "magic", "--out", str(tmp_path / "d.json")])
        assert exc.value.code == 2
        assert "invalid choice: 'magic'" in capsys.readouterr().err

    # the nine options that a shared parent parser gave every subcommand
    # and nothing read: --verbose on all five, --grid-n on the three that
    # run no grid and --seed on report
    @pytest.mark.parametrize("command,flag", [
        ("design", "--verbose"), ("sensitivity", "--verbose"),
        ("simulate", "--verbose"), ("markov-gen", "--verbose"),
        ("report", "--verbose"), ("simulate", "--grid-n"),
        ("markov-gen", "--grid-n"), ("report", "--grid-n"),
        ("report", "--seed")])
    def test_unread_flag_rejected(self, tmp_path, capsys, command, flag):
        # regression: `simulate --grid-n 64` silently ran at the design's
        # grid, and every flag here parsed and did nothing
        cfg, out = str(tmp_path / "c.yaml"), str(tmp_path / "out")
        argv = {"design": ["--config", cfg, "--out", out],
                "sensitivity": ["--config", cfg, "--out", out],
                "simulate": ["--design", cfg, "--report", out],
                "markov-gen": ["--alpha", "0.3", "--beta", "0.6",
                               "--steps", "10", "--out", out],
                "report": ["--inputs", cfg, "--out", out]}[command]
        value = [] if flag == "--verbose" else ["64"]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, flag, *value])
        assert not os.path.exists(out)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["design", "sensitivity"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_grid_n_override_checked(self, tmp_path, capsys, command, value):
        # regression: `design --grid-n 0` exited 1 with a ZeroDivisionError
        # traceback and --grid-n -3 exited 2 with a numpy FFT message; the
        # override skipped the check of the grid_n key
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "out.json"
        assert main([command, "--config", str(cfg_path), "--grid-n", value,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "grid_n must be at least 8" in err
        assert not out.exists()


# a privacy block that PrivacySpec refuses, and the key the error names
BAD_PRIVACY = pytest.mark.parametrize("field,value,key", [
    ("epsilon", 1e308, "privacy.epsilon"),
    ("epsilon", float("inf"), "privacy.epsilon"),
    ("k", [1.0, float("nan")], "privacy.k")],
    ids=["huge_epsilon", "infinite_epsilon", "nan_k"])


class TestBadPrivacyBlock:
    @BAD_PRIVACY
    def test_config_refused(self, tmp_path, capsys, field, value, key):
        # regression: epsilon 1e308 or .inf designed with exit 0 and wrote
        # noise_sigma and theory_mse NaN (2 epsilon overflows in kappa),
        # and a NaN k_i exited 4 blaming the filter ("column 2 is not
        # factorizable")
        cfg_path, doc = base_config(tmp_path)
        doc["privacy"][field] = value
        write_yaml(cfg_path, doc)
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @BAD_PRIVACY
    def test_stored_document_refused(self, tmp_path, capsys, field, value,
                                     key):
        # regression: each exited 5 with "kappa * sensitivity = nan",
        # blaming the noise instead of the privacy block
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        doc = load_json(design_path)
        doc["privacy"][field] = value
        with open(design_path, "w") as fh:
            json.dump(doc, fh)     # writes Infinity and NaN, as json reads
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert main(["simulate", "--design", str(design_path),
                     "--trials", "1", "--steps", "500",
                     "--report", str(report)]) == 2
        assert key in capsys.readouterr().err
        assert not report.exists()
