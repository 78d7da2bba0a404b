import json

import numpy as np
import pytest
import yaml

from dpfilt.cli import main, validate_document
from dpfilt.config import Config
from dpfilt.errors import ConfigError
from dpfilt.fileio import (design_from_dict, load_json,
                           transfer_matrix_from_dict,
                           transfer_matrix_to_dict)
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
    def test_df_design_and_simulate(self, tmp_path):
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
        report_path = tmp_path / "report.json"
        assert main(["simulate", "--design", str(design_path),
                     "--trials", "2", "--steps", "4000",
                     "--report", str(report_path)]) == 0


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
        assert doc["theory_mse"] is None
        report_path = tmp_path / "report.json"
        assert main(["simulate", "--design", str(design_path),
                     "--trials", "2", "--steps", "5000",
                     "--report", str(report_path)]) == 0
        row = load_json(report_path)["mechanisms"]["wiener_causal"]
        assert row["empirical_mse"] > 0


class TestFilterFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        from dpfilt.fileio import load_filter_file, save_filter_file
        tm = TransferMatrix([[RationalFilter([1.0, 0.25], [1.0, -0.5])]])
        path = tmp_path / "f.yaml"
        save_filter_file(tm, path)
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

    def test_ragged_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0\n")
        from dpfilt import EventStream
        from dpfilt.errors import ConfigError
        with pytest.raises(ConfigError):
            EventStream.load_csv(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_rejected(self, tmp_path, capsys, value):
        # regression: float() parses nan/inf, which used to flow through
        cfg_path, _ = base_config(tmp_path)
        design_path = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg_path),
                     "--out", str(design_path)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,b\n1.0,2.0\n3.0,{value}\n")
        from dpfilt import EventStream
        from dpfilt.errors import ConfigError
        with pytest.raises(ConfigError, match=r"data row 2, column 2 \('b'\)"):
            EventStream.load_csv(bad)
        code = main(["simulate", "--design", str(design_path),
                     "--source", str(bad),
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err


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
