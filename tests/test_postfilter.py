"""Designs carry their postfilter: the `postfilter` block of the design
document, its checks on load, and a `dpfilt simulate` that loads it
instead of re-deriving it."""

import importlib
import importlib.resources
import json
import os

import numpy as np
import pytest
import yaml

from dpfilt import DfDesign, RationalFilter, TransferMatrix
from dpfilt.cli import _make_design, build_parser, main
from dpfilt.config import Config
from dpfilt.errors import ConfigError
from dpfilt.fileio import (MECHANISMS, design_from_dict, design_to_dict,
                           load_json, transfer_matrix_to_dict)

MECHS = ("zfe", "output_perturbation", "lms_smoother", "lms_causal", "df")
STORED = ("lms_smoother", "lms_causal", "df")


def config(tmp_path, mech):
    """A 2-channel server config whose target DF can use (F* F invertible
    on the circle) and whose spectrum the floor keeps positive definite."""
    target = tmp_path / "target.yaml"
    f = RationalFilter([0.6, 0.3, 0.1])
    with open(target, "w") as fh:
        yaml.safe_dump(transfer_matrix_to_dict(
            TransferMatrix.diagonal([f, f])), fh)
    doc = {
        "grid_n": 256, "seed": 7,
        "privacy": {"epsilon": 1.0, "delta": 0.1, "k": [1.0, 1.0]},
        "filter": {"file": str(target)},
        "mechanism": {"kind": mech},
        "spectrum": {"kind": "markov_server", "alpha": 0.3, "beta": 0.6,
                     "floor": 1e-4},
        "source": {"kind": "markov_server", "alpha": 0.3, "beta": 0.6},
        "simulate": {"trials": 2, "steps": 2000},
    }
    path = tmp_path / f"{mech}.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return path


@pytest.fixture(scope="module")
def designs(tmp_path_factory):
    """mech -> (freshly designed MechanismDesign, its document after a
    JSON round trip)."""
    out = {}
    for mech in MECHS:
        cfg = Config.load(config(tmp_path_factory.mktemp(mech), mech))
        design = _make_design(cfg)
        doc = json.loads(json.dumps(design_to_dict(
            design, config_echo=cfg.to_dict())))
        out[mech] = (design, doc)
    return out


def releases(design, n=2, T=600):
    rng = np.random.default_rng(3)
    return [rng.normal(0.0, 1.0, size=(T, design.prefilter.shape[0]))
            for _ in range(n)]


class TestRoundTrip:
    @pytest.mark.parametrize("mech", MECHS)
    def test_loaded_postfilter_applies_bitwise_equal(self, designs, mech):
        design, doc = designs[mech]
        post = design.postfilter
        assert design.kind == doc["kind"] == MECHANISMS[mech].kind
        loaded = MECHANISMS[mech].load(doc, design.target, design.prefilter)
        assert type(loaded) is type(post)
        assert loaded.margins() == post.margins()
        if isinstance(post, DfDesign):
            # DF has no apply: its closed loop runs a batch of releases
            # through its forward filter
            def closed_loop(df):
                u_tilde = np.stack([df.forward.apply(v)
                                    for v in releases(design)], axis=1)
                return df.closed_loop(u_tilde, design.mu)
            for a, b in zip(closed_loop(loaded), closed_loop(post)):
                assert np.array_equal(a, b)
            return
        for v in releases(design):
            assert np.array_equal(loaded.apply(v), post.apply(v))

    @pytest.mark.parametrize("mech", MECHS)
    def test_load_then_dump_is_identity(self, designs, mech):
        # fileio writes exactly the document it loads
        _, doc = designs[mech]
        assert design_to_dict(design_from_dict(doc),
                              config_echo=doc["config"]) == doc

    def test_kept_bank_not_mutated_by_apply(self, designs):
        # a loaded causal postfilter keeps its FirBank after the first
        # apply; a second apply gives bitwise the same output
        design, doc = designs["lms_causal"]
        loaded = MECHANISMS["lms_causal"].load(doc, design.target,
                                               design.prefilter)
        v = releases(design, n=1)[0]
        first = loaded.apply(v)
        bank = loaded.bank()
        spectra = bank.spectra.copy()
        assert np.array_equal(loaded.apply(v), first)
        assert loaded.bank() is bank
        assert np.array_equal(bank.spectra, spectra)

    @pytest.mark.parametrize("mech", MECHS)
    def test_block_written_only_where_needed(self, designs, mech):
        _, doc = designs[mech]
        assert ("postfilter" in doc) == (mech in STORED)

    def test_causal_margin_is_the_applied_taps(self, designs):
        # the burn-in lead of a causal design is the length of the taps
        # apply runs, not of the design-time causal part mc
        design, _ = designs["lms_causal"]
        post = design.postfilter
        assert post.margins() == (post.taps.shape[0], 0)


def test_mechanism_kind_lists_agree():
    # the design schema admits exactly the document kinds of the
    # mechanism table, and `dpfilt design --mechanism` its config kinds
    schema = json.loads(importlib.resources.files("dpfilt").joinpath(
        "schemas", "design.schema.json").read_text())
    assert set(schema["properties"]["kind"]["enum"]) \
        == {row.kind for row in MECHANISMS.values()}
    design = build_parser()._subparsers._group_actions[0].choices["design"]
    option = next(a for a in design._actions if a.dest == "mechanism")
    assert list(option.choices) == list(MECHANISMS)


class TestStoredChecks:
    """Loading checks the numbers the schema leaves alone."""

    @pytest.mark.parametrize("mech,key", [("lms_smoother", "taps"),
                                          ("lms_causal", "taps"),
                                          ("df", "h1_taps"),
                                          ("df", "p_coeffs")])
    def test_non_finite(self, designs, mech, key):
        _, doc = designs[mech]
        doc = json.loads(json.dumps(doc))
        doc["postfilter"][key][-1][0][0] = float("nan")
        with pytest.raises(ConfigError, match="non-finite"):
            design_from_dict(doc)

    @pytest.mark.parametrize("mech,key", [("lms_smoother", "taps"),
                                          ("lms_causal", "taps"),
                                          ("df", "h1_taps"),
                                          ("df", "p_coeffs")])
    def test_wrong_shape(self, designs, mech, key):
        _, doc = designs[mech]
        doc = json.loads(json.dumps(doc))
        doc["postfilter"][key] = [row[:1] for row in doc["postfilter"][key]]
        with pytest.raises(ConfigError, match="shape"):
            design_from_dict(doc)

    def test_smoother_half_must_match_taps(self, designs):
        _, doc = designs["lms_smoother"]
        doc = json.loads(json.dumps(doc))
        doc["postfilter"]["half"] += 1
        with pytest.raises(ConfigError, match="half"):
            design_from_dict(doc)

    def test_non_monic_feedback(self, designs):
        _, doc = designs["df"]
        doc = json.loads(json.dumps(doc))
        doc["postfilter"]["p_coeffs"][0][0][0] = 1.0 + 1e-12
        with pytest.raises(ConfigError, match="monic"):
            design_from_dict(doc)


class TestSimulateLoadsStoredPostfilter:
    def design(self, tmp_path, mech):
        path = tmp_path / "design.json"
        assert main(["design", "--config", str(config(tmp_path, mech)),
                     "--out", str(path)]) == 0
        return path

    def simulate(self, tmp_path, design_path, *extra):
        return main(["simulate", "--design", str(design_path), *extra,
                     "--report", str(tmp_path / "report.json")])

    @pytest.mark.parametrize("mech", STORED)
    def test_old_document_fails_clearly(self, tmp_path, capsys, mech):
        path = self.design(tmp_path, mech)
        doc = load_json(path)
        del doc["postfilter"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert self.simulate(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "'postfilter' block" in err
        assert "re-run `dpfilt design`" in err

    @pytest.mark.parametrize("mech", STORED)
    def test_no_factorization_on_load(self, tmp_path, monkeypatch, mech):
        path = self.design(tmp_path, mech)

        def refuse(*args, **kwargs):
            raise AssertionError("simulate re-derived the postfilter")

        for layer, name in (("spectral", "matrix_canonical_factor"),
                            ("lms", "matrix_canonical_factor"),
                            ("df", "matrix_canonical_factor"),
                            ("fileio", "spectrum_from_spec"),
                            ("markov", "chain_spectrum"),
                            ("fileio", "chain_spectrum")):
            monkeypatch.setattr(importlib.import_module(f"dpfilt.{layer}"),
                                name, refuse)
        assert self.simulate(tmp_path, path) == 0

    def test_df_trials_run_in_run_df_mechanism(self, tmp_path, monkeypatch):
        # every DF trial of `dpfilt simulate` runs in the one closed loop
        # of run_df_mechanism, the function the DF diagnostics share
        import dpfilt.sim
        calls = []
        run = dpfilt.sim.run_df_mechanism

        def counted(design, stream, seed, **kwargs):
            calls.append(len(stream))
            return run(design, stream, seed, **kwargs)

        monkeypatch.setattr(dpfilt.sim, "run_df_mechanism", counted)
        assert self.simulate(tmp_path, self.design(tmp_path, "df")) == 0
        assert calls == [2]

    def test_df_design_builds_no_smoother(self, tmp_path, monkeypatch):
        # DF takes the LMS prefilter and noise from lms_prefilter and its
        # forward filter from the one Wiener smoother of lms, which it
        # calls once; it never realizes an LMS smoother postfilter
        import dpfilt.df
        import dpfilt.lms

        def refuse(*args, **kwargs):
            raise AssertionError("DF design built a smoother postfilter")

        calls = []
        smoother = dpfilt.df.wiener_smoother

        def counted(*args, **kwargs):
            calls.append(1)
            return smoother(*args, **kwargs)

        monkeypatch.setattr(dpfilt.lms.CausalWienerFilter, "from_grid",
                            refuse)
        monkeypatch.setattr(dpfilt.df, "wiener_smoother", counted)
        self.design(tmp_path, "df")
        assert calls == [1]

    @pytest.mark.parametrize("mech", STORED)
    def test_tampered_noise_still_refused(self, tmp_path, capsys, mech):
        path = self.design(tmp_path, mech)
        doc = load_json(path)
        doc["noise_sigma"] *= 0.5
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert self.simulate(tmp_path, path) == 5
        assert "InsufficientNoise" in capsys.readouterr().err

    def test_domain_overrides_stored_df(self, tmp_path):
        path = self.design(tmp_path, "df")
        doc = load_json(path)
        assert doc["info"]["decision_domain"] == "nonneg_integers"
        doc["info"]["decision_domain"] = "sign"
        assert design_from_dict(doc).postfilter.decision_domain == "sign"
        mse = {}
        for domain in ("nonneg_integers", "sign"):
            assert self.simulate(tmp_path, path, "--domain", domain) == 0
            report = load_json(tmp_path / "report.json")
            mse[domain] = \
                report["mechanisms"]["decision_feedback"]["empirical_mse"]
        assert mse["sign"] != mse["nonneg_integers"]


def counter(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; returns the
    list the calls append to."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestEachFilterSampledOnce:
    """Only the functions that hold rational filters sample them, each
    filter once, and an LMS or DF design forms its Wiener spectra
    (P_yv, P_v) once: at most 2 TransferMatrix.freq calls per `dpfilt
    design` of the target and the prefilter, 3 for DF, which samples the
    target twice, 1 for output perturbation (the target alone), and 1
    per `dpfilt simulate` (the report bounds)."""

    DESIGN_CEILING = {"zfe": 2, "output_perturbation": 1, "lms_smoother": 2,
                      "lms_causal": 2, "df": 3}

    @pytest.mark.parametrize("mech", MECHS)
    def test_design_and_simulate(self, tmp_path, monkeypatch, mech):
        import dpfilt.df
        import dpfilt.lms
        freq = counter(monkeypatch, TransferMatrix, "freq")
        lms_spectra = counter(monkeypatch, dpfilt.lms, "wiener_spectra")
        df_spectra = counter(monkeypatch, dpfilt.df, "wiener_spectra")
        path = tmp_path / "design.json"
        assert main(["design", "--config", str(config(tmp_path, mech)),
                     "--out", str(path)]) == 0
        assert len(freq) <= self.DESIGN_CEILING[mech]
        assert len(lms_spectra) + len(df_spectra) == (mech in STORED)
        freq.clear()
        assert main(["simulate", "--design", str(path),
                     "--report", str(tmp_path / "report.json")]) == 0
        assert len(freq) == 1

    @pytest.mark.parametrize("workload,ceiling", [
        ("bank_zfe", 2), ("bank_lms_causal", 2), ("server_df", 3)])
    def test_benchmark_workload_design(self, tmp_path, monkeypatch,
                                       workload, ceiling):
        # the workload configs name their files from the repository root
        monkeypatch.chdir(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        freq = counter(monkeypatch, TransferMatrix, "freq")
        assert main(["design", "--config",
                     f"benchmark/workloads/{workload}.yaml",
                     "--out", str(tmp_path / "design.json")]) == 0
        assert len(freq) <= ceiling
