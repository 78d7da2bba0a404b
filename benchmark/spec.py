"""Workload and span tables shared by the benchmark runner, the worker,
the tracer and the self-test. Standard library only: the runner imports
this before it knows whether the program is present."""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "workloads")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Per-check false-alarm rate of the Monte Carlo vs theory test (d).
MC_ALPHA = 1e-3
# Oracle-feedback DF check (e): the rule of tests/test_df.py.
ORACLE_STEPS = 120000
ORACLE_BURN = 500
ORACLE_REL_TOL = 0.10
# Relative slack for comparing two floats that the program and the check
# compute by the same formula in a different operation order.
FLOAT_SLACK = 1e-9

# Layer spans, as (layer, callable). The callable is an attribute of
# dpfilt.<layer>; "Class.method" spans are wrapped on the class. Per-sample
# helpers (decision_device, RationalFilter.filt, ...) are deliberately
# absent: wrapping them would cost more than the work they do.
SPANS = (
    ("sensitivity", "mimo_exact"),
    ("sensitivity", "mimo_bounds"),
    ("sensitivity", "diagonal_sensitivity"),
    ("lti", "simulate"),
    ("lti", "freq_response"),
    ("lti", "h2_norm"),
    ("lti", "effective_length"),
    ("spectral", "scalar_spectral_factor"),
    ("spectral", "matrix_canonical_factor"),
    ("lms", "optimize_prefilter_general"),
    ("lms", "lms_objective"),
    ("lms", "wiener_smoother"),
    ("lms", "causal_wiener"),
    ("lms", "CausalWienerFilter.apply"),
    ("lms", "monic_inverse_filter"),
    ("zfe", "design_diag_prefilter"),
    ("zfe", "assemble_zfe"),
    ("zfe", "zfe_mse_diag_bound"),
    ("zfe", "zfe_general_lower_bound"),
    ("df", "design_df"),
    ("df", "run_df_mechanism"),
    ("markov", "chain_spectrum"),
    ("markov", "sample_chain"),
    ("sim", "OccupancySource.sample"),
    ("sim", "run_mechanism"),
    ("sim", "empirical_mse"),
    ("sim", "compare_mechanisms"),
    ("fileio", "design_from_dict"),
    ("fileio", "design_to_dict"),
    ("fileio", "build_filter"),
    ("fileio", "spectrum_from_spec"),
    ("fileio", "source_from_spec"),
    ("cli", "validate_document"),
    ("cli", "cmd_design"),
    ("cli", "cmd_sensitivity"),
    ("cli", "cmd_simulate"),
)
SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, attr in SPANS)
LAYERS = tuple(dict.fromkeys(layer for layer, _ in SPANS))

# The command spans; they are the top level of every traced command.
COMMAND_SPANS = {"design": "cli.cmd_design",
                 "sensitivity": "cli.cmd_sensitivity",
                 "simulate": "cli.cmd_simulate"}

# Spans whose call count is a metric.
CALL_COUNTS = ("lti.simulate", "spectral.scalar_spectral_factor",
               "spectral.matrix_canonical_factor", "cli.validate_document")

# Counts read from a span's return value: metric -> (span, attribute
# path). Summed over the calls of one repetition.
RESULT_COUNTS = {
    "sensitivity.mimo_exact.horizon": ("sensitivity.mimo_exact",
                                       "horizon_used"),
    "spectral.matrix_canonical_factor.blocks": (
        "spectral.matrix_canonical_factor", "meta.blocks"),
}

# Metric names. END_TO_END are printed with --trace 0. With --trace 1 the
# per-layer metrics are COMMAND_LAYER (untraced command times too short
# and drift-prone to hold an end-to-end bound on server_df), the
# TRACE_METRICS of traced repetitions and the setup.* and trace.overhead
# figures.
END_TO_END = ("setup_s", "pipeline_s", "simulate_s", "mc_steps_per_s",
              "peak_rss_mb")
COMMAND_LAYER = ("design_s", "sensitivity_s")
TRACE_METRICS = tuple(f"{name}.self_s" for name in SPAN_NAMES) \
    + tuple(f"{name}.calls" for name in CALL_COUNTS) + tuple(RESULT_COUNTS) \
    + tuple(f"{layer}.errors" for layer in LAYERS)
PER_LAYER = COMMAND_LAYER + TRACE_METRICS + (
    "setup.import_s", "setup.config_s", "trace.overhead")

# name -> config file, and the spans each workload must fire at least once.
_COMMON_SPANS = (
    "sensitivity.mimo_exact", "sensitivity.mimo_bounds",
    "sensitivity.diagonal_sensitivity", "lti.simulate",
    "lti.freq_response", "lti.h2_norm", "lti.effective_length",
    "spectral.scalar_spectral_factor", "zfe.zfe_mse_diag_bound",
    "zfe.zfe_general_lower_bound", "sim.run_mechanism", "sim.empirical_mse",
    "sim.compare_mechanisms", "fileio.design_from_dict",
    "fileio.design_to_dict", "fileio.build_filter", "fileio.source_from_spec",
    "cli.validate_document", "cli.cmd_design", "cli.cmd_sensitivity",
    "cli.cmd_simulate",
)
WORKLOADS = {
    "bank_zfe": {
        "config": "bank_zfe.yaml",
        "theory": "theory_mse",
        "fires": _COMMON_SPANS + (
            "zfe.design_diag_prefilter", "zfe.assemble_zfe",
            "sim.OccupancySource.sample"),
    },
    "bank_lms_causal": {
        "config": "bank_lms_causal.yaml",
        "theory": "causal_mse_quadrature",
        "fires": _COMMON_SPANS + (
            "spectral.matrix_canonical_factor",
            "lms.optimize_prefilter_general", "lms.lms_objective",
            "lms.causal_wiener", "lms.CausalWienerFilter.apply",
            "lms.monic_inverse_filter", "fileio.spectrum_from_spec",
            "sim.OccupancySource.sample"),
    },
    "server_df": {
        "config": "server_df.yaml",
        "theory": None,
        "fires": _COMMON_SPANS + (
            "spectral.matrix_canonical_factor",
            "lms.optimize_prefilter_general", "lms.lms_objective",
            "lms.wiener_smoother", "df.design_df", "df.run_df_mechanism",
            "markov.chain_spectrum", "markov.sample_chain",
            "fileio.spectrum_from_spec"),
    },
}


def run_seconds() -> int:
    """Measuring time of one run, from BENCHMARK.json."""
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)["run_seconds"]


def config_path(workload: str) -> str:
    """Config file of a workload, relative to the repository root."""
    return os.path.relpath(os.path.join(CONFIG_DIR,
                                        WORKLOADS[workload]["config"]))
