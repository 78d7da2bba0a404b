"""Command-line entry point.

Subcommands: design, sensitivity, simulate, markov-gen, report. Every
output JSON embeds the tool version, the config echo and its hash, so a
run is reproducible from (config, seed) alone. Exit codes: 0 success,
2 config/input error, 3 numerical failure, 4 infeasible design.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import sys

import numpy as np

from . import __version__
from .config import Config
from .errors import DpfiltError
from .fileio import (build_filter, design_from_dict, design_to_dict,
                     load_json, save_json, source_from_spec,
                     spectrum_from_spec)
from .zfe import MechanismDesign


def _load_schema(name: str) -> dict:
    ref = importlib.resources.files("dpfilt").joinpath("schemas", name)
    return json.loads(ref.read_text())


def validate_document(doc: dict, schema_name: str) -> None:
    import jsonschema
    jsonschema.validate(doc, _load_schema(schema_name))


def _make_design(cfg: Config) -> MechanismDesign:
    from .df import design_df
    from .lms import assemble_lms
    from .zfe import (assemble_output_perturbation, assemble_zfe,
                      design_diag_prefilter)
    F = build_filter(cfg.filter)
    priv = cfg.privacy_spec()
    N = cfg.grid_n
    kind = cfg.mechanism.get("kind", "zfe")
    order = int(cfg.mechanism.get("factor_order", 40))
    if kind == "zfe":
        G = design_diag_prefilter(F, priv.k_vector(), N=N, order=order)
        return assemble_zfe(F, G, priv, N)
    if kind == "output_perturbation":
        return assemble_output_perturbation(F, priv, N)
    Pu, mean = spectrum_from_spec(cfg.spectrum, N, F.shape[1])
    if kind in ("lms_smoother", "lms_causal"):
        mode = "smoother" if kind == "lms_smoother" else "causal"
        return assemble_lms(F, Pu, priv, mode=mode, N=N, order=order,
                            input_mean=mean)
    # decision feedback: reuse the LMS-optimized prefilter
    lms = assemble_lms(F, Pu, priv, mode="smoother", N=N, order=order,
                       input_mean=mean)
    return design_df(
        F, Pu, priv, lms.prefilter, sigma=lms.noise_sigma,
        lookahead=int(cfg.mechanism.get("lookahead", 2)),
        decision_domain=cfg.mechanism.get("decision_domain",
                                          "nonneg_integers"),
        N=N, input_mean=mean)


def cmd_design(args) -> int:
    cfg = Config.load(args.config)
    _apply_overrides(cfg, args)
    if args.mechanism is not None:
        from .config import MECHANISM_KINDS
        from .errors import ConfigError
        if args.mechanism not in MECHANISM_KINDS:
            raise ConfigError(f"unknown mechanism {args.mechanism!r}; "
                              f"expected one of {MECHANISM_KINDS}")
        cfg.mechanism = dict(cfg.mechanism)
        cfg.mechanism["kind"] = args.mechanism
    design = _make_design(cfg)
    doc = design_to_dict(design, config_echo=cfg.to_dict(),
                         config_hash=cfg.hash())
    if design.kind == "decision_feedback":
        doc["info"]["decision_domain"] = \
            design.postfilter.decision_domain
    validate_document(doc, "design.schema.json")
    save_json(doc, args.out)
    fit_tol = float(cfg.mechanism.get("fit_tol", 1e-3))
    residuals = design.info.get("prefilter_fit_errors", [])
    above = [i + 1 for i, r in enumerate(residuals) if r > fit_tol]
    if above:
        print(f"note: prefilter fit residual above {fit_tol:g} on "
              f"channel(s) {above} (near-circle spectrum zeros are "
              "order-limited; MSE-level accuracy is reported in "
              "theory_mse)", file=sys.stderr)
    print(f"design written to {args.out} "
          f"(kind={design.kind}, sigma={design.noise_sigma:.6g}, "
          f"theory_mse={design.theory_mse})")
    return 0


def cmd_sensitivity(args) -> int:
    from .sensitivity import mimo_bounds, mimo_exact
    cfg = Config.load(args.config)
    _apply_overrides(cfg, args)
    F = build_filter(cfg.filter)
    k = cfg.privacy_spec().k_vector()
    lower, upper = mimo_bounds(F, k)
    report = mimo_exact(F, k)
    doc = {
        "tool_version": __version__,
        "config_hash": cfg.hash(),
        "lower": report.lower,
        "upper": report.upper,
        "exact": report.exact,
        "horizon_used": report.horizon_used,
        "is_exact": report.is_exact,
        "lower_equals_exact": bool(abs(report.exact - report.lower)
                                   <= 1e-9 * max(report.exact, 1e-300)),
        "upper_equals_exact": bool(abs(report.exact - report.upper)
                                   <= 1e-9 * max(report.exact, 1e-300)),
        "bounds_consistent": bool(lower <= report.exact * (1 + 1e-9)
                                  and report.exact <= upper * (1 + 1e-9)),
    }
    save_json(doc, args.out)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    from .sim import compare_mechanisms, FixedStreamSource
    from .streams import EventStream
    doc = load_json(args.design)
    validate_document(doc, "design.schema.json")
    if args.domain is not None and doc.get("kind") == "decision_feedback":
        doc.setdefault("info", {})["decision_domain"] = args.domain
    design = design_from_dict(doc)
    cfg = Config.from_dict(doc.get("config", {}))
    if args.seed is not None:
        cfg.seed = args.seed
    trials = args.trials or int(cfg.simulate.get("trials", 5))
    steps = args.steps or int(cfg.simulate.get("steps", 10000))
    if args.source:
        if str(args.source).endswith(".csv"):
            source = FixedStreamSource(EventStream.load_csv(args.source),
                                       name="csv")
        else:
            raise DpfiltError(f"unsupported source file: {args.source}")
    else:
        source = source_from_spec(cfg.source, design.target.shape[1])
    report = compare_mechanisms(design.target, source, design.privacy,
                                {design.kind: design}, trials=trials,
                                T=steps, seed=cfg.seed,
                                plots_dir=args.plots, timing=args.timing)
    out = report.to_dict()
    out["tool_version"] = __version__
    out["config_hash"] = cfg.hash()
    validate_document(out, "report.schema.json")
    save_json(out, args.report)
    row = out["mechanisms"][design.kind]
    print(f"empirical_mse={row['empirical_mse']:.6g} "
          f"stderr={row['stderr']:.3g} theory={row['theory_mse']}")
    return 0


def cmd_markov_gen(args) -> int:
    from .markov import sample_chain, server_example
    src = server_example(args.alpha, args.beta)
    seed = args.seed if args.seed is not None else 0
    stream = sample_chain(src, args.steps, seed)
    stream.dt_label = args.dt_label
    stream.save_csv(args.out)
    print(f"wrote {args.steps} steps x {stream.n_channels} channels "
          f"to {args.out}")
    return 0


def cmd_report(args) -> int:
    merged = {"tool_version": __version__, "inputs": [], "mechanisms": {},
              "bounds": None}
    for path in args.inputs:
        doc = load_json(path)
        merged["inputs"].append(str(path))
        if "mechanisms" in doc:
            merged["mechanisms"].update(doc["mechanisms"])
            merged["bounds"] = merged["bounds"] or doc.get("bounds")
        elif "kind" in doc:
            merged["mechanisms"][doc["kind"]] = {
                "kind": doc["kind"],
                "theory_mse": doc.get("theory_mse"),
                "noise_sigma": doc.get("noise_sigma"),
            }
            info = doc.get("info", {})
            if merged["bounds"] is None and "diag_bound" in info:
                merged["bounds"] = {
                    "zfe_diag_bound": info["diag_bound"],
                    "zfe_nuclear_bound": info["nuclear_bound"],
                }
    save_json(merged, args.out)
    names = ", ".join(sorted(merged["mechanisms"])) or "none"
    print(f"merged report for mechanisms: {names}")
    return 0


def _apply_overrides(cfg: Config, args) -> None:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "grid_n", None) is not None:
        cfg.grid_n = args.grid_n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfilt",
        description="Design and simulate differentially private "
                    "approximations of MIMO filters on event streams.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--grid-n", type=int, default=None,
                        help="override the frequency grid size")
    common.add_argument("--verbose", action="store_true")

    p = sub.add_parser("design", parents=[common],
                       help="design a mechanism from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--mechanism", default=None,
                   help="override the config mechanism kind")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("sensitivity", parents=[common],
                       help="sensitivity report for the target filter")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo run of a designed mechanism")
    p.add_argument("--design", required=True)
    p.add_argument("--source", default=None,
                   help="CSV stream (defaults to the design's source block)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--plots", default=None)
    p.add_argument("--domain", default=None,
                   help="override the decision domain of a DF design")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock runtimes (non-deterministic)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("markov-gen", parents=[common],
                       help="sample the idle/busy server example")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dt-label", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_markov_gen)

    p = sub.add_parser("report", parents=[common],
                       help="merge design/simulation outputs")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DpfiltError as exc:
        code = getattr(exc, "exit_code", 3)
        print(f"dpfilt.{type(exc).__name__}: {exc}", file=sys.stderr)
        return code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
