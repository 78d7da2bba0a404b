"""Command-line entry point.

Subcommands: design, sensitivity, simulate, markov-gen, report. Every
output JSON embeds the tool version, the config echo and its hash, so a
run is reproducible from (config, seed) alone. Exit codes: 0 success,
2 config/input error, 3 numerical failure, 4 infeasible design, 5 a
stored design whose noise is below its privacy calibration
(InsufficientNoise).
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import sys

from . import __version__
from .config import Config, as_grid_n, as_number
from .errors import ConfigError, DpfiltError
from .fileio import (MECHANISMS, build_filter, design_from_dict,
                     design_to_dict, load_json, save_json, source_from_spec,
                     write_csv)
from .zfe import DEFAULT_FACTOR_ORDER, MechanismDesign


@functools.cache
def _validator(schema_name: str):
    """A shipped schema's validator, compiled once; tests check the schema."""
    import jsonschema
    ref = importlib.resources.files("dpfilt").joinpath("schemas", schema_name)
    schema = json.loads(ref.read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def validate_document(doc: dict, schema_name: str) -> None:
    """ConfigError naming the JSON path of the error that
    jsonschema.validate(doc, schema) raises, chained from it."""
    import jsonschema
    error = jsonschema.exceptions.best_match(
        _validator(schema_name).iter_errors(doc))
    if error is not None:
        raise ConfigError(f"{schema_name}: {error.json_path}: "
                          f"{error.message}") from error


def _make_design(cfg: Config) -> MechanismDesign:
    F = build_filter(cfg.filter)
    priv = cfg.privacy_spec()
    order = as_number(cfg.mechanism.get("factor_order", DEFAULT_FACTOR_ORDER),
                      "factor_order", integer=True)
    return MECHANISMS[cfg.mechanism["kind"]].build(cfg, F, priv, order)


def _fit_loss(cfg: Config, design: MechanismDesign):
    """theory_mse over the value an exact prefilter fit reaches, minus 1,
    with the info key of that value; None for a kind without one."""
    key = MECHANISMS[cfg.mechanism["kind"]].exact_fit_mse
    if key is None:
        return None
    return design.theory_mse / design.info[key] - 1.0, key


def cmd_design(args) -> int:
    cfg = Config.load(args.config)
    _apply_overrides(cfg, args)
    if args.mechanism is not None:
        cfg.mechanism = dict(cfg.mechanism)
        cfg.mechanism["kind"] = args.mechanism
    fit_tol = as_number(cfg.mechanism.get("fit_tol", 1e-3), "fit_tol")
    design = _make_design(cfg)
    doc = design_to_dict(design, config_echo=cfg.to_dict(),
                         config_hash=cfg.hash())
    validate_document(doc, "design.schema.json")
    save_json(doc, args.out, indent=None)   # postfilter taps, compactly
    loss = _fit_loss(cfg, design)
    if loss is not None and loss[0] > fit_tol:
        print(f"note: the prefilter fit loses {loss[0]:.3g} of the MSE "
              f"(theory_mse / {loss[1]} - 1), above fit_tol {fit_tol:g}; "
              "raise mechanism.factor_order to recover it (per-channel "
              "residuals are in info.prefilter_fit_errors)", file=sys.stderr)
    print(f"design written to {args.out} "
          f"(kind={design.kind}, sigma={design.noise_sigma:.6g}, "
          f"theory_mse={design.theory_mse})")
    return 0


def cmd_sensitivity(args) -> int:
    from .sensitivity import mimo_exact
    cfg = Config.load(args.config)
    _apply_overrides(cfg, args)
    F = build_filter(cfg.filter)
    report = mimo_exact(F, cfg.privacy_spec().k_vector())
    doc = {
        "tool_version": __version__,
        "config_hash": cfg.hash(),
        **report.to_dict(),
        "lower_equals_exact": bool(abs(report.exact - report.lower)
                                   <= 1e-9 * max(report.exact, 1e-300)),
        "upper_equals_exact": bool(abs(report.exact - report.upper)
                                   <= 1e-9 * max(report.exact, 1e-300)),
        "bounds_consistent": bool(
            report.lower <= report.exact * (1 + 1e-9)
            and report.exact <= report.upper * (1 + 1e-9)),
    }
    save_json(doc, args.out)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    from .sim import compare_mechanisms
    doc = load_json(args.design)
    validate_document(doc, "design.schema.json")
    design = design_from_dict(doc)
    if args.domain is not None:
        from .df import DfDesign, decision_op
        if not isinstance(design.postfilter, DfDesign):
            raise ConfigError(f"--domain applies to decision_feedback "
                              f"designs only; this design is {design.kind}")
        decision_op(args.domain)
        design.postfilter.decision_domain = args.domain
    cfg = Config.from_dict(doc.get("config", {}))
    if args.seed is not None:
        cfg.seed = args.seed
    trials = cfg.simulate["trials"] if args.trials is None else args.trials
    steps = cfg.simulate["steps"] if args.steps is None else args.steps
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    block = {"kind": "csv", "csv": args.source} if args.source \
        else cfg.source
    source = source_from_spec(block, design.target.shape[1])
    out = compare_mechanisms(design, source, trials=trials, T=steps,
                             seed=cfg.seed, plots_dir=args.plots,
                             timing=args.timing)
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
    write_csv(args.out, sample_chain(src, args.steps, seed),
              [f"u{c + 1}" for c in range(src.n_channels)])
    print(f"wrote {args.steps} steps x {src.n_channels} channels "
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
    """The --seed and --grid-n overrides of design and sensitivity."""
    if args.seed is not None:
        cfg.seed = args.seed
    if args.grid_n is not None:
        cfg.grid_n = as_grid_n(args.grid_n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfilt",
        description="Design and simulate differentially private "
                    "approximations of MIMO filters on event streams.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    # design and sensitivity hash the grid size into their output
    grid = argparse.ArgumentParser(add_help=False, parents=[seed])
    grid.add_argument("--grid-n", type=int, default=None,
                      help="override the frequency grid size (at least 8)")

    p = sub.add_parser("design", parents=[grid],
                       help="design a mechanism from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--mechanism", default=None, choices=MECHANISMS,
                   help="override the config mechanism kind")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("sensitivity", parents=[grid],
                       help="sensitivity report for the target filter")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("simulate", parents=[seed],
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

    p = sub.add_parser("markov-gen", parents=[seed],
                       help="sample the idle/busy server example")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_markov_gen)

    p = sub.add_parser("report",
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
