"""Output checks of a benchmark run. They run in the runner process after
the timed repetitions, so they never count towards a timing.

Every check returns None when it holds and a one-line reason when it does
not. Thresholds come from spec.py and are fixed: a failing check is a
failing run, never a reason to widen a threshold.
"""

from __future__ import annotations

import json
import math
import os

import jsonschema
import numpy as np
from scipy import special, stats

from dpfilt.df import run_df_mechanism
from dpfilt.fileio import (design_from_dict, source_from_spec,
                           transfer_matrix_from_dict)
from dpfilt.lti import simulate
from dpfilt.sensitivity import diagonal_sensitivity

from spec import (FLOAT_SLACK, MC_ALPHA, ORACLE_BURN, ORACLE_REL_TOL,
                  ORACLE_STEPS, WORKLOADS)

_SCHEMAS = os.path.join("src", "dpfilt", "schemas")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def schema(doc: dict, name: str) -> str | None:
    """(a) The document validates against the program's JSON schema."""
    try:
        jsonschema.validate(doc, load(os.path.join(_SCHEMAS, name)))
    except jsonschema.ValidationError as exc:
        return f"{name}: {exc.message}"
    return None


def calibration(design: dict) -> str | None:
    """(b) Stored noise_sigma >= kappa * Delta, with Delta recomputed from
    the stored prefilter and kappa from the Gaussian-mechanism formula
    kappa = (K + sqrt(K^2 + 2 eps)) / (2 eps), K = Q^-1(delta)."""
    priv = design["privacy"]
    eps, delta = float(priv["epsilon"]), float(priv["delta"])
    K = -float(special.ndtri(delta))
    kappa = (K + math.sqrt(K * K + 2.0 * eps)) / (2.0 * eps)
    G = transfer_matrix_from_dict(design["prefilter"])
    needed = kappa * diagonal_sensitivity(G, priv["k"])
    sigma = float(design["noise_sigma"])
    if not sigma >= needed * (1.0 - FLOAT_SLACK):
        return f"noise_sigma {sigma!r} below kappa*Delta {needed!r}"
    return None


def sandwich(sens: dict) -> str | None:
    """(c) bounds_consistent holds and lower <= exact <= upper."""
    lo, ex, up = sens["lower"], sens["exact"], sens["upper"]
    if not (sens["bounds_consistent"] and lo <= ex <= up):
        return (f"sensitivity sandwich broken: lower {lo!r} exact {ex!r} "
                f"upper {up!r} consistent {sens['bounds_consistent']}")
    return None


def mc_threshold(trials: int) -> float:
    """Two-sided t quantile with trials - 1 degrees of freedom at the
    per-check false-alarm rate MC_ALPHA."""
    return float(stats.t.ppf(1.0 - MC_ALPHA / 2.0, trials - 1))


def monte_carlo(workload: str, design: dict, report: dict) -> str | None:
    """(d) Monte Carlo MSE agrees with the workload's theory value."""
    key = WORKLOADS[workload]["theory"]
    row = report["mechanisms"][design["kind"]]
    theory = row["theory_mse"] if key == "theory_mse" \
        else design["info"][key]
    z = (row["empirical_mse"] - theory) / row["stderr"]
    limit = mc_threshold(int(report["config"]["trials"]))
    if not abs(z) <= limit:
        return (f"Monte Carlo MSE {row['empirical_mse']!r} vs {key} "
                f"{theory!r}: |z| = {abs(z):.3g} > {limit:.3g}")
    return None


def oracle_df(design: dict, seed: int) -> str | None:
    """(e) With the true inputs fed back, the linear estimate's MSE of
    F(u - u_tilde) is within ORACLE_REL_TOL of assumed_correct_mse."""
    mech = design_from_dict(design)
    source = source_from_spec(design["config"]["source"],
                              mech.target.shape[1])
    child = np.random.SeedSequence(seed).spawn(2)
    u = source.sample(ORACLE_STEPS, child[0])
    _, diag = run_df_mechanism(mech, u, child[1], oracle_feedback=True)
    err = simulate(mech.target, u.data - diag["u_tilde"])
    mse = float(np.mean(np.sum(err[ORACLE_BURN:] ** 2, axis=1)))
    theory = float(design["info"]["assumed_correct_mse"])
    if not abs(mse / theory - 1.0) <= ORACLE_REL_TOL:
        return (f"oracle-feedback MSE {mse!r} vs assumed_correct_mse "
                f"{theory!r} beyond {ORACLE_REL_TOL:.0%}")
    return None


def repetition(workload: str, rep_dir: str) -> list[str | None]:
    """Per-repetition checks (a)-(d) on the files of one repetition."""
    design = load(os.path.join(rep_dir, "design.json"))
    sens = load(os.path.join(rep_dir, "sensitivity.json"))
    report = load(os.path.join(rep_dir, "report.json"))
    out = [schema(design, "design.schema.json"),
           schema(report, "report.schema.json"),
           calibration(design),
           sandwich(sens)]
    if WORKLOADS[workload]["theory"] is not None:
        out.append(monte_carlo(workload, design, report))
    return out


def n_repetition_checks(workload: str) -> int:
    return 4 + (WORKLOADS[workload]["theory"] is not None)
