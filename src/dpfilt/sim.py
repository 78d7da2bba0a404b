"""End-to-end experiment harness: desired filter banks, synthetic input
sources, mechanism runners, empirical MSE estimation and mechanism
comparison reports."""

from __future__ import annotations

import importlib.resources
import json
import time

import numpy as np

from .config import as_number
from .df import DfDesign, run_df_mechanism
from .errors import ConfigError, MissingForecastModel
from .lti import (RationalFilter, TransferMatrix, effective_length,
                  freq_response, simulate)
from .zfe import MechanismDesign


def _load_data(name: str) -> dict:
    ref = importlib.resources.files("dpfilt").joinpath("data", name)
    return json.loads(ref.read_text())


def moving_average(length: int) -> RationalFilter:
    """FIR averaging the previous `length` samples, lags 1 to `length`."""
    taps = np.zeros(1 + length)
    taps[1:] = 1.0 / length
    return RationalFilter(taps)


def gaussian_fir() -> RationalFilter:
    """Length-20 Gaussian-shaped low-pass with unit DC gain (fixture)."""
    return RationalFilter(_load_data("gaussian_fir.json")["taps"])


def default_forecast_model() -> dict:
    return _load_data("forecast_default.json")


def occupancy_filter_bank(forecast: dict | None = None) -> TransferMatrix:
    """The 3-output monitoring bank: a 20-step moving-average row over
    zones 1-5, a Gaussian low-pass row over zones 5-12, and a forecast
    row driven by a shared AR(4) model with inputs at lags 0 and 2.

    The forecast coefficients default to the shipped toolkit-fitted
    values (see data/forecast_default.json); pass a dict with keys
    'a' (4), 'b0' (15) and 'b1' (15) to supply an identified model.
    """
    m = 15
    if forecast is None:
        forecast = default_forecast_model()
    try:
        a = np.asarray(forecast["a"], dtype=float)
        b0 = np.asarray(forecast["b0"], dtype=float)
        b1 = np.asarray(forecast["b1"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingForecastModel(
            f"forecast model must provide 'a', 'b0', 'b1': {exc}") from exc
    if a.size != 4 or b0.size != m or b1.size != m:
        raise MissingForecastModel(
            f"forecast model sizes must be a:4, b0:{m}, b1:{m}")
    den3 = np.concatenate([[1.0], -a])
    f1 = moving_average(20)
    f2 = gaussian_fir()
    zero = RationalFilter([0.0])
    row1 = [f1 if j < 5 else zero for j in range(m)]
    row2 = [f2 if 4 <= j <= 11 else zero for j in range(m)]
    row3 = [RationalFilter([b0[j], 0.0, b1[j]], den3) for j in range(m)]
    return TransferMatrix([row1, row2, row3])


def demo_filter(length: int = 8) -> TransferMatrix:
    """Toolkit-chosen 2x2 demonstration target for the server example:
    per-channel moving averages (not part of any published design)."""
    return TransferMatrix.diagonal([moving_average(length)] * 2)


class OccupancySource:
    """Independent Poisson count streams with a daily rate modulation.

    Rates lambda_i(t) = rate_i * (1 + amplitude * sin(2 pi t / period
    + phase_i)), tabulated per run for at most one period and repeated
    exactly; the modulation averages to one so the configured rate is the
    long-run mean.
    """

    name = "occupancy"

    def __init__(self, m: int = 15, rates=None, period: int = 480,
                 amplitude: float = 0.6, phase_seed: int = 7):
        self.m = m
        if rates is None:
            rng = np.random.default_rng(phase_seed)
            rates = rng.uniform(0.4, 2.0, m)
        try:
            self.rates = np.atleast_1d(np.asarray(rates, dtype=float))
        except (TypeError, ValueError):
            raise ConfigError(f"rates must be numbers, got {rates!r}"
                              ) from None
        if self.rates.size == 1:
            self.rates = np.full(m, float(self.rates[0]))
        if self.rates.size != m:
            raise ConfigError("rates length must match channel count")
        if not np.all(np.isfinite(self.rates) & (self.rates >= 0.0)):
            raise ConfigError(f"rates must be finite and nonnegative, got "
                              f"{self.rates.tolist()}")
        self.period = as_number(period, "period", integer=True)
        if self.period < 1:
            raise ConfigError(f"period must be at least 1, got {period}")
        self.amplitude = as_number(amplitude, "amplitude")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError("amplitude must lie in [0, 1)")
        rng = np.random.default_rng(phase_seed + 1)
        self.phases = rng.uniform(0.0, 2.0 * np.pi, m)

    def sample(self, T: int, seed: int) -> np.ndarray:
        # the rates of the first min(T, period) steps (one row when flat),
        # never negative since the rates are not and amplitude < 1; whole
        # repeats of them, drawn in the C order of a (T, m) rate array
        p = np.arange(min(max(T, 1), self.period if self.amplitude else 1))
        lam = self.rates * (1.0 + self.amplitude * np.sin(
            2.0 * np.pi * p[:, None] / self.period + self.phases))
        data = np.random.default_rng(seed).poisson(
            lam, size=(-(-T // len(lam)),) + lam.shape)
        return data.reshape(-1, self.m)[:T].astype(float)


class FixedStreamSource:
    """A fixed (T, m) array read from CSV; sampling ignores the seed and
    returns the leading T rows."""

    name = "csv"

    def __init__(self, data: np.ndarray):
        self.data = data

    def sample(self, T: int, seed: int) -> np.ndarray:
        if T > len(self.data):
            raise ConfigError(
                f"fixed stream has {len(self.data)} rows, need {T}")
        return self.data[:T]


def run_mechanism(design: MechanismDesign, u: np.ndarray,
                  seed: int) -> np.ndarray:
    """Apply a designed mechanism to one (T, m) input: the release
    v = G (u - mu) + noise, the postfilter, then F(1) mu added back.
    Returns the (T, p) output.

    A DF postfilter runs in `run_df_mechanism`, which also takes a list
    of inputs with a list of seeds and returns the list of outputs, run
    in one closed loop over all trials.
    """
    if isinstance(design.postfilter, DfDesign):
        run = run_df_mechanism(design, u, seed)
        return [out for out, _ in run] if isinstance(run, list) else run[0]
    y = design.postfilter.apply(design.release(u, seed))
    y += design.target.dc_gain() @ design.mu
    return y


def _margins(design: MechanismDesign, T):
    """(burn, tail) of a run of T steps, elementwise for an array of T."""
    lead = effective_length(design.target)
    post_lead, tail = design.postfilter.margins()
    lead = max(lead, post_lead)
    # 10x the effective filter memory, capped at a third of the run:
    # near-circle poles make the energy-based length extremely
    # conservative while the residual transient amplitude is negligible
    burn = np.minimum(10 * lead, np.maximum(T // 3, 1))
    tail = np.minimum(max(tail, 1), np.maximum(T // 8, 1))
    return burn, tail


def empirical_mse(design: MechanismDesign, source,
                  trials: int, T: int, seed: int) -> tuple[float, float]:
    """Monte Carlo MSE of a mechanism against its target filter.

    Averages |y_t - yhat_t|^2 over time (after burn-in, before the
    smoother margin) and reports (mean, standard error) across trials.
    """
    burn, tail = _margins(design, T)
    if T - burn - tail < 32:
        # the margins take at most T // 3 + T // 8 steps, so every run of
        # 60 steps or more leaves 32; past the shortest run that does,
        # every longer one does too
        runs = np.arange(1, 61)
        shortest = runs[runs - np.add(*_margins(design, runs)) >= 32][0]
        raise ConfigError(
            f"a run of T={T} steps leaves no analysis window after burn-in "
            f"{burn}; this design needs at least {shortest} steps "
            "(simulate.steps or --steps)")
    children = [child.spawn(2)
                for child in np.random.SeedSequence(seed).spawn(trials)]

    def trial_mse(u: np.ndarray, yhat: np.ndarray) -> float:
        y = simulate(design.target, u)
        err = y[burn: T - tail] - yhat[burn: T - tail]
        return float(np.mean(np.sum(err ** 2, axis=1)))

    if isinstance(design.postfilter, DfDesign):
        # DF steps every trial in one closed loop; linear kinds run one
        # trial at a time, so only one input is alive at once
        inputs = [source.sample(T, child[0]) for child in children]
        yhats = run_mechanism(design, inputs,
                              [child[1] for child in children])
        vals = [trial_mse(u, yhat) for u, yhat in zip(inputs, yhats)]
    else:
        vals = []
        for child in children:
            u = source.sample(T, child[0])
            vals.append(trial_mse(u, run_mechanism(design, u, child[1])))
    vals = np.asarray(vals)
    stderr = float(vals.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return float(vals.mean()), stderr


def _require_finite(kind: str, values: dict) -> None:
    if not np.all(np.isfinite(list(values.values()))):
        raise ConfigError(f"the {kind} report is not finite "
                          f"({values}): the stored noise_sigma, input_mean "
                          "or coefficients overflow float64")


def compare_mechanisms(design: MechanismDesign, source, trials: int = 5,
                       T: int = 10000, seed: int = 0, plots_dir=None,
                       timing: bool = False) -> dict:
    """Run a design on a source (a `name` and sample(T, seed), a (T, m)
    array) and collect its theory vs Monte Carlo MSE, and the ZFE bounds
    of its target and privacy, into the report document."""
    from .zfe import zfe_general_lower_bound, zfe_mse_diag_bound
    F, privacy = design.target, design.privacy
    Fg = freq_response(F)
    bounds = {"zfe_diag_bound": zfe_mse_diag_bound(Fg, privacy),
              "zfe_nuclear_bound": zfe_general_lower_bound(Fg, privacy)}
    del Fg      # not held through the trials (peak memory)
    # finite stored numbers can still overflow float64: the noise variance
    # and the bounds before the run, the Monte Carlo values after it
    sigma = float(design.noise_sigma)
    _require_finite(design.kind, dict(bounds, noise_variance=sigma * sigma))
    t0 = time.monotonic()
    mean, stderr = empirical_mse(design, source, trials, T, seed)
    row = {"kind": design.kind, "theory_mse": design.theory_mse,
           "empirical_mse": mean, "stderr": stderr,
           "noise_sigma": design.noise_sigma,
           "runtime_s": round(time.monotonic() - t0, 3) if timing else None}
    _require_finite(design.kind, dict(bounds, empirical_mse=mean,
                                      stderr=stderr))
    if isinstance(design.postfilter, DfDesign):
        # the domain this run decided in, --domain override included
        row["decision_domain"] = design.postfilter.decision_domain
    if plots_dir is not None:
        _write_plot_csv(design, source, T, seed, plots_dir)
    return {"target_shape": list(F.shape), "privacy": privacy.to_dict(),
            "bounds": bounds, "mechanisms": {design.kind: row},
            "config": {"trials": trials, "steps": T, "seed": seed,
                       "source": source.name}}


def _write_plot_csv(design: MechanismDesign, source, T: int,
                    seed: int, plots_dir) -> None:
    """The target output and its estimate over the first 2000 steps."""
    import os
    os.makedirs(plots_dir, exist_ok=True)
    u = source.sample(min(T, 2000), np.random.SeedSequence(seed))
    y = simulate(design.target, u)
    paths = np.hstack([y, run_mechanism(design, u, seed + 1)]).tolist()
    header = ["t"] + [f"{name}{i + 1}" for name in ("y", "yhat")
                      for i in range(y.shape[1])]
    with open(os.path.join(plots_dir, f"{design.kind}_paths.csv"),
              "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in enumerate(paths):
            fh.write(",".join([str(t)] + [repr(v) for v in row]) + "\n")
