"""File formats: filter definition files, spectrum specs, CSV streams,
and (de)serialization of mechanism designs to JSON documents."""

from __future__ import annotations

import csv
import json
from typing import Callable, NamedTuple

import numpy as np

from .config import as_number, load_yaml
from .df import (DECISION_DOMAINS, DEFAULT_DECISION_DOMAIN, DfDesign,
                 design_df)
from .errors import ConfigError, InsufficientNoise
from .lms import CausalWienerFilter, assemble_lms, lms_prefilter
from .lti import (RationalFilter, TransferMatrix, freq_response, h2_norm,
                  taps_grid)
from .markov import MarkovSource, chain_spectrum, server_example
from .privacy import PrivacySpec, noise_sigma
from .sensitivity import diagonal_sensitivity
from .zfe import (MechanismDesign, assemble_output_perturbation, assemble_zfe,
                  design_diag_prefilter, zfe_postfilter)


def transfer_matrix_to_dict(tm: TransferMatrix,
                            list_zero_rows: bool = False) -> dict:
    """The nonzero entries of tm; with list_zero_rows, an all-zero row
    lists its first (zero) entry, so every row lists one."""
    entries = []
    for i in range(tm.p):
        row = [(j, tm[i, j]) for j in range(tm.m)]
        kept = [(j, e) for j, e in row if not e.is_zero()]
        if not kept and list_zero_rows:
            kept = row[:1]
        for j, e in kept:
            entries.append({"row": i, "col": j,
                            "num": [float(v) for v in e.num],
                            "den": [float(v) for v in e.den]})
    return {"rows": tm.p, "cols": tm.m, "entries": entries}


def transfer_matrix_from_dict(d: dict) -> TransferMatrix:
    try:
        p, m = int(d["rows"]), int(d["cols"])
        zero = RationalFilter([0.0])
        grid = [[zero for _ in range(m)] for _ in range(p)]
        for n, e in enumerate(d["entries"]):
            coefs = {"num": e["num"], "den": e.get("den", [1.0])}
            for key, c in coefs.items():
                if not np.all(np.isfinite(np.asarray(c, dtype=float))):
                    raise ConfigError(f"entries[{n}].{key} has a non-finite "
                                      f"coefficient: {c!r}")
            grid[int(e["row"])][int(e["col"])] = RationalFilter(**coefs)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"malformed filter definition: {exc}") from exc
    return TransferMatrix(grid)


def load_filter_file(path) -> TransferMatrix:
    return transfer_matrix_from_dict(load_yaml(path, "filter file") or {})


def build_filter(block: dict):
    """Construct the target filter from a config `filter` block."""
    from .sim import demo_filter, occupancy_filter_bank
    if "file" in block and block["file"]:
        return load_filter_file(block["file"])
    preset = block.get("preset", "occupancy_bank")
    if preset == "occupancy_bank":
        return occupancy_filter_bank(forecast=block.get("forecast"))
    if preset == "markov_demo":
        length = as_number(block.get("ma_length", 8), "ma_length",
                           integer=True)
        if length < 1:
            raise ConfigError(f"ma_length must be at least 1, got {length}")
        return demo_filter(length)
    raise ConfigError(f"unknown filter preset {preset!r}")


def markov_from_spec(block: dict) -> MarkovSource:
    """The chain of a `markov_server` (alpha/beta example) or `markov`
    (explicit Pi + selectors) block; ConfigError naming a missing key."""
    if block.get("kind") == "markov_server":
        return server_example(as_number(block.get("alpha", 0.3), "alpha"),
                              as_number(block.get("beta", 0.6), "beta"))
    try:
        return MarkovSource(np.asarray(block["Pi"], dtype=float),
                            tuple(block["selectors"]))
    except KeyError as exc:
        raise ConfigError(f"markov block is missing {exc}; it needs 'Pi' "
                          "(the transition matrix) and 'selectors'") from exc


def _finite_floats(value, key: str) -> np.ndarray:
    """A config value as an array of finite floats; ConfigError naming
    `key` otherwise."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key} must be finite numbers, got {value!r}")
    return arr


def spectrum_from_spec(block: dict, N: int, m: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Build the public input spectrum (and mean) from a config block.

    kinds: 'white' (scale * I), 'markov_server' (alpha/beta example),
    'markov' (explicit Pi + selectors), 'autocovariance' (matrix lags,
    lag 0 first). An optional `floor` adds a white diagonal to keep the
    spectrum positive definite on the grid; it must be finite and
    nonnegative, a white `scale` finite and positive, and the `mean` and
    autocovariance `lags` finite.
    """
    kind = block.get("kind", "white")
    floor = as_number(block.get("floor", 0.0), "spectrum.floor")
    if not 0.0 <= floor < np.inf:
        raise ConfigError(f"spectrum.floor must be a finite nonnegative "
                          f"number, got {floor!r}")
    declared_mean = block.get("mean")
    if kind == "white":
        scale = as_number(block.get("scale", 1.0), "spectrum.scale")
        if not 0.0 < scale < np.inf:
            raise ConfigError(f"spectrum.scale must be a finite positive "
                              f"number, got {scale!r}")
        samples = np.repeat((scale * np.eye(m, dtype=complex))[None],
                            N + 1, axis=0)
        mean = np.zeros(m)
    elif kind in ("markov_server", "markov"):
        src = markov_from_spec(block)
        samples, mean = chain_spectrum(src, N)
        if src.n_channels != m:
            raise ConfigError(
                f"spectrum has {src.n_channels} channels, filter expects {m}")
    elif kind == "autocovariance":
        if "lags" not in block:
            raise ConfigError("autocovariance spectrum needs 'lags'")
        lags = _finite_floats(block["lags"], "spectrum.lags")
        if lags.ndim == 1:
            lags = lags[:, None, None]
        if lags.ndim != 3 or lags.shape[1:] != (m, m):
            raise ConfigError(f"spectrum.lags must be {m}x{m} matrices, "
                              f"one per lag, got shape {lags.shape}")
        # sum_k R_k e^{-j omega k} + sum_{k >= 1} R_k^T e^{j omega k}
        samples = taps_grid(lags, N)
        if lags.shape[0] > 1:
            samples += np.conj(taps_grid(np.swapaxes(lags[1:], 1, 2), N,
                                         first_lag=1))
        mean = np.zeros(m)
    else:
        raise ConfigError(f"unknown spectrum kind {kind!r}")
    if floor > 0.0:
        samples = samples + floor * np.eye(m)[None, :, :]
    if declared_mean is not None:
        mean = np.atleast_1d(_finite_floats(declared_mean, "spectrum.mean"))
        if mean.size == 1:
            mean = np.full(m, float(mean[0]))
        if mean.size != m:
            raise ConfigError("spectrum mean length must match channels")
    return samples, np.asarray(mean, dtype=float)


def read_csv(path) -> np.ndarray:
    """The (T, m) float array of a CSV stream: a header row of channel
    names, then one row of m finite numbers per time step."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"empty stream file: {path}") from None
        try:
            rows = [[float(v) for v in row] for row in reader if row]
        except ValueError as exc:
            raise ConfigError(
                f"non-numeric value in stream file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"stream file has no data rows: {path}")
    if any(len(r) != len(header) for r in rows):
        raise ConfigError(
            f"ragged rows in stream file {path}: every row must have "
            f"{len(header)} values")
    data = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        r, c = bad[0]
        raise ConfigError(
            f"non-finite value {data[r, c]!r} in stream file {path} at "
            f"data row {r + 1}, column {c + 1} ({header[c]!r}); every "
            f"value must be a finite number")
    return data


def write_csv(path, data: np.ndarray, channels) -> None:
    """Write a (T, m) stream under a header row of its m channel names."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(channels)
        for row in data:
            writer.writerow([repr(float(v)) for v in row])


def source_from_spec(block: dict, m: int):
    """Build a stream source of m channels from a config `source` block:
    an object whose sample(T, seed) is a (T, m) float array."""
    from .sim import FixedStreamSource, OccupancySource
    kind = block.get("kind", "occupancy")
    if kind in ("markov_server", "markov"):
        out = markov_from_spec(block)
    elif kind == "occupancy":
        out = OccupancySource(m=m, rates=block.get("rates"),
                              period=block.get("period", 480),
                              amplitude=block.get("amplitude", 0.6))
    elif kind == "csv":
        if "csv" not in block:
            raise ConfigError("csv source needs a 'csv' path")
        out = FixedStreamSource(read_csv(block["csv"]))
    else:
        raise ConfigError(f"unknown source kind {kind!r}")
    emitted = out.sample(1, 0).shape[1]
    if emitted != m:
        raise ConfigError(
            f"source emits {emitted} channels, filter expects {m}")
    return out


def _mean_to_list(mean):
    return None if mean is None else [float(v) for v in np.atleast_1d(mean)]


def design_to_dict(design: MechanismDesign, config_echo: dict | None = None,
                   config_hash: str | None = None) -> dict:
    from . import __version__
    info = {}
    for key, val in design.info.items():
        if isinstance(val, (int, float, str, bool)) or val is None:
            info[key] = val
        elif isinstance(val, (list, tuple)):
            info[key] = [float(v) for v in val]
    doc = {
        "tool_version": __version__,
        "kind": design.kind,
        # every output row is listed, so the entries bound target.rows
        "target": transfer_matrix_to_dict(design.target, list_zero_rows=True),
        "prefilter": transfer_matrix_to_dict(design.prefilter),
        "noise_sigma": design.noise_sigma,
        "privacy": design.privacy.to_dict(),
        "theory_mse": design.theory_mse,
        "lookahead": 0,
        "input_mean": _mean_to_list(design.input_mean),
        "info": info,
    }
    doc.update(_BY_DOCUMENT_KIND[design.kind].dump(design.postfilter))
    if config_echo is not None:
        doc["config"] = config_echo
    if config_hash is not None:
        doc["config_hash"] = config_hash
    return doc


def _design_zfe(cfg, F, privacy, order):
    G = design_diag_prefilter(freq_response(F, cfg.grid_n),
                              privacy.k_vector(), order=order)
    return assemble_zfe(F, G, privacy, cfg.grid_n)


def _design_lms(mode: str):
    def build(cfg, F, privacy, order):
        Pu, mean = spectrum_from_spec(cfg.spectrum, cfg.grid_n, F.shape[1])
        return assemble_lms(F, Pu, privacy, mode=mode, order=order,
                            input_mean=mean)
    return build


def _design_df(cfg, F, privacy, order):
    """Decision feedback around the LMS prefilter."""
    Pu, mean = spectrum_from_spec(cfg.spectrum, cfg.grid_n, F.shape[1])
    # design_df owns the defaults of the keys the config leaves out
    opts = {key: cfg.mechanism[key] for key in ("lookahead", "decision_domain")
            if key in cfg.mechanism}
    if "lookahead" in opts:
        opts["lookahead"] = as_number(opts["lookahead"], "lookahead",
                                      integer=True)
    G, sigma, info = lms_prefilter(freq_response(F, cfg.grid_n), Pu, privacy,
                                   order)
    design = design_df(F, Pu, privacy, G, sigma=sigma, input_mean=mean,
                       **opts)
    for key in ("optimal_objective", "achieved_objective",
                "prefilter_fit_errors"):
        design.info[key] = info[key]
    return design


def _prefilter_sensitivity(F, G, k) -> float:
    return diagonal_sensitivity(G, k)


def stored_taps(doc: dict, key: str, rows: int, cols: int) -> np.ndarray:
    """Array `key` of a design document's postfilter block as finite
    floats of shape (n, rows, cols), n >= 1; ConfigError otherwise."""
    if "postfilter" not in doc:
        raise ConfigError(
            f"this {doc.get('kind')} design document has no 'postfilter' "
            "block (it predates stored postfilters); re-run `dpfilt "
            "design` to write one")
    try:
        arr = np.asarray(doc["postfilter"][key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"postfilter {key} is missing or not a numeric "
                          f"array: {exc!r}") from exc
    if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1:] != (rows, cols):
        raise ConfigError(f"postfilter {key} has shape {arr.shape}, "
                          f"expected (n, {rows}, {cols})")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"postfilter {key} has non-finite values")
    return arr


def _dump_wiener(post: CausalWienerFilter) -> dict:
    """The taps, and a smoother's lookahead as its half-width `half`."""
    block = {"taps": post.taps.tolist()}
    if post.lookahead:
        block["half"] = post.lookahead
    return {"postfilter": block}


def _load_smoother(doc, F, G) -> CausalWienerFilter:
    """A smoother block also holds `half`, matching its 2 half + 1 taps."""
    taps = stored_taps(doc, "taps", *F.shape)
    half = int(doc["postfilter"].get("half", -1))
    if taps.shape[0] != 2 * half + 1:
        raise ConfigError(f"postfilter half {half} does not match "
                          f"{taps.shape[0]} smoother taps")
    return CausalWienerFilter(taps, half)


def _dump_df(post: DfDesign) -> dict:
    return {"lookahead": post.forward.lookahead,
            "postfilter": {"h1_taps": post.forward.taps.tolist(),
                           "p_coeffs": post.p_coeffs.tolist()}}


def _load_df(doc, F, G) -> DfDesign:
    """The decision domain comes from info.decision_domain, which
    `dpfilt simulate --domain` overrides."""
    m = F.shape[1]
    p = stored_taps(doc, "p_coeffs", m, m)
    if not np.array_equal(p[0], np.eye(m)):
        raise ConfigError("postfilter p_coeffs[0] must be the identity "
                          "(the feedback polynomial is monic)")
    domain = doc.get("info", {}).get("decision_domain",
                                     DEFAULT_DECISION_DOMAIN)
    if domain not in DECISION_DOMAINS:
        raise ConfigError(f"info.decision_domain is {domain!r}; expected"
                          f" one of {DECISION_DOMAINS}")
    taps = stored_taps(doc, "h1_taps", m, m)
    d = as_number(doc.get("lookahead", 0), "lookahead", integer=True)
    if not 0 <= d < len(taps):      # the taps hold lags -d..n-1-d
        raise ConfigError(f"lookahead {d} must lie in [0, {len(taps)}), "
                          "below the count of h1_taps")
    return DfDesign(forward=CausalWienerFilter(taps, d), p_coeffs=p,
                    decision_domain=domain)


class Mechanism(NamedTuple):
    """One mechanism kind. `kind` names it in design documents;
    build(cfg, F, privacy, factor_order) designs it from a config;
    load(doc, F, G) is the postfilter of its document, and dump(post)
    the document keys that store it (none where load derives it exactly
    from F and G); sensitivity(F, G, k) is what its noise covers, which
    the load check recomputes from the stored filters; exact_fit_mse is
    the info key of the theory_mse an exact prefilter fit reaches, or
    None where no such value is computed.

    A postfilter only post-processes the release, so a stored one is
    trusted on load: tampering can cost accuracy, never privacy."""

    kind: str
    build: Callable
    load: Callable
    dump: Callable
    sensitivity: Callable
    exact_fit_mse: str | None


# Every mechanism kind, keyed by its config name: a new kind is one row.
MECHANISMS = {
    "zfe": Mechanism("zero_forcing", _design_zfe,
                     lambda doc, F, G: zfe_postfilter(F, G), lambda post: {},
                     _prefilter_sensitivity, "diag_bound"),
    "lms_smoother": Mechanism("wiener_smoother", _design_lms("smoother"),
                              _load_smoother, _dump_wiener,
                              _prefilter_sensitivity, "optimal_objective"),
    # the allocation is optimal for the smoother, not for these two
    "lms_causal": Mechanism(
        "wiener_causal", _design_lms("causal"),
        lambda doc, F, G: CausalWienerFilter(
            stored_taps(doc, "taps", *F.shape)),
        _dump_wiener, _prefilter_sensitivity, None),
    "df": Mechanism("decision_feedback", _design_df, _load_df, _dump_df,
                    _prefilter_sensitivity, None),
    # publish F u + w: the noise covers |k|_2 ||F||_2 on every output
    "output_perturbation": Mechanism(
        "output_perturbation",
        lambda cfg, F, privacy, order: assemble_output_perturbation(
            F, privacy, cfg.grid_n),
        lambda doc, F, G: TransferMatrix.identity(F.shape[0]),
        lambda post: {},
        lambda F, G, k: float(np.linalg.norm(k)) * h2_norm(F), None),
}
_BY_DOCUMENT_KIND = {row.kind: row for row in MECHANISMS.values()}

# Relative float slack when comparing a stored noise scale against the
# same formula recomputed on load.
NOISE_SLACK = 1e-9


def design_from_dict(doc: dict) -> MechanismDesign:
    """Reconstruct a runnable design from its JSON document.

    The postfilter is loaded from the document's `postfilter` block (ZFE
    and output perturbation derive it exactly from the stored filters);
    nothing is re-optimized or re-factorized. The stored noise scale is
    then checked against kappa * the kind's sensitivity, recomputed from
    the stored filters (InsufficientNoise if below).
    """
    try:
        kind = doc["kind"]
        priv = PrivacySpec(**doc["privacy"])
        filters = []
        for key in ("target", "prefilter"):
            # checked before a matrix is built: a huge count allocates none
            if doc[key]["cols"] != priv.m:
                raise ConfigError(
                    f"{key}.cols is {doc[key]['cols']!r}, but privacy.k "
                    f"has {priv.m} entries, one per input channel")
            # so is the row count: a prefilter has m rows, or the target's
            # (output perturbation)
            if key == "target":
                bound = len(doc[key]["entries"])
                why = ("the count of target.entries: every output row "
                       "lists one (a zero row a zero entry)")
            else:
                bound = max(priv.m, filters[0].p)
                why = "the larger of len(privacy.k) and target.rows"
            if not doc[key]["rows"] <= bound:
                raise ConfigError(f"{key}.rows is {doc[key]['rows']!r}, "
                                  f"above {bound}, {why}")
            try:
                filters.append(transfer_matrix_from_dict(doc[key]))
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        F, G = filters
        sigma = as_number(doc["noise_sigma"], "noise_sigma")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed design document: {exc}") from exc
    row = _BY_DOCUMENT_KIND.get(kind)
    if row is None:
        raise ConfigError(f"unknown design kind {kind!r}")
    theory = doc.get("theory_mse")
    for key, val in (("noise_sigma", sigma), ("theory_mse", theory)):
        if val is not None and not np.isfinite(val):
            raise ConfigError(f"{key} must be a finite number, got {val}")
    mean = doc.get("input_mean")
    if mean is not None:
        mean = np.asarray(mean, dtype=float)
        if mean.shape != (priv.m,) or not np.all(np.isfinite(mean)):
            raise ConfigError(
                f"input_mean must be {priv.m} finite numbers, one per input "
                f"channel, got {doc['input_mean']!r}")
    design = MechanismDesign(
        kind=kind, target=F, prefilter=G, noise_sigma=sigma, privacy=priv,
        postfilter=row.load(doc, F, G), theory_mse=theory,
        input_mean=mean, info=dict(doc.get("info", {})))
    need = noise_sigma(row.sensitivity(F, G, priv.k_vector()), priv)
    # a NaN need (a non-finite filter coefficient) fails this too
    if not sigma >= need * (1.0 - NOISE_SLACK):
        raise InsufficientNoise(
            f"stored noise_sigma {sigma:.6g} is below kappa * sensitivity "
            f"= {need:.6g} for this {kind} design; refusing to run a "
            "design that would not meet its privacy claim")
    return design


def save_json(doc: dict, path, indent: int | None = 2) -> None:
    # one json.dumps string, which runs json's C encoder when compact;
    # json.dump to a file always runs the pure-Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
