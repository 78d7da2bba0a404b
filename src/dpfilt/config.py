"""Config file loading, validation and hashing for the CLI.

Unknown keys are rejected so typos fail loudly; every knob has a
documented default. All randomness downstream flows from the single
top-level seed, expanded per consumer with numpy's SeedSequence.spawn.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import yaml

from .errors import ConfigError
from .privacy import PrivacySpec

_TOP_KEYS = {"grid_n", "seed", "privacy", "filter", "mechanism", "spectrum",
             "source", "simulate"}
_PRIVACY_KEYS = {"epsilon", "delta", "k"}
_FILTER_KEYS = {"preset", "file", "forecast", "ma_length"}
_MECHANISM_KEYS = {"kind", "factor_order", "lookahead", "decision_domain",
                   "fit_tol"}
_SPECTRUM_KEYS = {"kind", "alpha", "beta", "Pi", "selectors", "lags",
                  "scale", "floor", "mean"}
_SOURCE_KEYS = {"kind", "alpha", "beta", "Pi", "selectors", "csv", "rates",
                "period", "amplitude"}
_SIMULATE_KEYS = {"trials", "steps"}
# libyaml's loader where PyYAML has it: the same safe schema, 5-10x
# faster on the workload configs
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _check_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(
            f"unknown {where} keys: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")


def load_yaml(path, what: str):
    """The YAML document in the file at path (None if it is empty);
    ConfigError naming `what` if it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return yaml.load(fh, Loader=_SAFE_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed {what}: {exc}") from exc


def as_number(value, key: str, integer: bool = False):
    """A config value as a float, or as an int if `integer` (a whole
    float such as 40.0 passes); ConfigError naming `key` otherwise."""
    try:
        num = float(value)
    except (TypeError, ValueError):
        num = None
    if num is None or (integer and not num.is_integer()):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return int(num) if integer else num


def as_grid_n(value) -> int:
    """A `grid_n` key or --grid-n override: an integer of at least 8."""
    n = as_number(value, "grid_n", integer=True)
    if n < 8:
        raise ConfigError(f"grid_n must be at least 8, got {n}")
    return n


@dataclass
class Config:
    grid_n: int = 1024
    seed: int = 0
    privacy: dict = field(default_factory=lambda: {
        "epsilon": 1.0, "delta": 0.1, "k": [1.0]})
    # the defaults of these three blocks are their fileio builders'
    filter: dict = field(default_factory=dict)
    mechanism: dict = field(default_factory=lambda: {"kind": "zfe"})
    spectrum: dict = field(default_factory=dict)
    source: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=lambda: {"trials": 5,
                                                    "steps": 10000})

    @classmethod
    def from_dict(cls, raw: dict) -> "Config":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        _check_keys(raw, _TOP_KEYS, "config")
        cfg = cls()
        if "grid_n" in raw:
            cfg.grid_n = as_grid_n(raw["grid_n"])
        if "seed" in raw:
            cfg.seed = as_number(raw["seed"], "seed", integer=True)
        for name, allowed in (("privacy", _PRIVACY_KEYS),
                              ("filter", _FILTER_KEYS),
                              ("mechanism", _MECHANISM_KEYS),
                              ("spectrum", _SPECTRUM_KEYS),
                              ("source", _SOURCE_KEYS),
                              ("simulate", _SIMULATE_KEYS)):
            if name in raw:
                block = raw[name]
                if not isinstance(block, dict):
                    raise ConfigError(f"{name} block must be a mapping")
                _check_keys(block, allowed, name)
                merged = dict(getattr(cfg, name))
                merged.update(block)
                setattr(cfg, name, merged)
        for key in _SIMULATE_KEYS:
            cfg.simulate[key] = as_number(cfg.simulate[key],
                                          f"simulate.{key}", integer=True)
        if cfg.simulate["trials"] < 1:
            raise ConfigError("simulate.trials must be at least 1, got "
                              f"{cfg.simulate['trials']}")
        from .fileio import MECHANISMS      # fileio imports this module
        kind = cfg.mechanism["kind"]
        if not isinstance(kind, str) or kind not in MECHANISMS:
            raise ConfigError(f"unknown mechanism kind {kind!r}; "
                              f"expected one of {tuple(MECHANISMS)}")
        return cfg

    @classmethod
    def load(cls, path) -> "Config":
        return cls.from_dict(load_yaml(path, "config") or {})

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def privacy_spec(self) -> PrivacySpec:
        block = self.privacy
        missing = _PRIVACY_KEYS - set(block)
        if missing:
            raise ConfigError(f"privacy block missing keys {sorted(missing)}")
        return PrivacySpec(epsilon=float(block["epsilon"]),
                           delta=float(block["delta"]), k=block["k"])
