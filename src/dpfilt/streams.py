"""Multi-channel discrete-time event streams and their CSV form."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class EventStream:
    """A rectangular block of samples, one column per named channel."""

    data: np.ndarray                 # shape (T, m)
    channels: list[str] = field(default_factory=list)
    dt_label: str = ""

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.data.ndim != 2:
            raise ConfigError("stream data must be a (T, m) array")
        if not self.channels:
            self.channels = [f"ch{i + 1}" for i in range(self.data.shape[1])]
        if len(self.channels) != self.data.shape[1]:
            raise ConfigError(
                f"{len(self.channels)} channel names for "
                f"{self.data.shape[1]} data columns")

    @property
    def length(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray) -> "EventStream":
        return EventStream(np.asarray(data, dtype=float),
                           list(self.channels), self.dt_label)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.channels)
            for row in self.data:
                writer.writerow([repr(float(v)) for v in row])

    @classmethod
    def load_csv(cls, path, dt_label: str = "") -> "EventStream":
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
                    f"non-numeric value in stream file {path}: {exc}"
                ) from exc
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
        return cls(data, list(header), dt_label)
