"""Timing spans around the layer callables of dpfilt, installed from
outside the package.

A wrapper must replace a callable in every namespace it is looked up
from, not only in its home module: `dpfilt.sim.simulate` and
`dpfilt.df.lti_simulate` are `dpfilt.lti.simulate` under other names, and
`zfe`/`lms` import `scalar_spectral_factor` by name. `install` therefore
swaps every module attribute of every loaded dpfilt module that is the
original object. Names imported inside functions at call time (the CLI's
`from .df import design_df`) resolve to the patched home attribute.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

from spec import CALL_COUNTS, LAYERS, RESULT_COUNTS, SPAN_NAMES, SPANS


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records nested spans in memory; `install` wraps the span table."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self.counts = {name: 0 for name in RESULT_COUNTS}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        extractors = [(metric, path.split("."))
                      for metric, (span, path) in RESULT_COUNTS.items()
                      if span == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                   self.run_id))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.spans[idx].end = time.perf_counter()
                self._stack.pop()
            for metric, path in extractors:
                value = result
                for key in path:
                    value = value.get(key, 0) if isinstance(value, dict) \
                        else getattr(value, key, 0)
                self.counts[metric] += int(value or 0)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "dpfilt"
                                           or name.startswith("dpfilt."))]
        for layer, attr in SPANS:
            home = importlib.import_module(f"dpfilt.{layer}")
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of one traced repetition. A span's self time
        is its duration minus the durations of its child spans."""
        self_s = {name: 0.0 for name in SPAN_NAMES}
        calls = {name: 0 for name in SPAN_NAMES}
        for span in self.spans:
            dur = span.end - span.start
            self_s[span.name] += dur
            calls[span.name] += 1
            if span.parent is not None:
                self_s[self.spans[span.parent].name] -= dur
        out = {f"{name}.self_s": self_s[name] for name in SPAN_NAMES}
        out.update({f"{name}.calls": calls[name] for name in CALL_COUNTS})
        out.update(self.counts)
        out.update({f"{layer}.errors": n for layer, n in self.errors.items()})
        return out
