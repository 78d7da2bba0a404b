"""Every span the benchmark tracer wraps resolves to a dpfilt callable,
and every span a workload must fire still has a caller in dpfilt.

The span table lives in benchmark/spec.py, which is imported here as it
is and never edited; a rename or deletion in dpfilt that would break a
traced benchmark run, or leave a listed span unfired, fails this test.
"""

import ast
import glob
import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "benchmark")
sys.path.insert(0, BENCH)
from spec import SPANS, WORKLOADS  # noqa: E402

sys.path.remove(BENCH)


@pytest.mark.parametrize("layer,attr", SPANS,
                         ids=[f"{layer}.{attr}" for layer, attr in SPANS])
def test_span_resolves(layer, attr):
    home = importlib.import_module(f"dpfilt.{layer}")
    if "." in attr:
        # the tracer wraps a method on its class, through the class dict
        cls_name, method = attr.split(".")
        assert method in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, attr))


def unreferenced_spans(sources: dict, spans) -> list:
    """The spans ("layer.function" or "layer.Class.method") that no name
    or attribute read in `sources` ({layer: module source}) refers to
    outside the span's own definition; an import is no read."""
    trees = {layer: ast.parse(source) for layer, source in sources.items()}
    out = []
    for span in spans:
        layer, *path = span.split(".")
        own = trees[layer]
        for part in path:
            own = next((node for node in getattr(own, "body", ())
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name == part), None)
        stack = list(trees.values())
        while stack:
            node = stack.pop()
            if node is own:
                continue
            if isinstance(node, (ast.Name, ast.Attribute)) \
                    and isinstance(node.ctx, ast.Load) \
                    and getattr(node, "id", getattr(node, "attr", None)) \
                    == path[-1]:
                break
            stack.extend(ast.iter_child_nodes(node))
        else:
            out.append(span)
    return sorted(out)


def test_unreferenced_span_flagged():
    # a span called only by itself, or only imported, has no caller; the
    # last referrer of run going flags it
    sources = {"a": ("def run(n):\n"
                     "    return run(n - 1) if n else 0\n"
                     "class Box:\n"
                     "    def size(self):\n"
                     "        return self.size()\n"),
               "b": ("from a import Box, run\n"
                     "def main():\n"
                     "    return run(3)\n")}
    spans = ["a.run", "a.Box.size"]
    assert unreferenced_spans(sources, spans) == ["a.Box.size"]
    sources["b"] = "from a import Box, run\n"
    assert unreferenced_spans(sources, spans) == ["a.Box.size", "a.run"]


def test_fired_spans_have_a_caller():
    # benchmark/selftest.py fails a workload whose listed span never
    # fires; this catches the lost caller in dpfilt's own code first
    sources = {}
    for path in glob.glob(os.path.join(os.path.dirname(BENCH), "src",
                                       "dpfilt", "*.py")):
        with open(path) as fh:
            sources[os.path.basename(path)[:-3]] = fh.read()
    fired = {span for workload in WORKLOADS.values()
             for span in workload["fires"]}
    assert unreferenced_spans(sources, fired) == []
