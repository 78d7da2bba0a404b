"""Every span the benchmark tracer wraps resolves to a dpfilt callable.

The span table lives in benchmark/spec.py, which is imported here as it
is and never edited; a rename or deletion in dpfilt that would break a
traced benchmark run fails this test.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "benchmark")
sys.path.insert(0, BENCH)
from spec import SPANS  # noqa: E402

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
