"""A derandomized mutation fuzzer over stored design documents.

One small design document of each mechanism kind gets one or two of its
fields deleted, set to null, text, NaN, +-inf, 1e308 or 10**6, or given
a wrong shape, and `dpfilt simulate` must then end in an outcome its
exit codes document: 0 with a finite report, 2 (bad input) or 5 (noise
below the privacy calibration). The one exit 4 is the ZFE load refusing
to invert a stored prefilter that is not minimum phase, the code that
tests/test_cli.py::TestTamperedDesign pins for it. Never a traceback.
"""

import contextlib
import copy
import io
import json
import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfilt import RationalFilter, TransferMatrix
from dpfilt.cli import main
from dpfilt.fileio import MECHANISMS, transfer_matrix_to_dict

MUTATIONS = ("delete", None, "x", math.nan, math.inf, -math.inf, 1e308,
             10 ** 6, "nest", "truncate")


def fields(value, path=()):
    """The paths of every field below a document node; a list's first and
    last elements stand for the rest."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = [(i, value[i]) for i in sorted({0, len(value) - 1})
                 if value]
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from fields(child, path + (key,))


def mutate(doc, path, mutation) -> None:
    """Apply one mutation at path; a path that an earlier mutation took
    away is left alone."""
    try:
        *parents, last = path
        block = doc
        for key in parents:
            block = block[key]
        value = block[last]
    except (KeyError, IndexError, TypeError):
        return
    if mutation == "delete":
        del block[last]
    elif mutation == "nest":
        block[last] = [value]
    elif mutation == "truncate":
        block[last] = value[:-1] if isinstance(value, list) else []
    else:
        block[last] = mutation


def simulate(root, doc) -> tuple:
    """(exit code, report or None, stderr) of `dpfilt simulate` on doc."""
    design, report = root / "tampered.json", root / "report.json"
    design.write_text(json.dumps(doc))     # NaN and Infinity, as json reads
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["simulate", "--design", str(design), "--trials", "1",
                     "--steps", "200", "--report", str(report)])
    out = json.loads(report.read_text()) if code == 0 else None
    return code, out, err.getvalue()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The directory the fuzzer writes in, and {config kind: (design
    document, its field paths)}."""
    root = tmp_path_factory.mktemp("fuzz")
    target = root / "target.yaml"
    target.write_text(yaml.safe_dump(transfer_matrix_to_dict(
        TransferMatrix.diagonal([RationalFilter([0.6, 0.3, 0.1])] * 2))))
    docs = {}
    for mech in MECHANISMS:
        config, out = root / f"{mech}.yaml", root / f"{mech}.json"
        config.write_text(yaml.safe_dump({
            "grid_n": 256, "seed": 7,
            "privacy": {"epsilon": 1.0, "delta": 0.1, "k": [1.0, 1.0]},
            "filter": {"file": str(target)}, "mechanism": {"kind": mech},
            "spectrum": {"kind": "markov_server", "alpha": 0.3,
                         "beta": 0.6, "floor": 1e-4},
            "source": {"kind": "markov_server", "alpha": 0.3, "beta": 0.6},
        }))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["design", "--config", str(config),
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        docs[mech] = doc, list(fields(doc))
    return root, docs


def test_mutate_reaches_nested_fields():
    doc = {"a": {"b": [1.0, 2.0, 3.0]}, "c": 1}
    assert list(fields(doc)) == [("a",), ("a", "b"), ("a", "b", 0),
                                 ("a", "b", 2), ("c",)]
    mutate(doc, ("a", "b"), "truncate")
    mutate(doc, ("c",), "nest")
    mutate(doc, ("a", "b", 2), math.inf)     # gone with the truncation
    assert doc == {"a": {"b": [1.0, 2.0]}, "c": [1]}
    mutate(doc, ("a",), "delete")
    mutate(doc, ("a", "b"), None)
    assert doc == {"c": [1]}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_mutated_document_fails_cleanly(documents, data):
    root, docs = documents
    mech = data.draw(st.sampled_from(sorted(docs)))
    doc, paths = copy.deepcopy(docs[mech][0]), docs[mech][1]
    edits = data.draw(st.lists(
        st.tuples(st.sampled_from(paths), st.sampled_from(MUTATIONS)),
        min_size=1, max_size=2))
    for path, mutation in edits:
        mutate(doc, path, mutation)
    code, report, err = simulate(root, doc)
    if code == 0:
        row = report["mechanisms"][doc["kind"]]
        values = [row["empirical_mse"], row["stderr"], row["noise_sigma"],
                  *report["bounds"].values()]
        if row["theory_mse"] is not None:
            values.append(row["theory_mse"])
        assert all(math.isfinite(v) for v in values), report
    elif code == 4:
        assert "UnstableInverse" in err and "refusing to invert" in err
    else:
        assert code in (2, 5), err
