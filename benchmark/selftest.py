"""Self-test of the benchmark's tracing. Not collected by the repository's
test run (the file name does not match test_*.py); run it on its own from
the repository root:

    python3 -m pytest -q benchmark/selftest.py

It checks that the metric names of BENCHMARK.json are the ones run.py
prints. For each workload it runs one traced and one untraced repetition
with the same seed, then checks that
- every span the workload lists in spec.WORKLOADS fires at least once;
- the command spans are the only top-level spans and cover the traced
  wall time of each command;
- tracing does not perturb outputs: design and sensitivity documents are
  byte-identical and the reports equal apart from their timing fields.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from spec import (COMMAND_SPANS, END_TO_END, HERE, PER_LAYER, SPAN_NAMES,
                  WORKLOADS)

ROOT = os.path.dirname(HERE)
SEED = 7


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def _repetition(workload: str, out: str, trace: int) -> dict:
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--workload", workload, "--seed", str(SEED),
                    "--out", out, "--trace", str(trace),
                    "--t0", repr(time.monotonic())],
                   cwd=ROOT, env=env, check=True, timeout=300)
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def pair(request, tmp_path_factory):
    base = tmp_path_factory.mktemp(request.param)
    traced = _repetition(request.param, str(base / "traced"), 1)
    plain = _repetition(request.param, str(base / "plain"), 0)
    return request.param, base, traced, plain


def test_listed_spans_fire(pair):
    workload, _, traced, _ = pair
    fired = {span["name"] for span in traced["spans"]}
    assert fired <= set(SPAN_NAMES)
    missing = set(WORKLOADS[workload]["fires"]) - fired
    assert not missing, f"{workload}: spans never fired: {sorted(missing)}"


def test_command_spans_cover_commands(pair):
    _, _, traced, _ = pair
    spans = traced["spans"]
    top = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in top] == list(COMMAND_SPANS.values())
    for (command, _), span in zip(COMMAND_SPANS.items(), top):
        wall = traced["commands"][command]["seconds"]
        covered = span["end"] - span["start"]
        # argument parsing happens in cli.main, outside the command span
        assert 0.0 <= wall - covered <= 0.01 + 0.02 * wall, command
    # self times partition the time of the top-level spans
    total_self = sum(v for k, v in traced["layers"].items()
                     if k.endswith(".self_s"))
    total_top = sum(s["end"] - s["start"] for s in top)
    assert total_self == pytest.approx(total_top, rel=1e-9)
    assert all(v == 0 for k, v in traced["layers"].items()
               if k.endswith(".errors"))


def test_tracing_does_not_perturb_outputs(pair):
    _, base, _, _ = pair

    def read(kind: str, name: str) -> bytes:
        with open(base / kind / name, "rb") as fh:
            return fh.read()

    for name in ("design.json", "sensitivity.json"):
        assert read("traced", name) == read("plain", name), name
    reports = []
    for kind in ("traced", "plain"):
        doc = json.loads(read(kind, "report.json"))
        for row in doc["mechanisms"].values():
            assert row.pop("runtime_s") > 0.0
        reports.append(doc)
    assert reports[0] == reports[1]
