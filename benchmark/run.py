"""dpfilt benchmark runner.

    python3 benchmark/run.py --workload bank_zfe --seed 1 [--trace 0|1] \
        [--seconds N]

Run from the repository root. Each repetition is a fresh worker process
(worker.py) that sets dpfilt up and runs `design`, `sensitivity` and
`simulate --timing` through the real CLI, each once. Repetitions start
while the next one is expected to end within --seconds (default: the
`run_seconds` of BENCHMARK.json). The output checks of checks.py run
afterwards, outside every timed region. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics (medians over repetitions) for --trace 0 and the
per-layer metrics of traced repetitions for --trace 1. Exits non-zero
without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from spec import (COMMAND_LAYER, END_TO_END, HERE, RESULT_COUNTS,
                  TRACE_METRICS, WORKLOADS, config_path, run_seconds)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
# Every worker must end by this many seconds after the start, so the run
# exits well within 180 s even when the program regresses badly.
HARD_LIMIT_S = 150.0
COMMANDS = ("design", "sensitivity", "simulate")


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line and line.split()[-1]
                        .startswith("/")})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def machine() -> dict:
    """Hardware and library versions of this process."""
    import numpy
    import scipy.linalg  # noqa: F401 (loads scipy's OpenBLAS)
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = f"{dep['name']} {dep['version']}"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": blas_threads()}


def _import_program() -> None:
    """Import dpfilt from this checkout, never from anywhere else. Also
    compiles the bytecode and warms the file cache before any timing."""
    if not os.path.isfile(os.path.join(SRC, "dpfilt", "__init__.py")):
        raise SystemExit(f"error: no dpfilt sources under {SRC}; run from "
                         "the repository root")
    sys.path.insert(0, SRC)
    import dpfilt
    if os.path.dirname(os.path.abspath(dpfilt.__file__)) \
            != os.path.join(SRC, "dpfilt"):
        raise SystemExit(f"error: dpfilt imported from {dpfilt.__file__}")
    import dpfilt.cli    # noqa: F401
    import jsonschema    # noqa: F401


class Run:
    """Repetitions of one workload, with their temporary files."""

    def __init__(self, workload: str, seed: int, tmp: str, start: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.start = start
        self.reps: list[dict] = []

    def spawn(self, trace: bool) -> dict:
        out = os.path.join(self.tmp, f"worker{len(self.reps) + 1}")
        os.makedirs(out)
        env = dict(os.environ, TMPDIR=self.tmp,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        budget = max(HARD_LIMIT_S - (time.monotonic() - self.start), 1.0)
        t0 = time.monotonic()
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--out", out, "--trace", str(int(trace)), "--t0", repr(t0)]
        try:
            proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=budget,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {budget:.0f} s", file=sys.stderr)
            proc = None
        wall = time.monotonic() - t0
        path = os.path.join(out, "result.json")
        if proc is None or proc.returncode != 0 or not os.path.isfile(path):
            if proc is not None:
                print(proc.stderr[-2000:], file=sys.stderr)
            result = {"dir": out, "wall": wall, "trace": trace,
                      "commands": {}}
        else:
            with open(path) as fh:
                result = dict(json.load(fh), dir=out, wall=wall, trace=trace)
        self.reps.append(result)
        return result

    def left(self, seconds: float) -> float:
        return self.start + seconds - time.monotonic()


def ok(rep: dict) -> bool:
    cmds = rep["commands"]
    return all(cmds.get(c, {}).get("exit") == 0 for c in COMMANDS)


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Timed repetitions while the next one is expected to end in time.
    With tracing, repetitions alternate traced and untraced."""
    walls: list[float] = []
    while True:
        traced = trace and len(run.reps) % 2 == 0
        rep = run.spawn(traced)
        walls.append(rep["wall"])
        if not ok(rep) or time.monotonic() - run.start > HARD_LIMIT_S:
            break
        if len(run.reps) >= (2 if trace else 1) \
                and run.left(seconds) < statistics.median(walls):
            break


def _report_sans_timing(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    for row in doc["mechanisms"].values():
        row.pop("runtime_s", None)
    return doc


def check(run: Run, checks) -> tuple[int, list[str]]:
    """Run the output checks; returns (attempted, failure reasons)."""
    attempted, failures = 0, []

    def record(name: str, reason: str | None) -> None:
        nonlocal attempted
        attempted += 1
        if reason is not None:
            failures.append(f"{name}: {reason}")

    good = []
    for i, rep in enumerate(run.reps):
        for c in COMMANDS:
            code = rep["commands"].get(c, {}).get("exit")
            record(f"rep{i} {c}", None if code == 0 else f"exit {code}")
        n = checks.n_repetition_checks(run.workload)
        if not ok(rep):
            for _ in range(n):
                record(f"rep{i} checks", "not run: a command failed")
            continue
        good.append(rep)
        try:
            reasons = checks.repetition(run.workload, rep["dir"])
        except Exception as exc:    # a crash in a check is a failed check
            reasons = [f"{exc!r}"] * n
        for reason in reasons:
            record(f"rep{i}", reason)
    if not good:
        return attempted, failures

    # (f) byte-identical design documents for one seed: every repetition
    # and one more design made here.
    import dpfilt.cli
    extra = os.path.join(run.tmp, "check-design.json")
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = dpfilt.cli.main(["design", "--config",
                                    config_path(run.workload), "--seed",
                                    str(run.seed), "--out", extra])
        paths = [extra] + [os.path.join(r["dir"], "design.json")
                           for r in good]
        distinct = len({pathlib.Path(p).read_bytes() for p in paths})
        reason = None if code == 0 and distinct == 1 else \
            f"exit {code}, {distinct} distinct design documents"
    except Exception as exc:
        reason = f"{exc!r}"
    record("design bytes", reason)

    design = checks.load(os.path.join(good[0]["dir"], "design.json"))
    if design["kind"] == "decision_feedback":      # (e)
        try:
            reason = checks.oracle_df(design, run.seed)
        except Exception as exc:
            reason = f"{exc!r}"
        record("oracle DF", reason)

    traced = [r for r in good if r["trace"]]
    plain = [r for r in good if not r["trace"]]
    if traced and plain:        # tracing must not perturb outputs
        ref = _report_sans_timing(os.path.join(plain[0]["dir"],
                                               "report.json"))
        same = all(_report_sans_timing(os.path.join(r["dir"], "report.json"))
                   == ref for r in traced)
        record("traced report", None if same
               else "traced report differs from the untraced one")
    return attempted, failures


def _pipeline(rep: dict) -> float:
    return sum(rep["commands"][c]["seconds"] for c in COMMANDS)


def _mc_steps_per_s(rep: dict) -> float:
    with open(os.path.join(rep["dir"], "report.json")) as fh:
        doc = json.load(fh)
    (row,) = doc["mechanisms"].values()
    cfg = doc["config"]
    return cfg["trials"] * cfg["steps"] / row["runtime_s"]


def command_metrics(reps: list[dict]) -> dict:
    """Medians over untraced repetitions of each command's time, the
    pipeline time, Monte Carlo throughput and peak RSS."""
    med = statistics.median
    if not reps:
        return {}
    metrics = {f"{c}_s": (med(r["commands"][c]["seconds"] for r in reps),
                          "s") for c in COMMANDS}
    metrics["pipeline_s"] = (med(_pipeline(r) for r in reps), "s")
    metrics["mc_steps_per_s"] = (med(_mc_steps_per_s(r) for r in reps),
                                 "steps/s")
    metrics["peak_rss_mb"] = (med(r["peak_rss_mb"] for r in reps), "MB")
    return metrics


def end_to_end(run: Run) -> dict:
    metrics = command_metrics([r for r in run.reps if ok(r)])
    setups = [r["setup_s"] for r in run.reps if "setup_s" in r]
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
    return {name: metrics[name] for name in END_TO_END if name in metrics}


def per_layer(run: Run) -> dict:
    traced = [r for r in run.reps if ok(r) and r["trace"]]
    plain = [r for r in run.reps if ok(r) and not r["trace"]]
    med = statistics.median
    metrics = {name: value for name, value in command_metrics(plain).items()
               if name in COMMAND_LAYER}
    units = {"self_s": "s", "calls": "count", "errors": "count"}
    units.update({name.rsplit(".", 1)[1]: "count" for name in RESULT_COUNTS})
    if traced:
        for name in TRACE_METRICS:
            metrics[name] = (med(r["layers"][name] for r in traced),
                             units[name.rsplit(".", 1)[1]])
    good = [r for r in run.reps if "import_s" in r]
    if good:
        metrics["setup.import_s"] = (med(r["import_s"] for r in good), "s")
        metrics["setup.config_s"] = (med(r["config_s"] for r in good), "s")
    if traced and plain:
        metrics["trace.overhead"] = (
            med(_pipeline(r) for r in traced)
            / med(_pipeline(r) for r in plain) - 1.0, "ratio")
    return metrics


def write_trace(run: Run) -> str:
    """Keep the spans of the traced repetitions after the run."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{run.workload}-{run.seed}.json")
    with open(path, "w") as fh:
        json.dump([{"run_id": os.path.basename(r["dir"]),
                    "layers": r["layers"], "spans": r["spans"]}
                   for r in run.reps if r["trace"] and ok(r)], fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated runner still stops and reaps its worker: SystemExit
    # unwinds through subprocess.run, which kills the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    _import_program()
    print(json.dumps({"machine": machine()}), file=sys.stderr)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                           dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        run = Run(args.workload, args.seed, tmp, start)
        measure(run, args.seconds, bool(args.trace))
        import checks
        attempted, failures = check(run, checks)
        for reason in failures:
            print(f"check failed: {reason}", file=sys.stderr)
        if args.trace:
            metrics = per_layer(run)
            print(f"spans written to {write_trace(run)}", file=sys.stderr)
        else:
            metrics = end_to_end(run)
        print(f"{len(run.reps)} repetitions, "
              f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
