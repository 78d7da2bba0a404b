"""One benchmark repetition in a fresh process.

Sets up dpfilt (imports `dpfilt`, `dpfilt.cli` and `jsonschema`, then
`Config.load` on the workload config), then runs the real CLI in-process:
`design`, `sensitivity` and `simulate --timing`, with the outputs in
--out, each once. With --trace 1 the layer spans of tracing.py are
installed after set-up. Writes result.json into --out; run.py reads it.

    python3 benchmark/worker.py --workload bank_zfe --seed 1 --out DIR \
        --t0 <time.monotonic() of the parent just before the spawn>
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

from spec import WORKLOADS, config_path


def run_commands(workload: str, seed: int, out: str) -> dict:
    """Run design, sensitivity and simulate --timing through cli.main,
    each once and timed on its own; stop at the first command that does
    not exit 0."""
    import dpfilt.cli
    cfg = config_path(workload)
    paths = {name: os.path.join(out, f"{name}.json")
             for name in ("design", "sensitivity", "report")}
    commands = (
        ("design", ["design", "--config", cfg, "--seed", str(seed),
                    "--out", paths["design"]]),
        ("sensitivity", ["sensitivity", "--config", cfg,
                         "--out", paths["sensitivity"]]),
        ("simulate", ["simulate", "--design", paths["design"], "--timing",
                      "--report", paths["report"]]),
    )
    result = {}
    with open(os.path.join(out, "cli.log"), "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for name, argv in commands:
            t0 = time.perf_counter()
            try:
                code = dpfilt.cli.main(argv)
            except Exception as exc:   # report the failure, keep going
                code = None
                print(f"{name}: {exc!r}", file=sys.stderr)
            result[name] = {"exit": code,
                            "seconds": time.perf_counter() - t0}
            if code != 0:
                break
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_import = time.monotonic()
    import dpfilt        # noqa: F401
    import dpfilt.cli    # noqa: F401
    import jsonschema    # noqa: F401
    from dpfilt.config import Config
    t_config = time.monotonic()
    Config.load(config_path(args.workload))
    t_ready = time.monotonic()
    result = {"setup_s": t_ready - args.t0,
              "import_s": t_config - t_import,
              "config_s": t_ready - t_config}

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(run_id=os.path.basename(args.out))
        tracer.install()
    try:
        result["commands"] = run_commands(args.workload, args.seed, args.out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = [vars(s) for s in tracer.spans]
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
