"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/steadiness.py --seeds 1000-1009 --out summary.json \
        [--compare old.json]

Run from the repository root. Runs run.py once per workload and seed, one
run at a time, for BENCHMARK.json's run_seconds, and records per metric
the median, the quartiles of `statistics.quantiles(values, n=4)` and the
spread (q3 - q1) / median, with the bounds of BENCHMARK.json and the
machine. --compare prints each
median's change against an earlier summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spec import BENCHMARK_JSON, HERE, WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "bound": bounds.get(name),
                     "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    from run import machine
    summary = {"machine": machine(), "seconds": seconds,
               "seeds": args.seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [one_run(workload, seed, seconds) for seed in args.seeds]
        summary["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "metrics": summarize(runs, bounds)}
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

    old = None
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)["workloads"]
    for workload, res in summary["workloads"].items():
        print(f"{workload}: failed {res['failed']}/{res['attempted']}, "
              f"run wall {min(res['wall_s'])}-{max(res['wall_s'])} s")
        for name, m in res["metrics"].items():
            line = (f"  {name:16s} median {m['median']:<12.6g} "
                    f"spread {m['spread']:.4f} bound {m['bound']}")
            if old and workload in old:
                prev = old[workload]["metrics"][name]["median"]
                line += f"  vs old {m['median'] / prev - 1:+.4f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
