#!/usr/bin/env python3
"""Run workloads on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartiles of its
values, as a share of their median, next to a third of its bound.

Run from the root of a checkout of the repository:

    python3 perfbench/spread.py --seeds 10 [--workload lsm-kv ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        decl = json.load(f)
    workloads = args.workload or [w["name"] for w in decl["workloads"]]
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}

    for wl in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(decl["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed} exited {out.returncode}:\n{out.stderr}")
            took = time.monotonic() - t0
            res = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"{wl} seed {seed} ({took:.1f} s): correct={res['correct']} failed={res['failed']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{wl:13s} {name:20s} median {med:12.4f}  spread {spread:7.4f}  bound/3 {bounds[name] / 3:7.4f}{flag}",
                  flush=True)


if __name__ == "__main__":
    main()
