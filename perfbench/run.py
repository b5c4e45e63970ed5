#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload block-oltp --seed 1 --seconds 10 --trace 0

The Go toolchain's caches, the binary and the traced runs' span files
all go under .bench_build/ in the checkout. The benchmark prints its
labelled outputs and, as the last line, one JSON object.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("block-oltp", "zns-stream", "lsm-kv", "block-fabric")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    for need in ("go.mod", "internal"):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit(f"perfbench: {os.path.join(root, need)} is missing; "
                     "run from a checkout of the simulator's source")

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for d in (env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)

    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed ({built.returncode})")

    ran = subprocess.run([binary,
                          "-workload", args.workload,
                          "-seed", str(args.seed),
                          "-seconds", str(args.seconds),
                          "-trace", str(args.trace),
                          "-trace-dir", os.path.join(build, "trace")],
                         cwd=root, env=env)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
