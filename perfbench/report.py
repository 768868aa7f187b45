"""Per-layer report: runs each workload once untraced and once traced and
prints, per workload, the layers it calls and the tracing overhead
(traced wall_s minus untraced wall_s).

    python3 perfbench/report.py [--workload <name>] [--seed <n>] [--seconds <s>]

Run it from the root of a source checkout.  Layers a workload never calls
read 0 and are left out of its table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def measure(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    for workload in [args.workload] if args.workload else names:
        plain = measure(workload, args.seed, args.seconds, 0)["metrics"]
        traced = measure(workload, args.seed, args.seconds, 1)["metrics"]
        wall, twall = plain["wall_s"]["value"], traced["trace.wall_s"]["value"]
        print(f"## {workload}\n")
        print(f"wall_s {wall:.3f} s untraced, {twall:.3f} s traced: "
              f"tracing overhead {twall - wall:+.3f} s "
              f"({(twall - wall) / wall:+.1%})\n")
        print("| metric | value | unit |\n|---|---:|---|")
        for name, m in traced.items():
            if m["value"] and name != "trace.wall_s":
                v = m["value"]
                text = f"{v:.4f}" if isinstance(v, float) else str(v)
                print(f"| `{name}` | {text} | {m['unit']} |")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
