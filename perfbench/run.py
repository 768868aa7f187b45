"""Benchmark of feyngraph's exhaustive checkers.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the library is imported from
./src.  The run repeats whole rounds of the workload's operations until
--seconds have passed.  Each round runs in a fresh single-threaded child
process, one after another, so that every round pays the import and the
set-up as a user's run does and no state carries over between rounds.

The last line of stdout is one JSON object:
  {"correct", "attempted", "failed", "metrics"}
With --trace 0 the metrics are the end-to-end ones:
  wall_s            median over rounds of the time to verdict of the round
  setup_s           median over at least five fresh processes of import
                    plus building the inputs
  peak_rss_mb       largest peak resident set of a round's process
  instances_checked work done in one round (checked counts, classes,
                    restriction maps)
With --trace 1 the rounds run under the recorder of recorder.py and the
metrics are its per-layer ones (median over rounds), plus trace.wall_s,
the traced round time.  Spans go to .bench_out/.

An operation fails when it raises or its check fails; `correct` is false
when rounds disagree on counts or verdicts.  If a round's process dies,
the run exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def _import_library():
    """Import feyngraph from this checkout's src, never from elsewhere."""
    sys.path.insert(0, SRC)
    import feyngraph
    if os.path.dirname(os.path.dirname(os.path.abspath(feyngraph.__file__))) \
            != SRC:
        raise ImportError(f"feyngraph was not imported from {SRC}")


# -- child: one round, or one set-up sample ----------------------------------------

def child(args) -> dict:
    t0 = time.perf_counter()
    _import_library()
    import workloads
    ops = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.child == "setup":
        return {"setup_s": setup_s}
    rec = None
    if args.trace:
        import recorder
        rec = recorder.Recorder()
        recorder.install(rec)
    results = []
    for i, op in enumerate(ops):
        if rec is not None:
            rec.op = i
        start = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            value, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        seconds = time.perf_counter() - start
        if rec is not None:
            rec.op = -1
        ok, instances, observed = False, 0, None
        if error is None:
            try:
                ok, instances, observed = op.check(value)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        results.append([op.name, seconds, bool(ok), instances, observed,
                        error])
    out = {"setup_s": setup_s, "ops": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0}
    if rec is not None:
        out["layers"] = rec.metrics()
        os.makedirs(OUT, exist_ok=True)
        rec.write(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}-round{args.round}"
                 ".json.gz"))
    return out


def spawn(args, kind, round_no=0):
    """Run one child process to its end and return its JSON, or None if
    it died."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--round", str(round_no)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{kind} process timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- parent -------------------------------------------------------------------------

def parent(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "feyngraph", "__init__.py")):
        print(f"no feyngraph sources under {SRC}", file=sys.stderr)
        return 2
    _import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected_observed = workloads.oracle(args.workload)
    expected_instances = workloads.EXPECTED_INSTANCES[args.workload]

    rounds, setups = [], []
    attempted = failed = 0
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        out = spawn(args, "round", len(rounds))
        if out is None:
            # the process died: no verdict for this round
            return 1
        setups.append(out["setup_s"])
        rounds.append(out)
        for name, seconds, ok, instances, observed, error in out["ops"]:
            attempted += 1
            reasons = [error or "check failed"] if not ok else []
            want = expected_observed.get(name)
            if want is not None and observed != want:
                reasons.append(f"observed {observed}, brute force {want}")
            if instances != expected_instances.get(name, instances):
                reasons.append(f"instances {instances}, expected "
                               f"{expected_instances[name]}")
            if reasons:
                failed += 1
                print(f"FAILED {name}: {'; '.join(reasons)}", file=sys.stderr)
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        out = spawn(args, "setup")
        if out is None:
            return 1
        setups.append(out["setup_s"])

    verdicts = {json.dumps([[o[0], o[2], o[3]] for o in r["ops"]])
                for r in rounds}
    correct = len(verdicts) == 1
    round_s = [sum(o[1] for o in r["ops"]) for r in rounds]
    if args.trace:
        metrics = {name: {"value": _median([r["layers"][name]
                                            for r in rounds]),
                          "unit": unit}
                   for name, unit in _layer_units().items()}
        metrics["trace.wall_s"] = {"value": statistics.median(round_s),
                                   "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(round_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
            "instances_checked": {"value": sum(o[3] for o in rounds[0]["ops"]),
                                  "unit": "count"},
        }
    print(f"{args.workload}: {len(rounds)} rounds of "
          f"{len(rounds[0]['ops'])} ops, round times "
          + " ".join(f"{s:.3f}" for s in round_s), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _median(values):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _layer_units():
    import recorder
    return {name: recorder.unit_of(name) for name in recorder.METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("round", "setup"), help=argparse.SUPPRESS)
    ap.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args)))
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
