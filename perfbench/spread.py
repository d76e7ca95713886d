#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, against the
metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace] [--out FILE]

Run from the repository root. Runs are sequential, one process at a time.
--trace records traced runs (per-layer metrics, which have no bound) and
reports no spread; so does a single seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    # The binary's own diagnostics: raw host times and the reference.
    result["notes"] = [line for line in out.stderr.splitlines()
                       if line.startswith("perfbench: ")]
    return result


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run(workload, seed, args.seconds, int(args.trace))
            runs.append({"seed": seed, **result})
            print(workload, seed, "correct" if result["correct"] else "INCORRECT",
                  "failed=%d" % result["failed"], file=sys.stderr, flush=True)
        spreads = {}
        if args.trace or len(runs) < 2:
            report[workload] = {"runs": runs}
            continue
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spreads[name] = {"median": q2, "spread": (q3 - q1) / q2,
                             "bound": bound}
            print("%-11s %-16s median %-14.6g spread %.4f  bound %.2f%s" % (
                workload, name, q2, spreads[name]["spread"], bound,
                "" if spreads[name]["spread"] <= bound / 3
                else "  <-- above a third of the bound"))
        report[workload] = {"runs": runs, "spreads": spreads}
    if args.out:
        command = "python3 perfbench/spread.py --workloads %s --seeds %s%s" % (
            args.workloads, args.seeds, " --trace" if args.trace else "")
        record = {"seeds": args.seeds, "command": command,
                  "workloads": report}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
