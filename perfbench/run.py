#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later calls only
rebuild what changed. The benchmark binary's result must name exactly the
metrics BENCHMARK.json lists for the mode; run.py attaches their units and
prints it as the last line of standard output. Build output and
diagnostics go to standard error. Any failure exits non-zero without
printing a result.

--test builds and runs the benchmark's own tests (needs GoogleTest).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = Path.cwd() / ".bench_build"
BINARY = BUILD / "tlb_perfbench"
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def configured_here():
    """Whether .bench_build holds a configuration of this source tree (a
    build tree copied along with a moved checkout points elsewhere)."""
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return False
    home = "CMAKE_HOME_DIRECTORY:INTERNAL=%s" % HERE
    return home in cache.read_text().splitlines()


def build(target):
    """Configure (once) and build `target`; raise on failure."""
    if not configured_here():
        shutil.rmtree(BUILD, ignore_errors=True)
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)


def check_result(line, spec, trace):
    """Parse the binary's result line, whose metrics map names to values,
    check that it names exactly the metrics BENCHMARK.json lists for the
    mode, and attach their units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result has keys %s" % sorted(result))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    values = result["metrics"]
    if set(values) != set(units):
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(units) - set(values)),
                                       sorted(set(values) - set(units))))
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in sorted(values)}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    try:
        if args.test:
            build("perfbench_tests")
            return subprocess.run([str(BUILD / "perfbench_tests")]).returncode
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            log("unknown workload %r; expected one of %s" % (args.workload, names))
            return 2
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        build("tlb_perfbench")
        proc = subprocess.run(
            [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            log("benchmark exited with code %d" % proc.returncode)
            return 1
        lines = proc.stdout.strip().splitlines()
        if not lines:
            log("benchmark printed no result")
            return 1
        result = check_result(lines[-1], spec, bool(args.trace))
    except (OSError, ValueError, subprocess.SubprocessError) as err:
        log(err)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
