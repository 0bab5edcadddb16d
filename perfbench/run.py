#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which pulls in the library
sources through the root CMakeLists.txt) into .bench_build/; later runs only
re-check the build. The benchmark binary prints a `metric <name> <value>
<unit>` line for everything it measured; this script echoes those lines and
then prints one JSON line holding the metrics BENCHMARK.json lists for this
mode (`end_to_end` untraced, `per_layer` traced). It exits non-zero when the
build fails, the binary fails, or any correctness check fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources (src/CMakeLists.txt) in this checkout")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", BUILD_JOBS])
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                log("perfbench: build step failed: " + " ".join(cmd))
                return False
    return os.path.isfile(BINARY)


def wanted_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", type=int, default=1,
                        help="shrink the workload by this factor (self-test)")
    args = parser.parse_args()

    if not build():
        return 2
    wanted = wanted_metrics(args.trace)

    # Only the inputs named on the command line may shape the run: drop any
    # FEKF_* knobs (fault specs, dispatch and batching overrides) inherited
    # from the caller. The binary sets each workload's pool width itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEKF_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tiny", str(args.tiny)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: workload exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log("perfbench: the benchmark binary printed no result (exit %d)"
            % proc.returncode)
        return proc.returncode or 1
    print("\n".join(lines[:-1]), flush=True)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            log("perfbench: metric %s missing or not in %s" % (m["name"], m["unit"]))
            result["correct"] = False
            continue
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
