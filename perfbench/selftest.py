#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload of BENCHMARK.json at a tiny scale, untraced and traced,
and checks that

  * each run exits 0 with `correct: true`;
  * the final JSON line holds every metric BENCHMARK.json lists for that
    mode, with its unit;
  * the exact counts (kernel launches, arena allocations, P bytes, final
    RMSE) are identical across two traced invocations with the same seed.

Usage, from the root of a checkout:  python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = "4"
SECONDS = "4"
# Counts that must repeat exactly for the same code and seed. train_rmse is
# a training outcome, so it is only compared where a workload trains.
EXACT = ["tensor.launches_per_step", "tensor.launches_per_request",
         "tensor.arena_allocs_per_step", "optim.p_mb", "train.rollbacks",
         "train_rmse", "train.steps"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", SECONDS,
           "--trace", str(trace), "--tiny", TINY]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("FAIL %s trace=%d: exit %d\n%s"
                         % (workload, trace, proc.returncode, proc.stdout))
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = (parts[2], parts[3])
    return json.loads(lines[-1]), printed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, printed = run(name, trace)
            if not result["correct"]:
                failures.append("%s trace=%d: correct is false" % (name, trace))
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    failures.append("%s trace=%d: %s missing or not in %s"
                                    % (name, trace, m["name"], m["unit"]))
            if trace == 1:
                _, again = run(name, 1)
                for count in EXACT:
                    if count in printed and printed[count] != again.get(count):
                        failures.append("%s: %s differs across runs: %s vs %s"
                                        % (name, count, printed[count],
                                           again.get(count)))
        print("ok   %s" % name, flush=True)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
