#!/bin/bash
# Local mirror of .github/workflows/ci.yml — the workflow invokes THIS
# script (one matrix leg per job), so what CI runs and what `ci/run_ci.sh`
# runs at a developer's desk are the same thing by construction.
#
# Pipeline per leg:
#   1. format gate            ci/check_format.py (.clang-format)
#   2. configure + build      -DFEKF_WERROR=ON (zero-warning budget),
#                             ccache when available
#   3. full ctest             includes the *_mt4, *_traced, *_fault,
#                             *_scalar_backend and test_fusion_noarena
#                             environment re-runs, at every width in
#                             FEKF_CI_WIDTHS, plus a forced-scalar leg
#                             (FEKF_KERNEL_BACKEND=scalar) so the dispatch
#                             fallback path stays tested end to end;
#                             each ctest run prints its ten slowest tests
#                             and keeps them as ci_artifacts/
#                             slowest_tests_<leg>.txt
#   4. perf/launch budgets    (release legs only) bench_fig7bc_kernels +
#                             bench_fusion + bench_chaos + bench_serving
#                             emit JSON, ci/check_budgets.py
#                             gates it against ci/budgets.json (incl. the
#                             per-variant dispatch, chaos-recovery and
#                             serving budgets), diffs
#                             docs/KERNELS.md against the variant tables via
#                             --kernels-doc, and the gate's --self-test
#                             proves it can fail
#
# Matrix knobs (the workflow sets these per job; locally the defaults run
# the whole matrix serially):
#   FEKF_CI_BUILD_TYPES  "release sanitize tsan" — sanitize is Debug with
#                        FEKF_SANITIZE=address,undefined; tsan is Debug
#                        with FEKF_SANITIZE=thread, running only the
#                        concurrency-heavy suites (serve/threading/
#                        parallel) where a data race could actually hide
#   FEKF_CI_WIDTHS       "1 4" — FEKF_NUM_THREADS values for ctest
#   FEKF_CI_JOBS         build/ctest parallelism (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${FEKF_CI_JOBS:-$(nproc)}"
BUILD_TYPES="${FEKF_CI_BUILD_TYPES:-release sanitize tsan}"
WIDTHS="${FEKF_CI_WIDTHS:-1 4}"
ARTIFACTS="${FEKF_CI_ARTIFACTS:-ci_artifacts}"
mkdir -p "$ARTIFACTS"

# Print the ten slowest tests of the ctest run that just finished in build
# dir $1, read from its LastTest.log, and keep them as artifact $2.
slowest_tests() {
  echo "---- ten slowest tests"
  awk '/^[0-9]+\/[0-9]+ Test: / { name = $3 }
       /^Test time = / { printf "%8.2f s  %s\n", $4, name }' \
    "$1/Testing/Temporary/LastTest.log" | sort -rn | awk 'NR <= 10' |
    tee "$ARTIFACTS/$2"
}

echo "==== [1/4] format gate"
python3 ci/check_format.py

LAUNCHER=""
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
  ccache --zero-stats >/dev/null 2>&1 || true
fi

for ty in $BUILD_TYPES; do
  case "$ty" in
    release)
      dir=build-ci-release
      cfg="-DCMAKE_BUILD_TYPE=Release"
      ;;
    sanitize)
      dir=build-ci-sanitize
      cfg="-DCMAKE_BUILD_TYPE=Debug -DFEKF_SANITIZE=address,undefined"
      ;;
    tsan)
      dir=build-ci-tsan
      cfg="-DCMAKE_BUILD_TYPE=Debug -DFEKF_SANITIZE=thread"
      ;;
    *)
      echo "unknown build type '$ty' (expected release|sanitize|tsan)" >&2
      exit 2
      ;;
  esac
  echo "==== [2/4] configure + build ($ty, warnings are errors)"
  # shellcheck disable=SC2086  # cfg/LAUNCHER are intentional word lists
  cmake -S . -B "$dir" $cfg -DFEKF_WERROR=ON $LAUNCHER
  cmake --build "$dir" -j"$JOBS"

  if [ "$ty" = tsan ]; then
    # TSan leg: race-check the suites where threads actually contend —
    # the serving registry/evaluator (publish vs lock-free readers, batch
    # coalescing), the thread pool, the parallel primitives, and the
    # per-thread tensor arena (test_threading's ArenaThreads cases: arm
    # bits carried into pool tasks, lazy rewinds of worker arenas, a
    # trainer and a server sharing the pool). The full
    # matrix and budgets stay on the other legs; TSan timing is not
    # representative and its full run would dominate the pipeline.
    for width in $WIDTHS; do
      echo "==== [3/4] ctest ($ty, concurrency suites, FEKF_NUM_THREADS=$width)"
      FEKF_NUM_THREADS="$width" \
        ctest --test-dir "$dir" --output-on-failure -j"$JOBS" \
          -R '^(test_serve|test_threading|test_parallel)'
      slowest_tests "$dir" "slowest_tests_${ty}_w${width}.txt"
    done
    echo "==== [4/4] budgets skipped for $ty (covered by the release leg)"
    continue
  fi

  for width in $WIDTHS; do
    echo "==== [3/4] ctest ($ty, FEKF_NUM_THREADS=$width)"
    FEKF_NUM_THREADS="$width" \
      ctest --test-dir "$dir" --output-on-failure -j"$JOBS"
    slowest_tests "$dir" "slowest_tests_${ty}_w${width}.txt"
  done

  # Forced-scalar leg: the whole suite must pass with every dispatched
  # kernel pinned to its scalar reference (DESIGN.md §13). This exercises
  # the reference bodies beyond the dedicated *_scalar_backend re-runs.
  # (A build without AVX2 runs the generic simd/lanes/blocked rungs, not
  # scalar; test_dispatch memcmps those bodies on every host.)
  echo "==== [3/4] ctest ($ty, FEKF_KERNEL_BACKEND=scalar)"
  FEKF_KERNEL_BACKEND=scalar \
    ctest --test-dir "$dir" --output-on-failure -j"$JOBS"
  slowest_tests "$dir" "slowest_tests_${ty}_scalar.txt"

  if [ "$ty" = release ]; then
    echo "==== [4/4] perf/launch/allocation budgets ($ty)"
    "./$dir/bench/bench_fig7bc_kernels" \
      --json "$ARTIFACTS/fig7bc_kernels.json"
    "./$dir/bench/bench_fusion" --json "$ARTIFACTS/fusion.json"
    # Default flags on purpose: the chaos budgets gate simulated (hence
    # deterministic) figures baselined at exactly this scale, and the
    # serving launch-amortization floor assumes the default fixture.
    "./$dir/bench/bench_chaos" --json "$ARTIFACTS/chaos.json"
    "./$dir/bench/bench_serving" --json "$ARTIFACTS/serving.json"
    python3 ci/check_budgets.py \
      --fig7bc "$ARTIFACTS/fig7bc_kernels.json" \
      --fusion "$ARTIFACTS/fusion.json" \
      --chaos "$ARTIFACTS/chaos.json" \
      --serving "$ARTIFACTS/serving.json" \
      --kernels-doc docs/KERNELS.md \
      --obs-doc docs/OBSERVABILITY.md
    python3 ci/check_budgets.py \
      --fig7bc "$ARTIFACTS/fig7bc_kernels.json" \
      --fusion "$ARTIFACTS/fusion.json" \
      --chaos "$ARTIFACTS/chaos.json" \
      --serving "$ARTIFACTS/serving.json" --self-test
  else
    echo "==== [4/4] budgets skipped for $ty (sanitizer timing is not "
    echo "     representative; launch budgets are covered by the release leg)"
  fi
done

if command -v ccache >/dev/null 2>&1; then
  ccache --show-stats 2>/dev/null | head -5 || true
fi
echo "==== CI pipeline passed"
