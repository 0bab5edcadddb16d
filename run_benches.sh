#!/bin/bash
# Regenerate every paper table/figure into stdout (tee to bench_output.txt).
# Budgets are sized for a single CPU core (~30-40 min total); every harness
# accepts flags to scale toward the paper's configuration (--help).
#
# Fail-loudly contract: the script runs EVERY harness (so one regression
# does not hide the others' artifacts) but exits non-zero if any failed,
# with the failures counted in the summary. Machine-readable artifacts land
# in bench_artifacts/: every run is recorded in index.json together with
# the thread width it executed at, and BENCH_summary.json points
# ci/check_budgets.py at the per-bench JSON documents (launch counts, phase
# seconds, arena bytes) it gates against ci/budgets.json.
set -euo pipefail
ARTIFACTS=bench_artifacts
mkdir -p "$ARTIFACTS"
: "${FEKF_NUM_THREADS:=$(nproc)}"
export FEKF_NUM_THREADS
INDEX="$ARTIFACTS/index.json"
SUMMARY="$ARTIFACTS/BENCH_summary.json"
FAILURES=0
echo "{" > "$INDEX"
echo "  \"fekf_num_threads\": $FEKF_NUM_THREADS," >> "$INDEX"
echo "  \"hardware_threads\": $(nproc)," >> "$INDEX"
echo "  \"runs\": [" >> "$INDEX"
FIRST=1
run() {
  echo "===================================================================="
  echo "== $* (FEKF_NUM_THREADS=$FEKF_NUM_THREADS)"
  echo "===================================================================="
  local status=0
  "$@" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    FAILURES=$((FAILURES + 1))
    echo "!! FAILED (exit $status): $*" >&2
  fi
  [ "$FIRST" = 1 ] && FIRST=0 || echo "    ," >> "$INDEX"
  echo "    {\"cmd\": \"$*\", \"threads\": $FEKF_NUM_THREADS, \"exit\": $status}" >> "$INDEX"
  echo
}
run ./build/bench/bench_comm_memory
# The fig7bc harness runs with the observability layer armed: the Chrome
# trace (load in Perfetto / chrome://tracing) and the metrics dump land
# next to index.json, attributing the measured iterations span by span.
# Its JSON summary carries the launch/time/arena numbers the CI budget
# checker gates on.
FEKF_TRACE="$ARTIFACTS/fig7bc_trace.json" \
  FEKF_TRACE_KERNELS=1 \
  FEKF_METRICS="$ARTIFACTS/fig7bc_metrics.json" \
  run ./build/bench/bench_fig7bc_kernels --json "$ARTIFACTS/fig7bc_kernels.json"
run ./build/bench/bench_fusion --json "$ARTIFACTS/fusion.json"
run ./build/bench/bench_kernels_micro --benchmark_min_time=0.1
run ./build/bench/bench_fig4_qlr
run ./build/bench/bench_table5_distributed --train 40 --rlekf-epochs 3 --fekf-epochs 8
run ./build/bench/bench_fig7a_end2end --systems Cu --fekf-epochs 8 --rlekf-epochs 3 --adam-epochs 10
run ./build/bench/bench_table1_adam_batch --train 48 --epochs1 10
run ./build/bench/bench_table4_convergence --train 32 --adam-epochs 8 --fekf-epochs 5
run ./build/bench/bench_ablation_stabilizers --train 40 --epochs 6
run ./build/bench/bench_scaling --train 64 --batch 16 --iters 2 \
  --threads 1,2,4,8 --json "$ARTIFACTS/scaling.json"
# Traced resilience run: checkpoint spans and fault/rollback instants show
# up on the same timeline as the training phases.
FEKF_TRACE="$ARTIFACTS/resilience_trace.json" \
  FEKF_METRICS="$ARTIFACTS/resilience_metrics.json" \
  run ./build/bench/bench_resilience --train 24 --epochs 3 \
  --ckpt "$ARTIFACTS/resilience.ckpt" --json "$ARTIFACTS/resilience.json"
# Chaos churn scenario at the default scale: the ci/budgets.json chaos
# section is baselined against these exact flags (the gated recovery bill is
# simulated and deterministic, so the scale must match).
run ./build/bench/bench_chaos --json "$ARTIFACTS/chaos.json"
# Serving bench at the default scale: the ci/budgets.json serving section
# gates its launch-amortization ratio (deterministic at this scale), the
# loose wall-clock figures, and the structural zeros (publish stalls,
# pinned-version violations). Spans/metrics land next to the other traces.
FEKF_TRACE="$ARTIFACTS/serving_trace.json" \
  FEKF_METRICS="$ARTIFACTS/serving_metrics.json" \
  run ./build/bench/bench_serving --json "$ARTIFACTS/serving.json"
echo "  ]" >> "$INDEX"
echo "}" >> "$INDEX"
cat > "$SUMMARY" <<EOF
{
  "fekf_num_threads": $FEKF_NUM_THREADS,
  "hardware_threads": $(nproc),
  "failures": $FAILURES,
  "artifacts": {
    "index": "$INDEX",
    "fig7bc_kernels": "$ARTIFACTS/fig7bc_kernels.json",
    "fusion": "$ARTIFACTS/fusion.json",
    "scaling": "$ARTIFACTS/scaling.json",
    "resilience": "$ARTIFACTS/resilience.json",
    "chaos": "$ARTIFACTS/chaos.json",
    "serving": "$ARTIFACTS/serving.json"
  }
}
EOF
echo "artifact index: $INDEX"
echo "budget-checker summary: $SUMMARY"
if [ "$FAILURES" -ne 0 ]; then
  echo "BENCH FAILURES: $FAILURES harness(es) exited non-zero" >&2
  exit 1
fi
