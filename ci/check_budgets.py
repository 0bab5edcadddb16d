#!/usr/bin/env python3
"""Perf/launch/allocation budget gate over the bench JSON artifacts.

Consumes the machine-readable documents run_benches.sh (or ci/run_ci.sh)
writes into bench_artifacts/ — `fig7bc_kernels.json` and `fusion.json`,
located via `BENCH_summary.json` or passed directly — and fails (exit 1)
when any metric regresses beyond the thresholds in ci/budgets.json:

  * per-step kernel launches, per configuration (`max_step_kernels`), plus
    the structural requirement that the fused configuration keeps at least
    `min_fused_reduction` x fewer launches than the baseline
  * arena bytes per step (`max_arena_peak_scope_bytes`), skipped when the
    artifact records the arena as disabled (FEKF_ARENA=0)
  * step wall time (`max_total_s`), sized with generous slack because CI
    hosts vary; launch/byte budgets are the tight ones (deterministic for a
    given bench scale)
  * bench_fusion launch budgets per fusion site (`max_fused_launches`)
  * kernel-dispatch variant budgets (the "dispatch" section, DESIGN.md
    §13): every budgeted `<kernel>.<variant>` must still be registered
    (a vanished variant is a regression, not a skip), eligible variants
    must meet `max_s_per_call`, and each kernel named in
    `min_best_speedup` must keep its best-variant-vs-scalar speedup —
    this is what makes the SIMD win a gate, not an anecdote
  * chaos budgets over the bench_chaos artifact (`--chaos`, the "chaos"
    section, DESIGN.md §10): per lossy-link cell the retry-time ratio and
    comm overhead vs the clean cell, and for the churn scenario the
    membership recovery bill (reshard + join catch-up + detection
    seconds). These are SIMULATED seconds derived from byte counts and
    seeded RNG draws — deterministic for a fixed bench scale — so their
    budgets are tight, unlike the wall-clock gates
  * serving budgets over the bench_serving artifact (`--serving`, the
    "serving" section, DESIGN.md §14): the launch-amortization ratio of
    the batched pass (kernel launches per request, serial over batched —
    deterministic for fixed bench flags, so its floor is tight), the
    wall-clock batched speedup / p99 latency / batch occupancy (loose,
    host-dependent), and the structural zeros: publish_stalls and
    pinned-version violations must stay exactly 0, and publish latency
    under reader load stays within max_loaded_over_idle of idle (the
    "publishing is independent of readers" claim as a number)
  * observability budgets (the "obs" section, DESIGN.md §11): the tracing
    tax — traced-over-untraced wall time of the fused training step from
    the fig7bc artifact's A/B passes — must stay under
    `max_traced_over_untraced`, and the request-level serving SLOs
    (interpolated histogram p99 of request latency and queue wait from
    bench_serving) must stay under their `max_*_p99_*` ceilings. The SLOs
    come from the production MetricsRegistry histograms, so the gate also
    proves the export path itself still works

--kernels-doc FILE cross-checks docs/KERNELS.md against the artifact's
dispatch section: every registered variant must appear in the doc's
reference table with its budget key, and the doc must not list variants
the registry no longer has.

--obs-doc FILE cross-checks docs/OBSERVABILITY.md the same way against
the serving artifact's "obs" inventory (span names seen by a traced
serving pass, every registered metric name, every env knob): observed
spans and metrics must each have a row in the doc's tables, and the knob
table must match env::knobs() exactly in both directions.

Re-baselining (after an INTENTIONAL change to kernel granularity, bench
scale, or model defaults): run the benches, eyeball the new numbers, then
  python3 ci/check_budgets.py --rebaseline
which rewrites ci/budgets.json from the current artifacts with the default
slack factors (launches +5%, arena bytes +25%, wall time x4). Commit the
regenerated file together with the change that moved the numbers and say
why in the commit message — the diff IS the perf review.

--self-test proves the gate can fail: it first validates the real
artifacts, then re-runs the checks on a copy with a deliberately injected
launch-count regression (fused step_kernels x3) and exits 0 only if that
regression is caught.
"""

import argparse
import copy
import json
import math
import pathlib
import sys

DEFAULT_SUMMARY = "bench_artifacts/BENCH_summary.json"
DEFAULT_BUDGETS = pathlib.Path(__file__).parent / "budgets.json"

LAUNCH_SLACK = 1.05   # launches are deterministic; tolerate tiny drift
ARENA_SLACK = 1.25    # slab rounding makes byte counts slightly lumpy
TIME_SLACK = 4.0      # CI hosts vary widely; wall time is the loose gate


class Violation(Exception):
    pass


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_fig7bc(doc, budgets, failures):
    per_config = {c["name"]: c for c in doc["configs"]}
    for name, limits in budgets.get("configs", {}).items():
        actual = per_config.get(name)
        if actual is None:
            failures.append(f"fig7bc: configuration '{name}' missing from "
                            f"artifact (bench and budgets out of sync)")
            continue
        gate(failures, f"fig7bc[{name}].step_kernels",
             actual["step_kernels"], limits.get("max_step_kernels"))
        gate(failures, f"fig7bc[{name}].total_s",
             actual["total_s"], limits.get("max_total_s"))
        if doc.get("arena_enabled"):
            gate(failures, f"fig7bc[{name}].arena_peak_scope_bytes",
                 actual["arena_peak_scope_bytes"],
                 limits.get("max_arena_peak_scope_bytes"))
            gate(failures, f"fig7bc[{name}].arena_retired_slabs",
                 actual["arena_retired_slabs"], 0)
    min_reduction = budgets.get("min_fused_reduction")
    if min_reduction and "baseline" in per_config and "fused" in per_config:
        ratio = (per_config["baseline"]["step_kernels"]
                 / max(1, per_config["fused"]["step_kernels"]))
        if ratio < min_reduction:
            failures.append(
                f"fig7bc: fused launch reduction {ratio:.2f}x is below the "
                f"required {min_reduction}x (baseline "
                f"{per_config['baseline']['step_kernels']} vs fused "
                f"{per_config['fused']['step_kernels']})")


def check_fusion(doc, budgets, failures):
    per_cmp = {c["name"]: c for c in doc["comparisons"]}
    for name, limits in budgets.get("comparisons", {}).items():
        actual = per_cmp.get(name)
        if actual is None:
            # arena_vs_heap is absent when FEKF_ARENA=0; that is not a
            # regression, the arena legs are simply not measurable.
            if name == "arena_vs_heap" and not doc.get("arena_enabled"):
                continue
            failures.append(f"fusion: comparison '{name}' missing from "
                            f"artifact (bench and budgets out of sync)")
            continue
        gate(failures, f"fusion[{name}].fused_launches",
             actual["fused_launches"], limits.get("max_fused_launches"))
        # arena_vs_heap times the allocator under identical kernels, so its
        # two legs launch the same count by design.
        if (name != "arena_vs_heap"
                and actual["fused_launches"] >= actual["unfused_launches"]):
            failures.append(
                f"fusion[{name}]: fused path launches "
                f"{actual['fused_launches']} >= unfused "
                f"{actual['unfused_launches']} — fusion regressed away")


def check_dispatch(doc, budgets, failures):
    if not budgets:
        return
    dispatch = doc.get("dispatch")
    if dispatch is None:
        failures.append("dispatch: budgets define kernel-variant limits but "
                        "the fig7bc artifact has no 'dispatch' section "
                        "(bench predates the dispatch registry?)")
        return
    per_kernel = {k["kernel"]: k for k in dispatch.get("kernels", [])}
    for kernel, limits in budgets.get("kernels", {}).items():
        actual = per_kernel.get(kernel)
        if actual is None:
            failures.append(f"dispatch: kernel '{kernel}' missing from "
                            f"artifact (family unregistered? budgets out of "
                            f"sync)")
            continue
        per_variant = {v["name"]: v for v in actual.get("variants", [])}
        for vname, vlimits in limits.get("variants", {}).items():
            v = per_variant.get(vname)
            if v is None:
                # A budgeted variant that is no longer registered is a
                # regression (someone deleted/renamed it), not a skip.
                failures.append(
                    f"dispatch[{kernel}]: variant '{vname}' missing from "
                    f"artifact — unregistered variant or budgets out of sync")
                continue
            if not v.get("eligible", False):
                # Not eligible on this host (CPU lacks the ISA): the bench
                # does not time it, so there is nothing to gate. The
                # registration itself was still verified above.
                what = f"dispatch[{kernel}.{vname}].s_per_call"
                print(f"  {what:<48} skipped (not eligible on this host)")
                continue
            gate(failures, f"dispatch[{kernel}.{vname}].s_per_call",
                 v["s_per_call"], vlimits.get("max_s_per_call"))
        min_speedup = limits.get("min_best_speedup")
        if min_speedup is not None:
            eligible_nonscalar = any(
                v.get("eligible") and v["name"] != "scalar"
                for v in actual.get("variants", []))
            if not eligible_nonscalar:
                print(f"  dispatch[{kernel}].best_speedup skipped "
                      f"(no eligible non-scalar variant on this host)")
            else:
                gate_min(failures, f"dispatch[{kernel}].best_speedup",
                         actual.get("best_speedup", 0.0), min_speedup)


def check_chaos(doc, budgets, failures):
    if not budgets:
        return
    if doc is None:
        failures.append("chaos: budgets define chaos limits but no --chaos "
                        "artifact was provided")
        return
    per_cell = {c["name"]: c for c in doc.get("cells", [])}
    for name, limits in budgets.get("cells", {}).items():
        actual = per_cell.get(name)
        if actual is None:
            failures.append(f"chaos: cell '{name}' missing from artifact "
                            f"(bench and budgets out of sync)")
            continue
        gate(failures, f"chaos[{name}].retry_ratio",
             actual["retry_ratio"], limits.get("max_retry_ratio"))
        gate(failures, f"chaos[{name}].drop_overhead_frac",
             actual["drop_overhead_frac"],
             limits.get("max_drop_overhead_frac"))
        # Structural floor: a lossy cell that records zero drops means the
        # chaos sweep silently stopped injecting.
        gate_min(failures, f"chaos[{name}].msg_drops",
                 actual["msg_drops"], limits.get("min_msg_drops"))
    limits = budgets.get("churn", {})
    if limits:
        churn = doc.get("churn")
        if churn is None:
            failures.append("chaos: budgets define churn limits but the "
                            "artifact has no 'churn' section")
            return
        gate(failures, "chaos[churn].recovery_seconds",
             churn["recovery_seconds"], limits.get("max_recovery_seconds"))
        gate_min(failures, "chaos[churn].surviving_ranks",
                 churn["surviving_ranks"], limits.get("min_surviving_ranks"))
        gate_min(failures, "chaos[churn].join_events",
                 churn["join_events"], limits.get("min_join_events"))


def check_serving(doc, budgets, failures):
    if not budgets:
        return
    if doc is None:
        failures.append("serving: budgets define serving limits but no "
                        "--serving artifact was provided")
        return
    # Deterministic amortization floor (the ISSUE's ">= 2x batched over
    # the unbatched single-walker path" in its host-independent form).
    gate_min(failures, "serving.launch_amortization",
             doc["launch_amortization"],
             budgets.get("min_launch_amortization"))
    # Wall-clock quantities: loose floors/ceilings, CI hosts vary.
    gate_min(failures, "serving.batched_speedup",
             doc["batched_speedup"], budgets.get("min_batched_speedup"))
    gate_min(failures, "serving.occupancy_mean",
             doc["batched"]["occupancy_mean"],
             budgets.get("min_occupancy_mean"))
    gate(failures, "serving.p99_latency_s",
         doc["batched"]["p99_latency_s"], budgets.get("max_p99_latency_s"))
    gate(failures, "serving.loaded_over_idle",
         doc["publish"]["loaded_over_idle"],
         budgets.get("max_loaded_over_idle"))
    # Structural exact gates: a reader can never stall a publish, and a
    # pinned request can never be served the wrong snapshot.
    gate(failures, "serving.publish_stalls",
         doc["publish"]["publish_stalls"],
         budgets.get("max_publish_stalls"))
    gate(failures, "serving.pinned_wrong_version",
         doc["mixed"]["pinned_wrong_version"],
         budgets.get("max_pinned_wrong_version"))


def check_obs(fig7bc, serving, budgets, failures):
    if not budgets:
        return
    obs = fig7bc.get("obs")
    if obs is None:
        failures.append("obs: budgets define a tracing-tax limit but the "
                        "fig7bc artifact has no 'obs' section (bench "
                        "predates the traced/untraced A/B passes?)")
    else:
        gate(failures, "obs.traced_over_untraced",
             obs["traced_over_untraced"],
             budgets.get("max_traced_over_untraced"))
    if serving is None:
        if (budgets.get("max_request_p99_latency_s") is not None
                or budgets.get("max_queue_wait_p99_s") is not None):
            failures.append("obs: budgets define serving SLOs but no "
                            "--serving artifact was provided")
        return
    batched = serving.get("batched", {})
    slo = batched.get("request_latency")
    if slo is None:
        failures.append("obs: serving artifact has no "
                        "batched.request_latency section (bench predates "
                        "the histogram SLO export?)")
        return
    gate(failures, "obs.request_latency.p99_s",
         slo["p99_s"], budgets.get("max_request_p99_latency_s"))
    gate(failures, "obs.queue_wait.p99_s",
         batched["queue_wait"]["p99_s"],
         budgets.get("max_queue_wait_p99_s"))


def gate(failures, what, actual, limit):
    if limit is None:
        return
    status = "ok" if actual <= limit else "FAIL"
    print(f"  {what:<48} {float(actual):>14.6g}  "
          f"budget {float(limit):>14.6g}  {status}")
    if actual > limit:
        failures.append(f"{what}: {actual} exceeds budget {limit}")


def gate_min(failures, what, actual, floor):
    if floor is None:
        return
    status = "ok" if actual >= floor else "FAIL"
    print(f"  {what:<48} {float(actual):>14.6g}  "
          f"floor  {float(floor):>14.6g}  {status}")
    if actual < floor:
        failures.append(f"{what}: {actual} is below the required {floor}")


def check_kernels_doc(doc, doc_path, failures):
    """Cross-check docs/KERNELS.md against the artifact's dispatch section.

    The doc's reference table is machine-diffable by construction: each row
    is `| `kernel` | `variant` | isa | `budget key` | speedup |`. Every
    registered variant must have a row with the canonical budget key, and
    the doc must not list variants the registry no longer has.
    """
    dispatch = doc.get("dispatch")
    if dispatch is None:
        failures.append(f"kernels-doc: artifact has no 'dispatch' section "
                        f"to diff {doc_path} against")
        return
    registered = {(k["kernel"], v["name"])
                  for k in dispatch.get("kernels", [])
                  for v in k.get("variants", [])}

    documented = {}   # (kernel, variant) -> budget_key
    for line in pathlib.Path(doc_path).read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 4 or not cells[0].startswith("`"):
            continue   # not a data row of the reference table
        documented[(cells[0].strip("`"), cells[1].strip("`"))] = (
            cells[3].strip("`"))

    for key in sorted(registered):
        kernel, variant = key
        doc_budget_key = documented.get(key)
        if doc_budget_key is None:
            failures.append(f"kernels-doc: registered variant "
                            f"{kernel}.{variant} has no row in {doc_path}")
            continue
        want_key = f"dispatch.{kernel}.{variant}"
        if doc_budget_key not in (want_key, "-"):
            failures.append(
                f"kernels-doc: {kernel}.{variant} budget key "
                f"'{doc_budget_key}' should be '{want_key}' (or '-')")
    for key in sorted(set(documented) - set(registered)):
        failures.append(f"kernels-doc: {doc_path} lists {key[0]}.{key[1]} "
                        f"but it is not registered (stale row)")
    n_ok = len(registered & set(documented))
    print(f"kernels-doc: {n_ok}/{len(registered)} registered variants "
          f"documented in {doc_path}")


def check_obs_doc(serving, doc_path, failures):
    """Cross-check docs/OBSERVABILITY.md against the serving artifact.

    The artifact's "obs" section inventories the observability surface at
    bench time: span names observed by a traced serving pass, every metric
    name in the registry, and every registered env knob. The doc's tables
    (## Spans / ## Metrics / ## Knobs, rows whose first cell is
    backticked) must cover them: observed spans and metrics each need a
    row, and the knob table must equal env::knobs() exactly — a knob row
    for a knob that no longer exists is as stale as a missing one.
    """
    obs = serving.get("obs")
    if obs is None:
        failures.append(f"obs-doc: serving artifact has no 'obs' inventory "
                        f"to diff {doc_path} against")
        return
    documented = {"Spans": set(), "Metrics": set(), "Knobs": set()}
    section = None
    for line in pathlib.Path(doc_path).read_text().splitlines():
        if line.startswith("## "):
            title = line[3:].strip()
            section = title if title in documented else None
            continue
        if section is None:
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 2 or not cells[0].startswith("`"):
            continue   # not a data row
        documented[section].add(cells[0].strip("`"))

    for kind, key in (("Spans", "spans"), ("Metrics", "metrics")):
        for name in sorted(set(obs.get(key, [])) - documented[kind]):
            failures.append(f"obs-doc: {kind.lower()[:-1]} '{name}' is "
                            f"emitted but has no row in {doc_path}")
    knobs = set(obs.get("knobs", []))
    for name in sorted(knobs - documented["Knobs"]):
        failures.append(f"obs-doc: knob '{name}' is registered but has no "
                        f"row in {doc_path}")
    for name in sorted(documented["Knobs"] - knobs):
        failures.append(f"obs-doc: {doc_path} lists knob '{name}' but it "
                        f"is not registered (stale row)")
    n_spans = len(set(obs.get("spans", [])) & documented["Spans"])
    n_metrics = len(set(obs.get("metrics", [])) & documented["Metrics"])
    print(f"obs-doc: {n_spans}/{len(obs.get('spans', []))} observed spans, "
          f"{n_metrics}/{len(obs.get('metrics', []))} metrics, "
          f"{len(knobs & documented['Knobs'])}/{len(knobs)} knobs "
          f"documented in {doc_path}")


def run_checks(fig7bc, fusion, budgets, chaos=None, serving=None):
    failures = []
    print("fig7bc_kernels budgets:")
    check_fig7bc(fig7bc, budgets.get("fig7bc_kernels", {}), failures)
    print("fusion budgets:")
    check_fusion(fusion, budgets.get("fusion", {}), failures)
    print("dispatch budgets:")
    check_dispatch(fig7bc, budgets.get("dispatch", {}), failures)
    if chaos is not None or budgets.get("chaos"):
        print("chaos budgets:")
        check_chaos(chaos, budgets.get("chaos", {}), failures)
    if serving is not None or budgets.get("serving"):
        print("serving budgets:")
        check_serving(serving, budgets.get("serving", {}), failures)
    if budgets.get("obs"):
        print("obs budgets:")
        check_obs(fig7bc, serving, budgets.get("obs", {}), failures)
    return failures


def rebaseline(fig7bc, fusion, path, chaos=None, serving=None):
    budgets = {
        "_comment": [
            "Perf/launch/allocation budgets for ci/check_budgets.py.",
            "Regenerated by --rebaseline from the current bench artifacts;",
            "see that script's docstring for when re-baselining is",
            "legitimate and how to justify it in the commit.",
        ],
        "fig7bc_kernels": {
            "min_fused_reduction": 2.0,
            "configs": {
                c["name"]: {
                    "max_step_kernels":
                        math.ceil(c["step_kernels"] * LAUNCH_SLACK),
                    "max_total_s": round(c["total_s"] * TIME_SLACK, 3),
                    "max_arena_peak_scope_bytes":
                        math.ceil(c["arena_peak_scope_bytes"] * ARENA_SLACK),
                } for c in fig7bc["configs"]
            },
        },
        "fusion": {
            "comparisons": {
                c["name"]: {
                    "max_fused_launches":
                        math.ceil(c["fused_launches"] * LAUNCH_SLACK),
                } for c in fusion["comparisons"]
            },
        },
    }
    dispatch = fig7bc.get("dispatch")
    if dispatch is not None:
        kernels = {}
        for k in dispatch.get("kernels", []):
            entry = {
                "variants": {
                    v["name"]: {
                        "max_s_per_call":
                            float(f"{v['s_per_call'] * TIME_SLACK:.3g}"),
                    }
                    for v in k.get("variants", []) if v.get("eligible")
                },
            }
            # The paper-shape acceptance floor: any kernel whose best
            # variant clears 1.5x on this host keeps that requirement, so
            # the SIMD win cannot silently erode (ISSUE: >=1.5x on at least
            # one hot phase, enforced here).
            if k.get("best_speedup", 0.0) >= 1.5:
                entry["min_best_speedup"] = 1.5
            kernels[k["kernel"]] = entry
        budgets["dispatch"] = {"kernels": kernels}
    if chaos is not None:
        # Chaos figures are simulated (deterministic for a fixed bench
        # scale), so they get the tight launch-style slack, not TIME_SLACK.
        cells = {}
        for c in chaos.get("cells", []):
            limits = {
                "max_retry_ratio":
                    float(f"{c['retry_ratio'] * LAUNCH_SLACK:.3g}"),
                "max_drop_overhead_frac":
                    float(f"{c['drop_overhead_frac'] * LAUNCH_SLACK:.3g}"),
            }
            if c.get("drop_p", 0.0) > 0.0 and c.get("msg_drops", 0) > 0:
                limits["min_msg_drops"] = 1
            cells[c["name"]] = limits
        churn = chaos.get("churn", {})
        budgets["chaos"] = {
            "cells": cells,
            "churn": {
                "max_recovery_seconds":
                    float(f"{churn['recovery_seconds'] * LAUNCH_SLACK:.3g}"),
                "min_surviving_ranks": churn["surviving_ranks"],
                "min_join_events": churn["join_events"],
            },
        }
    if serving is not None:
        # Launch amortization is a deterministic launch count ratio, so it
        # gets a modest floor below the measurement; the wall-clock ratios
        # (speedup, occupancy, p99, publish load factor) are host noise and
        # get TIME_SLACK-style headroom. The structural zeros are exact.
        p99 = serving["batched"]["p99_latency_s"] * TIME_SLACK
        loaded = serving["publish"]["loaded_over_idle"] * TIME_SLACK
        budgets["serving"] = {
            "min_launch_amortization":
                float(f"{serving['launch_amortization'] / 1.4:.3g}"),
            "min_batched_speedup": 1.05,
            "min_occupancy_mean":
                float(f"{serving['batched']['occupancy_mean'] / 4.0:.3g}"),
            "max_p99_latency_s": float(f"{p99:.3g}"),
            "max_publish_stalls": 0,
            "max_loaded_over_idle": max(15.0, float(f"{loaded:.3g}")),
            "max_pinned_wrong_version": 0,
        }
    if (fig7bc.get("obs") is not None and serving is not None
            and serving.get("batched", {}).get("request_latency")):
        # The tracing-tax ceiling is a ratio contract (disabled-path ==
        # one relaxed atomic load), not a measurement with host headroom,
        # so it is pinned at 1.05 rather than derived from the sample.
        lat_p99 = serving["batched"]["request_latency"]["p99_s"] * TIME_SLACK
        wait_p99 = serving["batched"]["queue_wait"]["p99_s"] * TIME_SLACK
        budgets["obs"] = {
            "max_traced_over_untraced": 1.05,
            "max_request_p99_latency_s": float(f"{lat_p99:.3g}"),
            "max_queue_wait_p99_s": float(f"{wait_p99:.3g}"),
        }
    with open(path, "w") as f:
        json.dump(budgets, f, indent=2)
        f.write("\n")
    print(f"budgets re-baselined into {path}")


def self_test(fig7bc, fusion, budgets, chaos=None, serving=None):
    clean = run_checks(fig7bc, fusion, budgets, chaos, serving)
    if clean:
        print("self-test: artifacts do not pass the current budgets, cannot "
              "run the injection test:", file=sys.stderr)
        for f in clean:
            print(f"  {f}", file=sys.stderr)
        return 1
    # Inject a launch-count regression: the fused configuration suddenly
    # issues 3x the launches (e.g. someone broke a composite kernel back
    # into primitives). The gate MUST catch this.
    broken = copy.deepcopy(fig7bc)
    for c in broken["configs"]:
        if c["name"] == "fused":
            c["step_kernels"] *= 3
    print("\nself-test: injected 3x fused launch-count regression, "
          "re-checking (failures below are EXPECTED):")
    caught = run_checks(broken, fusion, budgets, chaos, serving)
    if not caught:
        print("self-test: FAILED — the injected regression was not caught",
              file=sys.stderr)
        return 1
    print(f"\nself-test: ok — injected regression caught "
          f"({len(caught)} violation(s), e.g. '{caught[0]}')")
    # Inject a recovery-overhead regression: the churn scenario's membership
    # recovery bill (reshard + catch-up + detection) suddenly costs 10x —
    # e.g. someone broke the reshard accounting or the catch-up transfer
    # started shipping P replicas. The chaos gate MUST catch this loudly.
    if (chaos is not None and budgets.get("chaos", {}).get("churn", {})
            .get("max_recovery_seconds") is not None):
        broken_chaos = copy.deepcopy(chaos)
        broken_chaos["churn"]["recovery_seconds"] *= 10
        print("\nself-test: injected 10x churn recovery-overhead "
              "regression, re-checking (failures below are EXPECTED):")
        caught = run_checks(fig7bc, fusion, budgets, broken_chaos, serving)
        recovery = [f for f in caught if "recovery_seconds" in f]
        if not recovery:
            print("self-test: FAILED — the injected recovery-overhead "
                  "regression was not caught", file=sys.stderr)
            return 1
        print(f"\nself-test: ok — recovery-overhead regression caught "
              f"('{recovery[0]}')")
    # Inject a publish-stall regression: a reader suddenly blocks the
    # publisher (e.g. someone swapped the lock-free snapshot swap for a
    # mutex held across reads, or made publish wait for in-flight
    # evaluations). publish_stalls must be exactly 0, so even one stall
    # MUST fail the serving gate.
    if (serving is not None and budgets.get("serving", {})
            .get("max_publish_stalls") is not None):
        broken_serving = copy.deepcopy(serving)
        broken_serving["publish"]["publish_stalls"] += 7
        print("\nself-test: injected synthetic publish stalls under reader "
              "load, re-checking (failures below are EXPECTED):")
        caught = run_checks(fig7bc, fusion, budgets, chaos, broken_serving)
        stalls = [f for f in caught if "publish_stalls" in f]
        if not stalls:
            print("self-test: FAILED — the injected publish-stall "
                  "regression was not caught", file=sys.stderr)
            return 1
        print(f"\nself-test: ok — publish-stall regression caught "
              f"('{stalls[0]}')")
    # Inject a request-latency SLO regression: the batched pass's p99
    # request latency suddenly reads 100x (e.g. the batching loop grew a
    # sleep, or the queue-wait histogram started double-counting). The obs
    # gate MUST catch the fabricated p99.
    if (serving is not None and budgets.get("obs", {})
            .get("max_request_p99_latency_s") is not None):
        broken_serving = copy.deepcopy(serving)
        broken_serving["batched"]["request_latency"]["p99_s"] *= 100
        print("\nself-test: injected 100x request-latency p99 regression, "
              "re-checking (failures below are EXPECTED):")
        caught = run_checks(fig7bc, fusion, budgets, chaos, broken_serving)
        slo = [f for f in caught if "request_latency" in f]
        if not slo:
            print("self-test: FAILED — the injected p99 SLO regression was "
                  "not caught", file=sys.stderr)
            return 1
        print(f"\nself-test: ok — p99 SLO regression caught ('{slo[0]}')")
    # Inject a missing-variant regression: a budgeted SIMD variant vanishes
    # from the artifact (someone deleted or renamed its registration). The
    # dispatch gate MUST treat that as a failure, not a skip.
    injected = None
    for kernel, limits in budgets.get("dispatch", {}).get(
            "kernels", {}).items():
        for vname in limits.get("variants", {}):
            if vname != "scalar":
                injected = (kernel, vname)
                break
        if injected:
            break
    if injected is None:
        print("self-test: SKIPPED missing-variant injection — budgets "
              "define no non-scalar dispatch variants", file=sys.stderr)
        return 0
    broken = copy.deepcopy(fig7bc)
    for k in broken["dispatch"]["kernels"]:
        if k["kernel"] == injected[0]:
            k["variants"] = [v for v in k["variants"]
                             if v["name"] != injected[1]]
    print(f"\nself-test: removed variant {injected[0]}.{injected[1]} from "
          f"the artifact, re-checking (failures below are EXPECTED):")
    caught = run_checks(broken, fusion, budgets, chaos, serving)
    missing = [f for f in caught if "missing from artifact" in f
               and injected[1] in f]
    if not missing:
        print("self-test: FAILED — the missing-variant regression was not "
              "caught", file=sys.stderr)
        return 1
    print(f"\nself-test: ok — missing variant caught ('{missing[0]}')")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--summary", default=DEFAULT_SUMMARY,
                        help="BENCH_summary.json from run_benches.sh")
    parser.add_argument("--fig7bc", default=None,
                        help="fig7bc_kernels.json (overrides --summary)")
    parser.add_argument("--fusion", default=None,
                        help="fusion.json (overrides --summary)")
    parser.add_argument("--chaos", default=None,
                        help="chaos.json from bench_chaos (optional; "
                             "required when budgets have a chaos section)")
    parser.add_argument("--serving", default=None,
                        help="serving.json from bench_serving (optional; "
                             "required when budgets have a serving section)")
    parser.add_argument("--budgets", default=str(DEFAULT_BUDGETS))
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite --budgets from the current artifacts")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate catches an injected "
                             "launch-count regression, a removed dispatch "
                             "variant, synthetic publish stalls, and a "
                             "fabricated request-latency p99")
    parser.add_argument("--kernels-doc", default=None, metavar="FILE",
                        help="cross-check docs/KERNELS.md rows against the "
                             "artifact's dispatch section")
    parser.add_argument("--obs-doc", default=None, metavar="FILE",
                        help="cross-check docs/OBSERVABILITY.md tables "
                             "against the serving artifact's obs inventory")
    args = parser.parse_args()

    fig7bc_path, fusion_path = args.fig7bc, args.fusion
    if fig7bc_path is None or fusion_path is None:
        summary = load_json(args.summary)
        arts = summary.get("artifacts", {})
        fig7bc_path = fig7bc_path or arts["fig7bc_kernels"]
        fusion_path = fusion_path or arts["fusion"]
        if summary.get("failures", 0):
            print(f"check_budgets: run_benches.sh recorded "
                  f"{summary['failures']} harness failure(s)",
                  file=sys.stderr)
            return 1
    fig7bc = load_json(fig7bc_path)
    fusion = load_json(fusion_path)
    chaos = load_json(args.chaos) if args.chaos else None
    serving = load_json(args.serving) if args.serving else None

    if args.rebaseline:
        rebaseline(fig7bc, fusion, args.budgets, chaos, serving)
        return 0
    budgets = load_json(args.budgets)
    if args.self_test:
        return self_test(fig7bc, fusion, budgets, chaos, serving)
    failures = run_checks(fig7bc, fusion, budgets, chaos, serving)
    if args.kernels_doc:
        check_kernels_doc(fig7bc, args.kernels_doc, failures)
    if args.obs_doc:
        if serving is None:
            failures.append("--obs-doc needs a --serving artifact for the "
                            "obs inventory")
        else:
            check_obs_doc(serving, args.obs_doc, failures)
    if failures:
        print(f"check_budgets: {len(failures)} violation(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("check_budgets: all budgets satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
