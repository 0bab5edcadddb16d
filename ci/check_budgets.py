#!/usr/bin/env python3
"""Perf/launch/allocation budget gate over the bench JSON artifacts.

Reads the machine-readable documents run_benches.sh (or ci/run_ci.sh)
writes into bench_artifacts/ — `fig7bc_kernels.json` and `fusion.json`,
located via `BENCH_summary.json` or passed directly, plus the optional
`--chaos` and `--serving` artifacts — and fails (exit 1) when any value
crosses its threshold in ci/budgets.json.

Every gated value is one row of RULES below: which artifact it comes from,
which keyed item (configuration, fusion comparison, `kernel.variant`) and
value path, whether the budget is a ceiling or a floor, which
budgets.json key holds it, when the row applies, and how --rebaseline
derives the limit. One checker, one rebaseliner and one self-test walk that
table. The groups it covers:

  * fig7bc_kernels (Fig. 7b/7c, DESIGN.md §12): per-configuration step
    launches, wall time and arena bytes, zero retired arena slabs, and the
    fused configuration keeping `min_fused_reduction` x fewer launches than
    the baseline. Arena rows are skipped when the artifact records the
    arena as disabled (FEKF_ARENA=0)
  * fusion: launches per fusion site, each fused path launching fewer
    kernels than its unfused twin (arena_vs_heap is exempt: both legs run
    the same kernels, and it is absent when the arena is off)
  * dispatch (DESIGN.md §13): every budgeted `kernel.variant` must still be
    registered (a vanished variant is a failure, not a skip), eligible
    variants meet `max_s_per_call`, and `min_best_speedup` holds the
    best-variant-vs-scalar speedup whenever a non-scalar variant is
    eligible on the host
  * chaos (DESIGN.md §10): the churn scenario's membership recovery bill,
    surviving ranks and joins. Simulated seconds, deterministic for a fixed
    bench scale, so these budgets are tight
  * serving (DESIGN.md §14): launch amortization (deterministic), batched
    speedup (median of alternating A/B pairs), occupancy, p99 latency and
    publish load factor (loose, host-dependent), and the structural zeros
    (publish stalls, pinned-version violations)
  * obs (DESIGN.md §11): the tracing tax of the fused training step and the
    request-level serving SLOs read from the production histograms

A budgeted item missing from its artifact fails, and so does a budgeted
section whose artifact was not given. Wall-time limits carry generous slack
because CI hosts vary; launch and byte limits are the tight ones.

--kernels-doc FILE cross-checks docs/KERNELS.md against the artifact's
dispatch section: every registered variant needs a row with its budget key,
and the doc may not list variants the registry no longer has. --obs-doc
FILE cross-checks docs/OBSERVABILITY.md the same way against the union of
the "obs" inventories of the serving artifact and of the chaos artifact
(whose traced leg trains, checkpoints and runs the cluster): observed spans
and metrics each need a row (a `<kind>` placeholder in a row name matches
one dotted segment), and the knob table must equal env::knobs() in both
directions. Both read the doc through one markdown table reader.

Re-baselining (after an INTENTIONAL change to kernel granularity, bench
scale, or model defaults): run the benches, eyeball the new numbers, then
  python3 ci/check_budgets.py --rebaseline
which rewrites ci/budgets.json from the current artifacts by each rule's
derivation (launches +5%, arena bytes +25%, wall time x4, pinned contract
values as they are). Commit the regenerated file together with the change
that moved the numbers and say why in the commit message — the diff IS the
perf review.

--self-test proves the gate can fail. The artifacts must first pass. Then,
for every value the gate checked, it pushes that value just past its limit
(or deletes the keyed item for presence rows) and requires that row's
failure; it drops each given artifact and requires the "not given" failure;
it rebaselines the same artifacts in memory and requires them to pass with
every checked row finding its budget key; it feeds the doc table reader
a KERNELS.md built from the artifact with one row dropped and one stale row
added, and requires both to be reported; and it diffs an OBSERVABILITY.md
built from the union inventory with one training-only metric row dropped,
and requires that row to be reported.
"""

import argparse
import copy
import json
import math
import operator
import pathlib
import re
import sys
from typing import Callable, NamedTuple, Optional

DEFAULT_SUMMARY = "bench_artifacts/BENCH_summary.json"
DEFAULT_BUDGETS = pathlib.Path(__file__).parent / "budgets.json"

LAUNCH_SLACK = 1.05   # launches are deterministic; tolerate tiny drift
ARENA_SLACK = 1.25    # slab rounding makes byte counts slightly lumpy
TIME_SLACK = 4.0      # CI hosts vary widely; wall time is the loose gate


class Direction(NamedTuple):
    passes: Callable
    word: str      # printed before the limit
    verdict: str   # failure wording
    sign: int      # the side of the limit a violation lies on
    prefix: str    # budget keys of this direction start with it


DIRECTIONS = {
    "max": Direction(operator.le, "budget", "exceeds budget", 1, "max_"),
    "min": Direction(operator.ge, "floor ", "is below the required", -1,
                     "min_"),
    "below": Direction(operator.lt, "budget", "is not below", 1, "max_"),
}


class Cond(NamedTuple):
    """When a row applies: pred(doc, key, item) with the artifact, the
    last item key and the keyed item; reason is printed when it does not."""
    reason: str
    pred: Callable


class Rule(NamedTuple):
    """One gated value. `value` and `budget` are dotted paths; each '*'
    binds one item key (list elements are keyed by their name or kernel
    field, budget dicts by their keys). The budget path ends at the limit's
    key, whose max_/min_ prefix matches the direction; a row with a pinned
    `limit` names its key the same way but takes the limit from the table.
    A "present" row's path ends at the item, which must exist. With `per`
    the value is value / max(1, per). Rows with `per` and presence rows
    only report failures; the others print their gated line."""
    name: str                          # '{}' takes the item key
    art: str
    value: str
    direction: str
    budget: str
    rebase: Optional[Callable] = None  # measured value -> limit (None: omit)
    when: Optional[Cond] = None
    limit: Optional[float] = None
    per: Optional[str] = None


class Check(NamedTuple):
    rule: Rule
    keys: tuple
    limit: Optional[float]
    failure: Optional[str]


def sig3(x):
    return float(f"{x:.3g}")


ARENA = Cond("arena disabled", lambda doc, key, item: doc.get("arena_enabled"))
ELIGIBLE = Cond("not eligible on this host",
                lambda doc, key, item: item.get("eligible", False))
SIMD_ELIGIBLE = Cond(
    "no eligible non-scalar variant on this host",
    lambda doc, key, item: any(v.get("eligible") and v["name"] != "scalar"
                               for v in item.get("variants", [])))
# arena_vs_heap times the allocator under identical kernels, so both legs
# launch the same count; it is not measured at all when FEKF_ARENA=0.
NOT_ARENA_VS_HEAP = Cond("same kernels on both legs",
                         lambda doc, key, item: key != "arena_vs_heap")
MEASURED = Cond("arena disabled", lambda doc, key, item:
                key != "arena_vs_heap" or doc.get("arena_enabled"))

RULES = [
    Rule("fig7bc.fused_reduction", "fig7bc", "configs.baseline.step_kernels",
         "min", "fig7bc_kernels.min_fused_reduction", lambda _: 2.0,
         per="configs.fused.step_kernels"),
    Rule("fig7bc[{}]", "fig7bc", "configs.*", "present",
         "fig7bc_kernels.configs.*"),
    Rule("fig7bc[{}].step_kernels", "fig7bc", "configs.*.step_kernels", "max",
         "fig7bc_kernels.configs.*.max_step_kernels",
         lambda x: math.ceil(x * LAUNCH_SLACK)),
    Rule("fig7bc[{}].total_s", "fig7bc", "configs.*.total_s", "max",
         "fig7bc_kernels.configs.*.max_total_s",
         lambda x: round(x * TIME_SLACK, 3)),
    Rule("fig7bc[{}].arena_peak_scope_bytes", "fig7bc",
         "configs.*.arena_peak_scope_bytes", "max",
         "fig7bc_kernels.configs.*.max_arena_peak_scope_bytes",
         lambda x: math.ceil(x * ARENA_SLACK), when=ARENA),
    Rule("fig7bc[{}].arena_retired_slabs", "fig7bc",
         "configs.*.arena_retired_slabs", "max",
         "fig7bc_kernels.configs.*.max_arena_retired_slabs", when=ARENA,
         limit=0),
    Rule("fusion[{}]", "fusion", "comparisons.*", "present",
         "fusion.comparisons.*", when=MEASURED),
    Rule("fusion[{}].fused_launches", "fusion", "comparisons.*.fused_launches",
         "max", "fusion.comparisons.*.max_fused_launches",
         lambda x: math.ceil(x * LAUNCH_SLACK)),
    Rule("fusion[{}].fused_over_unfused_launches", "fusion",
         "comparisons.*.fused_launches", "below",
         "fusion.comparisons.*.max_fused_over_unfused_launches",
         when=NOT_ARENA_VS_HEAP, limit=1,
         per="comparisons.*.unfused_launches"),
    Rule("dispatch[{}]", "fig7bc", "dispatch.kernels.*.variants.*", "present",
         "dispatch.kernels.*.variants.*"),
    Rule("dispatch[{}].s_per_call", "fig7bc",
         "dispatch.kernels.*.variants.*.s_per_call", "max",
         "dispatch.kernels.*.variants.*.max_s_per_call",
         lambda x: sig3(x * TIME_SLACK), when=ELIGIBLE),
    # The paper-shape floor: a kernel whose best variant clears 1.5x on the
    # baselining host keeps that requirement, so the SIMD win cannot erode.
    Rule("dispatch[{}].best_speedup", "fig7bc",
         "dispatch.kernels.*.best_speedup",
         "min", "dispatch.kernels.*.min_best_speedup",
         lambda x: 1.5 if x >= 1.5 else None, when=SIMD_ELIGIBLE),
    # Chaos figures are simulated, deterministic for a fixed bench scale, so
    # they get the tight launch slack, not TIME_SLACK.
    Rule("chaos[churn].recovery_seconds", "chaos", "churn.recovery_seconds",
         "max", "chaos.churn.max_recovery_seconds",
         lambda x: sig3(x * LAUNCH_SLACK)),
    Rule("chaos[churn].surviving_ranks", "chaos", "churn.surviving_ranks",
         "min", "chaos.churn.min_surviving_ranks", lambda x: x),
    Rule("chaos[churn].join_events", "chaos", "churn.join_events", "min",
         "chaos.churn.min_join_events", lambda x: x),
    # Launch amortization is a deterministic launch ratio, so its floor sits
    # modestly below the measurement; the wall-clock rows get TIME_SLACK
    # headroom, and the structural zeros are exact.
    Rule("serving.launch_amortization", "serving", "launch_amortization",
         "min", "serving.min_launch_amortization", lambda x: sig3(x / 1.4)),
    Rule("serving.batched_speedup", "serving", "batched_speedup", "min",
         "serving.min_batched_speedup", lambda _: 1.05),
    Rule("serving.occupancy_mean", "serving", "batched.occupancy_mean", "min",
         "serving.min_occupancy_mean", lambda x: sig3(x / 4.0)),
    Rule("serving.p99_latency_s", "serving", "batched.p99_latency_s", "max",
         "serving.max_p99_latency_s", lambda x: sig3(x * TIME_SLACK)),
    Rule("serving.publish_stalls", "serving", "publish.publish_stalls", "max",
         "serving.max_publish_stalls", lambda _: 0),
    Rule("serving.loaded_over_idle", "serving", "publish.loaded_over_idle",
         "max", "serving.max_loaded_over_idle",
         lambda x: max(15.0, sig3(x * TIME_SLACK))),
    Rule("serving.pinned_wrong_version", "serving",
         "mixed.pinned_wrong_version", "max",
         "serving.max_pinned_wrong_version", lambda _: 0),
    # A ratio contract (the disabled path is one relaxed load), not a
    # measurement with host headroom, so the ceiling is pinned.
    Rule("obs.traced_over_untraced", "fig7bc", "obs.traced_over_untraced",
         "max", "obs.max_traced_over_untraced", lambda _: 1.05),
    Rule("obs.request_latency.p99_s", "serving",
         "batched.request_latency.p99_s",
         "max", "obs.max_request_p99_latency_s",
         lambda x: sig3(x * TIME_SLACK)),
    Rule("obs.queue_wait.p99_s", "serving", "batched.queue_wait.p99_s", "max",
         "obs.max_queue_wait_p99_s", lambda x: sig3(x * TIME_SLACK)),
]


def load_json(path):
    with open(path) as f:
        return json.load(f)


def child(node, key):
    """A dict member, or the list element whose name (or kernel) is key."""
    if isinstance(node, dict):
        return node.get(key)
    if isinstance(node, list):
        return next((e for e in node
                     if e.get("name", e.get("kernel")) == key), None)
    return None


def bindings(node, segs, keys=()):
    """Yield (keys, node) for every binding of the '*' segments in segs."""
    if not segs:
        yield keys, node
        return
    if segs[0] != "*":
        nxt = child(node, segs[0])
        if nxt is not None:
            yield from bindings(nxt, segs[1:], keys)
        return
    pairs = (node.items() if isinstance(node, dict) else
             ((e.get("name", e.get("kernel")), e) for e in node)
             if isinstance(node, list) else ())
    for key, nxt in pairs:
        yield from bindings(nxt, segs[1:], keys + (key,))


def bind(segs, keys):
    """segs with each '*' replaced by the next key."""
    keys = iter(keys)
    return [next(keys) if s == "*" else s for s in segs]


def lookup(node, segs):
    """The node at the path segs, or None."""
    for seg in segs:
        node = child(node, seg)
        if node is None:
            return None
    return node


def split(path):
    """(item segments, field segments): the item ends at the last '*'."""
    segs = path.split(".")
    cut = max((i + 1 for i, s in enumerate(segs) if s == "*"), default=0)
    return segs[:cut], segs[cut:]


def measure(rule, doc, keys):
    """(item, value) of rule at keys; value is None when a field is absent
    and item is None when the keyed item is."""
    item_segs, field = split(rule.value)
    item = lookup(doc, bind(item_segs, keys))
    if item is None or rule.direction == "present":
        return item, item
    value = lookup(item, field)
    if rule.per is not None and value is not None:
        den = lookup(doc, bind(rule.per.split("."), keys))
        value = None if den is None else value / max(1, den)
    return item, value


def applies(rule, doc, keys, item):
    return rule.when is None or rule.when.pred(doc, keys[-1] if keys else None,
                                               item)


def run_checks(arts, budgets, out=print):
    """Gate every rule of RULES; returns the Checks made, failed or not."""
    checks, section = [], None
    for rule in RULES:
        doc = arts[rule.art]
        segs = rule.budget.split(".")
        if segs[0] != section and segs[0] in budgets:
            section = segs[0]
            out(f"{section} budgets:")
        quiet = rule.direction == "present" or rule.per is not None
        pinned = rule.limit is not None
        for keys, limit in bindings(budgets, segs[:-1] if pinned else segs):
            limit = rule.limit if pinned else limit
            what = rule.name.format(".".join(keys))
            if doc is None:
                checks.append(Check(rule, keys, limit, (
                    f"{segs[0]}: budgets define limits but no --{rule.art} "
                    f"artifact was provided")))
                continue
            item, value = measure(rule, doc, keys)
            if item is None and rule.direction != "present":
                continue   # the item's presence row reports it
            if not applies(rule, doc, keys, item):
                if not quiet:
                    out(f"  {what:<48} skipped ({rule.when.reason})")
                continue
            if value is None:
                checks.append(Check(rule, keys, limit, (
                    f"{what}: missing from the {rule.art} artifact (bench and "
                    f"budgets out of sync)")))
                continue
            if rule.direction == "present":
                checks.append(Check(rule, keys, None, None))
                continue
            d = DIRECTIONS[rule.direction]
            ok = d.passes(value, limit)
            if not quiet:
                out(f"  {what:<48} {float(value):>14.6g}  {d.word} "
                    f"{float(limit):>14.6g}  {'ok' if ok else 'FAIL'}")
            checks.append(Check(rule, keys, limit, None if ok else
                                f"{what}: {value} {d.verdict} {limit}"))
    return checks


def rebaseline(arts):
    """Budgets derived from the artifacts by each rule's rebase."""
    budgets = {"_comment": [
        "Perf/launch/allocation budgets for ci/check_budgets.py.",
        "Regenerated by --rebaseline from the current bench artifacts;",
        "see that script's docstring for when re-baselining is",
        "legitimate and how to justify it in the commit.",
    ]}
    for rule in RULES:
        doc = arts[rule.art]
        if rule.rebase is None or doc is None:
            continue
        for keys, _ in bindings(doc, split(rule.value)[0]):
            item, value = measure(rule, doc, keys)
            if value is None or not applies(rule, doc, keys, item):
                continue
            limit = rule.rebase(value)
            if limit is None:
                continue
            node = budgets
            *path, leaf = bind(rule.budget.split("."), keys)
            for seg in path:
                node = node.setdefault(seg, {})
            node[leaf] = limit
    return budgets


def inject(check, arts):
    """Push the checked value just past its limit, or delete its item."""
    rule, keys = check.rule, check.keys
    doc = arts[rule.art]
    segs = rule.value.split(".")
    parent = lookup(doc, bind(segs[:-1], keys))
    if rule.direction == "present":
        if isinstance(parent, dict):
            del parent[keys[-1]]
        else:
            parent.remove(child(parent, keys[-1]))
        return f"deleted {rule.name.format('.'.join(keys))}"
    step = max(abs(check.limit) * 0.01, 1e-6)
    bad = check.limit + DIRECTIONS[rule.direction].sign * step
    if rule.per is not None:
        bad *= max(1, lookup(doc, bind(rule.per.split("."), keys)))
    parent[segs[-1]] = bad
    return f"pushed {rule.name.format('.'.join(keys))} to {bad:.6g}"


def self_test(arts, budgets):
    clean = run_checks(arts, budgets)
    failed = [c.failure for c in clean if c.failure]
    if failed:
        print("self-test: artifacts do not pass the current budgets, cannot "
              "run the injection test:", file=sys.stderr)
        for f in dict.fromkeys(failed):
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nself-test: injecting a violation into each of the {len(clean)} "
          f"checked values (gate output suppressed):")
    missed = []
    for check in clean:
        broken = copy.deepcopy(arts)
        what = inject(check, broken)
        caught = [c for c in run_checks(broken, budgets, out=lambda _: None)
                  if c.failure and c.rule is check.rule
                  and c.keys == check.keys]
        print(f"  {'caught' if caught else 'MISSED'}  {what}")
        if not caught:
            missed.append(what)
    for art, doc in arts.items():
        if doc is None:
            continue
        caught = [c for c in run_checks({**arts, art: None}, budgets,
                                        out=lambda _: None)
                  if c.failure and c.rule.art == art]
        print(f"  {'caught' if caught else 'MISSED'}  dropped the {art} "
              f"artifact")
        if not caught:
            missed.append(f"dropped the {art} artifact")
    # The table, the checker and --rebaseline must agree: every limit's
    # key declares the rule's direction, the artifacts pass budgets
    # rebaselined from themselves, and every rule that was checked above
    # finds its budget key there.
    for rule in RULES:
        leaf = rule.budget.split(".")[-1]
        if (rule.direction != "present"
                and not leaf.startswith(DIRECTIONS[rule.direction].prefix)):
            missed.append(f"{rule.name}: a '{rule.direction}' rule under "
                          f"budget key {leaf}")
    fresh = rebaseline(arts)
    rechecked = run_checks(arts, fresh, out=lambda _: None)
    for c in rechecked:
        if c.failure:
            missed.append(f"rebaselined budgets: {c.failure}")
    for rule in dict.fromkeys(c.rule for c in clean):
        if not any(c.rule is rule for c in rechecked):
            missed.append(f"--rebaseline writes no {rule.budget}")
    missed += doc_self_test(arts["fig7bc"])
    missed += obs_doc_self_test(arts)
    if missed:
        print("self-test: FAILED —", file=sys.stderr)
        for m in missed:
            print(f"  {m}", file=sys.stderr)
        return 1
    print(f"\nself-test: ok — every injected violation caught, the "
          f"artifacts pass their own rebaseline ({len(rechecked)} checks), "
          f"the KERNELS.md diff reports a dropped and a stale row, and the "
          f"OBSERVABILITY.md diff a dropped training row")
    return 0


def doc_tables(text):
    """{section: rows} of a markdown doc: under each '## ' heading, the
    table rows whose first cell is backticked, cells without backticks."""
    tables, section = {}, ""
    for line in text.splitlines():
        if line.startswith("## "):
            section = line[3:].strip()
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 2 and cells[0].startswith("`"):
            tables.setdefault(section, []).append(
                [c.strip("`") for c in cells])
    return tables


def check_kernels_doc(fig7bc, text, where, failures):
    """Every registered variant needs a `| kernel | variant | isa | budget
    key | ... |` row with its canonical budget key; no row may name a
    variant the registry no longer has."""
    dispatch = fig7bc.get("dispatch")
    if dispatch is None:
        failures.append(f"kernels-doc: artifact has no 'dispatch' section "
                        f"to diff {where} against")
        return
    registered = {(k["kernel"], v["name"])
                  for k in dispatch.get("kernels", [])
                  for v in k.get("variants", [])}
    documented = {(r[0], r[1]): r[3] for rows in doc_tables(text).values()
                  for r in rows if len(r) >= 4}
    for kernel, variant in sorted(registered):
        doc_budget_key = documented.get((kernel, variant))
        want_key = f"dispatch.{kernel}.{variant}"
        if doc_budget_key is None:
            failures.append(f"kernels-doc: registered variant "
                            f"{kernel}.{variant} has no row in {where}")
        elif doc_budget_key not in (want_key, "-"):
            failures.append(
                f"kernels-doc: {kernel}.{variant} budget key "
                f"'{doc_budget_key}' should be '{want_key}' (or '-')")
    for key in sorted(set(documented) - registered):
        failures.append(f"kernels-doc: {where} lists {key[0]}.{key[1]} "
                        f"but it is not registered (stale row)")
    print(f"kernels-doc: {len(registered & set(documented))}/"
          f"{len(registered)} registered variants documented in {where}")


OBS_SOURCES = ("serving", "chaos")  # bench_serving, and bench_chaos's training


def obs_inventory(arts, where, failures):
    """The union of the serving and training artifacts' "obs" inventories
    ({spans, metrics, knobs} name sets); a missing one is a failure."""
    union = {"spans": set(), "metrics": set(), "knobs": set()}
    for art in OBS_SOURCES:
        obs = (arts.get(art) or {}).get("obs")
        if obs is None:
            failures.append(f"obs-doc: no {art} artifact 'obs' inventory to "
                            f"diff {where} against")
            continue
        for key, names in union.items():
            names.update(obs.get(key, []))
    return union


def row_pattern(name):
    """A doc row name as a regex; a `<kind>` placeholder matches one dotted
    segment, so `dist.fault.<kind>` covers every dist.fault.* metric."""
    parts = re.split(r"(<[^>]+>)", name)
    return re.compile("".join("[^.]+" if p.startswith("<") else re.escape(p)
                              for p in parts) + r"\Z")


def check_obs_doc(arts, text, where, failures):
    """The union inventory against the doc's ## Spans / ## Metrics /
    ## Knobs tables: observed spans and metrics each need a row, and the
    knob table must equal env::knobs() — a row for a knob that no longer
    exists is as stale as a missing one."""
    inv = obs_inventory(arts, where, failures)
    tables = doc_tables(text)
    counts = {}
    for kind, key in (("Spans", "spans"), ("Metrics", "metrics")):
        patterns = [row_pattern(r[0]) for r in tables.get(kind, [])]
        missing = sorted(n for n in inv[key]
                         if not any(p.match(n) for p in patterns))
        for name in missing:
            failures.append(f"obs-doc: {kind.lower()[:-1]} '{name}' is "
                            f"emitted but has no row in {where}")
        counts[key] = len(inv[key]) - len(missing)
    knobs = inv["knobs"]
    documented_knobs = {r[0] for r in tables.get("Knobs", [])}
    for name in sorted(knobs - documented_knobs):
        failures.append(f"obs-doc: knob '{name}' is registered but has no "
                        f"row in {where}")
    for name in sorted(documented_knobs - knobs):
        failures.append(f"obs-doc: {where} lists knob '{name}' but it "
                        f"is not registered (stale row)")
    print(f"obs-doc: {counts['spans']}/{len(inv['spans'])} observed spans, "
          f"{counts['metrics']}/{len(inv['metrics'])} metrics, "
          f"{len(knobs & documented_knobs)}/{len(knobs)} knobs "
          f"documented in {where}")


def obs_doc_self_test(arts):
    """The OBSERVABILITY.md diff on a doc built from the union inventory:
    it must pass as built, and report a dropped training-only metric row
    (train.steps when the training inventory has it)."""
    failures = []
    inv = obs_inventory(arts, "the self-test doc", failures)
    if failures:
        return [f"obs-doc self-test: {f}" for f in failures]
    training_only = sorted(set(arts["chaos"]["obs"].get("metrics", [])) -
                           set(arts["serving"]["obs"].get("metrics", [])))
    if not training_only:
        return ["obs-doc self-test: the training inventory adds no metric"]
    dropped = "train.steps" if "train.steps" in training_only \
        else training_only[0]
    problems = []
    for skip, want in ((None, []),
                       (dropped, [f"metric '{dropped}' is emitted"])):
        text = "\n".join(
            f"## {kind}\n\n" + "\n".join(f"| `{n}` | - |"
                                         for n in sorted(inv[key])
                                         if n != skip)
            for kind, key in (("Spans", "spans"), ("Metrics", "metrics"),
                              ("Knobs", "knobs")))
        failures = []
        check_obs_doc(arts, text, "OBSERVABILITY.md (in memory)", failures)
        if len(failures) != len(want) or not all(
                any(w in f for f in failures) for w in want):
            problems.append(f"obs-doc self-test: wanted {want}, got "
                            f"{failures}")
    return problems


def doc_self_test(fig7bc):
    """The KERNELS.md diff on a doc built from the artifact's registry: it
    must pass as built, and report a dropped row and an added stale one."""
    variants = [(k["kernel"], v["name"])
                for k in fig7bc.get("dispatch", {}).get("kernels", [])
                for v in k.get("variants", [])]
    if not variants:
        return ["kernels-doc: the artifact registers no variants to test on"]
    kernel, variant = variants[0]
    problems = []
    for rows, want in ((variants, []),
                       (variants[1:] + [(kernel, "retired")],
                        [f"{kernel}.{variant} has no row",
                         f"lists {kernel}.retired but"])):
        text = "## Variant catalog\n\n" + "\n".join(
            f"| `{k}` | `{v}` | - | `dispatch.{k}.{v}` | - |" for k, v in rows)
        failures = []
        check_kernels_doc(fig7bc, text, "KERNELS.md (in memory)", failures)
        if len(failures) != len(want) or not all(
                any(w in f for f in failures) for w in want):
            problems.append(f"kernels-doc self-test: wanted {want}, got "
                            f"{failures}")
    return problems


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
                        help="verify the gate catches an injected violation "
                             "of every checked value, a dropped artifact, "
                             "and a drifted KERNELS.md table")
    parser.add_argument("--kernels-doc", default=None, metavar="FILE",
                        help="cross-check docs/KERNELS.md rows against the "
                             "artifact's dispatch section")
    parser.add_argument("--obs-doc", default=None, metavar="FILE",
                        help="cross-check docs/OBSERVABILITY.md tables "
                             "against the serving and chaos artifacts' obs "
                             "inventories")
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
    paths = {"fig7bc": fig7bc_path, "fusion": fusion_path,
             "chaos": args.chaos, "serving": args.serving}
    arts = {name: load_json(p) if p else None for name, p in paths.items()}

    if args.rebaseline:
        with open(args.budgets, "w") as f:
            json.dump(rebaseline(arts), f, indent=2)
            f.write("\n")
        print(f"budgets re-baselined into {args.budgets}")
        return 0
    budgets = load_json(args.budgets)
    if args.self_test:
        return self_test(arts, budgets)
    failures = [c.failure for c in run_checks(arts, budgets) if c.failure]
    if args.kernels_doc:
        check_kernels_doc(arts["fig7bc"],
                          pathlib.Path(args.kernels_doc).read_text(),
                          args.kernels_doc, failures)
    if args.obs_doc:
        check_obs_doc(arts, pathlib.Path(args.obs_doc).read_text(),
                      args.obs_doc, failures)
    failures = list(dict.fromkeys(failures))
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
