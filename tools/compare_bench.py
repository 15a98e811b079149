#!/usr/bin/env python3
"""Compare a fresh bench --json output against the checked-in baseline.

Three schemas are understood:

* harness schema (bench_headline_claims and friends): a JSON array of
  records {bench, workload, config, cycles, insts, ipc, wall_seconds,
  sim_mips}. Simulated statistics (cycles, insts, ipc) are exact model
  outputs, so any drift is an error; wall_seconds is host-dependent, so
  a >10% regression only warns.

* sweep-driver schema (sdv_sweep --json): an object {"sweep": {...},
  "results": [...]}; the results records carry the same simulated
  statistics plus a commit_hash (compared exactly) and no per-record
  wall time — the total lives in the "sweep" metadata (warn-only).
  Interval-sampled sweeps (sdv_sweep --samples) add "footprint",
  "samples" and "measure_insts" to the metadata and a per-record
  "samples" count: the sampled estimates are deterministic, so they
  still compare exactly, but the measurement parameters must match —
  a baseline captured under one sampling setup is meaningless against
  results from another, so any metadata mismatch is an error.

* google-benchmark schema (bench_micro_components): an object with a
  "benchmarks" array. Timings are host-dependent; the benchmark set
  must match and a >10% real_time regression warns.

Harness and sweep records may carry a "val_mismatches" counter (the
engine's validation value self-check): any non-zero value in the NEW
results is an error regardless of the baseline — a mismatch means
speculative values diverged from architectural ones.

Observability fields are optional riders: records produced under
--telemetry carry a "telemetry" interval array, and sweep documents
produced under --metrics-summary carry a top-level "exec_metrics"
object. Both are tolerated on either side and excluded
from comparison (telemetry values still go through the non-finite
scan). --forbid-obs turns their *presence in the new results* into an
error — the CI guard that default-mode regenerations stay observability
-free and byte-comparable to the checked-in baselines.

Both record schemas also print a per-plan wall-time delta summary
table (aggregated by the record's "bench" field) so the perf
trajectory is visible in CI logs, not just the warn-on-regression
threshold.

Exit status: 1 on stat drift or schema mismatch, 0 otherwise (warnings
included). --update rewrites the baseline file with the new results
after a successful (or warn-only) comparison, keeping the checked-in
perf trajectory current.
"""

import argparse
import json
import shutil
import sys

TIME_REGRESSION_WARN = 0.10
IPC_TOLERANCE = 5e-5  # ipc is serialized with 4 decimals


def load(path):
    with open(path) as f:
        return json.load(f)


def schema_of(doc):
    """Classify a loaded document: harness / sweep / google-benchmark."""
    if isinstance(doc, list):
        return "harness"
    if isinstance(doc, dict) and "results" in doc:
        return "sweep"
    return "google-benchmark"


def sweep_records(doc):
    return doc["results"]


def sweep_wall(doc):
    return doc.get("sweep", {}).get("wall_seconds", 0.0)


def wall_summary(base, new, base_total=None, new_total=None):
    """Per-plan wall-time delta table, aggregated by the "bench" field.

    Per-record wall times exist only in the harness schema; sweep
    documents carry one total, passed via base_total/new_total."""
    plans = {}
    for r in base:
        k = r.get("bench", "")
        plans.setdefault(k, [0.0, 0.0])[0] += r.get("wall_seconds", 0.0)
    for r in new:
        k = r.get("bench", "")
        plans.setdefault(k, [0.0, 0.0])[1] += r.get("wall_seconds", 0.0)
    if base_total is not None:
        only = {k.split(":")[-1] for k in plans}
        label = "total(%s)" % "+".join(sorted(only)) if only else "total"
        plans = {label: [base_total, new_total]}
    rows = [(k, b, n) for k, (b, n) in sorted(plans.items())
            if b > 0 or n > 0]
    if not rows:
        return
    print(f"  {'plan':<28} {'base':>9} {'new':>9} {'delta':>8}")
    for k, b, n in rows:
        delta = "n/a" if b <= 0 else f"{100.0 * (n - b) / b:+.1f}%"
        print(f"  {k:<28} {b:>8.3f}s {n:>8.3f}s {delta:>8}")


REQUIRED_STAT_FIELDS = ("workload", "config", "cycles", "insts", "ipc")


def check_stat_fields(new):
    """Hard-fail on missing or non-finite simulated statistics.

    A record that lost a stat field (schema regression) or carries a
    NaN/inf (bad aggregation, divide-by-zero) would otherwise slip
    through the exact-match comparison whenever the baseline has the
    same defect; validate the NEW results unconditionally.
    """
    import math

    errors = []

    def scan(value, path):
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{path}: non-finite stat value {value!r}")
        elif isinstance(value, dict):
            for k, v in value.items():
                scan(v, f"{path}.{k}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                scan(v, f"{path}[{i}]")

    for r in new:
        ident = (f"({r.get('bench', '')}, {r.get('workload', '?')}, "
                 f"{r.get('config', '?')})")
        for field in REQUIRED_STAT_FIELDS:
            if field not in r:
                errors.append(f"{ident}: stat field '{field}' missing")
        scan(r, ident)
    return errors


def check_no_obs(new_records, new_doc=None):
    """--forbid-obs: observability riders in the new results are errors.

    Default-mode regenerations must stay byte-comparable to the
    checked-in baselines, which predate the observability layer; a
    "telemetry" array or "exec_metrics" object appearing without the
    flags that request them means a default changed somewhere.
    """
    errors = []
    for r in new_records:
        if "telemetry" in r:
            errors.append(
                f"({r.get('bench', '')}, {r.get('workload', '')}, "
                f"{r.get('config', '')}): unexpected 'telemetry' field "
                f"(--forbid-obs)")
    if isinstance(new_doc, dict) and "exec_metrics" in new_doc:
        errors.append(
            "unexpected top-level 'exec_metrics' object (--forbid-obs)")
    return errors


def check_val_mismatches(new):
    """Non-zero validation self-check counters are always errors."""
    errors = []
    for r in new:
        if r.get("val_mismatches", 0) != 0:
            errors.append(
                f"({r.get('bench', '')}, {r.get('workload', '')}, "
                f"{r.get('config', '')}): validationValueMismatches = "
                f"{r['val_mismatches']} (speculative values diverged)")
    return errors


def compare_records(base, new, base_wall, new_wall):
    """Shared record comparison for the harness and sweep schemas.

    The record key is (bench, workload, config) so one sweep file can
    hold several figures' grids; simulated statistics (cycles, insts,
    ipc and, when present, the committed-stream hash) must match
    exactly, wall time warns.
    """
    errors, warnings = [], []

    def key(r):
        return (r.get("bench", ""), r["workload"], r["config"])

    bkey = {key(r): r for r in base}
    nkey = {key(r): r for r in new}

    for k in sorted(bkey):
        if k not in nkey:
            errors.append(f"run {k} missing from new results")
            continue
        b, n = bkey[k], nkey[k]
        # .get(): a record that lost a stat field must not crash the
        # comparison — check_stat_fields() reports the absence itself.
        for stat in ("cycles", "insts"):
            if b.get(stat) != n.get(stat):
                errors.append(
                    f"{k}: {stat} drifted "
                    f"{b.get(stat)} -> {n.get(stat)}")
        if abs(b.get("ipc", 0.0) - n.get("ipc", 0.0)) > IPC_TOLERANCE:
            errors.append(
                f"{k}: ipc drifted {b.get('ipc')} -> {n.get('ipc')}")
        if "commit_hash" in b and "commit_hash" in n and \
                b["commit_hash"] != n["commit_hash"]:
            errors.append(
                f"{k}: commit stream drifted "
                f"{b['commit_hash']} -> {n['commit_hash']}")
        if b.get("samples", 0) != n.get("samples", 0):
            errors.append(
                f"{k}: sample count changed "
                f"{b.get('samples', 0)} -> {n.get('samples', 0)}")
    for k in sorted(nkey):
        if k not in bkey:
            warnings.append(f"new run {k} has no baseline yet")

    if base_wall > 0 and new_wall > base_wall * (1 + TIME_REGRESSION_WARN):
        warnings.append(
            f"total wall time regressed >10%: "
            f"{base_wall:.3f}s -> {new_wall:.3f}s")
    return errors, warnings


def compare_harness(base, new, forbid_obs=False):
    errors, warnings = compare_records(
        base, new,
        sum(r.get("wall_seconds", 0.0) for r in base),
        sum(r.get("wall_seconds", 0.0) for r in new))
    errors += check_val_mismatches(new)
    errors += check_stat_fields(new)
    if forbid_obs:
        errors += check_no_obs(new)
    wall_summary(base, new)
    return errors, warnings


SWEEP_META_KEYS = ("plan", "scale", "event_skip", "checkpoint",
                   "warmup_insts", "footprint", "samples",
                   "measure_insts")


def compare_sweep(base, new, forbid_obs=False):
    errors = []
    bmeta, nmeta = base.get("sweep", {}), new.get("sweep", {})
    for key in SWEEP_META_KEYS:
        if bmeta.get(key) != nmeta.get(key):
            errors.append(
                f"sweep metadata '{key}' changed "
                f"{bmeta.get(key)!r} -> {nmeta.get(key)!r}")
    rec_errors, warnings = compare_records(
        sweep_records(base), sweep_records(new),
        sweep_wall(base), sweep_wall(new))
    rec_errors += check_val_mismatches(sweep_records(new))
    rec_errors += check_stat_fields(sweep_records(new))
    if forbid_obs:
        rec_errors += check_no_obs(sweep_records(new), new)
    wall_summary(sweep_records(base), sweep_records(new),
                 sweep_wall(base), sweep_wall(new))
    return errors + rec_errors, warnings


def compare_google_benchmark(base, new):
    errors, warnings = [], []
    bbm = {b["name"]: b for b in base.get("benchmarks", [])}
    nbm = {b["name"]: b for b in new.get("benchmarks", [])}

    for name in sorted(bbm):
        if name not in nbm:
            errors.append(f"benchmark {name} missing from new results")
            continue
        b, n = bbm[name], nbm[name]
        if b.get("time_unit") != n.get("time_unit"):
            errors.append(f"{name}: time unit changed")
            continue
        bt, nt = b.get("real_time", 0.0), n.get("real_time", 0.0)
        if bt > 0 and nt > bt * (1 + TIME_REGRESSION_WARN):
            warnings.append(
                f"{name}: real_time regressed >10%: "
                f"{bt:.3f}{b['time_unit']} -> {nt:.3f}{n['time_unit']}")
    for name in sorted(nbm):
        if name not in bbm:
            warnings.append(f"new benchmark {name} has no baseline yet")
    return errors, warnings


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="checked-in BENCH_*.json")
    ap.add_argument("new", help="freshly produced --json output")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline with the new results "
                         "when no stats drifted")
    ap.add_argument("--forbid-obs", action="store_true",
                    help="error if the new results carry observability "
                         "fields (telemetry/exec_metrics): guards that "
                         "default-mode output stays baseline-shaped")
    args = ap.parse_args()

    base = load(args.baseline)
    new = load(args.new)
    if schema_of(base) != schema_of(new):
        print("error: baseline and new results use different schemas")
        return 1

    schema = schema_of(base)
    if schema == "harness":
        errors, warnings = compare_harness(base, new, args.forbid_obs)
    elif schema == "sweep":
        errors, warnings = compare_sweep(base, new, args.forbid_obs)
    else:
        errors, warnings = compare_google_benchmark(base, new)

    for w in warnings:
        print(f"warning: {w}")
    for e in errors:
        print(f"error: {e}")
    if errors:
        print(f"{args.baseline}: FAILED ({len(errors)} stat drift(s))")
        return 1

    print(f"{args.baseline}: OK "
          f"({len(warnings)} warning(s))")
    if args.update:
        shutil.copyfile(args.new, args.baseline)
        print(f"{args.baseline}: updated from {args.new}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
