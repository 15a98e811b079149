#!/usr/bin/env python3
"""Summarize a flight-recorder trace produced by --trace-events.

The input is the Chrome/Perfetto trace-event JSON written by
sdv_sweep: a {"traceEvents": [...]} document whose events
are instants (ph "i") or vreg-lifetime async pairs (ph "b"/"e"), one
pid per recorded run, timestamps in simulated cycles. otherData carries
a per-source summary (recorded/dropped counts and the chain-lifetime
histogram sampled at every vreg release).

Default report: per-source and overall event counts by name, the
chain-lifetime table (4x-log cycle buckets), and — with --intervals —
per-interval event-rate columns suitable for plotting.

Modes:
  --validate            schema check (CI smoke); exit 1 on any problem
  --intervals N         append N-bucket event-rate plot data (TSV)
  --check-telemetry F   independent mode: F is a bench/sweep --json
                        file; verify each record's "telemetry" interval
                        series is contiguous, that every sample but the
                        last spans one interval and, for runs starting
                        at cycle 0, that interval sums equal the
                        record's end-of-run aggregates exactly
"""

import argparse
import json
import sys
from collections import Counter, defaultdict

# Same 4x-log bucket bounds as VecRegFateStats::lifetimeHist and
# TraceRecorder::chainLifetimeHist: bucket 0 is [0,8), then each bucket
# spans 4x, bucket 7 is open-ended.
LIFETIME_BOUNDS = [0, 8, 32, 128, 512, 2048, 8192, 32768]


def load(path):
    with open(path) as f:
        return json.load(f)


def lifetime_label(b):
    if b + 1 < len(LIFETIME_BOUNDS):
        return f"[{LIFETIME_BOUNDS[b]},{LIFETIME_BOUNDS[b + 1]})"
    return f">={LIFETIME_BOUNDS[b]}"


def split_events(doc):
    """Partition traceEvents into metadata and data events."""
    meta, data = [], []
    for ev in doc.get("traceEvents", []):
        (meta if ev.get("ph") == "M" else data).append(ev)
    return meta, data


def source_labels(doc):
    """pid -> process_name, from the metadata records."""
    labels = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            labels[ev.get("pid")] = ev.get("args", {}).get("name", "?")
    return labels


def validate(doc):
    """Schema check; returns a list of error strings."""
    errors = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["not a trace-event document (no 'traceEvents' key)"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]

    labels = source_labels(doc)
    last_ts = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("i", "b", "e", "M"):
            errors.append(f"{where}: unexpected ph {ph!r}")
            continue
        for field in ("name", "pid") + (() if ph == "M" else ("ts", "cat")):
            if field not in ev:
                errors.append(f"{where}: missing '{field}'")
        if ph == "M":
            continue
        if ev.get("pid") not in labels:
            errors.append(f"{where}: pid {ev.get('pid')} has no "
                          f"process_name metadata")
        if ph in ("b", "e") and "id" not in ev:
            errors.append(f"{where}: async event missing 'id'")
        if ev.get("cat") not in ("sdv", "mem", "core"):
            errors.append(f"{where}: unexpected cat {ev.get('cat')!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        elif ts < last_ts.get(ev.get("pid"), 0):
            # Events are recorded in simulation order per source; a
            # backwards timestamp means the recorder cycle went stale.
            errors.append(f"{where}: ts went backwards within pid "
                          f"{ev.get('pid')} ({last_ts[ev['pid']]} -> {ts})")
        else:
            last_ts[ev.get("pid")] = ts

    sources = doc.get("otherData", {}).get("sources")
    if not isinstance(sources, list):
        errors.append("otherData.sources missing")
    else:
        if len(sources) != len(labels):
            errors.append(f"otherData.sources has {len(sources)} entries "
                          f"but the trace has {len(labels)} pids")
        for i, s in enumerate(sources):
            for field in ("label", "recorded", "dropped",
                          "chain_lifetime_hist"):
                if field not in s:
                    errors.append(f"otherData.sources[{i}]: "
                                  f"missing '{field}'")
    return errors


def report(doc, path):
    labels = source_labels(doc)
    _, data = split_events(doc)
    print(f"{path}: {len(data)} events, {len(labels)} source(s)")

    by_name = Counter(ev.get("name", "?") for ev in data)
    per_source = defaultdict(Counter)
    for ev in data:
        per_source[ev.get("pid")][ev.get("name", "?")] += 1

    print("\nevent counts (all sources):")
    for name, n in by_name.most_common():
        print(f"  {name:<16} {n:>12}")

    sources = doc.get("otherData", {}).get("sources", [])
    if sources:
        print(f"\n{'source':<32} {'recorded':>10} {'kept':>10} "
              f"{'dropped':>10}")
        for pid, s in enumerate(sources):
            kept = sum(per_source[pid].values())
            print(f"  {s.get('label', '?'):<30} {s.get('recorded', 0):>10} "
                  f"{kept:>10} {s.get('dropped', 0):>10}")

        merged = None
        for s in sources:
            hist = s.get("chain_lifetime_hist", {})
            buckets = hist.get("buckets", [])
            if merged is None:
                merged = [0] * len(buckets)
            for b, count in enumerate(buckets):
                merged[b] += count
        if merged and sum(merged):
            total = sum(merged)
            print("\nchain lifetime (cycles from vreg alloc to release):")
            for b, count in enumerate(merged):
                pct = 100.0 * count / total
                print(f"  {lifetime_label(b):<16} {count:>10}  "
                      f"{pct:5.1f}%  {'#' * int(pct / 2)}")


def interval_data(doc, n_intervals):
    """Per-interval event-rate columns (TSV) for plotting."""
    _, data = split_events(doc)
    if not data:
        print("no events to bucket")
        return
    span = max(ev.get("ts", 0) for ev in data) + 1
    width = max(1, (span + n_intervals - 1) // n_intervals)
    cats = ("sdv", "mem", "core")
    rows = defaultdict(lambda: dict.fromkeys(cats, 0))
    for ev in data:
        rows[int(ev.get("ts", 0)) // width][ev.get("cat", "?")] += 1
    print(f"\n# interval plot data ({width} cycles per bucket)")
    print("cycle_start\tsdv\tmem\tcore\ttotal")
    for b in range(max(rows) + 1):
        r = rows[b]
        total = sum(r.get(c, 0) for c in cats)
        print(f"{b * width}\t{r['sdv']}\t{r['mem']}\t{r['core']}\t{total}")


def telemetry_records(doc):
    """(identity, record) pairs from either --json schema."""
    if isinstance(doc, list):
        records = doc
    elif isinstance(doc, dict) and "results" in doc:
        records = doc["results"]
    else:
        return []
    return [(f"({r.get('workload', '?')}, {r.get('config', '?')})", r)
            for r in records]


def check_telemetry(doc):
    """Validate every "telemetry" series in a bench/sweep JSON file.

    Intervals must tile the sampled cycle range with no gaps or
    overlaps, and every sample but the last must span the same number
    of cycles: the clock ticks one cycle at a time, so each sample ends
    on the interval grid. When the series starts at cycle 0 the run had
    no warmup or checkpoint prefix, so the per-interval sums must
    reproduce the end-of-run aggregates exactly — the property the
    interval sampler guarantees by flushing the partial final interval.
    """
    errors = []
    checked = 0
    for ident, r in telemetry_records(doc):
        samples = r.get("telemetry")
        if samples is None:
            continue
        checked += 1
        if not samples:
            errors.append(f"{ident}: empty telemetry array")
            continue
        for i, s in enumerate(samples):
            if s["end_cycle"] - s["start_cycle"] != s["cycles"]:
                errors.append(f"{ident}: sample {i} cycle span mismatch")
            if i and s["start_cycle"] != samples[i - 1]["end_cycle"]:
                errors.append(
                    f"{ident}: gap between samples {i - 1} and {i} "
                    f"({samples[i - 1]['end_cycle']} -> "
                    f"{s['start_cycle']})")
        spans = {s["cycles"] for s in samples[:-1]}
        if len(spans) > 1:
            errors.append(f"{ident}: samples before the last span "
                          f"{sorted(spans)} cycles, not one interval")
        if samples[0]["start_cycle"] == 0:
            for field, agg in (("cycles", r.get("cycles")),
                               ("insts", r.get("insts"))):
                total = sum(s[field] for s in samples)
                if agg is not None and total != agg:
                    errors.append(
                        f"{ident}: telemetry {field} sum {total} != "
                        f"end-of-run aggregate {agg}")
    if checked == 0:
        errors.append("no record carries a 'telemetry' array "
                      "(was --telemetry given?)")
    return errors, checked


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="trace-event JSON from --trace-events "
                                  "(or a --json results file with "
                                  "--check-telemetry)")
    ap.add_argument("--validate", action="store_true",
                    help="schema-check the trace and exit")
    ap.add_argument("--intervals", type=int, metavar="N",
                    help="append N-bucket event-rate plot data")
    ap.add_argument("--check-telemetry", action="store_true",
                    help="treat the input as a bench/sweep --json file "
                         "and verify its telemetry interval series")
    args = ap.parse_args()

    doc = load(args.trace)

    if args.check_telemetry:
        errors, checked = check_telemetry(doc)
        for e in errors:
            print(f"error: {e}")
        if errors:
            print(f"{args.trace}: telemetry FAILED ({len(errors)} error(s))")
            return 1
        print(f"{args.trace}: telemetry OK ({checked} record(s))")
        return 0

    if args.validate:
        errors = validate(doc)
        for e in errors:
            print(f"error: {e}")
        if errors:
            print(f"{args.trace}: FAILED ({len(errors)} error(s))")
            return 1
        _, data = split_events(doc)
        print(f"{args.trace}: OK ({len(data)} events, "
              f"{len(source_labels(doc))} source(s))")
        return 0

    report(doc, args.trace)
    if args.intervals:
        interval_data(doc, args.intervals)
    return 0


if __name__ == "__main__":
    sys.exit(main())
