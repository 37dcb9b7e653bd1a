"""Arithmetic of the repo benchmark: percentiles, span self times, and
the metrics computed from one run's raw measurements.

bb_perfbench (perfbench/src) only records raw samples, exact counts and
Chrome trace files; every number the benchmark reports is computed here,
so test_perfstats.py covers all of it.
"""

import json
import re
import statistics

# A metric name: starts with a letter or digit, then letters, digits,
# '_', '.' and '-', at most 64 characters.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10

# Status text of a simulation run that spent its whole event budget
# (sim::run_status_name(RunStatus::kEventBudget)).
EVENT_BUDGET = "event budget exhausted"


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q, min_beyond=MIN_BEYOND):
    """The q-quantile (0 <= q < 1) of `values` by linear interpolation
    between closest ranks, with the sample count: (value, n).  None when
    fewer than `min_beyond` samples lie beyond it: the samples ranked
    above the lower of the two interpolated ranks."""
    n = len(values)
    if n == 0:
        return None
    rank = q * (n - 1)
    lo = int(rank + 1e-9)  # q * (n - 1) may land a hair under an integer
    if n - 1 - lo < min_beyond:
        return None
    xs = sorted(values)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo), n


def self_times(events):
    """Self time of every complete ("X") span, in microseconds, as a
    list parallel to `events`.

    A span's children are the spans on the same thread that it encloses
    and no span between them encloses (RAII scopes on one thread nest
    strictly; a span that only overlaps another is its sibling).  Self time is the span's duration minus the part of its
    interval the children cover; children are disjoint on one thread,
    but the union is taken anyway so overlapping explicit-endpoint
    records are never subtracted twice.  Spans on different threads
    never nest: work running in parallel on two threads is charged to
    each thread's own span, so a layer's time is a CPU-style sum.
    """
    out = [0.0] * len(events)
    by_thread = {}
    for i, e in enumerate(events):
        by_thread.setdefault(e.get("tid", 0), []).append(i)
    for indices in by_thread.values():
        # Parents sort before the children they enclose.
        indices.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        children = {i: [] for i in indices}
        stack = []
        for i in indices:
            while stack and not _encloses(events[stack[-1]], events[i]):
                stack.pop()
            if stack:
                children[stack[-1]].append(i)
            stack.append(i)
        for i in indices:
            e = events[i]
            covered = _union_length(
                [(max(events[c]["ts"], e["ts"]),
                  min(_end(events[c]), _end(e))) for c in children[i]])
            out[i] = max(0.0, e["dur"] - covered)
    return out


def _end(event):
    return event["ts"] + event["dur"]


# Trace timestamps and durations are rounded to 1 ns each, so a child's
# end may overshoot its parent's by up to 2 ns.
_ROUNDING_US = 0.002


def _encloses(parent, child):
    return (child["ts"] < _end(parent) and
            _end(child) <= _end(parent) + _ROUNDING_US)


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# Layer time metrics: name -> (span name or prefix, "self" | "total").
# "self" charges a layer only the time its own spans do not delegate to
# a nested layer; "total" is the whole span, for the benchmark's own
# spans around one public call (an oracle, a build).
LAYER_TIMES = {
    "balsa.compile_ms": ("balsa.compile", "self"),
    "flow.to_ch_ms": ("flow.to_ch", "self"),
    "flow.cluster_ms": ("flow.cluster", "self"),
    "flow.bm_compile_ms": ("flow.bm_compile", "self"),
    "flow.synthesize_control_ms": ("flow.synthesize_control", "total"),
    "minimalist.hfmin_ms": ("minimalist.hfmin", "self"),
    "minimalist.statemin_ms": ("minimalist.statemin", "self"),
    "logic.ucp_ms": ("logic.ucp", "self"),
    "flow.techmap_ms": ("flow.techmap", "self"),
    "flow.lint_ms": ("flow.lint.", "self"),
    "netlist.verilog_ms": ("netlist.verilog", "self"),
    "sim.run_ms": ("sim.run", "self"),
    "fuzz.differential_ms": ("fuzz.differential", "total"),
    "fuzz.conformance_ms": ("fuzz.conformance", "total"),
    "incr.build_ms": ("incr.build", "total"),
}


def _matches(name, pattern):
    return name.startswith(pattern) if pattern.endswith(".") else name == pattern


def layer_table(trace):
    """Per-layer numbers of one traced pass, from its Chrome trace
    document."""
    events = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    selfs = self_times(events)
    row = {name: 0.0 for name in LAYER_TIMES}
    hfmin_total = 0.0
    hfmin_max = 0.0
    counts = {"minimalist.hfmin_calls": 0, "minimalist.hfmin_rows": 0,
              "minimalist.hfmin_candidates": 0, "sim.events": 0,
              "sim.budget_runs": 0}
    for e, self_us in zip(events, selfs):
        name = e["name"]
        args = e.get("args", {})
        for metric, (pattern, kind) in LAYER_TIMES.items():
            if _matches(name, pattern):
                row[metric] += (self_us if kind == "self" else e["dur"]) / 1e3
        if name == "minimalist.hfmin":
            hfmin_total += e["dur"] / 1e3
            hfmin_max = max(hfmin_max, e["dur"] / 1e3)
            counts["minimalist.hfmin_calls"] += 1
            counts["minimalist.hfmin_rows"] += int(args.get("rows", 0))
            counts["minimalist.hfmin_candidates"] += int(
                args.get("candidates", 0))
        elif name == "sim.run":
            counts["sim.events"] += int(args.get("events", 0))
            if args.get("status") == EVENT_BUDGET:
                counts["sim.budget_runs"] += 1
    row.update(counts)
    row["minimalist.hfmin_ms_max"] = hfmin_max
    synth = row["flow.synthesize_control_ms"]
    row["minimalist.hfmin_share_pct"] = (
        100.0 * hfmin_total / synth if synth else 0.0)
    sim_s = row["sim.run_ms"] / 1e3
    row["sim.events_per_s"] = row["sim.events"] / sim_s if sim_s else 0.0
    return row


def counted_metrics(counts):
    """Per-layer numbers a traced pass counted directly (cache tiers,
    incremental reuse, service and pool percentiles, fuzz outcomes)."""
    c = dict(counts)
    lookups = sum(c.get(k, 0.0) for k in
                  ("cache.mem_hits", "cache.disk_hits", "cache.misses"))
    cases = c.get("fuzz.cases", 0.0)
    return {
        "cache.mem_hits": c.get("cache.mem_hits", 0.0),
        "cache.disk_hits": c.get("cache.disk_hits", 0.0),
        "cache.misses": c.get("cache.misses", 0.0),
        "cache.hit_ratio": ((c.get("cache.mem_hits", 0.0) +
                             c.get("cache.disk_hits", 0.0)) / lookups
                            if lookups else 0.0),
        "incr.units_rebuilt": c.get("incr.units_rebuilt", 0.0),
        "incr.units_reused": c.get("incr.units_reused", 0.0),
        "serve.server_ms_p50": c.get("serve.server_ms_p50", 0.0),
        "serve.wire_ms": (c["serve.client_ms_p50"] - c["serve.server_ms_p50"]
                          if "serve.client_ms_p50" in c else 0.0),
        "pool.queue_wait_us_p50": c.get("pool.queue_wait_us_p50", 0.0),
        "fuzz.skipped_ratio": (c.get("fuzz.skipped", 0.0) / cases
                               if cases else 0.0),
    }


def end_to_end(raw):
    """The end-to-end metrics of an untraced run: name -> value."""
    return {
        "setup_s": median(raw["setup_s"]),
        "wall_s": median(raw["pass_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def op_ms(raw):
    """The typical op of an untraced run: ops are matched across passes
    by key, and this is the median over keys of each key's median, so
    one slow pass cannot move it.  Reported, not gated: on the host the
    benchmark was tuned on, host slow phases moved it by up to 28 %
    (quartile spread over ten runs) on serve_mixed."""
    return median([median(xs) for xs in raw["ops"].values()])


def per_layer(raw, load=None):
    """The per-layer metrics of a traced run: the median over its traced
    passes of every layer number, plus the tracing overhead."""
    load = load or _load_json
    rows = []
    for path, counts in zip(raw["traces"], raw["pass_counts"]):
        row = layer_table(load(path))
        row.update(counted_metrics(counts))
        rows.append(row)
    out = {}
    for name in rows[0] if rows else []:
        out[name] = median([r[name] for r in rows])
    untraced = median(raw["pass_s"])
    traced = median(raw["traced_pass_s"])
    out["trace.overhead_pct"] = (
        100.0 * (traced / untraced - 1.0) if untraced else 0.0)
    return out


def _load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)
