#!/usr/bin/env python3
"""The repository benchmark: Edge Fabric's controller, end to end and layer by layer.

Run one measurement (from the root of a source checkout):

    python3 perfbench/run.py --workload dfz-steady --seed 1 --seconds 15 --trace 0

It builds the measurement program (perfbench/ocaml) with dune, runs it,
checks its outputs, appends a record to perfbench/results/runs.jsonl and
prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With --trace 1 they are its per-layer
metrics, from a run that traces every other block of cycles; the table
of per-layer self times, the unattributed remainder and the tracing
overhead are printed above the JSON line and written, with the spans,
to perfbench/results/trace-<workload>-s<seed>.json.

Compare two sets of runs (result files written by the command above):

    python3 perfbench/run.py compare A.jsonl B.jsonl

Tests of the analysis code:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
MEASURE = "perfbench/ocaml/measure.exe"

MEASURE_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 700

# The span measure.exe opens around each timed cycle. A layer's self time
# is its span's duration minus the time its children cover; the self time
# of this root is the part of a cycle no layer accounts for.
CYCLE_ROOT = "cycle"

CONTROLLER_STAGES = [
    "controller.allocate",
    "controller.guard.clamp",
    "controller.reconcile",
    "controller.project",
    "controller.guard.audit",
]
ENGINE_STAGES = [
    "engine.step",
    "engine.demand",
    "engine.estimate",
    "engine.controller",
    "engine.placement",
    "engine.accounting",
]
# Layers reported by self time. A layer a workload does not run reports 0.
LAYERS = (
    ["collector.patch", "collector.diff", "collector.assemble", "controller.cycle"]
    + CONTROLLER_STAGES
    + ENGINE_STAGES
)


# --- statistics --------------------------------------------------------------


def nearest_rank(values, q, min_beyond=10):
    """Nearest-rank percentile q (0 < q <= 1) of values.

    Returns None when fewer than `min_beyond` samples lie beyond the rank,
    so a tail percentile is only ever reported with enough samples behind
    it. The median is taken with min_beyond=0.
    """
    n = len(values)
    if n == 0 or not 0.0 < q <= 1.0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def median(values):
    return nearest_rank(values, 0.5, min_beyond=0)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    spans is a list of (name, t0_ns, t1_ns, cycle) in the order the spans
    completed. Spans come from one thread, so they nest; a child is the
    innermost span that encloses it. When two spans cover the same
    interval, the one that completed later is the parent. Returns a list
    of (name, cycle, self_s, parent_index) aligned with the input.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2], -i))
    selfs = [float(s[2] - s[1]) for s in spans]
    parent = [None] * len(spans)
    stack = []
    for i in order:
        _, t0, t1, _ = spans[i]
        while stack and not (spans[stack[-1]][1] <= t0 and t1 <= spans[stack[-1]][2]):
            stack.pop()
        if stack:
            parent[i] = stack[-1]
            selfs[stack[-1]] -= t1 - t0
        stack.append(i)
    return [(s[0], s[3], selfs[i] / 1e9, parent[i]) for i, s in enumerate(spans)]


def classify_cycles(cycles):
    """Split cycle records into (interface-event cycles, quiet cycles).

    A cycle is an interface-event cycle when the snapshot delta it patched
    in (Snapshot.diff of the previous and the new snapshot) carries at
    least one interface change: an interface added, removed or resized.
    """
    events = [c for c in cycles if c["iface_events"] > 0]
    quiet = [c for c in cycles if c["iface_events"] == 0]
    return events, quiet


# --- metrics -----------------------------------------------------------------


def end_to_end(raw):
    """End-to-end metrics of an untraced run, plus the extra figures the
    result file keeps (sample counts, wall-clock medians, the
    interface-event cycle median).

    Times are the process CPU time of each timed region (measure.ml,
    `timed`): on a shared host, wall time also counts the time the vCPU
    was taken away, which swings from run to run."""
    cpu = [c["cpu_s"] for c in raw["cycles"]]
    events, _ = classify_cycles(raw["cycles"])
    out = {
        "setup_s": median(raw["setup_s"]),
        "cycle_p50_s": median(cpu),
        "cycle_p90_s": nearest_rank(cpu, 0.90),
        "heap_live_mb": raw["heap_live_mb"],
        "cycles": len(cpu),
        "setup_builds": len(raw["setup_s"]),
        "setup_wall_s": median(raw["setup_wall_s"]),
        "heap_peak_mb": raw["heap_peak_mb"],
        "cycle_wall_p50_s": median([c["dur_s"] for c in raw["cycles"]]),
    }
    if events:
        out["iface_cycle_p50_s"] = median([c["cpu_s"] for c in events])
        out["iface_cycles"] = len(events)
    return out


def per_cycle(rows, cycles, names):
    """{name: [per-cycle total self time]} over the given cycle indexes."""
    acc = {n: {c: 0.0 for c in cycles} for n in names}
    for name, cycle, self_s, _ in rows:
        if name in acc and cycle in acc[name]:
            acc[name][cycle] += self_s
    return {n: list(v.values()) for n, v in acc.items()}


def layer_table(raw):
    """Per-layer self times over the traced timed cycles.

    Returns (table, unattributed share, traced cycle indexes): the table
    maps each span name to its per-cycle self-time median, its sum and
    its share of the summed cycle time.
    """
    rows = self_times(raw["spans"])
    traced = [c["i"] for c in raw["cycles"] if c["traced"]]
    in_traced = set(traced)
    names = sorted({r[0] for r in rows if r[1] in in_traced} - {CYCLE_ROOT} | set(LAYERS))
    by_cycle = per_cycle(rows, traced, names + [CYCLE_ROOT])
    total = sum((t1 - t0) / 1e9 for n, t0, t1, c in raw["spans"]
                if n == CYCLE_ROOT and c in in_traced)
    table = {}
    for n in names:
        v = by_cycle[n]
        table[n] = {
            "self_p50_s": median(v) if v else 0.0,
            "self_sum_s": sum(v),
            "share": sum(v) / total if total > 0 else 0.0,
        }
    unattributed = sum(by_cycle[CYCLE_ROOT]) / total if total > 0 else 0.0
    return table, unattributed, traced


def per_layer(raw):
    """Per-layer metrics of a traced run, and its self-time table."""
    table, unattributed, traced = layer_table(raw)
    cycles = raw["cycles"]
    traced_durs = [c["cpu_s"] for c in cycles if c["traced"]]
    plain_durs = [c["cpu_s"] for c in cycles if not c["traced"]]
    events, quiet = classify_cycles(cycles)

    def med(key, cs=cycles):
        return median([c[key] for c in cs]) if cs else 0.0

    def mean(key):
        return sum(c[key] for c in cycles) / len(cycles)

    # set-up builds carry negative cycle numbers
    def setup_span(name):
        per_build = {cycle: 0.0 for (_, _, _, cycle) in raw["spans"] if cycle < 0}
        for n, t0, t1, cycle in raw["spans"]:
            if cycle < 0 and n == name:
                per_build[cycle] += (t1 - t0) / 1e9
        return median(list(per_build.values())) if per_build else 0.0

    in_traced = set(traced)
    gc_minor = [w for c, w in raw["gc_minor"] if c in in_traced]
    moves = sum(c["moves"] for c in cycles)
    m = {
        "collector.patch_minor_mw": med("patch_mw"),
        "setup.assemble_s": setup_span("collector.assemble"),
        "setup.allocate_s": setup_span("controller.allocate"),
        "allocator.moves_considered": med("moves"),
        "allocator.moves_considered.iface_cycles": med("moves", events),
        "allocator.moves_considered.quiet_cycles": med("moves", quiet),
        "allocator.overrides": med("overrides"),
        "allocator.useful_ratio": (sum(c["overrides"] for c in cycles) / moves) if moves else 0.0,
        "allocator.residual": sum(c["residual"] for c in cycles),
        "controller.warm_hit_ratio": sum(1 for c in cycles if c["warm"]) / len(cycles),
        "controller.iface_patches": raw["iface_patches"],
        "hysteresis.added": mean("added"),
        "hysteresis.removed": mean("removed"),
        "hysteresis.retargeted": mean("retargeted"),
        "guard.dropped": mean("dropped"),
        "controller.gc.minor_mw": median(gc_minor) if gc_minor else 0.0,
        "gen.churn_s": med("churn_s"),
        "gen.dirty_events": med("dirty"),
        "cycles.timed": len(cycles),
        "cycles.iface_share": len(events) / len(cycles),
        "iface_cycle_p50_s": med("cpu_s", events),
        "cycle_wall_p50_s": med("dur_s"),
        "offcpu_share": 1.0 - sum(c["cpu_s"] for c in cycles) / sum(c["dur_s"] for c in cycles),
        "unattributed.share": unattributed,
        "trace.overhead": (median(traced_durs) / median(plain_durs) - 1.0)
        if traced_durs and plain_durs
        else 0.0,
    }
    for n in LAYERS:
        m[n + ".self_p50_s"] = table[n]["self_p50_s"]
        m[n + ".share"] = table[n]["share"]
    return m, table, unattributed


# --- result schema -----------------------------------------------------------

NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
UNIT_CHARS = NAME_CHARS | set("/%")


def _name_ok(s):
    return isinstance(s, str) and 0 < len(s) <= 64 and s[0].isalnum() and set(s) <= NAME_CHARS


def validate_benchmark(bench):
    """Errors in a BENCHMARK.json document (empty when it is well formed)."""
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errs.append(f"keys {sorted(bench)} != {sorted(keys)}")
        return errs
    rs = bench["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        errs.append("run_seconds must be a whole number from 1 to 60")
    if not (2 <= len(bench["workloads"]) <= 8):
        errs.append("2 to 8 workloads")
    if not (1 <= len(bench["end_to_end"]) <= 16):
        errs.append("1 to 16 end-to-end metrics")
    if not (1 <= len(bench["per_layer"]) <= 128):
        errs.append("1 to 128 per-layer metrics")
    seen = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or not _name_ok(w["name"]):
            errs.append(f"bad workload {w}")
        elif not (isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]):
            errs.append(f"bad why for {w['name']}")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in bench[group]:
            if set(m) != keys:
                errs.append(f"{group} entry {m} has keys {sorted(m)}")
                continue
            if not _name_ok(m["name"]):
                errs.append(f"bad metric name {m['name']!r}")
            if m["name"] in seen:
                errs.append(f"metric {m['name']} used twice")
            seen.add(m["name"])
            if not (isinstance(m["unit"], str) and 0 < len(m["unit"]) <= 16 and set(m["unit"]) <= UNIT_CHARS):
                errs.append(f"bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                errs.append(f"bad better for {m['name']}")
            if "bound" in m and not (isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25):
                errs.append(f"bound of {m['name']} must be in (0, 0.25]")
    for w in bench["workloads"]:
        if w.get("name") in seen:
            errs.append(f"name {w['name']} used twice")
        seen.add(w.get("name"))
    setup = [m for m in bench["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errs.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        errs.append("setup_s must have the largest bound")
    return errs


def validate_result(result, bench, trace):
    """Errors in one printed result line against the metrics BENCHMARK.json names."""
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        errs.append("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool) or result[k] < 0:
            errs.append(f"{k} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errs.append("attempted must be at least 1")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        errs.append(f"metrics {sorted(set(got) ^ set(want))} missing or extra")
    for name, v in got.items():
        if set(v) != {"value", "unit"} or v.get("unit") != want.get(name):
            errs.append(f"metric {name} is {v}")
        elif not isinstance(v["value"], (int, float)) or isinstance(v["value"], bool) \
                or not math.isfinite(v["value"]):
            errs.append(f"metric {name} has no finite value")
    return errs


# --- one run -----------------------------------------------------------------


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail(f"{ROOT} is not a source checkout (no dune-project or lib/)")
    if not BENCHMARK.is_file():
        fail("BENCHMARK.json not found")
    if shutil.which("dune") is None:
        fail("dune not found")
    try:
        subprocess.run(
            # no shared dune cache: the build reads and writes only the checkout
            ["dune", "build", "--root", str(ROOT), "--cache=disabled", "--display", "quiet",
             "./" + MEASURE],
            cwd=ROOT, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")


def run_measure(workload, seed, seconds, trace, out):
    exe = ROOT / "_build" / "default" / MEASURE
    env = {k: v for k, v in os.environ.items() if k != "OCAMLRUNPARAM"}
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=MEASURE_TIMEOUT_S, env=env,
                       stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"measurement failed: {e}")
    with open(out) as f:
        return json.load(f)


def print_table(workload, table, unattributed, overhead):
    print(f"{workload}: per-layer self time over traced cycles")
    print(f"  {'layer':28} {'self p50 ms':>12} {'sum ms':>10} {'share':>7}")
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_sum_s"])
    for name, row in rows:
        if row["self_sum_s"] > 0 and not name.startswith("gen."):
            print(f"  {name:28} {row['self_p50_s'] * 1e3:12.3f} "
                  f"{row['self_sum_s'] * 1e3:10.1f} {row['share']:7.1%}")
    print(f"  {'(unattributed)':28} {'':12} {'':10} {unattributed:7.1%}")
    for name, row in rows:
        if row["self_sum_s"] > 0 and name.startswith("gen."):
            print(f"  workload generation, outside the timed cycle: {name} "
                  f"p50 {row['self_p50_s'] * 1e3:.3f} ms")
    print(f"  tracing overhead on the cycle median: {overhead:+.1%}")


def run(args):
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {', '.join(names)}")
    build()
    RESULTS.mkdir(exist_ok=True)
    raw_path = RESULTS / f"raw-{args.workload}-s{args.seed}-t{args.trace}.json"
    raw = run_measure(args.workload, args.seed, args.seconds, args.trace, raw_path)
    e2e = end_to_end(raw)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "e2e": e2e, "checks": raw["checks"], "failures": raw["failures"]}
    if args.trace:
        values, table, unattributed = per_layer(raw)
        record["layers"] = values
        print_table(args.workload, table, unattributed, values["trace.overhead"])
        (RESULTS / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "table": table,
            "unattributed_share": unattributed,
            "trace_overhead": values["trace.overhead"],
            "spans": raw["spans"],
        }))
        wanted = bench["per_layer"]
    else:
        values = e2e
        wanted = bench["end_to_end"]
    for f in raw["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        fail(f"no value for {', '.join(missing)}")
    result = {
        "correct": raw["failed"] == 0 and bool(raw["checks"]) and all(k["ok"] for k in raw["checks"]),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    errs = validate_result(result, bench, args.trace)
    if errs:
        fail("result does not match BENCHMARK.json: " + "; ".join(errs))
    record["result"] = result
    with open(args.results, "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))


# --- compare -----------------------------------------------------------------


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def series(records, workload, trace, key):
    """All values of one metric over the runs of one workload."""
    field = "layers" if trace else "e2e"
    return [r[field][key] for r in records
            if r["workload"] == workload and r["trace"] == trace and key in r.get(field, {})]


def compare(path_a, path_b, out=sys.stdout):
    """Median, quartiles and delta per workload and metric, A -> B."""
    a, b = load_records(path_a), load_records(path_b)
    bounds = {}
    if BENCHMARK.is_file():
        bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    workloads = sorted({r["workload"] for r in a} & {r["workload"] for r in b})
    for w in workloads:
        print(f"== {w}", file=out)
        print(f"  {'metric':40} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} {'delta':>8}", file=out)
        for trace in (0, 1):
            ka = {k for r in a if r["workload"] == w and r["trace"] == trace
                  for k in r.get("layers" if trace else "e2e", {})}
            kb = {k for r in b if r["workload"] == w and r["trace"] == trace
                  for k in r.get("layers" if trace else "e2e", {})}
            for key in sorted(ka & kb):
                if trace and not (key.endswith(".self_p50_s") or key.endswith(".share")
                                  or key in ("unattributed.share", "trace.overhead")):
                    continue
                va, vb = series(a, w, trace, key), series(b, w, trace, key)
                qa, qb = quartiles(va), quartiles(vb)
                delta = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
                flag = ""
                m = bounds.get(key)
                if m and not trace:
                    worse = delta if m["better"] == "lower" else -delta
                    flag = "  REGRESSED" if worse > m["bound"] else ""
                fmt = "%.4g [%.4g, %.4g] n=%d"
                print(f"  {key:40} {fmt % (qa[1], qa[0], qa[2], len(va)):>30} "
                      f"{fmt % (qb[1], qb[0], qb[2], len(vb)):>30} {delta:+8.1%}{flag}", file=out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(argv[1:])
        compare(args.a, args.b)
        return
    p = argparse.ArgumentParser(prog="run.py", description="Edge Fabric repository benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(RESULTS / "runs.jsonl"))
    run(p.parse_args(argv))


if __name__ == "__main__":
    main()
