#!/usr/bin/env python3
"""Compare two BENCH_table5.json files and flag performance regressions.

Usage:
  compare_bench.py BASELINE.json CANDIDATE.json [--max-regression 0.10]
      Diffs every rate metric (users/sec, rows/sec, and the in-run speedup
      ratios) in the "kernel", "serving", and "engine" sections, matching
      rows by name. Exits non-zero when any metric regresses by more than
      --max-regression (default 10%). Rows or metrics present only on one
      side are reported but never fail the run — corpus scale and machine
      geometry legitimately change the row set.

  compare_bench.py --assert-only CANDIDATE.json [--min-full-speedup 0.98]
      No baseline: asserts invariants that must hold on any machine at any
      scale. Gated today:
        * every "kernel" sweep row's full-sweep speedup vs the reference
          loop is >= --min-full-speedup (the kernel must never lose to the
          loop it replaced) — gated only where the comparison measures the
          kernel. Two exemptions, both reported: rows whose reference loop
          runs under --min-ref-ns per DP iteration (default 1 µs), where
          the ratio measures ~20 ns of fixed per-call overhead against
          timer noise; and rows whose CSR edge stream does not fit L2
          (12·edges + 16·nodes > l2_bytes), where both loops are
          bandwidth-bound streaming the same bytes — the true ratio is
          ~1.0 (see docs/KERNELS.md) and the measured one swings 0.9-1.1
          with host phase on shared runners. The bandwidth regime is gated
          by the fused width-8 floor below instead, which is what actually
          buys throughput there.
        * every "kernel" sweep row whose value vector does NOT fit L2
          (cache_level L3/RAM — the bandwidth-bound regime fusion exists
          for) must show a width-8 fused per-query speedup of at least
          --min-fused-w8 over width 1. In-cache rows are reported but not
          gated: there the single-query sweep is already compute-bound
          and fusion's benefit is incidental.
        * every "serving" algorithm row's steady_vs_cold_speedup (warm
          cache-served pass vs the cold pass of the same run) is
          >= --min-serving-warm, gated only where the cold pass
          genuinely extracted (cold_hit_rate < 0.5): the zero-copy warm
          path must decisively beat the extraction + plan building it
          skips. Rows whose "cold" pass already ran on hits
          (cross-recommender seed sharing) compare warm to warm and are
          reported but not gated. Skipped with a note when the artifact
          has no serving section (--kernel_only runs).

  compare_bench.py --load BASELINE.json CANDIDATE.json
      Diffs two BENCH_load.json files from bench_load: closed-loop
      throughput per ladder rung plus the saturation headline, and
      open-loop achieved rate, tail latency (p50/p99/p99.9) and rejection
      rate per swept point. Always informational (exit 0): wall-clock load
      numbers are runner-class and core-count dependent, so the diff is a
      prompt to look, never a merge gate.

Absolute rates compare runs on the *same machine* (CI keeps the seed
baseline's runner class); the speedup ratios are machine-normalized
already, since both sides of each ratio were measured in the same run.
"""

import argparse
import json
import sys

# Higher-is-better metrics, by JSON location. Lower-is-better latency
# fields are deliberately left out: they are redundant with the rates
# (1/x), and comparing both would double-count every regression.
KERNEL_SWEEP_RATES = (
    "reference_rows_per_second",
    "kernel_rows_per_second",
    "speedup",
    "full_vs_reference_speedup",
)
ALGORITHM_RATES = ("batch_users_per_second",)
# Fused-ladder fields diffed per width inside each kernel sweep row.
# Informational only: the ladder's shape is cache-geometry dependent, so
# cross-machine drift is a prompt to look, while the machine-normalized
# width-8 floor below is the actual gate.
FUSED_RUNG_FIELDS = ("per_query_ns_per_iteration", "speedup_vs_width1")
SERVING_RATES = ("steady_users_per_second", "steady_vs_cold_speedup")
ENGINE_RATES = ("users_per_second",)

# Load harness (BENCH_load.json): higher-is-better rates and
# lower-is-better tail latencies, reported side by side but never gated.
LOAD_CLOSED_RATES = ("throughput_rps",)
LOAD_OPEN_RATES = ("achieved_rps",)
LOAD_OPEN_LATENCIES = ("p50_seconds", "p99_seconds", "p999_seconds")

# Field renames across repo history: candidate readers accept both.
FULL_SPEEDUP_ALIASES = ("full_vs_reference_speedup", "full_sweep_speedup")


def rows_by_name(obj, *path):
    """Returns {name: row} for a list of named rows at path, or {}."""
    node = obj
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return {}
        node = node[key]
    if not isinstance(node, list):
        return {}
    return {row["name"]: row for row in node if isinstance(row, dict) and "name" in row}


def fused_rungs(row):
    """Returns {width: rung} for a kernel sweep row's fused ladder, or {}."""
    ladder = row.get("fused")
    if not isinstance(ladder, list):
        return {}
    return {
        rung["width"]: rung
        for rung in ladder
        if isinstance(rung, dict) and isinstance(rung.get("width"), int)
    }


def metric(row, name):
    for alias in FULL_SPEEDUP_ALIASES if name == "full_vs_reference_speedup" else (name,):
        value = row.get(alias)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def compare(baseline, candidate, max_regression):
    """Yields (section, row, metric, base, cand, regression) tuples."""
    sections = (
        ("kernel", ("kernel", "sweeps"), KERNEL_SWEEP_RATES),
        ("algorithms", ("algorithms",), ALGORITHM_RATES),
        ("serving", ("serving", "algorithms"), SERVING_RATES),
        ("engine", ("engine", "traffic"), ENGINE_RATES),
    )
    failures = []
    for section, path, rates in sections:
        base_rows = rows_by_name(baseline, *path)
        cand_rows = rows_by_name(candidate, *path)
        for name in base_rows.keys() | cand_rows.keys():
            if name not in cand_rows:
                print(f"  [info] {section}/{name}: only in baseline")
                continue
            if name not in base_rows:
                print(f"  [info] {section}/{name}: only in candidate")
                continue
            for rate in rates:
                base = metric(base_rows[name], rate)
                cand = metric(cand_rows[name], rate)
                if base is None or cand is None or base <= 0.0:
                    continue
                regression = (base - cand) / base
                marker = " "
                if regression > max_regression:
                    failures.append((section, name, rate))
                    marker = "!"
                print(
                    f" {marker} {section}/{name}.{rate}: "
                    f"{base:.4g} -> {cand:.4g} ({-regression:+.1%})"
                )
            if section == "kernel":
                base_fused = fused_rungs(base_rows[name])
                cand_fused = fused_rungs(cand_rows[name])
                for width in sorted(base_fused.keys() | cand_fused.keys()):
                    if width not in base_fused or width not in cand_fused:
                        side = ("baseline" if width in base_fused
                                else "candidate")
                        print(f"  [info] {section}/{name}.fused.w{width}: "
                              f"only in {side}")
                        continue
                    for field in FUSED_RUNG_FIELDS:
                        base = metric(base_fused[width], field)
                        cand = metric(cand_fused[width], field)
                        if base is None or cand is None or base <= 0.0:
                            continue
                        delta = (cand - base) / base
                        print(
                            f"   {section}/{name}.fused.w{width}.{field}: "
                            f"{base:.4g} -> {cand:.4g} ({delta:+.1%}) [info]"
                        )
    return failures


def scalar(obj, *path):
    node = obj
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def compare_load(baseline, candidate):
    """Prints load-harness drift; informational only, never fails."""
    for label, path, base_v, cand_v in (
        ("closed_loop.saturation_rps", None,
         scalar(baseline, "closed_loop", "saturation_rps"),
         scalar(candidate, "closed_loop", "saturation_rps")),
        ("open_loop.rejection_rate_at_2x_saturation", None,
         scalar(baseline, "open_loop", "rejection_rate_at_2x_saturation"),
         scalar(candidate, "open_loop", "rejection_rate_at_2x_saturation")),
    ):
        if base_v is None or cand_v is None:
            print(f"  [info] {label}: missing on one side")
            continue
        if base_v:
            delta = f"{(cand_v - base_v) / base_v:+.1%}"
        else:
            delta = f"{cand_v - base_v:+.4f} abs"
        print(f"   {label}: {base_v:.4g} -> {cand_v:.4g} ({delta})")
    sections = (
        ("closed_loop", ("closed_loop", "ladder"), LOAD_CLOSED_RATES, ()),
        ("open_loop", ("open_loop", "points"), LOAD_OPEN_RATES,
         LOAD_OPEN_LATENCIES),
    )
    for section, path, rates, latencies in sections:
        base_rows = rows_by_name(baseline, *path)
        cand_rows = rows_by_name(candidate, *path)
        for name in sorted(base_rows.keys() | cand_rows.keys()):
            if name not in cand_rows or name not in base_rows:
                side = "baseline" if name in base_rows else "candidate"
                print(f"  [info] {section}/{name}: only in {side}")
                continue
            for field in (*rates, *latencies):
                base = metric(base_rows[name], field)
                cand = metric(cand_rows[name], field)
                if base is None or cand is None or base <= 0.0:
                    continue
                delta = (cand - base) / base
                worse = delta < 0 if field in rates else delta > 0
                print(
                    f" {'~' if worse else ' '} {section}/{name}.{field}: "
                    f"{base:.4g} -> {cand:.4g} ({delta:+.1%})"
                )
    print("load diff is informational; not a gate")
    return []


def assert_invariants(candidate, min_full_speedup, min_ref_ns,
                      min_serving_warm, min_fused_w8):
    failures = []
    sweeps = rows_by_name(candidate, "kernel", "sweeps")
    if not sweeps:
        print("  [warn] no kernel sweep rows found")
    l2_bytes = scalar(candidate, "kernel", "cache_geometry", "l2_bytes")
    for name, row in sorted(sweeps.items()):
        speedup = metric(row, "full_vs_reference_speedup")
        if speedup is None:
            print(f"  [warn] kernel/{name}: no full-sweep speedup field")
            continue
        ref_ns = metric(row, "reference_ns_per_iteration")
        if ref_ns is not None and ref_ns < min_ref_ns:
            print(
                f"   kernel/{name}: full_vs_reference_speedup {speedup:.2f} "
                f"[not gated: reference {ref_ns:.0f} ns/it < {min_ref_ns:.0f}]"
            )
            continue
        edges = metric(row, "edges")
        nodes = metric(row, "nodes")
        if (l2_bytes and edges is not None and nodes is not None
                and 12 * edges + 16 * nodes > l2_bytes):
            print(
                f"   kernel/{name}: full_vs_reference_speedup {speedup:.2f} "
                f"[not gated: edge stream exceeds L2 — bandwidth-bound, "
                f"see fused w8 floor]"
            )
            continue
        ok = speedup >= min_full_speedup
        print(
            f" {' ' if ok else '!'} kernel/{name}: "
            f"full_vs_reference_speedup {speedup:.2f} "
            f"(floor {min_full_speedup:.2f})"
        )
        if not ok:
            failures.append(("kernel", name, "full_vs_reference_speedup"))
    # Fused width-8 floor: past-L2 rows must show the CSR stream actually
    # amortizing across lanes. The ratio is machine-normalized (both widths
    # measured in the same run, rung sizes derived from the measured cache
    # geometry), so it gates on any runner.
    for name, row in sorted(sweeps.items()):
        rung = fused_rungs(row).get(8)
        past_l2 = row.get("cache_level") in ("L3", "RAM")
        if rung is None:
            if past_l2:
                print(f"  [warn] kernel/{name}: past-L2 row has no fused "
                      f"width-8 rung")
            continue
        ratio = metric(rung, "speedup_vs_width1")
        if ratio is None:
            print(f"  [warn] kernel/{name}: fused width-8 rung has no "
                  f"speedup_vs_width1")
            continue
        if not past_l2:
            print(f"   kernel/{name}: fused w8 speedup_vs_width1 "
                  f"{ratio:.2f} [not gated: value vector fits "
                  f"{row.get('cache_level', '?')}]")
            continue
        ok = ratio >= min_fused_w8
        print(
            f" {' ' if ok else '!'} kernel/{name}: fused w8 "
            f"speedup_vs_width1 {ratio:.2f} (floor {min_fused_w8:.2f})"
        )
        if not ok:
            failures.append(("kernel", name, "fused.w8.speedup_vs_width1"))
    serving = rows_by_name(candidate, "serving", "algorithms")
    if not serving:
        print("  [info] no serving rows (kernel-only run?); "
              "serving warm floor skipped")
    for name, row in sorted(serving.items()):
        ratio = metric(row, "steady_vs_cold_speedup")
        if ratio is None:
            print(f"  [warn] serving/{name}: no steady_vs_cold_speedup field")
            continue
        cold_hits = metric(row, "cold_hit_rate")
        if cold_hits is not None and cold_hits >= 0.5:
            # Cross-recommender sharing: this row's "cold" pass already ran
            # on cache hits (AT/AC1 after AC2 filled the cache), so the
            # ratio compares two warm passes — pure timer noise, nothing to
            # gate. Only rows whose cold pass genuinely extracted measure
            # the warm path's saving.
            print(
                f"   serving/{name}: steady_vs_cold_speedup {ratio:.2f} "
                f"[not gated: cold pass was already warm "
                f"(hit rate {cold_hits:.0%})]"
            )
            continue
        ok = ratio >= min_serving_warm
        print(
            f" {' ' if ok else '!'} serving/{name}: "
            f"steady_vs_cold_speedup {ratio:.2f} "
            f"(floor {min_serving_warm:.2f})"
        )
        if not ok:
            failures.append(("serving", name, "steady_vs_cold_speedup"))
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="+", help="baseline and candidate, or just candidate with --assert-only")
    parser.add_argument("--max-regression", type=float, default=0.10,
                        help="fail when a rate metric drops by more than this fraction (default 0.10)")
    parser.add_argument("--assert-only", action="store_true",
                        help="check machine-independent invariants of one file instead of diffing two")
    parser.add_argument("--load", action="store_true",
                        help="diff two BENCH_load.json load-harness files (informational, always exits 0)")
    parser.add_argument("--min-full-speedup", type=float, default=0.98,
                        help="--assert-only: floor for every sweep row's full_vs_reference_speedup (default 0.98)")
    parser.add_argument("--min-ref-ns", type=float, default=1000.0,
                        help="--assert-only: skip gating rows whose reference loop is faster than this per iteration (default 1000 ns)")
    parser.add_argument("--min-fused-w8", type=float, default=1.3,
                        help="--assert-only: floor for the fused ladder's width-8 speedup_vs_width1 on kernel rows whose value vector does not fit L2 (measured ~2.5x on the seed machine; in-cache rows are reported but not gated) (default 1.3)")
    parser.add_argument("--min-serving-warm", type=float, default=1.2,
                        help="--assert-only: floor for steady_vs_cold_speedup on serving rows whose cold pass genuinely extracted (cold_hit_rate < 0.5); already-warm cold passes are reported but not gated (default 1.2)")
    args = parser.parse_args()

    if args.assert_only:
        if len(args.files) != 1:
            parser.error("--assert-only takes exactly one file")
        with open(args.files[0]) as f:
            candidate = json.load(f)
        print(f"asserting invariants of {args.files[0]}")
        failures = assert_invariants(candidate, args.min_full_speedup,
                                     args.min_ref_ns,
                                     args.min_serving_warm,
                                     args.min_fused_w8)
    elif args.load:
        if len(args.files) != 2:
            parser.error("--load expects BASELINE.json CANDIDATE.json")
        with open(args.files[0]) as f:
            baseline = json.load(f)
        with open(args.files[1]) as f:
            candidate = json.load(f)
        print(f"load harness: {args.files[0]} (baseline) vs {args.files[1]}")
        failures = compare_load(baseline, candidate)
    else:
        if len(args.files) != 2:
            parser.error("expected BASELINE.json CANDIDATE.json")
        with open(args.files[0]) as f:
            baseline = json.load(f)
        with open(args.files[1]) as f:
            candidate = json.load(f)
        print(f"comparing {args.files[0]} (baseline) vs {args.files[1]}")
        failures = compare(baseline, candidate, args.max_regression)

    if failures:
        print(f"FAIL: {len(failures)} metric(s) out of bounds:")
        for section, name, rate in failures:
            print(f"  {section}/{name}.{rate}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
