#!/usr/bin/env python3
"""End-to-end benchmark runner (standard library only).

Builds bench/e2e into .bench_build/, writes the checkpoint fleet once, and
runs bench_e2e. Run it from anywhere inside a checkout of the repository.

One run (the form BENCHMARK.json names; the last stdout line is the JSON
result, and the exit code is bench_e2e's):

    python3 bench/e2e/run.py --workload head_active --seed 7 --seconds 20 --trace 0

A report over every workload (prints `workload metric value unit` per run,
then each metric's median, IQR and spread against its bound, and with
--sets 2 how far the second set's median moved from the first's):

    python3 bench/e2e/run.py [--repeat N] [--sets K] [--trace] [--seed S]
                             [--smoke] [--out FILE]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "e2e" / "bench_e2e"
FLEET = BUILD / "fleet"
WORKLOADS = ["head_active", "tail_uniform", "http_head", "offline_ac2"]
# Every run ends within 180 s; building may take the first one longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
EXIT_INVALID = 3
EXIT_TIMEOUT = 4


def log(message):
    print(message, file=sys.stderr, flush=True)


def quiet(cmd, timeout):
    """Runs a build step with its output on stderr, so stdout stays clean."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, check=True)


def build():
    build_dir = BUILD / "e2e"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        quiet(cmd, BUILD_TIMEOUT_S)
    quiet(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
           "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)


def ensure_fleet():
    """Writes dataset + checkpoints with this build, once per binary."""
    info = BINARY.stat()
    identity = f"{info.st_size}:{info.st_mtime_ns}"
    stamp = FLEET / "stamp"
    if stamp.exists() and stamp.read_text() == identity:
        return
    shutil.rmtree(FLEET, ignore_errors=True)
    quiet([str(BINARY), "--prepare", f"--fleet={FLEET}"], BUILD_TIMEOUT_S)
    stamp.write_text(identity)


def run_one(workload, seed, seconds, trace, replay=0):
    """Runs bench_e2e once; returns (exit code, parsed result or None)."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}",
           f"--fleet={FLEET}"]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace_out={traces / f'{workload}_seed{seed}.csv'}")
    if replay:
        cmd.append(f"--replay={replay}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return EXIT_TIMEOUT, None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        expected = {m["name"] for m in
                    load_benchmark().get("per_layer" if trace else
                                         "end_to_end", [])}
        printed = set(result["metrics"])
        if expected and printed != expected:
            log(f"{workload}: metrics differ from BENCHMARK.json: missing "
                f"{sorted(expected - printed)}, extra "
                f"{sorted(printed - expected)}")
    return proc.returncode, result


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def host_info():
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = ""
    cache = BUILD / "e2e" / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                out = subprocess.run([path, "--version"], capture_output=True,
                                     text=True, timeout=30).stdout
                compiler = out.splitlines()[0] if out else path
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler}


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worsening(first, later, better):
    """How much worse `later` reads than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def report(args):
    bench = load_benchmark()
    seconds = 3 if args.smoke else args.seconds or bench.get("run_seconds", 20)
    replay = 32 if args.smoke else 0
    declared = {m["name"]: m for m in bench.get("end_to_end", [])}
    runs = []
    worst = 0
    # Every set runs the same seeds; the workload order alternates from one
    # round to the next.
    for s in range(args.sets):
        for r in range(args.repeat):
            order = WORKLOADS if (s * args.repeat + r) % 2 == 0 else \
                WORKLOADS[::-1]
            runs += [(s, workload, args.seed + r, False) for workload in order]
    if args.trace:
        runs += [(0, workload, args.seed, True) for workload in WORKLOADS]
    records = []
    for s, workload, seed, trace in runs:
        started = time.monotonic()
        code, result = run_one(workload, seed, seconds, trace, replay)
        wall = time.monotonic() - started
        records.append({"set": s, "workload": workload, "seed": seed,
                        "trace": trace, "exit": code,
                        "wall_s": round(wall, 2), "result": result})
        if code == EXIT_INVALID:
            log(f"{workload} seed {seed}: INVALID run (noisy host)")
        elif code != 0:
            log(f"{workload} seed {seed}: exit {code}")
        worst = max(worst, code if code >= 0 else 2)  # < 0: killed by a signal
        if result is not None:
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']} {metric['unit']}"
                      f"{' (traced)' if trace else ''}")
        sys.stdout.flush()

    summary = []
    print("\n# workload metric set: median [q1, q3] spread, over valid "
          "untraced runs; later sets: worsening of the median against set 1")
    for workload in WORKLOADS:
        valid = [[rec["result"] for rec in records
                  if rec["set"] == s and rec["workload"] == workload
                  and not rec["trace"] and rec["exit"] == 0
                  and rec["result"] is not None] for s in range(args.sets)]
        if not valid[0]:
            continue
        for name in valid[0][0]["metrics"]:
            unit = valid[0][0]["metrics"][name]["unit"]
            metric = declared.get(name, {})
            bound = metric.get("bound")
            first = None
            for s, results in enumerate(valid):
                if not results:
                    continue
                values = [res["metrics"][name]["value"] for res in results]
                median, q1, q3, share = spread(values)
                line = (f"{workload} {name} set {s + 1}: {median:.6g} "
                        f"[{q1:.6g}, {q3:.6g}] {unit} spread "
                        f"{100 * share:.1f}%")
                entry = {"workload": workload, "metric": name, "set": s + 1,
                         "unit": unit, "runs": len(values), "median": median,
                         "q1": q1, "q3": q3, "spread": share, "bound": bound}
                if bound is not None and len(values) > 1:
                    line += (f" (bound {100 * bound:.0f}%: " +
                             ("ok" if share < bound / 3 else
                              "within bound" if share <= bound else
                              "TOO NOISY") + ")")
                if first is None:
                    first = median
                elif bound is not None:
                    shift = worsening(first, median, metric["better"])
                    entry["worsening_vs_set1"] = shift
                    line += (f"; {100 * shift:+.1f}% worse than set 1 "
                             f"({'ok' if shift <= bound else 'EXCEEDS BOUND'})")
                print(line)
                summary.append(entry)
        traced = [rec["result"] for rec in records
                  if rec["workload"] == workload and rec["trace"]
                  and rec["result"] is not None]
        if traced and "throughput_rps" in valid[0][0]["metrics"]:
            base = statistics.median(
                res["metrics"]["throughput_rps"]["value"] for res in valid[0])
            traced_rps = traced[0]["metrics"]["trace.throughput_rps"]["value"]
            ratio = traced[0]["metrics"]["trace.stage_sum_ratio"]["value"]
            print(f"{workload} traced run: throughput {traced_rps:.6g}/s, "
                  f"{100 * (traced_rps / base - 1):+.1f}% against the "
                  f"untraced median; stages sum to {100 * ratio:.1f}% of "
                  f"core.query_batch_us")

    if args.out:
        out = {"host": host_info(), "seconds": seconds, "runs": records,
               "summary": summary}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
        log(f"wrote {args.out}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print its JSON result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="report mode: untraced runs per workload and "
                             "set, at seeds S, S+1, ...")
    parser.add_argument("--sets", type=int, default=1,
                        help="report mode: sets of --repeat runs at the same "
                             "seeds; later sets are compared with the first")
    parser.add_argument("--smoke", action="store_true",
                        help="report mode: 3 s runs and a short replay")
    parser.add_argument("--out", help="report mode: write every run as JSON")
    args = parser.parse_args()

    try:
        build()
        ensure_fleet()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        log(f"build or fleet preparation failed: {err}")
        return 2

    if args.workload is None:
        return report(args)
    seconds = args.seconds or load_benchmark().get("run_seconds", 20)
    code, result = run_one(args.workload, args.seed, seconds, args.trace)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
