#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds the
library and the benchmark binary under .bench_build/ (about a minute on
four cores); later runs only rebuild what changed.

The report on standard output names every metric with its unit and
whether it is host time (wall clock of this machine) or simulated (a
count or time from the deterministic simulator, which repeats exactly for
a given seed).  The last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run, whose spans are also written as Chrome
trace-event JSON to .bench_build/traces/.  The run exits non-zero when an
output check fails: false negatives or missing deliveries on
publish_sparse, an overlay not legal within the round budget, simulated
counts that differ between episodes of one run or between two runs of the
same seed on the same binary, or an end-to-end metric that could not be
measured.

perfbench/spec.json says what every workload and metric is, which
end-to-end metric each per-layer metric should move, and why scale_churn
runs here but is not part of BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def load_spec():
    with open(os.path.join(HERE, "spec.json")) as f:
        return json.load(f)


def gated_part(spec):
    """The part of spec.json that BENCHMARK.json repeats."""
    gated = [w["name"] for w in spec["workloads"] if w["gated"]]
    keys = ("name", "unit", "better", "bound")
    return {
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in spec["workloads"] if w["gated"]],
        "end_to_end": [{k: m[k] for k in keys if k in m}
                       for m in spec["end_to_end"]],
        "per_layer": [{k: m[k] for k in keys if k in m}
                      for m in spec["per_layer"]
                      if set(m["measured_on"]) & set(gated)],
    }


def check_benchmark_json(spec):
    """BENCHMARK.json must gate exactly what spec.json describes."""
    if not os.path.exists("BENCHMARK.json"):
        return
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for key, want in gated_part(spec).items():
        if bench.get(key) != want:
            sys.exit(f"run.py: BENCHMARK.json {key} disagrees with "
                     f"perfbench/spec.json")


def build():
    """Configure once, then let the build tool rebuild what changed."""
    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        sys.exit("run.py: run from the repository root; src/ is missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        sys.exit("run.py: build failed")
    return os.path.join(BUILD, "perfbench")


def binary_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_repeatable(binary, out, failures):
    """Same binary, workload and seed: the simulated counts must repeat.

    Each run records its counts under .bench_build/digests.json; a later
    run of the same seed on the same binary fails when a count both runs
    have differs (a traced run covers only the first input set).
    drtd_mixed has no simulated counts: its interleaving follows the host
    clock.
    """
    if not out["sim_counts"]:
        return
    path = os.path.join(".bench_build", "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    key = f"{binary_digest(binary)}/{out['workload']}/{out['seed']}"
    before = seen.get(key, {})
    differ = sorted(k for k, v in out["sim_counts"].items()
                    if k in before and before[k] != v)
    if differ:
        failures.append("simulated counts differ from an earlier run with "
                        f"this seed: {', '.join(differ)}")
    seen[key] = {**before, **out["sim_counts"]}
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float) and (math.isinf(v) or math.isnan(v)):
        return str(v)
    return f"{v:.6g}"


def report(spec, args, out, failures):
    w = args.workload
    print(f"perfbench {w} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if not args.trace:
        print("end-to-end (gated):")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<16} {fmt(out['e2e'].get(m['name'])):>12} "
                  f"{m['unit']:<6} {m['clock']}")
        print("end-to-end (reported, not gated):")
        for m in spec["reported_not_gated"]:
            v = out["e2e"].get(m["name"]) if w in m["workloads"] else None
            if m["name"] == "failed_frac":
                v = out["failed"] / max(1, out["attempted"])
            print(f"  {m['name']:<16} {fmt(v):>12} {m['unit']:<6} "
                  f"{m['clock']}")
        named = {m["name"] for m in spec["end_to_end"]}
        named |= {m["name"] for m in spec["reported_not_gated"]}
        for k, v in sorted(out["e2e"].items()):
            if k not in named and not k.startswith("rate."):
                print(f"  {k:<16} {fmt(v):>12}")
        rates = sorted({k.split(".")[1] for k in out["e2e"]
                        if k.startswith("rate.")}, key=float)
        if rates:
            print("offered rates (host):")
            cols = ["p50_us", "p99_us", "completed_per_s", "lag_p99_ms",
                    "final_lag_ms", "backlog_grew", "abandoned", "failed"]
            print("  " + "rate".rjust(6) + "".join(c.rjust(16) for c in cols))
            for r in rates:
                print("  " + r.rjust(6) + "".join(
                    fmt(out["e2e"].get(f"rate.{r}.{c}")).rjust(16)
                    for c in cols))
    else:
        print("per-layer (traced run):")
        for m in spec["per_layer"]:
            if w not in m["measured_on"]:
                continue
            print(f"  {m['name']:<34} {fmt(out['layer'].get(m['name'])):>12} "
                  f"{m['unit']:<6} {m['clock']:<9} moves {m['moves']} "
                  f"on {', '.join(m['on'])}")
        print(f"  span file: {args.trace_out}")
    if out["sim_counts"]:
        print(f"simulated counts digest: {out['digest']}")
        for k, v in sorted(out["sim_counts"].items()):
            print(f"  {k} = {v}")
    else:
        print("simulated counts: none (the daemon's interleaving follows "
              "the host clock)")
    for f in failures:
        print(f"CHECK FAILED: {f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload}")
    check_benchmark_json(spec)
    binary = build()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--p99-limit-us", str(spec["p99_limit_us"])]
    args.trace_out = ""
    if args.trace:
        os.makedirs(os.path.join(".bench_build", "traces"), exist_ok=True)
        args.trace_out = os.path.join(
            ".bench_build", "traces", f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", args.trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"run.py: perfbench exited with {proc.returncode}")
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    failures = list(out["failures"])
    check_repeatable(binary, out, failures)
    if args.trace:
        # The gated per-layer list (every metric, for a workload outside
        # BENCHMARK.json).  A metric this workload does not measure reads 0.
        wanted = {m["name"] for m in gated_part(spec)["per_layer"]}
        gated = next(w["gated"] for w in spec["workloads"]
                     if w["name"] == args.workload)
        metrics = {m["name"]: {"value": out["layer"].get(m["name"]) or 0.0,
                               "unit": m["unit"]}
                   for m in spec["per_layer"]
                   if m["name"] in wanted or not gated}
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            v = out["e2e"].get(m["name"])
            if v is None or not math.isfinite(v) or v <= 0:
                failures.append(f"{m['name']} not measured ({v})")
                v = 0.0
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    report(spec, args, out, failures)
    print(json.dumps({"correct": not failures,
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
