#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload kv-inproc|kv-tcp|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the source tree. It builds perfbench/ (and the library
under it) into .bench_build/, runs the measuring binary, and prints as its
last line one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, taken from a traced run, plus each
end-to-end metric's tracing overhead against an untraced run of the same
seed made just before it. --workload all runs both workloads in turn.
--self-test shows that each output oracle fails when its input is sabotaged.
See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("kv-inproc", "kv-tcp")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds once per checkout; later calls are no-ops."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def measure_part(workload, part, seed, seconds, traced, sabotage):
    """One run of the binary on one part; returns its parsed result line."""
    cmd = [BINARY, "--workload", workload, "--part", part, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--sabotage", sabotage]
    if traced:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT, "trace-%s-%s-seed%d.tsv" % (workload, part, seed))]
    # A part takes about 0.7 * seconds plus a few seconds of set-up and
    # warm-up (README, "Rounds"); the rest is room for a slow host.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=2 * seconds + 60)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result" % workload)
    return json.loads(lines[-1])


def measure(workload, seed, seconds, traced, sabotage="none"):
    """The bank part and the KV part, each in a fresh process (a part run
    on a heap the other has churned measures up to twice as slow), merged
    into one result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "checks": {},
              "e2e": {}, "layer": {}}
    for part in ("bank", "kv"):
        raw = measure_part(workload, part, seed, seconds, traced, sabotage)
        merged["correct"] = merged["correct"] and raw["correct"]
        merged["attempted"] += raw["attempted"]
        merged["failed"] += raw["failed"]
        # The parts report disjoint metrics, except counts that add up
        # (oracle failures, spans dropped).
        for key in ("checks", "e2e", "layer"):
            for name, value in raw[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def shape(raw, metrics, source, fill_zero):
    """The result line callers read: correct, attempted, failed and `metrics`
    taken from raw[source]."""
    out = {}
    for m in metrics:
        value = raw[source].get(m["name"])
        if value is None:
            if not fill_zero:
                raise RuntimeError("metric %s was not measured" % m["name"])
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    if not raw["correct"]:
        log("oracle failures: %s" % json.dumps(raw["checks"]))
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": out}


def run_workload(s, workload, seed, seconds, traced):
    if not traced:
        return shape(measure(workload, seed, seconds, False), s["end_to_end"],
                     "e2e", False)
    plain = measure(workload, seed, seconds, False)
    traced_raw = measure(workload, seed, seconds, True)
    # A per-layer metric a workload never reaches (its layer is bypassed,
    # e.g. net.* on bank) reads 0.
    for m in s["end_to_end"]:
        base = plain["e2e"].get(m["name"])
        with_trace = traced_raw["e2e"].get(m["name"])
        if base and with_trace is not None:
            worse = with_trace - base if m["better"] == "lower" else base - with_trace
            traced_raw["layer"]["trace.overhead_pct." + m["name"]] = (
                100.0 * worse / base)
    result = shape(traced_raw, s["per_layer"], "layer", True)
    result["correct"] = plain["correct"] and traced_raw["correct"]
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    return result


def self_test(seconds):
    """Each sabotage must make the run fail, through its own oracle."""
    expect = {
        "drop-transfer": ("bank.final_balances", "kv.final_values"),
        "scan-sum": ("bank.compute_total_sum", "kv.scan_sum"),
    }
    ok = True
    for workload in WORKLOADS:
        clean = measure(workload, 1, seconds, False)
        log("%s clean: correct=%s" % (workload, clean["correct"]))
        ok = ok and clean["correct"]
        for sabotage, oracles in expect.items():
            raw = measure(workload, 1, seconds, False, sabotage)
            caught = not raw["correct"] and all(
                o in raw["checks"] for o in oracles)
            log("%s %s: correct=%s checks=%s -> %s" % (
                workload, sabotage, raw["correct"], json.dumps(raw["checks"]),
                "caught" if caught else "MISSED"))
            ok = ok and caught
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        s = spec()
        seconds = args.seconds or s["run_seconds"]
        build()
        if args.self_test:
            return self_test(min(seconds, 4))
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload != "all":
            result = run_workload(s, args.workload, args.seed, seconds,
                                  args.trace == 1)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            r = run_workload(s, w, args.seed, seconds, args.trace == 1)
            print(json.dumps({"workload": w, **r}))
            combined["correct"] = combined["correct"] and r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
            for name, m in r["metrics"].items():
                combined["metrics"][w + ":" + name] = m
        print(json.dumps(combined))
        return 0
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
