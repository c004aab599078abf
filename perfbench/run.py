#!/usr/bin/env python3
"""FT-Linda benchmark runner.

Builds perfbench/ (the library sources under src/ plus ftlbench.cpp) into
.bench_build/, then runs one workload and prints one JSON line as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke       # every workload briefly; checks names/units
    python3 perfbench/run.py --self-test   # stats unit test, then --smoke

--trace 0 reports the end-to-end metrics. setup_s is the median of several
set-ups, each in a fresh process (a process that builds systems over and over
gets faster, so repeats inside one process drift). --trace 1 runs the workload
untraced and then traced, and reports the per-layer metrics plus the tracing
overhead. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["solo-pipelined", "replicated-pipelined", "bag-of-tasks", "failover"]
SETUP_PROBES = 7      # fresh-process set-ups per run, besides the measured run's own
# Discarded set-ups first: after a quiet spell (a failover run leaves the CPUs
# mostly idle) a 4-vCPU VM ran the first second or so of work much slower:
# 250-350 ms against 100-130 ms for the failover set-up.
WARMUP_PROBES = 3
CHILD_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ftlinda", "system.hpp")):
        die("library sources (src/) not found next to perfbench/")
    if not shutil.which("cmake"):
        die("cmake not found")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build failed")
    return bdir


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_child(bdir, args):
    """Run ftlbench; returns its result object (last stdout line)."""
    data = os.path.join(ROOT, ".bench_build", "data")
    os.makedirs(data, exist_ok=True)
    env = dict(os.environ, FTLBENCH_GIT_SHA=git_sha())
    cmd = [os.path.join(bdir, "ftlbench"), "--data-dir", data] + args
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                           env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(args)}")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if not lines:
        die(f"no result from: {' '.join(args)} (exit {p.returncode})")
    res = json.loads(lines[-1])
    if p.returncode != 0 or not res["correct"]:
        log(f"correctness violated ({res.get('why', '')}): {' '.join(args)}")
        res["correct"] = False
    return res


def measure(bdir, workload, seed, seconds, trace):
    base = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        for _ in range(WARMUP_PROBES):
            run_child(bdir, base + ["--setup-only"])
        setups = [run_child(bdir, base + ["--setup-only"]) for _ in range(SETUP_PROBES)]
        res = run_child(bdir, base + ["--seconds", str(seconds), "--trace", "0"])
        samples = [s["setup_s"] for s in setups] + [res["setup_s"]]
        res["metrics"]["setup_s"]["value"] = statistics.median(samples)
        res["correct"] = res["correct"] and all(s["correct"] for s in setups)
        log(f"setup_s samples: {', '.join(f'{s:.4f}' for s in samples)}")
    else:
        plain = run_child(bdir, base + ["--seconds", str(seconds), "--trace", "0"])
        spans = os.path.join(ROOT, ".bench_build", f"spans-{workload}-{seed}.jsonl")
        res = run_child(bdir, base + ["--seconds", str(seconds), "--trace", "1",
                                      "--spans-out", spans])
        untraced = plain["metrics"]["ags_per_s"]["value"]
        traced = res["metrics"]["trace.ags_per_s"]["value"]
        res["metrics"]["trace.overhead_share"] = {
            "value": 1 - traced / untraced if untraced else 0, "unit": "ratio"}
        res["correct"] = res["correct"] and plain["correct"]
        log(f"spans written to {os.path.relpath(spans, ROOT)}")
    log(f"stamp: {json.dumps(res['stamp'])}")
    extra = {k: res[k] for k in ("tasks_per_s", "outage_ms", "rejoin_ms", "failed_share")
             if k in res}
    log(f"{workload}: {json.dumps(extra)}")
    return res


def report(res):
    for name, m in res["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    out = {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
           "failed": int(res["failed"]), "metrics": res["metrics"]}
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = lambda ms: {m["name"]: m["unit"] for m in ms}
    return units(spec["end_to_end"]), units(spec["per_layer"])


def smoke(bdir, seconds=1):
    """Every workload, both modes, briefly: every declared metric is emitted
    with its declared unit, and nothing undeclared is."""
    e2e, layer = declared()
    bad = 0
    for w in WORKLOADS:
        for trace, want in ((0, e2e), (1, layer)):
            res = measure(bdir, w, 1, seconds, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok = res["correct"] and got == want and all(
                isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            if not ok:
                bad += 1
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                log(f"SMOKE FAIL {w} trace={trace}: correct={res['correct']} "
                    f"missing={missing} undeclared={extra} wrong_unit={wrong}")
            else:
                log(f"smoke ok: {w} trace={trace}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    bdir = build()
    if a.self_test:
        if subprocess.run([os.path.join(bdir, "ftlbench_stats_test")]).returncode != 0:
            return 1
        return smoke(bdir)
    if a.smoke:
        return smoke(bdir)
    if not a.workload:
        ap.error("--workload is required")
    if a.seconds <= 0:
        ap.error("--seconds must be positive")
    return report(measure(bdir, a.workload, a.seed, a.seconds, a.trace == 1))


if __name__ == "__main__":
    sys.exit(main())
