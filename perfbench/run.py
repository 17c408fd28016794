#!/usr/bin/env python3
"""Runs one workload of the m3 benchmark and prints its metrics.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first run builds perfbench/ (which
compiles the repository's src/) into $CARGO_TARGET_DIR/m3perf (default
.bench_build/m3perf) and the reference artefacts (a model checkpoint
trained with fixed seeds, and packet-simulation truth) next to it; later
runs reuse both. The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics with --trace 1.

`--workload paper_cold` runs the paper-shape workload, which is kept out of
BENCHMARK.json (see perfbench/README.md). --self-check runs every workload,
paper_cold included, briefly, traced and untraced, and checks
that every metric BENCHMARK.json names is printed with its unit, that the
traced paper_cold stage sum covers most of the untraced RunM3 time (the rest
is estimator.unattributed_ms), and that the traced stage shares have the
expected shape.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Runs like the BENCHMARK.json workloads but is not among them: its ten-run
# spread on a shared host comes close to the largest allowed bound. Each
# maps to the prefixes of the per-layer metrics it exercises; a traced run of
# a BENCHMARK.json workload prints every per-layer metric.
EXTRA_WORKLOADS = {
    "paper_cold": ("core.", "pathdecomp.", "flowsim.", "ml.", "estimator.", "trace.", "loadgen.",
                   "setup.model_load_ms"),
}
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "m3perf")


def source_digest():
    """Content hash of everything the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(HERE, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def run_quiet(cmd, timeout):
    """Runs a set-up command with its output on stderr."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1


def build():
    """Builds m3perf and the reference artefacts; returns (binary, refs dir)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: %s/src is missing; run from a full checkout" % ROOT)
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, 300) != 0:
            log("run.py: cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", out, "-j", jobs], 840) != 0:
        log("run.py: build failed")
        sys.exit(2)
    binary = os.path.join(out, "m3perf")
    refs = os.path.join(out, "refs", source_digest())
    os.makedirs(refs, exist_ok=True)
    if run_quiet([binary, "refs", "--refs", refs], 600) != 0:
        log("run.py: building the reference artefacts failed")
        sys.exit(2)
    return binary, refs


def run_once(binary, refs, workload, seed, seconds, trace):
    """One measured run; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "run")
    os.makedirs(work, exist_ok=True)
    # Unix socket paths are short: hand the binary a path relative to the
    # working directory, which shards inherit.
    work = os.path.relpath(work)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--refs", refs, "--work", work,
           "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 124, out.splitlines()
    return proc.returncode, out.splitlines()


def expected_metrics(bench, workload, trace):
    metrics = bench["per_layer" if trace else "end_to_end"]
    if trace and workload in EXTRA_WORKLOADS:
        metrics = [m for m in metrics if m["name"].startswith(EXTRA_WORKLOADS[workload])]
    return metrics


def validate(result, bench, workload, trace):
    """Problems with a result line, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed is not a whole number >= 0")
    expected = {m["name"]: m["unit"] for m in expected_metrics(bench, workload, trace)}
    got = result["metrics"]
    for name in sorted(set(expected) - set(got)):
        problems.append("metric %s is missing" % name)
    for name in sorted(set(got) - set(expected)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name, m in got.items():
        if not name or name[0] not in NAME_CHARS - set("_.-") or set(name) - NAME_CHARS:
            problems.append("metric name %r is not valid" % name)
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("metric %s has value %r" % (name, v))
        if name in expected and m.get("unit") != expected[name]:
            problems.append("metric %s has unit %r, expected %r" % (name, m.get("unit"), expected[name]))
    return problems


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measured(binary, refs, bench, workload, seed, seconds, trace):
    """Runs once and returns (exit code, comment lines, result or None, problems)."""
    rc, lines = run_once(binary, refs, workload, seed, seconds, trace)
    result = None
    problems = []
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            problems.append("last line is not JSON")
    else:
        problems.append("no output")
    if result is not None:
        problems += validate(result, bench, workload, trace)
    if rc != 0:
        problems.append("m3perf exited with %d" % rc)
    return rc, lines[:-1] if result is not None else lines, result, problems


def workload_names(bench):
    return [w["name"] for w in bench["workloads"]] + list(EXTRA_WORKLOADS)


def self_check(binary, refs, bench):
    failures = []
    traced = {}
    for name in workload_names(bench):
        for trace in (0, 1):
            rc, comments, result, problems = measured(binary, refs, bench, name, 1, 5, trace)
            for line in comments:
                log("  " + line)
            failures += ["%s trace=%d: %s" % (name, trace, p) for p in problems]
            if result is not None and trace:
                traced[name] = {k: v["value"] for k, v in result["metrics"].items()}
            log("self-check: %s trace=%d %s" % (name, trace, "ok" if not problems else "FAILED"))

    def check(cond, what):
        log("self-check: %s: %s" % ("ok" if cond else "FAILED", what))
        if not cond:
            failures.append(what)

    # The traced run times untraced RunM3 on the same queries, back to back
    # with the traced replay; a separate untraced run on a shared host
    # differs from it by more than this tolerance. estimator.unattributed_ms
    # is that untraced time minus the stage sum, per query, so the stage sum
    # covering most of the untraced time is what the accounting tests.
    t = traced.get("paper_cold")
    if t:
        untraced_ms = t["estimator.untraced_ms"]
        check(0.75 * untraced_ms <= t["estimator.stage_sum_ms"] <= 1.10 * untraced_ms,
              "paper_cold stage sum (%.1f ms) covers 75-110%% of the untraced RunM3 time"
              % t["estimator.stage_sum_ms"])
        check(t["flowsim.run_ms"] + t["pathdecomp.build_scenario_ms"] > t["ml.forward_ms"],
              "paper_cold: flowsim.run_ms + pathdecomp.build_scenario_ms (%.1f) > ml.forward_ms (%.1f)"
              % (t["flowsim.run_ms"] + t["pathdecomp.build_scenario_ms"], t["ml.forward_ms"]))
    t = traced.get("toy_serve")
    if t:
        check(t["ml.forward_ms"] > t["flowsim.run_ms"],
              "toy_serve: ml.forward_ms (%.3f) > flowsim.run_ms (%.3f)"
              % (t["ml.forward_ms"], t["flowsim.run_ms"]))
    for f in failures:
        log("self-check FAILED: " + f)
    log("self-check: %s" % ("passed" if not failures else "%d failures" % len(failures)))
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    bench = load_bench()
    names = workload_names(bench)
    if not a.self_check and a.workload not in names:
        p.error("--workload must be one of %s" % ", ".join(names))
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    binary, refs = build()
    if a.self_check:
        return self_check(binary, refs, bench)
    rc, comments, result, problems = measured(binary, refs, bench, a.workload, a.seed, a.seconds,
                                              a.trace)
    for line in comments:
        print(line)
    for problem in problems:
        log("run.py: " + problem)
    if result is None or (problems and rc == 0):
        return 3
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
