#!/usr/bin/env python3
"""Run one workload of the kairos end-to-end benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (perfbench/CMakeLists.txt: the library from src/ plus
kbench) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
runs the workload in a fresh process, checks its output, prints every metric
by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (README.md explains both). The exit code is 0 only for a run
whose checks all passed.

    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

This file is the single source of the workload and metric tables;
BENCHMARK.json at the repository root is written from it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_SECONDS = 30
# One run's hard limit; a run that takes longer is a failure, not a result.
RUN_TIMEOUT_S = 170

WORKLOADS = [
    ("serial-mesh10k",
     "paper's serial manager: 1 closed-loop caller churns 24-task DSP apps on "
     "a 100x100 mesh; platform, mappers and core carry the cost; bypasses "
     "the service layer"),
    ("daemon-crisp",
     "socket daemon on CRISP, open loop at 300 req/s (latency limit 50 ms), "
     "distinct small apps, /metrics every 15 s: net, service and obs carry "
     "the cost"),
]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("admit_p50_ms", "ms", "lower", 0.25),
    ("decisions_per_s", "1/s", "higher", 0.25),
    ("on_time_ratio", "ratio", "higher", 0.05),
    ("admit_ratio", "ratio", "higher", 0.25),
    ("mean_hops", "hops", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]


def _timing(base, unit="ms", better="lower", p50=False):
    names = ([base + ".p50"] if p50 else []) + [base + ".mean", base + ".p99"]
    return [(name, unit, better) for name in names]


PER_LAYER = (
    # The untraced window's tail latency: too spread between runs to gate
    # (README.md, "End-to-end metrics").
    [("admit_p99_ms", "ms", "lower")] +
    _timing("core.binding_ms") + _timing("core.mapping_ms") +
    _timing("core.routing_ms") + _timing("core.validation_ms") +
    _timing("core.residual_ms") + _timing("core.remove_ms") +
    [("core.rejected." + phase, "count", "lower")
     for phase in ("binding", "mapping", "routing", "validation")] +
    [("service.conflict_ratio", "ratio", "lower"),
     ("service.fallback_ratio", "ratio", "lower"),
     ("service.batch_size_mean", "count", "higher"),
     ("proc.cpu_ms_per_decision", "ms", "lower"),
     ("proc.cpu_util", "ratio", "higher")] +
    _timing("net.overhead_ms") + _timing("obs.scrape_ms", p50=True) +
    [("obs.scrape_bytes", "bytes", "lower"),
     ("gen.lag_p99_ms", "ms", "lower"),
     ("input.repeat_share", "ratio", "higher"),
     ("platform.occupancy_mean", "ratio", "higher"),
     ("trace.admit_p50_delta_pct", "%", "lower"),
     ("trace.decisions_per_s_delta_pct", "%", "higher"),
     ("trace.spans", "count", "higher")])


# Per-layer metrics of layers a workload's path does not cross. kbench
# does not report them; they read 0 so every run prints the same set.
OFF_PATH = {
    "serial-mesh10k": ("net.", "obs.", "gen."),
    "daemon-crisp": ("core.residual_ms",),
}


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def manifest_text():
    return json.dumps(manifest(), indent=2) + "\n"


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of every source the benchmark builds: the build stamp when the
    checkout carries no git metadata, and the key of the fingerprint record."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:12]


def build(build_dir, digest):
    """Configures (when the sources changed) and builds kbench; the build's
    output goes to stderr so stdout stays the result."""
    stamp = os.path.join(build_dir, "source-digest")
    stale = (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
             or not os.path.exists(stamp) or open(stamp).read() != digest)
    if stale:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release", "-DKAIROS_GIT_SHA=src-" + digest]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed", 3)
        with open(stamp, "w") as f:
            f.write(digest)
    cmd = ["cmake", "--build", build_dir, "--target", "kbench", "-j",
           str(max(1, min(4, os.cpu_count() or 1)))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 3)
    return os.path.join(build_dir, "kbench")


def check_fingerprint(build_dir, key, value):
    """The serial decision fingerprint must repeat on every run of one seed
    and one source digest; returns an error message or None."""
    path = os.path.join(build_dir, "fingerprints.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen and seen[key] != value:
        return "fingerprint %s differs from %s of an earlier run (%s)" % (
            value, seen[key], key)
    seen[key] = value
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes (the benchmark's own tests)")
    parser.add_argument("--skip-remove", action="store_true",
                        help="leak one remove so the audit must fail")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the tables above")
    args = parser.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(manifest_text())
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "core",
                                       "resource_manager.hpp")):
        fail("kairos sources (src/) not found next to perfbench/")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    digest = source_digest()
    binary = build(build_dir, digest)
    work_dir = os.path.join(build_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.skip_remove:
        cmd.append("--skip-remove")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 4)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("kbench exited %d without a result" % proc.returncode, 4)

    failures = list(doc["failures"])
    expected = END_TO_END if args.trace == 0 else PER_LAYER
    metrics = {}
    for entry in expected:
        name, unit = entry[0], entry[1]
        got = doc["metrics"].get(name)
        if got is None and args.trace and name.startswith(OFF_PATH[args.workload]):
            got = {"value": 0.0, "unit": unit}
        if got is None:
            failures.append("metric %s missing" % name)
        elif got["unit"] != unit:
            failures.append("metric %s in %s, expected %s" % (name, got["unit"], unit))
        else:
            metrics[name] = {"value": got["value"], "unit": unit}
    if "fingerprint" in doc["info"] and not args.skip_remove:
        key = "%s:%d:%s:%s" % (args.workload, args.seed, digest,
                               "tiny" if args.tiny else "full")
        error = check_fingerprint(build_dir, key, doc["info"]["fingerprint"])
        if error:
            failures.append(error)
    # kbench counts its own failed checks; checks failed here add to them.
    failed = int(doc["failed"]) + len(failures) - len(doc["failures"])
    correct = bool(doc["correct"]) and not failures and proc.returncode == 0

    print("workload %s  seed %d  trace %d  %s" % (
        args.workload, args.seed, args.trace, "tiny" if args.tiny else "full"))
    for key in ("build", "nproc", "cache", "fingerprint", "live_apps"):
        if key in doc["info"]:
            print("  %-12s %s" % (key, doc["info"][key]))
    for name, entry in sorted(metrics.items()):
        base = name.rsplit(".", 1)[0] if name.endswith((".mean", ".p50", ".p99")) else name
        samples = doc["samples"].get(base, doc["samples"].get(
            "admit_ms" if name.startswith("admit_p") else name))
        print("  %-34s %14.6g %-6s%s" % (
            name, entry["value"], entry["unit"],
            "" if samples is None else "  n=%d" % samples))
    for name, ok in sorted(doc["checks"].items()):
        print("  check %-28s %s" % (name, "pass" if ok else "FAIL"))
    for failure in failures:
        print("  failure: " + failure)
    print(json.dumps({"correct": correct, "attempted": int(doc["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
