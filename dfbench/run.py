#!/usr/bin/env python3
"""Build and run the DFThreads benchmark (dfbench).

Run from the root of a checkout:

    python3 dfbench/run.py --workload fork-storm --seed 1 --seconds 10 --trace 0
    python3 dfbench/run.py --self-test

The benchmark binary is built from source with CMake into
$CARGO_TARGET_DIR/dfbench (default .bench_build/dfbench) on first use. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics. The exit code is
non-zero when any output was wrong or a metric is missing.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run that takes longer is killed and fails


def log(msg):
    print(f"dfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "dfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "dfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "dfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "dfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_binary(binary, args):
    """Runs the binary, echoing its stdout; returns (exit code, last line)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, ""
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines[-1] if lines else ""


def expected_metrics(workload, trace):
    """Metric names BENCHMARK.json declares for this mode, or None when the
    workload is not one of its workloads (then every metric is passed on)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(args):
    binary = build()
    code, last = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--commit", source_id()])
    try:
        result = json.loads(last)
    except ValueError:
        log(f"no result line (exit code {code})")
        return 1
    wanted = expected_metrics(args.workload, args.trace)
    if wanted is not None:
        missing = [m for m in wanted if m not in result["metrics"]]
        if missing:
            log("missing metrics: " + ", ".join(missing))
            return 1
        result["metrics"] = {m: result["metrics"][m] for m in wanted}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if code == 0 and result["correct"] else 1


def self_test():
    """The binary's own arithmetic checks, then a harness-injected wrong
    output on each checked workload, which must fail the run."""
    binary = build()
    failures = 0
    if subprocess.run([binary, "--self-test"]).returncode != 0:
        failures += 1
    for workload in ("fork-storm", "serve-open", "apps-batch"):
        code, last = run_binary(binary, [
            "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
            "--inject-wrong"])
        try:
            caught = code != 0 and json.loads(last)["correct"] is False
        except ValueError:
            caught = False
        print(f"{'ok  ' if caught else 'FAIL'} injected wrong output fails {workload}")
        failures += 0 if caught else 1
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    for needed in ("src/CMakeLists.txt", "CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"{needed} not found: run from a full checkout of the repository")
            return 2
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    try:
        return self_test() if args.self_test else measure(args)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build or run failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
