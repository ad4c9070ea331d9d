#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve|sweep|replay \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds perfbench/ (the ncb library,
ncb_serve and the ncb_perfbench load generator, Release) into
$CARGO_TARGET_DIR or .bench_build, runs the workload, and prints as its
last stdout line one JSON object {correct, attempted, failed, metrics}:
the end-to-end metrics with --trace 0, every per-layer metric with
--trace 1. A traced run first repeats the workload untraced, so the
per-layer output also carries the tracing overhead (traced / untraced
end-to-end figures) and takes every per-layer row the untraced run also
measures from that run. Exits non-zero without a result on any failure.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 170.0  # every invocation of one run together


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir, env):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "ncb_perfbench", "ncb_serve"],
                   check=True, stdout=sys.stderr, env=env)
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            raise RuntimeError("build directory is not a Release build")


def run_binary(binary, serve_binary, args, trace, deadline, env):
    """Runs ncb_perfbench once; returns (human lines, measured, result)."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--ncb-serve", serve_binary]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            start_new_session=True, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("workload timed out")
    finally:
        # Nothing the workload started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError("ncb_perfbench exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    measured = None
    for line in lines:
        if line.startswith("measured: "):
            measured = json.loads(line[len("measured: "):])
    if measured is None:
        raise RuntimeError("ncb_perfbench printed no measured line")
    return lines[:-1], measured, result


def check_names(metrics, table):
    """The printed metric set must be exactly BENCHMARK.json's table."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return
    want = {m["name"] for m in spec[table]}
    if set(metrics) != want:
        raise RuntimeError("metrics differ from BENCHMARK.json %s: %s" %
                           (table, sorted(set(metrics) ^ want)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve", "sweep", "replay"])
    parser.add_argument("--seed", type=int, default=20170605)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2^63)")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Compiler temporaries too stay inside the checkout.
    tmp_dir = os.path.abspath(os.path.join(build_dir, "tmp"))
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        os.makedirs(tmp_dir, exist_ok=True)
        build(build_dir, env)
    except (subprocess.CalledProcessError, OSError, RuntimeError) as e:
        log("build failed: %s" % e)
        return 2
    binary = os.path.join(build_dir, "ncb_perfbench")
    serve_binary = os.path.join(build_dir, "ncb", "examples", "ncb_serve")

    deadline = time.time() + TIME_LIMIT_S
    try:
        if args.trace == 0:
            lines, _, result = run_binary(binary, serve_binary, args, 0,
                                          deadline, env)
            check_names(result["metrics"], "end_to_end")
        else:
            _, plain, first = run_binary(binary, serve_binary, args, 0,
                                         deadline, env)
            lines, traced, result = run_binary(binary, serve_binary, args, 1,
                                               deadline, env)
            result["correct"] = result["correct"] and first["correct"]
            result["attempted"] += first["attempted"]
            result["failed"] += first["failed"]
            # A per-layer row the untraced run measures too (the sweep's
            # per-scenario rates, the serve counters) is taken from it, so
            # it carries no tracing overhead.
            metrics = result["metrics"]
            for name, value in plain.items():
                if name in metrics and value is not None:
                    metrics[name]["value"] = value
            metrics["failed_ratio"]["value"] = (result["failed"] /
                                                result["attempted"])
            ratios = {
                "trace.overhead.throughput_ratio":
                    plain["throughput_per_s"] / traced["throughput_per_s"],
                "trace.overhead.latency_p50_ratio":
                    traced["latency_p50_us"] / plain["latency_p50_us"],
            }
            for name, value in ratios.items():
                metrics[name] = {"value": value, "unit": "ratio"}
            lines.append("untraced: " + json.dumps(plain))
            lines.append("tracing overhead: " + json.dumps(ratios))
            check_names(result["metrics"], "per_layer")
    except (RuntimeError, OSError, ValueError, KeyError,
            ZeroDivisionError) as e:
        log("error: %s" % e)
        return 1
    finally:
        try:
            os.rmdir(".bench_run")
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
