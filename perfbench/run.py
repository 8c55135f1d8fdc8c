#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout's sources, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench under the checkout root (CMake,
RelWithDebInfo like the repository's default build). The binary runs with
that directory as its working directory, so the distributed runtime's
Unix-domain sockets stay inside the checkout. Build output goes to standard
error; the binary's standard output, whose last line is the JSON result,
passes through unchanged. Exits non-zero, printing no result, when the
sources are missing or the build fails.

`--workload all` runs every workload BENCHMARK.json lists, one binary process
each, and prints one `workload metric value unit` line per metric instead.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "aces_perfbench")


def build(env):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)


def run_all(args, env):
    """Runs each listed workload in its own process; prints a table."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    at = args.index("--workload")
    ok = True
    for name in names:
        argv = args[:at + 1] + [name] + args[at + 2:]
        out = subprocess.run([BINARY] + argv, cwd=BUILD, env=env,
                             capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{name} FAILED (exit {out.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    # Compiler temporaries go inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        return run_all(args, env)
    # A child, not exec: the binary's RUSAGE_CHILDREN peak must cover its
    # own workers only, not the compiler.
    return subprocess.run([BINARY] + args, cwd=BUILD, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
