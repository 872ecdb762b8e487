#!/usr/bin/env python3
"""Builds and runs the kacc host-time benchmark.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is built from
hostbench/ against ../src into $CARGO_TARGET_DIR/hostbench (default
.bench_build/hostbench). Its stdout, a metric table ending in one JSON
result line, is passed through; kacc's own log lines (drift warnings among
them) go to last_run_stderr.log in the build directory and are only counted
here, so they never mix with the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("native_bulk", "native_small", "sim_deep")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("kacc sources (src/) not found next to hostbench/; "
             "run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", *generator, "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (see {log_path})")
    return os.path.join(build_dir, "kacc_hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be within 1..120")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "hostbench")
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    err_path = os.path.join(build_dir, "last_run_stderr.log")
    with open(err_path, "w") as err:
        # Own process group: on a timeout the forked ranks go down with it.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    with open(err_path) as f:
        err_lines = f.read().splitlines()
    warns = sum(1 for line in err_lines if " WARN " in line)
    if proc.returncode != 0:
        sys.stderr.write("\n".join(err_lines[-20:]) + "\n")
        fail(f"benchmark exited with code {proc.returncode}")

    out_lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(out_lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("benchmark printed no result line")
    print(f"hostbench: {warns} kacc warning line(s) on stderr, kept in "
          f"{err_path}", file=sys.stderr)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
