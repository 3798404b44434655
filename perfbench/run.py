#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--quick] [--set key=value ...]

Run it from the root of a checkout. It builds the library, ba_node and the
perfbench binary from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs that binary, whose last line of output is
the JSON result. Per-instance records, job lines and traces are written to
the out/ directory beside the build. See perfbench/README.md.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure once, then build incrementally; the log stays beside it."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 2)])
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return False
    return True


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True)
        if top.returncode or not os.path.samefile(top.stdout.strip(), root):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        return head.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--quick", action="store_true",
                    help="n=32 and at most 2 instances (the benchmark's tests)")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a spec field of the workload")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        sys.exit("perfbench: build failed")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "out"),
           "--git-commit", git_commit(root)]
    if args.quick:
        cmd.append("--quick")
    for kv in args.set:
        cmd += ["--set", kv]
    sys.stdout.flush()
    # Own process group, so a run cut at the deadline takes its ba_node
    # children down with it.
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
