#!/usr/bin/env python3
"""terracpp end-to-end benchmark: build from source, run one workload.

    python3 perfbench/run.py --workload scripts|kernels|service \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first run configures and builds the
terracpp libraries, terrad and the perfbench binary into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only check the build is current. Build output goes to stderr; stdout ends
with perfbench's one-line JSON result. Full results documents (with the
host's nproc, cc identity and git sha) land in <build dir>/results/.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("scripts", "kernels", "service")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: run from a terracpp checkout (src/ not found)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "terrad"],
        stdout=sys.stderr, check=True)


def git_sha():
    if not os.path.exists(".git"):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal sizes, for the smoke test")
    args = ap.parse_args()

    root = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    # Relative paths keep Unix socket names (108 bytes at most) short
    # whatever the checkout's location; perfbench and its terrad shards all
    # run from the checkout root.
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", build_dir,
           "--work-dir", os.path.join(root, "work", str(os.getpid())),
           "--results-dir", os.path.join(root, "results"),
           "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group, so shards and compilers perfbench started are
    # killed too if it dies or overruns.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
