#!/usr/bin/env python3
"""Builds the benchmark driver from the repository sources and runs one workload.

    python3 perfbench/run.py --workload store_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The build goes to <build root>/perfbench, where the build root is
$CARGO_TARGET_DIR or .bench_build under the repository root; the first run
configures and compiles (Release, -march=native), later runs only relink
what changed. Each run works in a fresh directory under the build root and
removes it afterwards. The driver's output passes through unchanged: its
last line is the result object. Exit code: the driver's (0 ok, 1 failed
correctness gate, 2 bad arguments), 3 when the sources are missing or the
build fails, 4 when the driver runs past RUN_TIMEOUT_S.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("store_sweep", "live_service")
RUN_TIMEOUT_S = 175


def fail(message, code=3):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def source_digest():
    """SHA-256 over the library and benchmark sources: names the code a result
    came from when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".cc", ".h", ".txt")))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no library sources next to {HERE}: expected CMakeLists.txt and src/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def run(command, timeout):
    process = subprocess.Popen(command)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail(f"timed out after {timeout} s", code=4)
    except BaseException:
        process.kill()
        process.wait()
        raise


def main():
    # A terminated run still stops the driver and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        build_dir = build(["perfbench_harness_test"])
        code = run([os.path.join(build_dir, "perfbench_harness_test")], RUN_TIMEOUT_S)
        code = code or run([sys.executable, os.path.join(HERE, "tests", "compare_test.py")],
                           RUN_TIMEOUT_S)
        sys.exit(code)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = build(["perfbench"])
    work_dir = os.path.join(build_root(), "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        code = run([os.path.join(build_dir, "perfbench"), f"--workload={args.workload}",
                    f"--seed={args.seed}", f"--seconds={args.seconds}",
                    f"--trace={args.trace}", f"--work_dir={work_dir}",
                    f"--source_digest={source_digest()}"], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
