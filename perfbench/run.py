#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library, the serving tools and the benchmark driver from this
checkout's sources (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, and relays the driver's
output: the last line of stdout is the JSON result. Every process the run
starts is stopped and reaped before this script exits, whatever happens to
the driver.
"""

import argparse
import ctypes
import os
import resource
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("routed_mix", "ranked_topk", "ingest_under_query", "comp_algebra")
DRIVER_TIMEOUT_S = 170
# Address-space cap for the driver and the servers it starts: a runaway
# query fails with bad_alloc instead of pressing on the machine's memory.
ADDRESS_SPACE_BYTES = 6 << 30
PR_SET_CHILD_SUBREAPER = 36


def fail(msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.realpath(os.path.join(ROOT, target))
    if not path.startswith(os.path.realpath(ROOT) + os.sep):
        path = os.path.join(ROOT, ".bench_build")
    return os.path.join(path, "perfbench")


def build(out):
    for needed in ("src", "tools/fts_server.cc", "tools/fts_router.cc",
                   "tools/fts_build_index.cc", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("checkout lacks %s; nothing to build" % needed)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see %s" % log_path)


def limit_resources():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_driver(argv):
    """Runs the driver in its own process group; afterwards kills whatever
    is left of that group and reaps every descendant (this process is a
    child subreaper, so orphans of the driver are reparented to it)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True,
                            preexec_fn=limit_resources)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = b"", 1
        sys.stderr.write("run.py: driver timed out\n")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
    return code, out.decode()


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check that every output check rejects doctored answers")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    out_dir = build_dir()
    build(out_dir)
    driver = os.path.join(out_dir, "perfbench_driver")
    if args.selftest:
        code, out = run_driver([driver, "--selftest"])
        sys.stdout.write(out)
        sys.exit(code)

    work = os.path.join(out_dir, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        code, out = run_driver([
            driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tool-dir", out_dir, "--work-dir", work, "--trace-dir", out_dir])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        sys.stderr.write(out)
        fail("driver exited with status %d; no result" % code)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
