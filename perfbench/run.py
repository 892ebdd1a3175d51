#!/usr/bin/env python3
"""Build and run the paper-workload benchmark under a watchdog.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` crate (release, offline) into
`$CARGO_TARGET_DIR` (default `perfbench/target`), prints the run metadata
(seed, nproc, world, commit, rustc version), then runs the benchmark binary
in its own process group. The binary's standard output is passed through;
its last line is the JSON result. A run that outlives the watchdog is killed
with its whole process group, counted as failed, and reported as such.

Exit codes: 0 success, 1 a correctness gate failed, 2 usage or build
error, 3 the watchdog killed the run, other values the binary's own exit
code (for example 101 after a panic).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {"water256-tight": 1, "water256-loose-w2": 2, "scf-batch-w2": 2}
# A run must end within 180 s of starting once the build is done.
DEADLINE_S = 170.0


def capture(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def build():
    """Build the benchmark; return the binary's path or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates/ directory is missing", file=sys.stderr)
        return None
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def failure(attempted, why):
    print(f"# FAILED: {why}")
    print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    # Only a repository rooted at this checkout names its commit.
    in_repo = capture(["git", "rev-parse", "--show-toplevel"]) == ROOT
    commit = capture(["git", "rev-parse", "HEAD"]) if in_repo else ""
    commit = commit or "unknown (not a git checkout)"
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "world": WORKLOADS[args.workload],
        "nproc": os.cpu_count(),
        "commit": commit,
        "rustc": capture(["rustc", "--version"]),
    }
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        # A rank stranded in a collective never returns: kill the whole
        # process group and count the run as failed.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        failure(1, f"watchdog killed {args.workload} after {time.monotonic() - start:.0f} s")
        return 3
    if code not in (0, 1):
        failure(1, f"benchmark exited with code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
