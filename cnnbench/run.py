#!/usr/bin/env python3
"""Build and run the cnnperf benchmark.

    python3 cnnbench/run.py --workload <paper-corpus|dse-sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `cnnperf` binary and this
benchmark package in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then hands over to the benchmark binary, whose last
stdout line is the JSON result. Scratch files go under `.cnnbench/`.
"""

import os
import subprocess
import sys


def git_sha(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    root = os.getcwd()
    package = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "cnnperf"],
        ["--manifest-path", os.path.join(package, "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        # build output goes to stderr: stdout carries only the result
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "cnnbench")
    argv = [bench] + sys.argv[1:] + [
        "--server-bin", os.path.join(target, "release", "cnnperf"),
        "--work-root", os.path.join(root, ".cnnbench"),
        "--git-sha", git_sha(root),
    ]
    sys.stdout.flush()
    os.execv(bench, argv)


if __name__ == "__main__":
    sys.exit(main())
