#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one
benchmark workload, or all of them one after another.

    python3 perfbench/run.py --workload <sim-full|sweep-tiny|serve-mixed|all> \
        --seed <n> --seconds <s> --trace <0|1> [--bless]

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); scratch files go to `.bench_work/<workload>`. Each
workload's output ends with its JSON result line; see perfbench/README.md.
"""

import os
import subprocess
import sys

WORKLOADS = ("sim-full", "sweep-tiny", "serve-mixed")


def main():
    args = sys.argv[1:]

    def value(flag):
        if flag not in args or args.index(flag) + 1 >= len(args):
            sys.exit(f"run.py: missing {flag}")
        return args[args.index(flag) + 1]

    workload = value("--workload")
    if workload != "all" and workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {workload!r}; expected all or one of {WORKLOADS}")
    seed, seconds, trace = value("--seed"), value("--seconds"), value("--trace")

    root = os.getcwd()
    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), root)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--offline", "--release", "--quiet",
         "-p", "ccraft-serve", "--bin", "ccx", "-p", "ccraft-harness", "--bin", "exp-all"],
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr, keeping stdout for the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")

    bin_dir = os.path.join(target, "release")
    status = 0
    for name in WORKLOADS if workload == "all" else (workload,):
        cmd = [
            os.path.join(bin_dir, "ccraft-perfbench"),
            "--workload", name, "--seed", seed, "--seconds", seconds, "--trace", trace,
            "--bin-dir", bin_dir, "--bench-dir", bench_dir,
            "--work-dir", os.path.join(root, ".bench_work", name),
        ]
        if "--bless" in args:
            cmd.append("--bless")
        sys.stdout.flush()
        status = status or subprocess.run(cmd).returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
