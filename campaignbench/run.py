#!/usr/bin/env python3
"""Builds and runs the campaign benchmark.

    python3 campaignbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `ugc-campaignbench` package (its
own Cargo package under campaignbench/, built from the repository's
sources by path) into $CARGO_TARGET_DIR, default `.bench_build`, then runs
it with the given arguments plus a scratch directory inside the target
directory and the source fingerprint. Cargo's output goes to standard
error, so the benchmark's JSON result stays the last line of standard
output. Exits non-zero, without a result, when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a measured run may take before it is stopped.
RUN_TIMEOUT_S = 175


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the Rust sources and manifests the benchmark builds."""
    h = hashlib.sha256()
    files = []
    for top in ("crates", "src", "vendor", "campaignbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
            for name in filenames:
                if name.endswith(".rs") or name in ("Cargo.toml", "Cargo.lock"):
                    files.append(os.path.join(dirpath, name))
    files.append(os.path.join(ROOT, "Cargo.toml"))
    for path in sorted(files):
        if not os.path.isfile(path):
            continue
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--locked",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("campaignbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "ugc-campaignbench")
    args = sys.argv[1:] + [
        "--scratch",
        os.path.join(target, "campaignbench-scratch"),
        "--commit",
        commit(),
        "--source",
        source_digest(),
    ]
    sys.stdout.flush()
    try:
        run = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("campaignbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
