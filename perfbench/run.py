#!/usr/bin/env python3
"""Build and run the NewsWire benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload e1_feed --seed 1 --seconds 20 --trace 0

The benchmark is a Rust package of its own (perfbench/Cargo.toml) built
against the repository's crates by path, in release mode and offline. Cargo
writes to $CARGO_TARGET_DIR, or to .bench_build/ in the checkout when that
is unset. Build output goes to stderr; the benchmark's report goes to
stdout, its last line one JSON object. The exit code is the build's when
the build fails, else the benchmark's.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, env=env)
    try:
        return proc.wait()
    except BaseException:
        proc.send_signal(signal.SIGTERM)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
