#!/usr/bin/env python3
"""Build the benchmark and the `strudel` executable, then run one
benchmark pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Both builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`); the trained model is cached beside them. The
last line of standard output is the result object; build output goes to
standard error.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "Cargo.toml"), "-p", "strudel-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    bench = target / "release" / "perfbench"
    args = [str(bench), *sys.argv[1:],
            "--strudel", str(target / "release" / "strudel"),
            "--cache-dir", str(target / "perfbench-cache")]
    sys.stdout.flush()
    os.execv(bench, args)


if __name__ == "__main__":
    sys.exit(main())
