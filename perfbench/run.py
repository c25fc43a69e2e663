#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload live-mem-altruism --seed 1 --seconds 20 --trace 0

The script builds the Go program in perfbench/ against the repository's
source, keeping the build cache, the binary and every result under
.bench_build/ in the repository root, then runs it with the given arguments.
The program's standard output (ending with the one-line JSON result) and its
exit code pass through unchanged.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    for need in ("go.mod", "internal", os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the repository root", file=sys.stderr)
            return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
