#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload warm_equiv|cold_equiv|check_modules \
        --seed N --seconds S --trace 0|1

Builds the `algst` server and the benchmark (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), prints a provenance line, then
runs `wire` (--trace 0: end-to-end metrics) or `layers` (--trace 1:
per-layer metrics). The last line of output is the result JSON; the exit
code is the benchmark's. See perfbench/README.md.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Build outputs and VCS metadata are not part of the measured source.
SKIP_DIRS = {".git", ".bench_build", "target"}


def source_digest():
    """sha256 over every source file's path and bytes: names the code under
    test even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, ROOT)
            h.update(rel.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main(argv):
    # --trace picks the program; the programs take the other arguments.
    args = list(argv)
    trace = "0"
    if "--trace" in args[:-1]:
        at = args.index("--trace")
        trace = args[at + 1]
        del args[at:at + 2]
    binary = "layers" if trace == "1" else "wire"
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    for build in (
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", "Cargo.toml", "--bin", "algst",
        ],
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"), "--bin", binary,
        ],
    ):
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"build failed: {' '.join(build)}", file=sys.stderr)
            return done.returncode
    provenance = {
        "host_cpus": os.cpu_count(),
        "rustc": capture(["rustc", "--version"]),
        "git_rev": capture(["git", "rev-parse", "--short", "HEAD"]),
        "source_digest": source_digest(),
        "args": argv,
    }
    print("provenance " + json.dumps(provenance), flush=True)
    run = [
        os.path.join(target, "release", binary),
        *args,
        "--server", os.path.join(target, "release", "algst"),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    return subprocess.run(run, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
