#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload plan_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The binary is compiled (Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; the first run builds, later runs only check that the build is
current. Build output goes to standard error, so the last line of
standard output is the binary's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build(directory: Path) -> bool:
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(directory), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(directory), "--target", "perfbench", "-j", "3"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    directory = build_dir()
    if not build(directory):
        return 1
    binary = directory / "perfbench"
    args = sys.argv[1:]
    if "--self-test" not in args:
        # Relative, so the service's Unix socket path stays short.
        args += ["--work-dir", os.path.relpath(directory, ROOT)]
    try:
        done = subprocess.run([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
