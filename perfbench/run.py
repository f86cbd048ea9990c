#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campaign_cold|survey|portal_load \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (Release, which pulls in the
repository's own CMake project) under $CARGO_TARGET_DIR or .bench_build/;
later runs only re-check the build. The helper unit tests run after every
build check. The benchmark's last stdout line is its JSON result; build
output goes to stderr. Traced runs write their spans to
<build dir>/traces/. Exits non-zero, without a result, when the repository
sources are missing or the build fails, and non-zero with a result whose
"correct" is false when an output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("campaign_cold", "survey", "portal_load")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(map(str, cmd))}", 1)


def build(build_dir):
    generated = (build_dir / "build.ninja").exists() or (build_dir / "Makefile").exists()
    if not generated:
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", str(build_dir), "-j", jobs,
               "--target", "perfbench", "perfbench_helpers_test"])
    run_quiet([str(build_dir / "perfbench_helpers_test"), "--gtest_brief=1"])


def source_id():
    """Git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds (an exported checkout has no .git)."""
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            return "git-" + sha.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def check_result(line, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"undeclared {extra}, unit mismatch {units}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources next to perfbench/ (looked in {ROOT})")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (base if base.is_absolute() else ROOT / base) / "perfbench"
    build(build_dir)
    traces = build_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--out-dir", str(traces),
           "--source", source_id()]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    problem = check_result(lines[-1], args.trace == "1")
    if problem:
        fail(problem, 1)


if __name__ == "__main__":
    main()
