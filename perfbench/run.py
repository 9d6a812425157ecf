#!/usr/bin/env python3
"""Build and run the closed-loop daemon benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild only
what changed. Build output goes to stderr. The benchmark's own output,
ending in one JSON result line, goes to stdout. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady_requests", "wide_market", "flash_churn")


def _count(text, least):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}: {value}")
    return value


def _seconds(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 < value <= 3600:
        raise argparse.ArgumentTypeError(f"must be in (0, 3600]: {value}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Closed-loop marketplace daemon benchmark: builds the "
                    "benchmark, runs one workload and prints its metrics.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=lambda t: _count(t, 0),
                   help="input seed; the same seed gives the same inputs")
    p.add_argument("--seconds", required=True, type=_seconds,
                   help="timed horizon length in host seconds")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1),
                   help="0: end-to-end metrics, 1: per-layer metrics")
    p.add_argument("--threads", type=lambda t: _count(t, 1),
                   help="marketplace thread cap (default: nproc)")
    p.add_argument("--quality-rounds", type=lambda t: _count(t, 2),
                   help="gated quality horizon (default: per workload)")
    p.add_argument("--max-rounds", type=lambda t: _count(t, 1),
                   help="stop timing after this many rounds")
    return p.parse_args(argv)


def revision():
    """The git commit when ROOT is a git work tree, plus a digest of the
    sources the benchmark builds, which identifies an exported tree too."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return f"{commit} sources-sha256:{h.hexdigest()[:16]}"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        out = subprocess.run(step, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout)
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources under {ROOT / 'src'}; "
                 "run from a full checkout of the repository")
    # Stop the benchmark with us: SIGTERM unwinds through subprocess.run,
    # which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    out_dir = binary.parent / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir), "--commit", revision()]
    for flag in ("threads", "quality_rounds", "max_rounds"):
        value = getattr(args, flag)
        if value is not None:
            cmd += ["--" + flag.replace("_", "-"), str(value)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
