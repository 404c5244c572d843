#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cold_suite|warm_serve|edit_session \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `gleipnir` binary (the server the
benchmark drives over loopback) and the `perfbench` driver in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the driver. The
last line of standard output is the JSON result; build output goes to
standard error. Exits non-zero if the build or any correctness gate fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(manifest), *extra]
    # Keep stdout clean for the result line.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"]:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file() and f.suffix in {".rs", ".toml", ".lock"}:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    os.environ["CARGO_TARGET_DIR"] = str(target)
    for manifest, extra in [(ROOT / "Cargo.toml", ["--bin", "gleipnir"]),
                            (BENCH / "Cargo.toml", [])]:
        if not manifest.is_file():
            print(f"run.py: {manifest} is missing; cannot build", file=sys.stderr)
            return 2
        code = cargo_build(manifest, *extra)
        if code != 0:
            print(f"run.py: building {manifest} failed", file=sys.stderr)
            return code
    driver = target / "release" / "perfbench"
    cmd = [str(driver), *sys.argv[1:],
           "--server-bin", str(target / "release" / "gleipnir"),
           "--work-dir", str(target / "perfbench-work"),
           "--commit", commit_id()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
