#!/usr/bin/env python3
"""The repository's benchmark: builds the library and the benchmark program
from source, then runs one workload and prints its metrics.

    python3 perfbench/run.py --workload paper_sweep|cli_fleet|serve_zipf|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is reused
by later runs. The last line of standard output is the JSON result; the
exit code is non-zero when the build fails or an output check fails.
`--workload all` runs the three workloads one after another.
See perfbench/NOTES.md for what each workload and metric means.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_sweep", "cli_fleet", "serve_zipf")


def run_timeout_s(seconds, trace):
    """How long one workload run may take before it counts as failed: twice
    its measuring time plus a margin for set-up and checks, and more when
    traced (the traced run adds a single-thread baseline of the whole
    sweep, about four times the parallel sweep's wall time)."""
    return 2 * seconds + 120 + (600 if trace else 0)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_fingerprint(root):
    """A content hash of the library and benchmark sources; stands in for
    the commit when the checkout is not a git repository."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = root / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for file in files:
            digest.update(str(file.relative_to(root)).encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()[:12]


def commit_of(root):
    if (root / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()[:12]
    return "tree-" + source_fingerprint(root)


def build(root, build_dir):
    """Configures and builds srm_cli and the benchmark program in the default
    configuration (Release, SRM_SIMD=OFF). Returns False on failure."""
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release", "-DSRM_SIMD=OFF"]
    if shutil.which("ninja") and not (build_dir / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for command in (configure,
                    ["cmake", "--build", str(build_dir), "-j", jobs,
                     "--target", "perfbench", "srm_cli"]):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build failed: " + " ".join(command))
            return False
    return True


def run_workload(program, srm_cli, workload, args, work_dir, commit):
    command = [str(program), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir), "--srm-cli", str(srm_cli),
               "--commit", commit]
    if args.smoke:
        command.append("--smoke")
    timeout = run_timeout_s(args.seconds, args.trace)
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {timeout} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny MCMC settings (the self-test's scale)")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {root / 'src'}; run from a checkout")
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build"))
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    build_dir = build_root / "perfbench"
    if not build(root, build_dir):
        return 2
    program = build_dir / "perfbench"
    srm_cli = build_dir / "srm" / "serve" / "srm_cli"

    commit = commit_of(root)
    status = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        work_dir = build_root / f"run-{os.getpid()}-{workload}"
        status = max(status, run_workload(program, srm_cli, workload, args,
                                          work_dir, commit))
    return status


if __name__ == "__main__":
    sys.exit(main())
