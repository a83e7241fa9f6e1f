#!/usr/bin/env python3
"""End-to-end benchmark of the WCOP publisher: ingest -> publish -> audit.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload many_short --seed 1 --seconds 30 --trace 0

It builds the benchmark package (perfbench/CMakeLists.txt, a Release build
of ../src plus two programs) under $CARGO_TARGET_DIR or .bench_build,
generates the workload's input CSV from the seed in its own process
(perfbench_gen), and runs the measured process (perfbench_e2e) on that file
alone. Every file a run writes stays under the build directory and is
removed at the end. The last line of standard output is the result JSON;
the exit code is 0 only when the program's outputs were correct.

Workloads (synthetic GeoLife, one city, k ~ U{2..5}, delta ~ U[10, 250] m;
one closed-loop caller, threads pinned per workload). The trips are fixed
per workload and the seed draws the travellers' (k, delta):

  many_short  4,000 trajectories x 8 points, 4 threads. Per-pivot O(n)
              bookkeeping of the greedy clustering dominates and translation
              is negligible; this is where output-sensitive clustering and
              the 4-thread fan-out show.
  continuous  6,000 trajectories x 40 points over 3 days in 30-minute windows
              (144 windows), 1 thread. Many small durable commits and
              window-by-window reads; the only workload that runs the
              pipeline, carry-over and linkage, and the serial case in which
              the thread pool never starts.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
run with telemetry and failpoint hit counting attached (plus its own
end-to-end timings, so that tracing overhead is the difference between the
two). perfbench/e2e.cc documents each metric and every correctness check.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("many_short", "continuous")
PACKAGE = os.path.dirname(os.path.abspath(__file__))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir, tmp_dir):
    """Configures and builds the two benchmark programs (incrementally)."""
    env = dict(os.environ, TMPDIR=tmp_dir)
    configure = ["cmake", "-S", PACKAGE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench_gen", "perfbench_e2e"],
                   check=True, env=env, stdout=sys.stderr)


def source_digest(root):
    """Identifies the measured code: SHA-256 over src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    work = os.path.join(build_root, "perfbench-run", args.workload)
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        build(build_dir, tmp_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 1

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        csv = os.path.join(work, "input.csv")
        subprocess.run([os.path.join(build_dir, "perfbench_gen"),
                        "--workload=" + args.workload, "--seed=%d" % args.seed,
                        "--out=" + csv], check=True, stdout=sys.stderr)
        print("source %s, seed %d, %s s" % (source_digest(root), args.seed,
                                           args.seconds), flush=True)
        run = subprocess.run([os.path.join(build_dir, "perfbench_e2e"),
                              "--workload=" + args.workload, "--csv=" + csv,
                              "--dir=" + os.path.join(work, "run"),
                              "--seconds=%g" % args.seconds,
                              "--trace=%d" % args.trace],
                             stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench:", e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(run.stdout, end="")
        log("perfbench: no result (exit code %d)" % run.returncode)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
