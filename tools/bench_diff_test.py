#!/usr/bin/env python3
"""Checks tools/bench_diff.py on the fixture result lines in tools/testdata.

    python3 tools/bench_diff_test.py

`bench_within.json` moves every timing inside its tolerance and keeps every
count: exit 0 and no rows. `bench_moved.json` changes one count, moves two
timings past their tolerance in either direction and the peak RSS past its
13 % bound: exit 1 with exactly those four rows. ctest runs this script as
`bench_diff_test`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(before, after):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench_diff.py"),
         os.path.join(HERE, "testdata", before), os.path.join(HERE, "testdata", after)],
        stdout=subprocess.PIPE, text=True)
    rows = [line.split()[0] for line in proc.stdout.splitlines()[1:-1]]
    return proc.returncode, rows, proc.stdout


def main():
    failures = []
    for before, after, want_code, want_rows in (
            ("bench_before.json", "bench_before.json", 0, []),
            ("bench_before.json", "bench_within.json", 0, []),
            ("bench_before.json", "bench_moved.json", 1,
             ["cluster.greedy_s", "distance.calls.edr", "peak_rss_mb", "publish_s"])):
        code, rows, out = run(before, after)
        if code != want_code or rows != want_rows:
            failures.append("%s -> %s: exit %d, rows %s (want exit %d, rows %s)\n%s" %
                            (before, after, code, rows, want_code, want_rows, out))
    for failure in failures:
        print(failure)
    print("bench_diff_test: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
