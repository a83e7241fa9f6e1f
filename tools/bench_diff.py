#!/usr/bin/env python3
"""Compares two perfbench result lines and says which metrics moved.

    python3 tools/bench_diff.py BEFORE AFTER [--benchmark BENCHMARK.json]

BEFORE and AFTER are files holding the output of `perfbench/run.py` (traced
or not); the last non-empty line of each is the result JSON. A metric whose
unit is `count` must be identical on both sides. Every other metric may move
by its `bound` in BENCHMARK.json (a fraction of the BEFORE value), or by 25 %
when BENCHMARK.json gives it none. The tool prints one row per metric that
moved past that tolerance, per count that changed and per metric that only
one side reports, then a summary line. It exits 1 when any row was printed
or a run was not correct, 0 otherwise, and 2 on unreadable input.

Only the Python standard library is used.
"""

import argparse
import json
import math
import os
import sys

DEFAULT_TOLERANCE = 0.25
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_result(path):
    """The result JSON on the last non-empty line of `path`."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("%s: empty" % path)
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise ValueError("%s: last line is not a perfbench result" % path)
    return result


def load_spec(path):
    """Maps each metric BENCHMARK.json names to (bound or None, better)."""
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {}
    for entry in spec.get("end_to_end", []) + spec.get("per_layer", []):
        metrics[entry["name"]] = (entry.get("bound"), entry.get("better"))
    return metrics


def relative_change(before, after):
    if before == after:
        return 0.0
    if before == 0:
        return math.inf
    return (after - before) / abs(before)


def compare(before, after, spec):
    """Rows (name, before, after, change, tolerance, verdict) that moved."""
    rows = []
    for name in sorted(set(before) | set(after)):
        if name not in before or name not in after:
            side = "AFTER" if name in after else "BEFORE"
            rows.append((name, before.get(name, {}).get("value"),
                         after.get(name, {}).get("value"), None, None,
                         "ONLY IN " + side))
            continue
        b = before[name]["value"]
        a = after[name]["value"]
        if before[name].get("unit") == "count" or after[name].get("unit") == "count":
            if a != b:
                rows.append((name, b, a, a - b, "exact", "CHANGED"))
            continue
        bound, better = spec.get(name, (None, None))
        tolerance = DEFAULT_TOLERANCE if bound is None else bound
        change = relative_change(b, a)
        if abs(change) > tolerance:
            lower = change < 0
            direction = ""
            if better in ("lower", "higher"):
                direction = " (better)" if lower == (better == "lower") else " (worse)"
            rows.append((name, b, a, change, tolerance, "MOVED" + direction))
    return rows


def fmt_value(value):
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e15:
        return "%d" % value
    return "%.6g" % value


def fmt_change(change, tolerance):
    if change is None:
        return "-", "-"
    if tolerance == "exact":
        return "%+d" % change, "exact"
    return "%+.1f%%" % (100 * change), "%.0f%%" % (100 * tolerance)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="bounds per metric (default: the repository's)")
    args = parser.parse_args()
    try:
        before = load_result(args.before)
        after = load_result(args.after)
        spec = load_spec(args.benchmark)
    except (OSError, ValueError, KeyError) as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2

    rows = compare(before["metrics"], after["metrics"], spec)
    if rows:
        print("%-34s %14s %14s %10s %9s  %s" %
              ("metric", "before", "after", "change", "tolerance", "verdict"))
    for name, b, a, change, tolerance, verdict in rows:
        shown_change, shown_tolerance = fmt_change(change, tolerance)
        print("%-34s %14s %14s %10s %9s  %s" %
              (name, fmt_value(b), fmt_value(a), shown_change, shown_tolerance,
               verdict))
    incorrect = [label for label, r in (("before", before), ("after", after))
                 if not r.get("correct", False)]
    for label in incorrect:
        print("the %s run is not correct" % label)
    kinds = [row[5].split()[0] for row in rows]  # CHANGED, MOVED or ONLY
    print("%d metrics compared: %d counts changed, %d moved past tolerance, "
          "%d on one side only" %
          (len(set(before["metrics"]) | set(after["metrics"])),
           kinds.count("CHANGED"), kinds.count("MOVED"), kinds.count("ONLY")))
    return 1 if rows or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
