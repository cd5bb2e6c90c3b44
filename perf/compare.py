#!/usr/bin/env python3
"""Compare two ``result.json`` files: ``python perf/compare.py A.json B.json``.

One row per workload x end-to-end metric: both medians, the change of B
relative to A (the base), the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``          B is not worse than A by more than the bound;
* ``regressed``   B is worse than A by more than the bound;
* ``unresolved``  the repeats of either side spread (min to max, as a
                  share of the median) wider than the bound, so the two
                  medians cannot be told apart at that resolution.

``error_rate`` (failed / attempted) has no tolerance: any increase is a
regression.  The ``same`` column marks values that are bit-identical,
which the simulated metrics of the in-process workloads must be between
two runs of one commit and seed.  Exit status 1 on any ``regressed``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(entry: dict) -> float:
    median = entry["value"]
    return (entry["max"] - entry["min"]) / abs(median) if median else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(relative change of B against A, verdict)."""
    base = a["value"]
    change = (b["value"] - base) / abs(base) if base else 0.0
    worse = -change if better == "higher" else change
    if max(spread(a), spread(b)) > bound:
        return change, "unresolved"
    return change, "regressed" if worse > bound else "ok"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], bool]:
    rows = []
    regressed = False
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"].get(workload)
        if result_b is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ea, eb = result_a["end_to_end"][name], result_b["end_to_end"][name]
            change, word = verdict(ea, eb, metric["better"], metric["bound"])
            rows.append((workload, name, ea["value"], eb["value"],
                         metric["unit"], change, metric["bound"], word))
            regressed |= word == "regressed"
        rate_a = result_a["failed"] / result_a["attempted"]
        rate_b = result_b["failed"] / result_b["attempted"]
        word = "regressed" if rate_b > rate_a else "ok"
        rows.append((workload, "error_rate", rate_a, rate_b, "share",
                     rate_b - rate_a, 0.0, word))
        regressed |= word == "regressed"
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows, regressed = compare(a, b, spec)
    print(f"{'workload':<11}{'metric':<23}{'A (base)':>14}{'B':>14} "
          f"{'unit':<6}{'B vs A':>9}{'bound':>7} {'same':<5}verdict")
    for workload, name, va, vb, unit, change, bound, word in rows:
        print(f"{workload:<11}{name:<23}{va:>14.6g}{vb:>14.6g} {unit:<6}"
              f"{change:>+9.2%}{bound:>7.0%} "
              f"{'=' if va == vb else '':<5}{word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
