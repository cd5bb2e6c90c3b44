#!/usr/bin/env python3
"""The repo's benchmark: four workloads, two clocks, end to end and per layer.

    python perf/run.py                      # all workloads, end-to-end metrics
    python perf/run.py --trace              # ... plus a traced run: per-layer
    python perf/run.py --workload mixed --seed 3 --repeats 5
    python perf/run.py --smoke              # 1/20 size, traced and untraced

Every run of a workload is a fresh child process (``child.py``).  With
``--workload`` given once the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` declares.  Exit status is
non-zero when a reply was wrong, a write was lost, a run of one
(commit, seed) did not repeat its simulated numbers, or a declared
metric is missing.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)

WORKLOADS = ("fillrandom", "readrandom", "mixed", "wire")
#: the simulated end-to-end metrics: exact per (commit, seed) in-process
SIMULATED = ("sim_ops_per_s", "mwa", "dev_read_bytes_per_op", "space_amp")
#: counters that must repeat exactly even on wire (the offered load)
WIRE_EXACT = ("puts", "gets", "scans", "user_bytes")
WIRE_TOLERANCE = 0.02
#: set-ups per run whose median is reported as setup_s
SETUPS = 3
SMOKE_SCALE = 1 / 20
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, seconds: float, scale: float,
              setups: int, trace: bool, out: str) -> dict:
    cmd = [sys.executable, os.path.join(PERF_DIR, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--scale", repr(scale),
           "--setups", str(setups), "--trace", str(int(trace)), "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child killed after "
                         f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload}: child exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_determinism(workload: str, runs: list[dict]) -> list[str]:
    """Runs of one (commit, seed) must agree: bit for bit in-process,
    within 2 % on wire where two connections race."""
    problems = []
    first = runs[0]
    for other in runs[1:]:
        if workload != "wire":
            if other["counters"] != first["counters"]:
                diff = sorted(k for a, b in zip(first["counters"],
                                                other["counters"])
                              for k in a if a[k] != b[k])
                problems.append(f"{workload}: program counters differ "
                                f"between runs of one seed: {diff}")
            for name in SIMULATED:
                a, b = first["end_to_end"][name], other["end_to_end"][name]
                if a != b:
                    problems.append(
                        f"{workload}: {name} {a!r} != {b!r} on one seed")
        else:
            for key in WIRE_EXACT:
                a = sum(row[key] for row in first["counters"])
                b = sum(row[key] for row in other["counters"])
                if a != b:
                    problems.append(f"{workload}: {key} {a} != {b}")
            for name in SIMULATED:
                a, b = first["end_to_end"][name], other["end_to_end"][name]
                if abs(a - b) > WIRE_TOLERANCE * abs(a):
                    problems.append(f"{workload}: {name} {a!r} vs {b!r} "
                                    f"differ by more than 2 %")
    return problems


def summarise(values: list[float]) -> dict:
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "values": values}


def run_workload(workload: str, seed: int, seconds: float, scale: float,
                 repeats: int, trace: bool, setups: int, out: str) -> dict:
    untraced = [run_child(workload, seed, seconds, scale, setups, False, out)
                for _ in range(repeats)]
    runs = list(untraced)
    traced = None
    if trace:
        traced = run_child(workload, seed, seconds, scale, 1, True, out)
        runs.append(traced)
    problems = check_determinism(workload, runs)
    last = untraced[-1]
    result = {
        "ops": last["ops"], "preloaded": last["preloaded"],
        "sizes": last["sizes"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "wrong_replies": sum(r["wrong_replies"] for r in runs),
        "lost_writes": sum(r["lost_writes"] for r in runs),
        "latency_samples": last["latency_samples"],
        "setups_per_run": setups, "repeats": repeats,
        "end_to_end": {
            name: summarise([r["end_to_end"][name] for r in untraced])
            for name in last["end_to_end"]},
        "problems": problems,
    }
    if traced is not None:
        # counts from the untraced run, times from the traced run
        layer = dict(last["counts"])
        layer.update(traced["times"])
        layer["trace.overhead"] = traced["timed_s"] / statistics.median(
            r["timed_s"] for r in untraced)
        result["per_layer"] = layer
        result["layer_shares"] = traced["layer_shares"]
        result["trace_file"] = os.path.relpath(traced["trace_file"], ROOT)
    return result


def declared(spec: dict, section: str, values: dict, workload: str) -> dict:
    """``values`` restricted to, and checked against, what BENCHMARK.json
    declares: every declared metric present and finite, with its unit."""
    out = {}
    for metric in spec[section]:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"{workload}: declared metric {name} is missing")
        entry = values[name]
        number = entry["value"] if isinstance(entry, dict) else entry
        if not math.isfinite(number):
            raise BenchError(f"{workload}: {name} is not finite: {number!r}")
        out[name] = {"value": number, "unit": metric["unit"]}
    return out


def environment(args, sizes: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        commit = ""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "commit": commit or "not a git checkout",
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "sizes": sizes,
        "load": "closed loop from one process: 1 caller in-process; on wire "
                "one thread per connection, one burst outstanding each, "
                "over loopback",
        "caveat": "host latencies are this sandbox's Python time, not a "
                  "device's; loopback is not a real link",
    }


def fmt(number: float) -> str:
    if number == 0:
        return "0"
    if abs(number) >= 1000 or float(number).is_integer():
        return f"{number:,.0f}"
    return f"{number:.4g}"


def report(workload: str, result: dict, spec: dict) -> None:
    print(f"\n== {workload}: {result['ops']:,} timed ops over "
          f"{result['preloaded']:,} preloaded records; attempted "
          f"{result['attempted']:,}, failed {result['failed']:,} "
          f"({result['wrong_replies']} wrong replies, "
          f"{result['lost_writes']} lost writes); "
          f"{result['latency_samples']:,} latency samples, "
          f"{result['setups_per_run']} set-ups per run, "
          f"{result['repeats']} run(s)")
    print(f"  {'end-to-end metric':<26}{'median':>14} {'unit':<7}"
          f"{'min .. max':>28}  bound")
    for metric in spec["end_to_end"]:
        entry = result["end_to_end"][metric["name"]]
        spread = f"{fmt(entry['min'])} .. {fmt(entry['max'])}"
        print(f"  {metric['name']:<26}{fmt(entry['value']):>14} "
              f"{metric['unit']:<7}{spread:>28}  "
              f"{metric['bound']:.0%} {metric['better']}")
    if "per_layer" in result:
        print(f"  {'per-layer metric':<34}{'value':>16} unit")
        for metric in spec["per_layer"]:
            value = result["per_layer"][metric["name"]]
            print(f"  {metric['name']:<34}{fmt(value):>16} {metric['unit']}")
        shares = ", ".join(f"{layer} {share:.1%}" for layer, share
                           in result["layer_shares"].items() if share >= 0.005)
        print(f"  self-time share of the traced timed wall: {shares}")
        print(f"  spans: {result['trace_file']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="sizes the timed phase: ops = frozen rate x seconds")
    ap.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1),
                    help="add a traced run: per-layer metrics "
                         "(default: off, on with --smoke)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="fresh untraced children per workload")
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 of the records and ops, traced and untraced")
    ap.add_argument("--out", default=os.path.join(PERF_DIR, "out"))
    args = ap.parse_args(argv)
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    trace = bool(args.smoke if args.trace is None else args.trace)
    names = args.workload or list(WORKLOADS)
    single = args.workload is not None and len(names) == 1
    # a --trace 1 run of one workload reports per-layer metrics only, so
    # its untraced child need not repeat the set-up for a median
    setups = 1 if args.smoke or (single and trace) else SETUPS

    os.makedirs(args.out, exist_ok=True)
    results = {}
    status = 0
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, args.scale, args.repeats,
                trace, setups, args.out)
            report(name, results[name], spec)
            if results[name]["failed"] or results[name]["problems"]:
                status = 1
        section = "per_layer" if trace and single else "end_to_end"
        metrics = {}
        for name, result in results.items():
            checked = {s: declared(spec, s, result[s], name)
                       for s in ("end_to_end", "per_layer") if s in result}
            metrics[name] = checked[section]
    except BenchError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1

    sizes = next(iter(results.values()))["sizes"]
    document = {"schema": 1, "environment": environment(args, sizes),
                "smoke": args.smoke, "workloads": results}
    path = os.path.join(args.out, "result.json")
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"\nwrote {os.path.relpath(path, ROOT)}")
    if single:
        result = results[names[0]]
        print(json.dumps({
            "correct": status == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics[names[0]]}))
    return status


if __name__ == "__main__":
    sys.exit(main())
