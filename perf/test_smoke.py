"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Outside tier-1's ``testpaths`` on purpose: it runs the whole benchmark
at 1/20 size (about ten seconds) and checks the harness, not the program.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf-out")
    proc = run(os.path.join(PERF, "run.py"), "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out / "result.json") as fh:
        result = json.load(fh)
    result["path"] = str(out / "result.json")
    return result


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_declared_metric_is_reported(smoke):
    assert set(smoke["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, result in smoke["workloads"].items():
        assert result["failed"] == 0 and result["attempted"] > 0
        assert not result["problems"]
        for metric in SPEC["end_to_end"]:
            value = result["end_to_end"][metric["name"]]["value"]
            assert math.isfinite(value) and value > 0, (workload, metric)
        for metric in SPEC["per_layer"]:
            value = result["per_layer"][metric["name"]]
            assert math.isfinite(value) and value >= 0, (workload, metric)
        assert os.path.exists(os.path.join(ROOT, result["trace_file"]))


def test_net_and_shard_metrics_are_zero_outside_wire(smoke):
    for workload, result in smoke["workloads"].items():
        facade = {n: v for n, v in result["per_layer"].items()
                  if n.startswith(("net.", "shard."))}
        if workload == "wire":
            assert facade["net.bytes_per_req"] > 0
            assert facade["net.store_us_per_req"] > 0
            assert facade["shard.imbalance"] >= 1
        else:
            assert not any(facade.values()), (workload, facade)


def test_layers_the_workloads_bypass_stay_idle(smoke):
    read = smoke["workloads"]["readrandom"]["per_layer"]
    assert read["lsm.compaction.host_share"] < 0.01
    assert read["lsm.flush.count"] == 0 and read["fs.wal_bytes"] == 0
    fill = smoke["workloads"]["fillrandom"]["per_layer"]
    assert fill["lsm.compaction.count"] > 0 and fill["lsm.sstable.get_us"] == 0


def test_compare_with_itself_is_all_ok(smoke):
    proc = run(os.path.join(PERF, "compare.py"), smoke["path"], smoke["path"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[1:]]
    assert verdicts and set(verdicts) == {"ok"}


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_one_workload_ends_with_the_result_line(tmp_path, trace, section):
    proc = run(os.path.join(PERF, "run.py"), "--smoke", "--workload", "mixed",
               "--seed", "2", "--seconds", "3", "--trace", trace,
               "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    """A directory holding only BENCHMARK.json and perf/ has nothing to
    measure: non-zero exit, no result line."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(str(tmp_path / "perf" / "run.py"), "--workload", "mixed",
               "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
