"""Smoke test of the benchmark: tiny trial counts, every workload, both modes.

    python3 -m pytest benchmark
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"bler-gcd": 64, "calibrate": 256, "uer-sogrand-retry": 256}


def _bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def test_workload_table_matches_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported(workload, trace):
    proc = _bench(ROOT, workload, trace, "--trials", str(TINY[workload]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (2 * run.TRACE_PAIRS if trace else run.MIN_PROCESSES)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "work"))
    proc = _bench(tmp_path, "calibrate", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_comparison_tolerates_ulps_only(tmp_path):
    ref = HERE / "reference" / "bler-gcd.csv"
    header, row = ref.read_text().splitlines()
    cells = row.split(",")
    cols = header.split(",")

    def variant(col, value):
        out = list(cells)
        out[cols.index(col)] = value
        path = tmp_path / "v.csv"
        path.write_text(header + "\r\n" + ",".join(out) + "\r\n")
        return run.compare_with_reference(path, ref)

    bler = float(cells[cols.index("bler")])
    assert variant("bler", repr(bler * (1 + 1e-12))) == []
    assert variant("bler", repr(bler * (1 + 1e-6))) != []
    blocks = int(cells[cols.index("block_errors")])
    assert variant("block_errors", str(blocks + 1)) != []
