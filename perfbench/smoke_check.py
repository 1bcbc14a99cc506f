"""The benchmark's own test: every workload in both modes, briefly.

Run with ``python3 -m pytest perfbench/smoke_check.py`` (about half a
minute).  The file name keeps it out of the package test suite, which
pytest collects from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_and_its_checks():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    results = {}
    for line in proc.stdout.splitlines():
        if line.startswith("smoke "):
            head, _, body = line.partition(": ")
            results[head] = json.loads(body)
    expected = {(w["name"], trace) for w in spec["workloads"]
                for trace in (0, 1)}
    assert set(results) == {f"smoke {n} trace={t}" for n, t in expected}
    for head, res in results.items():
        assert res["correct"], head
        assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
        names = spec["per_layer" if head.endswith("1") else "end_to_end"]
        assert set(res["metrics"]) == {m["name"] for m in names}, head
        for m in names:
            assert res["metrics"][m["name"]]["unit"] == m["unit"], head
