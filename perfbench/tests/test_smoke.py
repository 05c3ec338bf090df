"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced. It checks the output contract and that nothing fails; it has no
timing gates.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics each workload reports beside the BENCHMARK.json ones.
OWN_METRICS = {
    "build": {"build_s": "s", "save_s": "s"},
    "serve": {
        "load_s": "s",
        "match_p50_us": "us",
        "match_p99_us": "us",
        "match_samples": "count",
        "match_chars_per_s": "chars/s",
    },
    "verify": {"verify_s": "s"},
    "multi": {"build_s": "s", "verify_s": "s"},
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_output(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    report = json.loads("\n".join(lines[:-1]))
    units = {k: v["unit"] for k, v in report["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    expected.update(OWN_METRICS[workload], error_rate="ratio")
    assert units == expected
    assert report["metrics"]["error_rate"]["value"] == 0
    assert set(report["environment"]) >= {"nproc", "python", "numpy", "backend", "seed"}
    assert report["fingerprints"] and all(len(h) == 64 for h in report["fingerprints"].values())
    if workload == "serve":
        hist = report["hops_per_char"]["histogram"]
        assert sum(hist) == report["hops_per_char"]["chars"] > 0
        assert len(hist) == report["hops_per_char"]["max"] + 1


def test_same_seed_same_outputs():
    runs = [bench("--workload", "build", "--seed", "9", "--seconds", "0", "--size", "tiny") for _ in range(2)]
    fps = [json.loads("\n".join(p.stdout.rstrip("\n").split("\n")[:-1]))["fingerprints"] for p in runs]
    assert fps[0] == fps[1]


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
