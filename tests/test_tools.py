"""The scale benchmark script runs end to end at n=10^3."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_scale.py"


def test_bench_scale_smoke(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    src = SCRIPT.parents[1] / "src"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--smoke", "--out", str(out), "--baseline", str(src)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(out.read_text())
    assert set(report["environment"]) >= {"nproc", "python", "numpy", "commit"}
    rows = report["rows"]
    single = {(r["command"], r.get("variant")) for r in rows if r.get("n") == 1000}
    assert single == {
        *(("build", v) for v in ("sa", "chain", "level", "klevel")),
        *((c, "klevel") for c in ("match", "stats", "verify", "verify --file", "export")),
        ("bench", None),
    }
    assert sum(r.get("variant") == "common-level" for r in rows) == 6
    assert [(r["command"], r["max_len"]) for r in rows if r.get("variant") == "naive-common"] == [("verify", 31)]
    paired = [r for r in rows if r["command"] != "bench"]
    # builds; klevel match, stats, verify, verify --file and export; the products' stats and verify
    assert len(paired) == 6 + 5 + 5
    assert all(r["baseline"]["runs"] == 1 and r["pairs_won"] in (0, 1) for r in paired)
    assert report["pairs"] == 1
    assert all("baseline" not in r for r in rows if r not in paired)
    for r in [*rows, *(r["baseline"] for r in paired)]:
        wall = r["wall_s"]
        assert 0 < wall["min"] <= wall["q1"] <= wall["median"] <= wall["q3"] <= wall["max"]
        assert r["max_rss_mib"] > 0 and r["runs"] == 1
    # sigma 4: sa, chain, level, klevel k=2..4; sigma 26 and 256: k in {2, 3, 4, 16, sigma}
    tradeoff = report["tradeoff"]
    assert len(tradeoff) == 6 + 8 + 8
    assert all(t["delay"] <= t["delay_cap"] and t["size_per_n"] == round(t["size_total"] / 1000, 4) for t in tradeoff)
