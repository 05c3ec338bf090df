#!/usr/bin/env python3
"""End-to-end scale benchmark of the ``subseqa`` commands; writes BENCH_scale.json.

    python3 tools/bench_scale.py [--out BENCH_scale.json] [--smoke] [--baseline SRC]

Run it from anywhere: it runs the package under this checkout's ``src/``.
Each timed row runs one ``subseqa`` process per command, three times, and
records the median, quartiles, min and max wall time and the largest max RSS
among the runs (``ru_maxrss`` of the child's rusage, what ``RUSAGE_CHILDREN``
reports for one child). Texts are seeded random draws (numpy
``default_rng``): single texts are byte files, products' texts arguments.

Rows:
  * ``klevel`` k=2, sigma=256, n in {10^4, 10^5, 10^6}: ``build``, ``match``,
    ``stats``, ``verify`` from the text, ``verify --file`` and ``export``
    (DOT, to a file) on the built document; ``bench`` up to n=10^5 (it also
    builds ``sa``);
  * ``build`` of ``sa``, ``chain`` and ``level`` at n in {10^4, 10^6} (``sa``
    at 10^4 and 10^5 only);
  * ``common-level``: ``build``, ``stats`` and ``verify --max-len 2`` at
    300x300, sigma=4, and at 700x700, sigma=256;
  * ``naive-common``: ``verify --max-len 301`` at 300x300, sigma=4. Every
    ``verify`` certifies every state and reads ``--max-len`` no more; the
    row keeps its command line, so that it stays comparable across trees;
  * the trade-off, exactly: size/n and delay of every single-string variant
    from ``bench --random 100000 SIGMA 0``, for k in {2, 3, 4, 16, sigma}
    (those at most sigma), at sigma in {4, 26, 256}. These are
    deterministic: a change in them is a change of behaviour.

``--baseline SRC`` also runs every ``build``, ``match``, ``stats``,
``verify`` and ``export`` row (``verify --file`` too), single-string and
product, from the package under SRC (another checkout's ``src/``), with the
same command line: ten alternating pairs of runs, which of the two runs
first alternating too. It records the baseline's measurement beside the row
and how many pairs this checkout won (ran faster in). ``--smoke`` makes
every text 10^3 symbols (products 30x30) and runs each command, or pair,
once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MIB = 2**20
REPEAT = 3  # runs of a row without a baseline
PAIRS = 10  # (baseline, this checkout) pairs of a row with one
PAIRED = ("build", "match", "stats", "verify", "export")  # the commands whose rows --baseline pairs


def commit(src: Path) -> str | None:
    """The commit of the checkout holding ``src``, with "+dirty" for
    uncommitted changes to tracked files; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no", ".").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def environment(baseline: Path | None) -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), None),
        "mem_total_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(ROOT / "src"),
        "baseline_commit": None if baseline is None else commit(baseline),
    }


def run_once(src: Path, argv: list[str], work: Path) -> tuple[float, float, str]:
    """Wall seconds, max RSS in MiB and standard output of one ``subseqa``
    process running the package under ``src`` in the directory ``work``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "subseq_automata.cli", *argv], cwd=work, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 1):  # 1: match rejected
            err.seek(0)
            raise RuntimeError(f"subseqa {argv[0]} exited {proc.returncode}: {err.read().decode(errors='replace')[-500:]}")
        out.seek(0)
        return wall, usage.ru_maxrss * 1024 / MIB, out.read().decode()


def summary(runs) -> dict:
    walls = [w for w, _ in runs]
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
    return {
        "wall_s": {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                   "min": round(min(walls), 4), "max": round(max(walls), 4)},
        "max_rss_mib": round(max(r for _, r in runs), 1),
        "runs": len(runs),
    }


def timed(row: dict, smoke: bool, baseline: Path | None, work: Path) -> dict:
    """``row`` with its measurement, and the baseline's beside it when asked
    for (every row but ``bench``'s): the two trees' runs alternate
    in pairs, and so does which of them runs first; ``pairs_won`` counts the
    pairs in which this checkout ran faster."""
    trees = [ROOT / "src"]
    if baseline is not None and row["command"].split()[0] in PAIRED:
        trees.insert(0, baseline)
    repeat = 1 if smoke else REPEAT if len(trees) == 1 else PAIRS
    runs = [[] for _ in trees]  # by position: SRC may be this checkout's own src/
    for i in range(repeat):
        for j in range(len(trees))[:: 1 if i % 2 == 0 else -1]:
            runs[j].append(run_once(trees[j], row["argv"], work)[:2])
    out = {key: value for key, value in row.items() if key != "argv"}
    out["args"] = [a if len(a) <= 40 else f"<{len(a)} chars>" for a in row["argv"]]
    out.update(summary(runs[-1]))
    if len(trees) == 2:
        out["baseline"] = summary(runs[0])
        out["pairs_won"] = sum(mine < theirs for (mine, _), (theirs, _) in zip(runs[1], runs[0]))
    return out


def text_file(work: Path, n: int) -> str:
    """The name of a file in ``work`` holding n seeded random bytes."""
    name = f"text-{n}.bin"
    if not (work / name).exists():
        (work / name).write_bytes(np.random.default_rng(0).integers(0, 256, size=n).astype(np.uint8).tobytes())
    return name


def inline_text(m: int, sigma: int, seed: int) -> str:
    """A text to pass as an argument: no NUL, no leading '-'."""
    symbols = "acgt" if sigma == 4 else "".join(chr(0x100 + c) for c in range(sigma))
    return "".join(symbols[c] for c in np.random.default_rng(seed).integers(0, sigma, size=m))


def rows(work: Path, smoke: bool):
    """The timed rows in run order, each ``{"command", ..., "argv"}``, with
    file names relative to ``work``; documents are written before the rows
    that read them."""
    sizes = [10**3] if smoke else [10**4, 10**5, 10**6]
    for n in sizes:
        text = text_file(work, n)
        doc = f"klevel-{n}.json"
        data = (work / text).read_bytes()
        pattern = bytes(b for b in data[::100] if b).decode("latin-1")  # a subsequence; argv holds no NUL
        base = {"variant": "klevel", "k": 2, "sigma": 256, "n": n}
        yield {"command": "build", **base, "argv": ["build", "--variant", "klevel", "--k", "2", "--file", text, "--out", doc]}
        yield {"command": "match", **base, "argv": ["match", "--file", doc, "--pattern", pattern]}
        yield {"command": "stats", **base, "argv": ["stats", "--file", doc]}
        yield {"command": "verify", **base, "argv": ["verify", "--variant", "klevel", "--k", "2", "--file", text]}
        yield {"command": "verify --file", **base, "argv": ["verify", "--file", doc]}
        yield {"command": "export", **base, "argv": ["export", "--file", doc, "--out", "out.dot"]}
        if n <= 10**5:
            yield {"command": "bench", "sigma": 256, "n": n, "argv": ["bench", "--file", text, "--ks", "2"]}
    for variant in ("sa", "chain", "level"):
        for n in [10**3] if smoke else [10**4, 10**5] if variant == "sa" else [10**4, 10**6]:
            text = text_file(work, n)
            yield {"command": "build", "variant": variant, "sigma": 256, "n": n,
                   "argv": ["build", "--variant", variant, "--file", text, "--out", "out.json"]}
    for m, sigma in [(30, 4), (30, 256)] if smoke else [(300, 4), (700, 256)]:
        texts = ["--texts", inline_text(m, sigma, 1), inline_text(m, sigma, 2)]
        base = {"variant": "common-level", "sigma": sigma, "lengths": [m, m]}
        yield {"command": "build", **base, "argv": ["build", "--variant", "common-level", *texts, "--out", "out.json"]}
        yield {"command": "stats", **base, "argv": ["stats", "--variant", "common-level", *texts]}
        yield {"command": "verify", **base, "argv": ["verify", "--variant", "common-level", *texts, "--max-len", "2"]}
    m = 30 if smoke else 300
    texts = ["--texts", inline_text(m, 4, 1), inline_text(m, 4, 2)]
    yield {"command": "verify", "variant": "naive-common", "sigma": 4, "lengths": [m, m], "max_len": m + 1,
           "argv": ["verify", "--variant", "naive-common", *texts, "--max-len", str(m + 1)]}


def tradeoff(smoke: bool, work: Path) -> list[dict]:
    """size/n and delay of each single-string variant, per sigma and k."""
    n = 10**3 if smoke else 10**5
    out = []
    for sigma in (4, 26, 256):
        ks = sorted(k for k in {2, 3, 4, 16, sigma} if k <= sigma)
        argv = ["bench", "--random", str(n), str(sigma), "0", "--ks", ",".join(map(str, ks)), "--format", "structured"]
        for r in json.loads(run_once(ROOT / "src", argv, work)[2])["rows"]:
            out.append({"variant": r["variant"], "k": r["k"], "sigma": sigma, "n": n, "size_total": r["size_total"],
                        "size_per_n": round(r["size_total"] / n, 4), "delay": r["delay"], "delay_cap": r["delay_cap"]})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    ap.add_argument("--smoke", action="store_true", help="texts of 10^3 symbols (products 30x30), one run (or pair) each")
    ap.add_argument("--baseline", type=Path,
                    help=f"another checkout's src/ to time every {', '.join(PAIRED)} row against, in {PAIRS} alternating pairs of runs")
    args = ap.parse_args(argv)
    baseline = args.baseline.resolve() if args.baseline else None
    report = {"environment": environment(baseline), "repeat": 1 if args.smoke else REPEAT,
              "pairs": None if baseline is None else 1 if args.smoke else PAIRS, "smoke": args.smoke}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        report["rows"] = [timed(row, args.smoke, baseline, work) for row in rows(work, args.smoke)]
        report["tradeoff"] = tradeoff(args.smoke, work)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
