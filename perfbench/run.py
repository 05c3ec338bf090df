#!/usr/bin/env python3
"""Seeded benchmark of the subseq_automata package, one workload per run.

    python3 perfbench/run.py --workload {build,serve,verify,multi} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

Run it from the root of a checkout: it imports the package from ``src/``
there and refuses to run (exit 2, no result) without it. Each run is one
process with one closed-loop caller. It sets up several times (the package
imported and warmed up in a fresh interpreter, then the workload's inputs
made from the seed) and keeps the last inputs, then runs timed rounds until
``--seconds`` have passed, then checks every output. With ``--trace 1`` the rounds alternate
between untraced and traced, and the traced ones record spans around every
public function of the package's modules (see ``tracing.py``); the spans are
written to ``.perfbench/``.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The JSON report
printed before it carries the environment, each workload's own end-to-end
metrics with units, ``error_rate``, and sha256 fingerprints of the inputs,
automata and documents.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"

# Set-up is repeated at least MIN_SETUPS times, and until SETUP_SECONDS have
# passed, and its median reported.
MIN_SETUPS = 5
SETUP_SECONDS = 2.0
# What every `subseqa` call pays before its first operation, measured in a
# fresh interpreter; it gives set-up a steady base and shows work moved into
# the import or the kernels' warm-up.
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import subseq_automata; subseq_automata.warmup()"


def import_package():
    """The package from this checkout's ``src/``, or None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import subseq_automata
        import subseq_automata.cli  # noqa: F401  (verify calls it through the package)
    except ImportError:
        return None
    if Path(subseq_automata.__file__).resolve().parent.parent != src.resolve():
        return None
    return subseq_automata


def environment(sa, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": sa.BACKEND,
    }


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seconds: float, tracer) -> dict:
    setups = []
    while len(setups) < MIN_SETUPS or sum(setups) < SETUP_SECONDS:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT, str(ROOT / "src")], check=True)
        workload.setup()
        setups.append(time.perf_counter() - t0)

    rounds, traced = [], []
    start = time.perf_counter()
    # a traced run needs at least one untraced and one traced round
    min_rounds = 2 if tracer else 1
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        on = tracer is not None and len(rounds) % 2 == 1
        if tracer:
            tracer.active = on
        try:
            rounds.append(workload.round())
        except Exception as e:
            traceback.print_exc()
            workload.fail(f"round {len(rounds)} raised {e!r}")
            break
        finally:
            if tracer:
                tracer.active = False
        traced.append(on)
    # the peak of set-up and the timed rounds; the checks below are not timed work
    rss = peak_rss_mib()
    if rounds:
        try:
            workload.finish()
        except Exception as e:
            traceback.print_exc()
            workload.fail(f"checks raised {e!r}")
    return {"setups": setups, "rounds": rounds, "traced": traced, "peak_rss_mib": rss}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)

    sa = import_package()
    if sa is None:
        print(f"error: no subseq_automata package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        wrapped = tracer.install(sa)
    sa.warmup()

    workload = workloads.WORKLOADS[args.workload](sa, workloads.SIZES[args.size], args.seed, WORKDIR)
    try:
        m = measure(workload, args.seconds, tracer)
    finally:
        workload.close()
    for message in workload.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    if not m["rounds"]:
        return 1

    untraced = [ops for ops, on in zip(m["rounds"], m["traced"]) if not on]
    round_s = [sum(ops.values()) for ops in untraced]
    end_to_end = {
        "setup_s": (workloads.median(m["setups"]), "s"),
        "round_best_s": (workloads.best_round(untraced), "s"),
        "peak_rss_mib": (m["peak_rss_mib"], "MiB"),
    }
    attempted, failed = workload.attempted, len(workload.failures)
    own = workload.report(untraced)
    own["error_rate"] = (failed / attempted if attempted else 1.0, "ratio")
    report = {
        "environment": environment(sa, args),
        "setups": len(m["setups"]),
        "round_s": round_s,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in {**end_to_end, **own}.items()},
        "fingerprints": workload.fingerprints,
        **workload.details(untraced),
    }

    if tracer:
        traced = [ops for ops, on in zip(m["rounds"], m["traced"]) if on]
        overhead = workloads.best_round(traced) / workloads.best_round(untraced) - 1
        metrics = tracer.per_layer(len(traced), workload.counts, overhead)
        report["traced_rounds"] = len(traced)
        report["wrapped_bindings"] = wrapped
        report["spans"] = len(tracer.spans)
        tracer.write(WORKDIR / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end

    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
