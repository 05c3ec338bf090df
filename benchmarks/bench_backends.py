#!/usr/bin/env python3
"""Timing comparison of the numba kernels against the numpy/python fallback.

Each kernel is timed best-of-N on the same inputs through both
implementation tables; a composite row times the full klevel build pipeline
(occurrence table -> levels -> hops -> transition CSR -> chain DP). The
pipeline's level and hop vectors come from the builder's own
``single._level_windows``, on the backend selected at import.

Usage:
    python benchmarks/bench_backends.py [--n 10000] [--sigma 256] [--k 2] [--repeat 5]
"""

import argparse
import time

import numpy as np

from subseq_automata import _kernels as K
from subseq_automata.single import _level_windows, level_cap


def best_of(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def build_pipeline(impls, codes, n, sigma, k):
    table = impls["next_occurrence_table"](codes, sigma)
    defaults, window = _level_windows(n, k, level_cap(k, sigma), sigma, full_at_sigma=True)
    offsets, syms, targets = impls["csr_from_table"](table, window)
    impls["longest_chain_lengths"](defaults)
    return offsets, syms, targets, defaults


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--sigma", type=int, default=256)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(7)
    codes = rng.integers(0, args.sigma, size=args.n).astype(np.int32)
    n, sigma, k = args.n, args.sigma, args.k

    backends = {"numpy": K.NUMPY_IMPLS}
    if K.NUMBA_IMPLS is not None:
        backends["numba"] = K.NUMBA_IMPLS
        # compile (or load the disk cache) outside the timed region
        build_pipeline(K.NUMBA_IMPLS, codes, n, sigma, k)
        K.NUMBA_IMPLS["run_codes"](*build_pipeline(K.NUMBA_IMPLS, codes, n, sigma, k)[:4], codes[:10])
        K.NUMBA_IMPLS["resolved_tables"](*build_pipeline(K.NUMBA_IMPLS, codes, n, sigma, k)[:4], sigma)
    else:
        print("numba unavailable; timing the fallback path only")

    # shared fixtures for the per-kernel rows
    table = K.NUMPY_IMPLS["next_occurrence_table"](codes, sigma)
    levels = K.NUMPY_IMPLS["ruler_levels"](n, 2, -1)
    window = np.full(n + 1, n, dtype=np.int32)
    offsets, syms, targets, defaults = build_pipeline(K.NUMPY_IMPLS, codes, n, sigma, k)
    pattern = codes[np.sort(rng.choice(n, size=max(1, n // 2), replace=False))]

    rows = [
        ("next_occurrence_table", lambda impls: impls["next_occurrence_table"](codes, sigma)),
        ("ruler_levels", lambda impls: impls["ruler_levels"](n, 2, -1)),
        ("bar_targets", lambda impls: impls["bar_targets"](levels, n, 2, -1)),
        ("csr_from_table(full)", lambda impls: impls["csr_from_table"](table, window)),
        ("longest_chain_lengths", lambda impls: impls["longest_chain_lengths"](defaults)),
        ("run_codes(n/2 pattern)", lambda impls: impls["run_codes"](offsets, syms, targets, defaults, pattern)),
        ("resolved_tables", lambda impls: impls["resolved_tables"](offsets, syms, targets, defaults, sigma)),
        ("klevel build pipeline", lambda impls: build_pipeline(impls, codes, n, sigma, k)),
    ]

    print(f"n={n} sigma={sigma} k={k} repeat={args.repeat} (best-of)")
    header = f"{'kernel':<24}" + "".join(f"{name:>12}" for name in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for name, call in rows:
        times = {
            bname: best_of(lambda impls=impls: call(impls), args.repeat)
            for bname, impls in backends.items()
        }
        line = f"{name:<24}" + "".join(f"{times[b] * 1e3:>10.2f}ms" for b in backends)
        if len(backends) == 2:
            line += f"{times['numpy'] / times['numba']:>9.1f}x"
        print(line)


if __name__ == "__main__":
    main()
