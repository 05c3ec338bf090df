"""Array kernels behind the builders, the runner, and the verification machinery.

Each kernel is written once: in numpy, vectorized where the recurrence allows,
and as a plain loop where it is inherently sequential (``longest_chain_lengths``,
``run_codes``). ``perfbench/run.py --trace 1`` times each of them per call.

Conventions shared by all kernels:
  * text symbols are dense ids in ``[0, sigma)``; string positions are 1-based,
    so a text of length n spans positions 1..n and its automata states 0..n;
  * ``-1`` encodes "absent" (no occurrence, no default, no transition);
  * transition sets are CSR-encoded: ``offsets`` (int64, len states+1) into
    parallel ``syms``/``targets`` (int32) arrays, symbol-sorted per state.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def next_occurrence_table(codes, sigma):
    n = codes.shape[0]
    table = np.full((n + 1, sigma), -1, dtype=np.int32)
    for i in range(n - 1, -1, -1):
        table[i] = table[i + 1]
        table[i, codes[i]] = i + 1
    return table


def ruler_levels(n, k, cap):
    levels = np.zeros(n + 1, dtype=np.int32)
    idx = np.arange(n + 1, dtype=np.int64)
    power = k
    x = 1
    while power <= n and (cap < 0 or x <= cap):
        levels[idx % power == 0] = x
        power *= k
        x += 1
    if cap >= 0:
        np.minimum(levels, cap, out=levels)
    levels[0] = -1
    return levels


def bar_targets(levels, n, k, cap):
    idx = np.arange(n + 1, dtype=np.int64)
    lv = levels.astype(np.int64)
    step = np.power(k, np.maximum(lv, 0) + 1)
    t = (idx // step + 1) * step
    bars = np.where(t <= n, t, -1)
    if cap >= 0:
        bars[lv >= cap] = -1
    bars[0] = -1
    return bars.astype(np.int32)


def csr_from_table(table, window_end):
    keep = (table != -1) & (table <= window_end[:, None])
    counts = keep.sum(axis=1, dtype=np.int64)
    offsets = np.zeros(table.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    _, syms = np.nonzero(keep)
    return offsets, syms.astype(np.int32), table[keep].astype(np.int32)


def longest_chain_lengths(defaults):
    # defaults must point strictly forward (validated upstream), so a single
    # descending pass resolves the recurrence.
    m = defaults.shape[0]
    chains = np.zeros(m, dtype=np.int32)
    for s in range(m - 1, -1, -1):
        d = defaults[s]
        if d >= 0:
            chains[s] = chains[d] + 1
    return chains


def run_codes(offsets, syms, targets, defaults, pcodes):
    m = pcodes.shape[0]
    consumed = np.full(m, -1, dtype=np.int32)
    dcounts = np.zeros(m, dtype=np.int32)
    state = 0
    for i in range(m):
        c = pcodes[i]
        if c < 0:
            return consumed, dcounts, i
        hops = 0
        while True:
            lo = offsets[state]
            hi = offsets[state + 1]
            while lo < hi:
                mid = (lo + hi) // 2
                if syms[mid] < c:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < offsets[state + 1] and syms[lo] == c:
                state = targets[lo]
                consumed[i] = state
                dcounts[i] = hops
                break
            d = defaults[state]
            if d < 0:
                return consumed, dcounts, i
            state = d
            hops += 1
    return consumed, dcounts, -1


def resolved_tables(offsets, syms, targets, defaults, sigma):
    # Per-state closure over the default chain: where each symbol ends up and
    # how many defaults are crossed first. Defaults point forward, so rows are
    # filled in descending state order.
    n_states = offsets.shape[0] - 1
    table = np.full((n_states, sigma), -1, dtype=np.int32)
    hops = np.zeros((n_states, sigma), dtype=np.int32)
    for s in range(n_states - 1, -1, -1):
        d = defaults[s]
        if d >= 0:
            table[s] = table[d]
            hops[s] = hops[d] + 1
        lo, hi = offsets[s], offsets[s + 1]
        if hi > lo:
            table[s, syms[lo:hi]] = targets[lo:hi]
            hops[s, syms[lo:hi]] = 0
    return table, hops


def warmup() -> None:
    """Force one tiny call through every kernel."""
    codes = np.array([0, 1, 0], dtype=np.int32)
    table = next_occurrence_table(codes, 2)
    levels = ruler_levels(3, 2, -1)
    bars = bar_targets(levels, 3, 2, -1)
    window = np.full(4, 3, dtype=np.int32)
    offsets, syms, targets = csr_from_table(table, window)
    longest_chain_lengths(bars)
    run_codes(offsets, syms, targets, bars, codes)
    resolved_tables(offsets, syms, targets, bars, 2)
