"""Array kernels behind the builders, the runner, and the oracles' tables.

Each kernel is written once: in numpy, vectorized where the recurrence allows,
and as a plain loop where it is inherently sequential (``longest_chain_lengths``,
``run_codes``). ``perfbench/run.py --trace 1`` times each of them per call.

Transitions come out of one of two CSR emitters. The hierarchy builders
(``level``, ``klevel``) use ``csr_from_windows``, whose temporaries track the
automaton's size; only ``sa``, the multi-string builders and the oracles'
transition tables allocate the dense (n+1)×sigma ``next_occurrence_table``
(``sa`` reads it through ``csr_from_table``).

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

# Positions scanned or (state, symbol) cells looked up per batch of states in
# csr_from_windows; bounds its temporaries independently of n.
_CHUNK = 1 << 16


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


def csr_from_windows(codes, sigma, window_end):
    # Same CSR as csr_from_table(next_occurrence_table(codes, sigma), window_end)
    # without the table. A window shorter than sigma is scanned: position p
    # in (s, end] is the first of its symbol after s iff the symbol's previous
    # occurrence is <= s. A wider window is answered symbol by symbol with
    # searchsorted over the per-symbol position lists. States are taken in
    # batches of at most _CHUNK scanned positions or looked-up cells.
    n = codes.shape[0]
    order = np.argsort(codes, kind="stable")
    pos = order.astype(np.int64) + 1
    by_sym = codes[order].astype(np.int64) * (n + 1) + pos
    sym_end = np.cumsum(np.bincount(codes, minlength=sigma))
    same = codes[order[1:]] == codes[order[:-1]]
    prev = np.zeros(n + 1, dtype=np.int64)
    prev[pos[1:][same]] = pos[:-1][same]

    ends = np.minimum(window_end.astype(np.int64), n)
    span = np.maximum(ends - np.arange(n + 1), 0)
    wide = span >= sigma
    work = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.maximum(np.where(wide, sigma, span), 1), out=work[1:])
    all_syms = np.arange(sigma, dtype=np.int64)

    counts = np.zeros(n + 1, dtype=np.int64)
    syms, targets = [], []
    a = 0
    while a <= n:
        b = max(a + 1, int(np.searchsorted(work, work[a] + _CHUNK, side="right")) - 1)
        narrow = np.flatnonzero(~wide[a:b]) + a
        lens = span[narrow]
        owner = np.repeat(narrow, lens)
        p = np.arange(owner.shape[0]) + np.repeat(narrow + 1 - (np.cumsum(lens) - lens), lens)
        first = prev[p] <= owner
        owner, p = owner[first], p[first]
        chunk_keys, chunk_targets = [owner * sigma + codes[p - 1]], [p]

        rows = np.flatnonzero(wide[a:b]) + a
        if rows.shape[0]:
            idx = np.searchsorted(by_sym, all_syms * (n + 1) + rows[:, None], side="right")
            hit = pos[np.minimum(idx, n - 1)]
            ok = (idx < sym_end) & (hit <= ends[rows, None])
            chunk_keys.append((rows[:, None] * sigma + all_syms)[ok])
            chunk_targets.append(hit[ok])

        chunk_keys = np.concatenate(chunk_keys)
        srt = np.argsort(chunk_keys)
        chunk_keys = chunk_keys[srt]
        counts[a:b] = np.bincount(chunk_keys // sigma - a, minlength=b - a)
        syms.append((chunk_keys % sigma).astype(np.int32))
        targets.append(np.concatenate(chunk_targets)[srt].astype(np.int32))
        a = b

    offsets = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, np.concatenate(syms), np.concatenate(targets)


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


def warmup() -> None:
    """Force one tiny call through every kernel."""
    codes = np.array([0, 1, 0], dtype=np.int32)
    table = next_occurrence_table(codes, 2)
    levels = ruler_levels(3, 2, -1)
    bars = bar_targets(levels, 3, 2, -1)
    window = np.full(4, 3, dtype=np.int32)
    offsets, syms, targets = csr_from_table(table, window)
    csr_from_windows(codes, 2, window)
    longest_chain_lengths(bars)
    run_codes(offsets, syms, targets, bars, codes)
