"""Array kernels behind the builders, the runner, and the equivalence walk.

Each kernel is written once: in numpy, vectorized where the recurrence allows
(``longest_chain_lengths`` by pointer jumping, ``next_occurrence_table`` by
one backward ``minimum.accumulate``), and as a plain loop where it is
inherently sequential (``run_codes``).
``perfbench/run.py --trace 1`` times each of them per call.

The equivalence walk steps an automaton's frontier, as given, through
``step_cells``: the (state, symbol) cells of any states, in any order and
repeats included, over the check symbols, each resolved by following its
default chain with one ``searchsorted`` per hop over the automaton's CSR keys
``state * sigma + symbol``.

Transitions come out of one CSR emitter, ``csr_from_windows``, whose
temporaries track the automaton's size. It orders the transitions of windows
narrower than sigma by sorting packed (state, symbol, offset) keys in place,
and builds each wider row from the next wider one by a backward recurrence,
already in symbol order (``next_after_rows``, which ``oracles.certify``
shares on one text). ``multi._construct``, the one construction, emits every
single string's windows through it (``sa`` being the case with every window
at n), except for windows of one position each, the chain's, whose CSR is
the text itself. Only its product emitter, ``multi._product_csr``, the
certificate of a product, the greedy oracle's transition table and the
product oracles allocate the dense (n+1)×sigma ``next_occurrence_table``,
one per text (over the check columns for the oracles). ``bar_targets`` writes the hops of each level of the
hierarchy as one strided slice.

Conventions shared by all kernels:
  * text symbols are dense ids in ``[0, sigma)``; string positions are 1-based,
    so a text of length n spans positions 1..n and its automata states 0..n;
  * ``-1`` encodes "absent" (no default, no transition), except in
    ``next_occurrence_table``, where n + 1 means no later occurrence;
  * transition sets are CSR-encoded: ``offsets`` (int64, len states+1) into
    parallel ``syms``/``targets`` (int32) arrays, symbol-sorted per state.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Positions scanned or (state, symbol) cells looked up per batch of states in
# csr_from_windows; bounds its temporaries independently of n.
_CHUNK = 1 << 16
# csr_from_windows packs its sort keys into int32 while the symbol and offset
# fields take at most this many bits together (sigma <= 1024), which leaves
# 2**11 or more states per batch; a wider alphabet packs into int64.
_INT32_KEY_BITS = 20


def next_occurrence_table(codes, sigma):
    # Row i gets position i + 1 (n + 1 for none, so row n is all none), and
    # one minimum.accumulate from the last row up carries it into the rows above
    n = codes.shape[0]
    table = np.full((n + 1, sigma), n + 1, dtype=np.int32)
    table[np.arange(n), codes] = np.arange(1, n + 1, dtype=np.int32)
    np.minimum.accumulate(table[::-1], axis=0, out=table[::-1])
    return table


def bar_targets(n, k, cap):
    # A state at level x (a multiple of p = k**x but not of q = k*p, x < cap)
    # hops to the next multiple of q: one strided write per level, from
    # level 0 up, so each state keeps its own level's hop; n*k/(k-1) writes
    bars = np.full(n + 1, -1, dtype=np.int32)
    p, x = 1, 0
    while k * p <= n and (cap < 0 or x < cap):
        q = k * p
        m = n // q  # the k multiples of p in [j*q, (j+1)*q) hop to (j+1)*q, j < m
        bars[: m * q : p] = np.repeat(np.arange(q, m * q + 1, q, dtype=np.int32), k)
        bars[m * q :: p] = -1
        p, x = q, x + 1
    bars[::p] = -1  # state 0, and the states at level x, which have no hop
    return bars


def previous_occurrences(codes, sigma):
    # prev[p]: the previous position of the symbol at position p, 0 for none
    # (and at p = 0), from one stable sort of the positions by symbol
    n = codes.shape[0]
    order = np.argsort(codes.astype(np.uint8) if sigma <= 1 << 8 else codes, kind="stable")  # radix on uint8
    ordered = codes[order]
    pos = order + 1
    prev = np.zeros(n + 1, dtype=np.int32)
    prev[pos[1:]] = pos[:-1] * (ordered[1:] == ordered[:-1])
    return prev


def csr_from_windows(codes, sigma, window_end):
    # Row s holds the symbols whose first occurrence after position s lies in
    # (s, window_end[s]], each to that occurrence, in symbol order. Batches of
    # states [a, b), at most _CHUNK scanned positions or emitted cells and few
    # enough that the batch's keys fit int32 when sigma allows it, are taken
    # from the end. A window shorter than sigma is scanned: position p in
    # (s, end] is the first of its symbol after s iff p - prev(p) > p - s - 1,
    # prev(p) being the symbol's previous occurrence (0 for none). Each first
    # occurrence becomes one packed key (s - a, symbol, p - s - 1), the last
    # two fields `bits` wide, and sorting the batch's keys in place orders its
    # transitions by state and symbol. A wider row takes the next occurrences
    # of the next wider row (carried across batches, all n + 1 past the
    # last), lowered by the first occurrences between the two, which the same
    # test picks (next_after_rows), already in symbol order; they are slotted
    # in at their states' places.
    n = codes.shape[0]
    bits = max(1, (sigma - 1).bit_length())
    mask = (1 << bits) - 1
    key_type, key_bits = (np.int32, 31) if 2 * bits <= _INT32_KEY_BITS else (np.int64, 63)
    max_states = 1 << (key_bits - 2 * bits)
    prev = previous_occurrences(codes, sigma)
    gap = np.arange(n + 1, dtype=key_type)  # p - prev(p)
    gap -= prev
    high = np.zeros(n + 1, dtype=key_type)  # the symbol at p, in its key field
    high[1:] = codes.astype(key_type) << bits

    ends = np.minimum(window_end.astype(np.int64), n)
    span = np.maximum(ends - np.arange(n + 1), 0)
    wide = span >= sigma
    work = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.maximum(np.where(wide, sigma, span), 1), out=work[1:])

    counts = np.zeros(n + 1, dtype=np.int64)
    syms, targets = [], []
    carry, at = np.full(sigma, n + 1, dtype=np.int32), n  # next occurrences after `at`, n + 1 for none
    b = n + 1
    while b > 0:
        a = max(min(b - 1, int(np.searchsorted(work, work[b] - _CHUNK))), b - max_states)
        narrow = np.flatnonzero(~wide[a:b])
        lens = span[narrow + a]
        seg = np.cumsum(lens) - lens
        key = np.repeat(((narrow << 2 * bits) - seg).astype(key_type), lens)
        key += np.arange(lens.sum(), dtype=key_type)
        offset = key & mask
        p = np.add(offset, key >> 2 * bits, dtype=np.intp)  # an intp index gathers faster than int32
        p += a + 1
        key += high[p]
        first = gap[p] > offset  # the other keys become -1 and sort first
        key *= first
        key -= ~first
        key.sort()
        key = key[key.shape[0] - np.count_nonzero(first) :]
        owner = key >> 2 * bits
        counts[a:b] = np.bincount(owner, minlength=b - a)
        s = ((key >> bits) & mask).astype(np.int32, copy=False)
        t = ((key & mask) + owner + (a + 1)).astype(np.int32, copy=False)

        rows = np.flatnonzero(wide[a:b]) + a
        if rows.shape[0]:
            block = next_after_rows(rows, at, carry, prev, codes)
            carry, at = block[0], rows[0]
            ok = block <= ends[rows, None].astype(np.int32)
            counts[rows] = ok.sum(axis=1)
            # which entries are the wide rows', by runs of wide or narrow states
            runs = np.flatnonzero(np.diff(wide[a:b], prepend=not wide[a]))
            slot = np.repeat(wide[runs + a], np.add.reduceat(counts[a:b], runs))
            narrow_s, narrow_t = s, t
            s = np.empty(slot.shape[0], dtype=np.int32)
            t = np.empty(slot.shape[0], dtype=np.int32)
            s[slot] = np.broadcast_to(np.arange(sigma, dtype=np.int32), ok.shape)[ok]
            t[slot] = block[ok]
            np.logical_not(slot, out=slot)
            s[slot] = narrow_s
            t[slot] = narrow_t
        syms.append(s)
        targets.append(t)
        b = a

    offsets = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if len(syms) == 1:  # one batch: no copy
        return offsets, syms[0], targets[0]
    return offsets, np.concatenate(syms[::-1]), np.concatenate(targets[::-1])


def next_after_rows(rows, at, carry, prev, codes):
    # Row i: the next occurrence of each symbol after rows[i] (n + 1 for
    # none), for ascending rows at or below ``at``, repeats allowed, given
    # ``carry``, that row for ``at``, and prev[p], the previous occurrence of
    # the symbol at position p (previous_occurrences). Row i owns the
    # positions (rows[i], rows[i + 1]], the last row those up to ``at``, and
    # p is its symbol's first after its row iff prev(p) <= the row, so one
    # flat scatter writes each (row, symbol) cell at most once: numpy leaves
    # open which of duplicate writes wins. One minimum.accumulate up the
    # block, the carried row below the last, lowers each row by the rows
    # after it.
    m, sigma = rows.shape[0], carry.shape[0]
    block = np.full((m + 1, sigma), codes.shape[0] + 1, dtype=np.int32)
    block[m] = carry
    lens = np.diff(rows, append=at)
    p = np.flatnonzero(prev[rows[0] + 1 : at + 1] <= np.repeat(rows, lens))
    block.reshape(-1)[np.repeat(np.arange(m), lens)[p] * sigma + codes[p + rows[0]]] = p + (rows[0] + 1)
    np.minimum.accumulate(block[::-1], axis=0, out=block[::-1])
    return block[:m]


def longest_chain_lengths(defaults):
    # List ranking by pointer jumping: after round r, chains[s] counts the
    # first min(2**r, chain) hops of s's default chain and nxt[s] is the state
    # they end at, -1 once the chain has ended. Each round doubles the reach,
    # so an acyclic default graph (validated upstream) takes
    # log2(longest chain) + 1 rounds.
    nxt = defaults.astype(np.int64)
    chains = (nxt >= 0).astype(np.int32)
    live = np.flatnonzero(nxt >= 0)
    for _ in range(defaults.shape[0].bit_length()):
        via = nxt[live]
        chains[live] += chains[via]
        nxt[live] = nxt[via]
        live = live[nxt[live] >= 0]
        if not live.shape[0]:
            break
    return chains


def step_cells(key, targets, defaults, sigma, states, codes):
    # Where each of the states, in any order, repeats included, consumes the
    # symbol of each column (codes[j], -1 for none) and the defaults crossed
    # first: cell [r, j] for states[r], -1 and 0 when it cannot. ``key`` holds
    # the CSR keys source * sigma + symbol, strictly increasing. The cells
    # walk their default chains together, rows in ascending state order and
    # columns in symbol order, so the first queries come sorted: per default
    # hop one searchsorted of state * sigma + symbol over the keys. A hit
    # takes its target, a miss moves on to the state's default, and a cell
    # whose chain ends stays -1.
    u, width = states.shape[0], codes.shape[0]
    out = np.full(u * width, -1, dtype=np.int32)
    hops = np.zeros(u * width, dtype=np.int32)
    cols = (codes >= 0).nonzero()[0]
    if u and cols.shape[0] and key.shape[0]:
        cols = cols[codes[cols].argsort()]
        order = states.argsort()
        step = key.dtype.type(sigma)  # queries in the keys' dtype: searchsorted casts neither
        cur = states[order].astype(key.dtype)
        cell = (order[:, None] * width + cols).reshape(-1)
        query = (cur[:, None] * step + codes[cols].astype(key.dtype)).reshape(-1)
        cur = cur.repeat(cols.shape[0])
        sym = query - cur * step  # each cell's symbol
        depth = 0
        while True:
            i = key.searchsorted(query)
            hit = key.take(i, mode="clip") == query
            found = cell[hit]
            out[found] = targets[i[hit]]
            hops[found] = depth
            cur = defaults[cur]
            cur[hit] = -1
            more = (cur >= 0).nonzero()[0]
            if not more.shape[0]:
                break
            cell, cur, sym = cell[more], cur[more], sym[more]
            query = cur * step
            query += sym
            depth += 1
    return out.reshape(u, width), hops.reshape(u, width)


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
    next_occurrence_table(codes, 2)
    bars = bar_targets(3, 2, -1)
    offsets, syms, targets = csr_from_windows(codes, 2, np.full(4, 3, dtype=np.int32))
    longest_chain_lengths(bars)
    run_codes(offsets, syms, targets, bars, codes)
    # the chain automaton of the codes, whose CSR keys state * 2 + symbol are 0, 3, 4
    chain = np.array([1, 2, 3, -1], dtype=np.int32)
    targets = csr_from_windows(codes, 2, chain)[2]
    step_cells(np.array([0, 3, 4], dtype=np.int32), targets, chain, 2, np.arange(2), np.arange(2))
