"""Array kernels behind the builders, the runner, and the equivalence walk.

Each kernel is written once: in numpy, vectorized where the recurrence allows
(``longest_chain_lengths`` by pointer jumping, ``next_occurrence_table`` by
one backward ``minimum.accumulate``), and as a plain loop where it is
inherently sequential (``run_codes``).
``perfbench/run.py --trace 1`` times each of them per call.

The equivalence walk steps an automaton's frontier, as given, through
``resolved_tables``: the rows of any states, in any order and repeats
included, over the check symbols, resolved by walking their default chains
in lockstep. A row whose chain reaches another of the given states stops
there and later takes that state's row for its still-empty cells, so the
rows that reach a given state do not read its chain again.

Transitions come out of one CSR emitter, ``csr_from_windows``, whose
temporaries track the automaton's size. It orders the transitions of windows
narrower than sigma by sorting packed (state, symbol, offset) keys in place,
and builds each wider row from the next wider one by a backward recurrence,
already in symbol order. ``sa``, ``level`` and ``klevel`` emit through it,
``sa`` being the case with every window at n. Only ``multi._levelled``, the
greedy oracle's transition table and the product oracles allocate the dense
(n+1)×sigma ``next_occurrence_table``, one per text (over the check columns
for the oracles). ``bar_targets`` writes the hops of each level of the
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
    # test picks (first_after_rows), so one flat scatter writes each cell at
    # most once: numpy leaves open which of duplicate writes wins. One
    # minimum.accumulate up the batch's (rows, sigma) block then yields these
    # rows in symbol order, and they are slotted in at their states' places.
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
            # the batch's wide rows, in order, then the carried row
            m = rows.shape[0]
            block = np.full((m + 1, sigma), n + 1, dtype=np.int32)
            block[m] = carry
            owner, p = first_after_rows(rows, at, prev[rows[0] + 1 : at + 1])
            block.reshape(-1)[owner * sigma + codes[p - 1]] = p
            np.minimum.accumulate(block[::-1], axis=0, out=block[::-1])
            block, carry, at = block[:m], block[0], rows[0]
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


def first_after_rows(rows, top, prev):
    # The positions p in (rows[0], top] that are their symbol's first
    # occurrence after the last of the ascending ``rows`` before p, and the
    # index of that row, given prev[i], the previous occurrence of the symbol
    # at position rows[0] + 1 + i (0 for none). Row i owns the positions
    # (rows[i], rows[i + 1]], the last row those up to top; each (row,
    # symbol) pair thus gets at most one position.
    lens = np.diff(rows, append=top)
    first = np.flatnonzero(prev <= np.repeat(rows, lens))
    return np.repeat(np.arange(rows.shape[0]), lens)[first], first + (rows[0] + 1)


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


def resolved_tables(offsets, syms, targets, defaults, states, columns, width):
    # Rows of the resolved tables for any states, in any order, repeats
    # included: cell [r, j] is where states[r] consumes the symbol whose
    # column is j (columns[symbol], -1 for none) and the defaults crossed
    # first; -1 and 0 when it cannot. Columns are distinct per symbol. The
    # rows walk their default chains in lockstep, and at depth h each fills
    # its still-empty cells from its chain state's CSR slice. A row drops out
    # when its chain ends, when every column of an alphabet symbol is filled,
    # or when its chain reaches another of the states: from there on the
    # chains coincide, so the row is linked to that state's row at depth h.
    # Defaults point forward, so links do too and never form a cycle. After
    # the walk, linked rows take the still-empty cells of their link's row
    # (hops + h) in order of how many links lie between them and an unlinked
    # row, which longest_chain_lengths counts. A row thus stops reading where
    # its chain meets another of the states, and a call with every state
    # reads each CSR entry at most once. Links are found in a sorted copy of
    # the states, so a call's temporaries track its rows, not the automaton.
    u = states.shape[0]
    out = np.full((u, width), -1, dtype=np.int32)
    hops = np.zeros((u, width), dtype=np.int32)
    need = np.count_nonzero(columns >= 0)
    if not u or not need:
        return out, hops
    flat_out, flat_hops = out.reshape(-1), hops.reshape(-1)
    every = need == columns.shape[0]  # no entry's symbol lacks a column
    # the states in ascending order and the row of each, after -1 (a chain
    # that has ended: the row is done) and before one past every state
    order = states.argsort()
    ordered = np.concatenate(([-1], states[order], [offsets.shape[0]]))
    row = np.concatenate(([-2], order, [-1]))
    link = np.full(u, -1, dtype=np.int64)
    link_depth = np.zeros(u, dtype=np.int32)
    # the rows walk in state order, so their chains' states come to the
    # search and the CSR nearly sorted: row * width, per walking row
    base = order * width
    cur = ordered[1:-1]
    filled = np.zeros(u, dtype=np.int64)
    depth = 0
    while base.shape[0]:
        lo = offsets[cur]
        counts = offsets[cur + 1] - lo
        ends = counts.cumsum()
        owner = np.arange(base.shape[0]).repeat(counts)
        entry = np.arange(ends[-1]) + (lo - (ends - counts)).repeat(counts)
        col = columns[syms[entry]]
        if not every:
            known = col >= 0
            owner, entry, col = owner[known], entry[known], col[known]
        cell = base[owner] + col
        empty = flat_out[cell] < 0
        cell = cell[empty]
        flat_out[cell] = targets[entry[empty]]
        flat_hops[cell] = depth
        filled += np.bincount(owner[empty], minlength=base.shape[0])
        depth += 1
        nxt = defaults[cur].astype(np.intp, copy=False)  # intp indexes and searches without a cast
        # -1: walk on; -2: the row is done; a row r: link to it
        i = ordered.searchsorted(nxt)
        at = row[i]
        at[ordered[i] != nxt] = -1
        at[filled >= need] = -2
        if at[at.argmax()] >= 0:  # any link (argmax skips max's Python wrapper)
            hit = at >= 0
            linked = base[hit] // width
            link[linked] = at[hit]
            link_depth[linked] = depth
        more = at == -1
        base, cur, filled = base[more], nxt[more], filled[more]
    linked = (link >= 0).nonzero()[0]
    if linked.shape[0]:
        rank = longest_chain_lengths(link)[linked]
        linked = linked[rank.argsort(kind="stable")]
        start = 0
        for stop in np.bincount(rank).cumsum()[1:].tolist():
            rows = linked[start:stop]
            start = stop
            to = link[rows]
            mine, theirs = out[rows], out[to]
            take = (mine < 0) & (theirs >= 0)
            out[rows] = np.where(take, theirs, mine)
            hops[rows] = np.where(take, hops[to] + link_depth[rows, None], hops[rows])
    return out, hops


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
    # the chain automaton of the codes: state 0's row links to state 1's
    chain = np.array([1, 2, 3, -1], dtype=np.int32)
    resolved_tables(*csr_from_windows(codes, 2, chain), chain, np.arange(2), np.arange(2), 2)
