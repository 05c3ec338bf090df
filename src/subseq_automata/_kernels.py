"""Array kernels behind the builders, the runner, and the equivalence walk.

Each kernel is written once: in numpy, vectorized where the recurrence allows
(``longest_chain_lengths`` by pointer jumping), and as a plain loop where it is
inherently sequential (``next_occurrence_table``, ``run_codes``).
``perfbench/run.py --trace 1`` times each of them per call.

The equivalence walk steps an automaton's frontier through
``resolved_tables``: the rows of the given distinct states over the check
symbols, resolved by walking their default chains in lockstep. A row whose
chain reaches another of the given states stops there and later takes that
state's row for its still-empty cells, so the rows that reach a given state
do not read its chain again.

Transitions come out of one CSR emitter, ``csr_from_windows``, whose
temporaries track the automaton's size. It orders the transitions of windows
narrower than sigma by sorting packed (state, symbol, offset) keys in place,
and builds each wider row from the next wider one by a backward recurrence,
already in symbol order. ``sa``, ``level`` and ``klevel`` emit through it,
``sa`` being the case with every window at n. Only ``multi._levelled`` and
the oracles' transition tables allocate the dense (n+1)×sigma
``next_occurrence_table``. ``bar_targets`` writes the hops of each level of
the hierarchy as one strided slice.

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
# csr_from_windows packs its sort keys into int32 while the symbol and offset
# fields take at most this many bits together (sigma <= 1024), which leaves
# 2**11 or more states per batch; a wider alphabet packs into int64.
_INT32_KEY_BITS = 20


def next_occurrence_table(codes, sigma):
    n = codes.shape[0]
    table = np.full((n + 1, sigma), -1, dtype=np.int32)
    for i in range(n - 1, -1, -1):
        table[i] = table[i + 1]
        table[i, codes[i]] = i + 1
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
    # test picks: numpy leaves open which of duplicate writes wins. One
    # minimum.accumulate up the batch's (rows, sigma) block then yields these
    # rows in symbol order, and they are slotted in at their states' places.
    n = codes.shape[0]
    narrow_codes = np.uint8 if sigma <= 1 << 8 else codes.dtype
    order = np.argsort(codes.astype(narrow_codes, copy=False), kind="stable")  # radix sort on uint8
    pos = order + 1
    same = codes[order[1:]] == codes[order[:-1]]

    bits = max(1, (sigma - 1).bit_length())
    mask = (1 << bits) - 1
    key_type, key_bits = (np.int32, 31) if 2 * bits <= _INT32_KEY_BITS else (np.int64, 63)
    max_states = 1 << (key_bits - 2 * bits)
    gap = np.arange(n + 1, dtype=key_type)  # p - prev(p)
    gap[pos[1:][same]] -= pos[:-1][same].astype(key_type)
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
        ar = np.arange(lens.sum())
        p = np.repeat(narrow + (a + 1) - seg, lens) + ar
        key = np.repeat(((narrow << 2 * bits) - seg).astype(key_type), lens) + ar.astype(key_type)
        key = (key + high[p])[gap[p] > (key & mask)]
        key.sort()
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
            p = np.arange(rows[0] + 1, at + 1)
            owner = np.searchsorted(rows, p) - 1  # the last wide row before p
            first = gap[p] > p - rows[owner] - 1
            block[owner[first], codes[p[first] - 1]] = p[first]
            np.minimum.accumulate(block[::-1], axis=0, out=block[::-1])
            block, carry, at = block[:m], block[0], rows[0]
            ok = block <= ends[rows, None].astype(np.int32)
            counts[rows] = ok.sum(axis=1)
            slot = np.repeat(wide[a:b], counts[a:b])
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
    return offsets, np.concatenate(syms[::-1]), np.concatenate(targets[::-1])


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
    # Rows of the resolved tables for distinct states: cell [r, j] is where
    # states[r] consumes the symbol whose column is j (columns[symbol], -1
    # for none) and the defaults crossed first; -1 and 0 when it cannot.
    # Columns are distinct per symbol. The rows walk their default chains in
    # lockstep, and at depth h each fills its still-empty cells from its
    # chain state's CSR slice. A row drops out when its chain ends, when every
    # column of an alphabet symbol is filled, or when its chain reaches
    # another of the states: from there on the chains coincide, so the row is
    # linked to that state's row at depth h. Defaults point forward, so links
    # do too and never form a cycle. After the walk, linked rows take the
    # still-empty cells of their link's row (hops + h) in order of how many
    # links lie between them and an unlinked row, which longest_chain_lengths
    # counts. A row thus stops reading where its chain meets another of the
    # states, and a call with every state reads each CSR entry at most once.
    # The states may come in any order; a dense state-to-row map finds the
    # links.
    u = states.shape[0]
    out = np.full((u, width), -1, dtype=np.int32)
    hops = np.zeros((u, width), dtype=np.int32)
    need = np.count_nonzero(columns >= 0)
    if not u or not need:
        return out, hops
    flat_out, flat_hops = out.reshape(-1), hops.reshape(-1)
    every = need == columns.shape[0]  # no entry's symbol lacks a column
    # row of each state in this call, -1 for the others and -2 at index -1,
    # where a chain that has ended looks itself up
    slot = np.full(offsets.shape[0], -1, dtype=np.int64)
    slot[-1] = -2
    slot[states] = np.arange(u)
    link = np.full(u, -1, dtype=np.int64)
    link_depth = np.zeros(u, dtype=np.int32)
    base = np.arange(0, u * width, width, dtype=np.int64)  # row * width, per walking row
    cur = states
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
        nxt = defaults[cur]
        # -1: walk on; -2: the row is done; a row r: link to it
        at = slot[nxt]
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
