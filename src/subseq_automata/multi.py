"""Product-state subsequence automata for several strings.

States are coordinate tuples (s_1, ..., s_N): position s_i of string i has
been consumed so far. The distinguished origin (0, ..., 0) is state id 0 and
every other coordinate runs from 1 (mixed-radix ids: ``automaton._encode_ids``,
shared with the oracles). Three builders, each written as array code over the
coordinates of all states at once:

  * ``build_naive_common``  - two strings; default hops one step along the
                              diagonal, transitions look only at the next
                              character of each string. Small, huge delay.
  * ``build_common_level``  - N strings; each diagonal carries the base-2
                              capped ruler hierarchy of the single-string
                              automaton. Accepts subsequences of *every*
                              string.
  * ``build_any_level``     - same skeleton plus a dead sentinel value n_i+1
                              per coordinate; accepts subsequences of *some*
                              string.

The two levelled builders share one construction, ``_levelled``: hops come
from the single-string hop kernel, and transitions are emitted for batches of
states with one pass per text, already in CSR order.

The full product state set is still materialized, unreachable states
included, so state counts match the construction exactly; ``reachable_states``
reports the honest reachable count. A state budget refuses explosive products.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels as K
from .automaton import Alphabet, Automaton, _decode_ids, assemble
from .single import effective_sigma, level_cap

DEFAULT_STATE_BUDGET = 10**6


class StateBudgetError(RuntimeError):
    """Product state space exceeds the configured budget."""

    def __init__(self, states: int, budget: int):
        super().__init__(f"construction needs {states} states, budget is {budget}")
        self.states = states
        self.budget = budget


def _product(dims: tuple[int, ...], budget: int) -> tuple[int, np.ndarray]:
    """State count and per-state coordinate rows of a product within budget."""
    total = 1 + math.prod(dims)
    if total > budget:
        raise StateBudgetError(total, budget)
    return total, _decode_ids(np.arange(total), dims)


def build_naive_common(s1: str, s2: str, *, state_budget: int = DEFAULT_STATE_BUDGET) -> Automaton:
    """Two-string common-subsequence automaton with one-step diagonal defaults.

    State (s1, s2) offers only the next character of each string (when it
    occurs in the other string's remainder) and otherwise skips to
    (s1+1, s2+1).
    """
    alphabet = Alphabet.from_texts([s1, s2])
    sig = len(alphabet)
    codes = [alphabet.codes(s1), alphabet.codes(s2)]
    n1, n2 = dims = (len(s1), len(s2))
    total, coords = _product(dims, state_budget)
    pos = list(coords.T)
    # rule i offers string i's next character (symbol sig past its end), found
    # in the other string, and advances string i by one: a symbol and a target
    # per state
    syms, targets = [], []
    for i, j in ((0, 1), (1, 0)):
        c = np.append(codes[i], sig)[pos[i]]
        tgt = [pos[0] + 1, pos[1] + 1]
        tgt[j] = K.next_occurrence_table(codes[j], sig + 1)[pos[j], c]
        syms.append(np.where(tgt[j] >= 0, c, sig))
        targets.append((tgt[0] - 1) * n2 + tgt[1])
    (c0, c1), (t0, t1) = syms, targets
    # both rules may name the same character; they must then agree on the target
    same = (c0 == c1) & (c0 < sig)
    clash = np.flatnonzero(same & (t0 != t1))
    if clash.shape[0]:
        p1, p2 = coords[clash[0]]
        raise ValueError(f"naive construction: state ({p1}, {p2}) has two targets for symbol {c0[clash[0]]}")
    # each row in symbol order, a shared symbol once
    swap = c1 < c0
    syms = np.stack([np.minimum(c0, c1), np.where(same, sig, np.maximum(c0, c1))], axis=1)
    targets = np.stack([np.where(swap, t1, t0), np.where(swap, t0, t1)], axis=1)
    keep = syms < sig
    offsets = np.zeros(total + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(keep)[1::2]
    defaults = np.where((pos[0] < n1) & (pos[1] < n2), pos[0] * n2 + pos[1] + 1, -1)
    meta = {"variant": "naive-common", "lengths": list(dims), "k": None, "sigma": sig}
    csr = offsets, syms[keep].astype(np.int32), targets[keep].astype(np.int32)
    return assemble(alphabet, *csr, defaults, meta)


def _levelled(texts, sigma: int | None, state_budget: int, dead: bool) -> Automaton:
    """The diagonal-levelled product, computed for all states at once.

    Coordinate i is live while it is at most n_i (``dead`` adds the sentinel
    n_i+1). A state hops like single-string state m, its smallest live
    coordinate (0 for the origin and all-dead states), moving every live
    coordinate together. A missing next occurrence drops the symbol, or with
    ``dead`` moves that coordinate to the sentinel.

    Transitions are emitted for batches of states, at most ``K._CHUNK``
    (state, symbol) cells each, with one pass per text: it takes the text's
    next-occurrence rows of the batch's states as one (states, alphabet)
    block and ORs its in-window test into the emit mask; without ``dead``
    each block also ANDs found-at-all into it. The row-major mask's cells
    come out by state, then symbol, which is CSR order, and each emitted
    cell's target folds in one mixed-radix digit per text.
    """
    alphabet = Alphabet.from_texts(texts)
    sig = effective_sigma(len(alphabet), sigma)
    lengths = [len(t) for t in texts]
    dims = tuple(n + dead for n in lengths)
    total, coords = _product(dims, state_budget)
    coords = list(coords.T)

    cap, top = level_cap(2, sig), max(lengths)
    m = np.full(total, top + 1, dtype=np.int64)
    for x, n in zip(coords, lengths):
        np.minimum(m, np.where(x <= n, x, top + 1), out=m)
    m[m > top] = 0
    bars = K.bar_targets(top, 2, cap).astype(np.int64)[m]
    step = bars - m  # every live coordinate moves by the hop's step
    hop = bars >= 0
    for x, n in zip(coords, lengths):
        hop &= (x > n) | (x + step <= n)
    hop_ids = 1  # mixed radix, folded one coordinate at a time
    for x, n, d in zip(coords, lengths, dims):
        hop_ids = (hop_ids - 1) * d + np.where(x <= n, x + step, x)
    defaults = np.where(hop, hop_ids, -1)
    if total > 1:
        defaults[0] = 1  # the origin steps onto the all-ones state

    # windows (x, end] reach the hop, or the whole remainder without one or
    # past sigma positions; the origin's holds each string's first symbol.
    # Missing occurrences read as the sentinel n+1, beyond every window.
    short = hop & (step < sig)
    rows, ends, tables = [], [], []
    for x, n, t in zip(coords, lengths, texts):
        rows.append(np.minimum(x, n))
        ends.append(np.where(short, np.minimum(x + step, n), n).astype(np.int32))
        ends[-1][0] = min(n, 1)
        tab = K.next_occurrence_table(alphabet.codes(t), len(alphabet))
        tab[tab < 0] = n + 1
        tables.append(tab)
    del coords, m, bars, step, hop, hop_ids, short

    width = len(alphabet)
    batch = min(total, max(1, K._CHUNK // max(width, 1)))
    # cell j of a batch's row-major (state, symbol) block holds symbol
    # j % width of the batch's state j // width
    cell_sym = np.tile(np.arange(width, dtype=np.int32), batch)
    cell_row = np.arange(batch).repeat(width)
    counts = np.zeros(total, dtype=np.int64)
    syms, targets = [], []
    for a in range(0, total, batch):
        b = min(a + batch, total)
        blocks = [np.take(tab, row[a:b], axis=0) for row, tab in zip(rows, tables)]
        emit = np.zeros((b - a, width), dtype=bool)
        for nxt, end in zip(blocks, ends):
            emit |= nxt <= end[a:b, None]
        if not dead:  # every string must still hold the symbol
            for nxt, n in zip(blocks, lengths):
                emit &= nxt <= n
        cells = np.flatnonzero(emit)
        counts[a:b] = np.bincount(cell_row[cells], minlength=b - a)
        syms.append(cell_sym[cells])
        ids = 1
        for nxt, d in zip(blocks, dims):
            ids = (ids - 1) * d + nxt.reshape(-1)[cells]
        targets.append(ids)
    del rows, ends  # validation peaks higher; free these first
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    variant = "any-level" if dead else "common-level"
    meta = {"variant": variant, "lengths": lengths, "k": None, "sigma": sig}
    return assemble(alphabet, offsets, np.concatenate(syms), np.concatenate(targets), defaults, meta)


def build_common_level(
    texts,
    *,
    sigma: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Automaton:
    """Diagonal-levelled common-subsequence automaton for N >= 2 strings.

    Accepts a pattern iff it is a subsequence of every input string. Each
    state's hop target is the next higher-level state on its diagonal; its
    transitions cover the distinct symbols of the per-string windows up to the
    hop (full suffixes when no hop exists), targeting the tuple of leftmost
    occurrences, and exist only for symbols occurring in every remainder.
    """
    texts = list(texts)
    if len(texts) < 2:
        raise ValueError("common-level construction needs at least two strings")
    return _levelled(texts, sigma, state_budget, dead=False)


def build_any_level(
    texts,
    *,
    sigma: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Automaton:
    """Diagonal-levelled some-string automaton for N >= 2 strings.

    Accepts a pattern iff it is a subsequence of at least one input string.
    Coordinate i uses the extra value n_i+1 as a dead sentinel ("string i can
    no longer match"); transitions exist for symbols occurring after the
    current position in at least one live string, and coordinates without a
    later occurrence move to the sentinel. Hops advance all live coordinates
    together and only exist while every live coordinate can take the full
    hop, which keeps levels strictly increasing along default chains.
    """
    texts = list(texts)
    if len(texts) < 2:
        raise ValueError("any-level construction needs at least two strings")
    return _levelled(texts, sigma, state_budget, dead=True)
