"""Product-state subsequence automata for several strings.

States are coordinate tuples (s_1, ..., s_N): position s_i of string i has
been consumed so far. The distinguished origin (0, ..., 0) is state id 0 and
every other coordinate runs from 1 (mixed-radix ids: ``automaton._encode_ids``,
shared with the oracles). Three builders, each the same levelled product run
with one of ``single``'s hop rules along every diagonal:

  * ``build_naive_common``  - two strings; the chain rule, so defaults go one
                              step along the diagonal and transitions look
                              only at the next character of each string.
                              Small, huge delay.
  * ``build_common_level``  - N strings; the base-2 ruler capped at
                              ceil(log2 sigma), klevel's rule at k = 2.
                              Accepts subsequences of *every* string.
  * ``build_any_level``     - the same ruler plus a dead sentinel value n_i+1
                              per coordinate; accepts subsequences of *some*
                              string.

One construction, ``_levelled``, serves all three: the caller names the rule,
and transitions are emitted for batches of states with one pass per text,
already in CSR order.

The full product state set is still materialized, unreachable states
included, so state counts match the construction exactly; ``reachable_states``
reports the honest reachable count. A state budget refuses explosive products.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels as K
from .automaton import Alphabet, Automaton, _decode_ids, _encode_ids, assemble
from .single import _CHAIN, _RULER, effective_sigma

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

    The levelled product over the chain rule (m -> m+1, none at the top):
    state (s1, s2) skips to (s1+1, s2+1) while both strings have a next
    character, and offers the next character of each string when it occurs
    in the other string's remainder.
    """
    return _levelled([s1, s2], "naive-common", _CHAIN, None, state_budget)


def _levelled(texts, variant: str, rule, sigma: int | None, state_budget: int) -> Automaton:
    """The levelled product, computed for all states at once.

    ``rule.targets(top, 2, sig)`` gives the single-string hop target of each
    diagonal index 0..top (-1 for none), top being the longest text's length
    and sig the alphabet size. Coordinate i is live while it is at most n_i
    (``any-level`` adds the dead sentinel n_i+1). A state hops like
    single-string state m, its smallest live coordinate (0 for the origin
    and all-dead states), moving every live coordinate together. A missing
    next occurrence drops the symbol, or with the sentinel moves that
    coordinate to it.

    Transitions are emitted for batches of states, at most ``K._CHUNK``
    (state, symbol) cells each, with one pass per text: it takes the text's
    next-occurrence rows of the batch's states as one (states, alphabet)
    block and ORs its in-window test into the emit mask; without the
    sentinel each block also ANDs found-at-all into it. The row-major mask's
    cells come out by state, then symbol, which is CSR order, and each
    emitted cell's target is the mixed-radix id of its next occurrences.
    """
    texts = list(texts)
    if len(texts) < 2:
        raise ValueError(f"{variant} construction needs at least two strings")
    dead = variant == "any-level"
    alphabet = Alphabet.from_texts(texts)
    sig = effective_sigma(len(alphabet), sigma)
    lengths = [len(t) for t in texts]
    dims = tuple(n + dead for n in lengths)
    total, coords = _product(dims, state_budget)
    coords = list(coords.T)

    top = max(lengths)
    m = np.full(total, top + 1, dtype=np.int64)
    for x, n in zip(coords, lengths):
        np.minimum(m, np.where(x <= n, x, top + 1), out=m)
    m[m > top] = 0
    bars = rule.targets(top, 2, sig).astype(np.int64)[m]
    step = bars - m  # every live coordinate moves by the hop's step
    hop = bars >= 0
    for x, n in zip(coords, lengths):
        hop &= (x > n) | (x + step <= n)
    hop_ids = _encode_ids((np.where(x <= n, x + step, x) for x, n in zip(coords, lengths)), dims)
    defaults = np.where(hop, hop_ids, -1)
    if total > 1:
        defaults[0] = 1  # the origin steps onto the all-ones state

    # windows (x, end] reach the hop, or the whole remainder without one or
    # past sigma positions where the rule widens; the origin's holds each
    # string's first symbol. Missing occurrences read as the sentinel n+1,
    # beyond every window.
    short = hop & (step < sig) if rule.widens else hop
    rows, ends, tables = [], [], []
    for x, n, t in zip(coords, lengths, texts):
        rows.append(np.minimum(x, n))
        ends.append(np.where(short, np.minimum(x + step, n), n).astype(np.int32))
        ends[-1][0] = min(n, 1)
        tables.append(K.next_occurrence_table(alphabet.codes(t), len(alphabet)))
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
        targets.append(_encode_ids((nxt.reshape(-1)[cells] for nxt in blocks), dims))
    del rows, ends  # validation peaks higher; free these first
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
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
    return _levelled(texts, "common-level", _RULER, sigma, state_budget)


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
    return _levelled(texts, "any-level", _RULER, sigma, state_budget)
