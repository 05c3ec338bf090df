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
from the single-string ruler kernels, transitions are emitted symbol by
symbol and sorted into CSR once.

The full product state set is still materialized, unreachable states
included, so state counts match the construction exactly; ``reachable_states``
reports the honest reachable count. A state budget refuses explosive products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .automaton import Alphabet, Automaton, _decode_ids, _encode_ids, assemble
from .single import effective_sigma, level_cap

TupleState = tuple[int, ...]

DEFAULT_STATE_BUDGET = 10**6


class StateBudgetError(RuntimeError):
    """Product state space exceeds the configured budget."""

    def __init__(self, states: int, budget: int):
        super().__init__(f"construction needs {states} states, budget is {budget}")
        self.states = states
        self.budget = budget


@dataclass(frozen=True)
class TupleIndexer:
    """Mixed-radix bijection between coordinate tuples and dense state ids.

    ``dims[i]`` is the number of values coordinate i can take (1..dims[i]);
    the origin maps to id 0 and ids total 1 + prod(dims).
    """

    dims: tuple[int, ...]

    @property
    def total_states(self) -> int:
        return 1 + math.prod(self.dims)

    def encode(self, t: TupleState) -> int:
        if len(t) != len(self.dims):
            raise ValueError(f"expected {len(self.dims)} coordinates, got {len(t)}")
        if all(x == 0 for x in t):
            return 0
        sid = 0
        for x, d in zip(t, self.dims):
            if not 1 <= x <= d:
                raise ValueError(f"coordinate {x} outside 1..{d} (mixed zero/nonzero tuples are not states)")
            sid = sid * d + (x - 1)
        return sid + 1

    def decode(self, sid: int) -> TupleState:
        if sid == 0:
            return tuple(0 for _ in self.dims)
        if not 0 < sid < self.total_states:
            raise ValueError(f"state id {sid} out of range")
        rem = sid - 1
        out = [0] * len(self.dims)
        for i in range(len(self.dims) - 1, -1, -1):
            rem, x = divmod(rem, self.dims[i])
            out[i] = x + 1
        return tuple(out)


def level_multi(t: TupleState, cap: int) -> int:
    """Level of a non-origin product state: base-2 ruler value of its diagonal
    position min(coords), clamped to ``cap``."""
    if all(x == 0 for x in t):
        raise ValueError("the origin carries no level")
    m = min(t)
    if m < 1:
        raise ValueError(f"coordinates must be positive, got {t}")
    return min(cap, (m & -m).bit_length() - 1)  # exponent of m's lowest set bit


def bar_multi(t: TupleState, cap: int, lengths) -> TupleState | None:
    """Smallest same-diagonal state above ``t`` with a strictly higher level,
    or None when the diagonal ends first or ``t`` is already at the cap.

    Below the cap the hop advances every coordinate by exactly
    2**level_multi(t).
    """
    lv = level_multi(t, cap)
    if lv >= cap:
        return None
    m = min(t)
    step = 1 << (lv + 1)
    gap = (m // step + 1) * step - m
    if any(x + gap > n for x, n in zip(t, lengths)):
        return None
    return tuple(x + gap for x in t)


@dataclass(frozen=True)
class Diagonal:
    """States reachable from ``base`` by adding the same offset to every
    coordinate; positions (min coords) run base..base+length-1."""

    base: TupleState
    length: int

    def states(self):
        for off in range(self.length):
            yield tuple(x + off for x in self.base)


def diagonals(lengths) -> list[Diagonal]:
    """All diagonals of the product space over ``lengths``; their sizes sum to
    prod(lengths) because they partition the non-origin states."""
    out = []

    def rec(prefix, has_one):
        i = len(prefix)
        if i == len(lengths):
            if has_one:
                length = min(n - b for b, n in zip(prefix, lengths)) + 1
                out.append(Diagonal(tuple(prefix), length))
            return
        for v in range(1, lengths[i] + 1):
            rec(prefix + [v], has_one or v == 1)

    rec([], False)
    return out


def _product(dims: tuple[int, ...], budget: int) -> tuple[int, np.ndarray]:
    """State count and per-state coordinate rows of a product within budget."""
    total = TupleIndexer(dims).total_states
    if total > budget:
        raise StateBudgetError(total, budget)
    return total, _decode_ids(np.arange(total), dims)


def _keys_to_csr(keys, targets, n_states: int, n_syms: int):
    """CSR arrays from distinct keys ``state * n_syms + symbol`` and targets."""
    order = np.argsort(keys)
    keys = keys[order]
    offsets = np.zeros(n_states + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n_syms, minlength=n_states), out=offsets[1:])
    return offsets, (keys % n_syms).astype(np.int32), targets[order].astype(np.int32)


def build_naive_common(s1: str, s2: str, *, state_budget: int = DEFAULT_STATE_BUDGET) -> Automaton:
    """Two-string common-subsequence automaton with one-step diagonal defaults.

    State (s1, s2) offers only the next character of each string (when it
    occurs in the other string's remainder) and otherwise skips to
    (s1+1, s2+1).
    """
    alphabet = Alphabet.from_texts([s1, s2])
    sig = len(alphabet)
    codes = [alphabet.codes(s1), alphabet.codes(s2)]
    dims = (len(s1), len(s2))
    total, coords = _product(dims, state_budget)
    keys, targets = [], []
    for i, j in ((0, 1), (1, 0)):  # string i's next character, found in string j
        rows = np.flatnonzero(coords[:, i] < dims[i])
        c = codes[i][coords[rows, i]]
        tgt = coords[rows] + 1
        tgt[:, j] = K.next_occurrence_table(codes[j], sig)[coords[rows, j], c]
        ok = tgt[:, j] >= 0
        keys.append(rows[ok] * sig + c[ok])
        targets.append(_encode_ids(tgt[ok], dims))
    keys, first, inverse = np.unique(np.concatenate(keys), return_index=True, return_inverse=True)
    targets = np.concatenate(targets)
    # both rules may name the same character; they must then agree on the target
    clash = keys[inverse[targets != targets[first][inverse]]]
    if clash.shape[0]:
        p1, p2 = coords[clash[0] // sig]
        c = clash[0] % sig
        raise ValueError(f"naive construction: state ({p1}, {p2}) has two targets for symbol {c}")
    defaults = np.where(np.all(coords < dims, axis=1), _encode_ids(coords + 1, dims), -1)
    meta = {"variant": "naive-common", "lengths": list(dims), "k": None, "sigma": sig}
    return assemble(alphabet, *_keys_to_csr(keys, targets[first], total, sig), defaults, meta)


def _levelled(texts, sigma: int | None, state_budget: int, dead: bool) -> Automaton:
    """The diagonal-levelled product, computed for all states at once.

    Coordinate i is live while it is at most n_i (``dead`` adds the sentinel
    n_i+1). A state hops like single-string state m, its smallest live
    coordinate (0 for the origin and all-dead states), moving every live
    coordinate together. A missing next occurrence drops the symbol, or with
    ``dead`` moves that coordinate to the sentinel.
    """
    alphabet = Alphabet.from_texts(texts)
    sig = effective_sigma(len(alphabet), sigma)
    lengths = np.array([len(t) for t in texts], dtype=np.int64)
    dims = tuple(len(t) + dead for t in texts)
    total, coords = _product(dims, state_budget)

    live = coords <= lengths
    cap, top = level_cap(2, sig), int(lengths.max())
    m = np.where(live, coords, top + 1).min(axis=1)
    m[m > top] = 0
    bars = K.bar_targets(K.ruler_levels(top, 2, cap), top, 2, cap).astype(np.int64)[m]
    gap = (bars - m)[:, None] * live
    hop = (bars >= 0) & np.all(~live | (coords + gap <= lengths), axis=1)
    defaults = np.full(total, -1, dtype=np.int64)
    defaults[hop] = _encode_ids(coords[hop] + gap[hop], dims)
    if total > 1:
        defaults[0] = 1  # the origin steps onto the all-ones state

    # windows (coords, end] reach the hop, or the whole remainder without one
    # or past sigma positions; the origin's holds each string's first symbol
    end = np.where((hop & (bars - m < sig))[:, None], coords + gap, lengths)
    end[0] = np.minimum(lengths, 1)
    rows = np.minimum(coords, lengths)
    tables = [K.next_occurrence_table(alphabet.codes(t), len(alphabet)) for t in texts]
    keys, targets = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for c in range(len(alphabet)):
        nxt = np.stack([tab[rows[:, i], c] for i, tab in enumerate(tables)], axis=1)
        found = nxt >= 0
        emit = np.any(found & (nxt <= end), axis=1) & (dead | found.all(axis=1))
        sids = np.flatnonzero(emit)
        keys.append(sids * len(alphabet) + c)
        targets.append(_encode_ids(np.where(found[sids], nxt[sids], lengths + 1), dims))
    del coords, live, gap, end, rows  # validation peaks higher; free these first
    csr = _keys_to_csr(np.concatenate(keys), np.concatenate(targets), total, len(alphabet))
    variant = "any-level" if dead else "common-level"
    meta = {"variant": variant, "lengths": lengths.tolist(), "k": None, "sigma": sig}
    return assemble(alphabet, *csr, defaults, meta)


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
