"""Product-state subsequence automata for several strings.

States are coordinate tuples (s_1, ..., s_N): position s_i of string i has
been consumed so far. The distinguished origin (0, ..., 0) is state id 0 and
every other coordinate runs from 1. Three builders:

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

The full product state set is materialized, unreachable states included, so
state counts match the construction exactly; ``reachable_states`` reports the
honest reachable count. A configurable state budget refuses explosive
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .automaton import Alphabet, Automaton, assemble
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


def _ruler2(m: int) -> int:
    return (m & -m).bit_length() - 1


def level_multi(t: TupleState, cap: int) -> int:
    """Level of a non-origin product state: base-2 ruler value of its diagonal
    position min(coords), clamped to ``cap``."""
    if all(x == 0 for x in t):
        raise ValueError("the origin carries no level")
    m = min(t)
    if m < 1:
        raise ValueError(f"coordinates must be positive, got {t}")
    return min(cap, _ruler2(m))


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


def _prepare(texts, sigma):
    alphabet = Alphabet.from_texts(texts)
    sig = effective_sigma(len(alphabet), sigma)
    codes = [alphabet.codes(t) for t in texts]
    tables = [K.next_occurrence_table(c, len(alphabet)) for c in codes]
    return alphabet, sig, codes, tables


def _check_budget(total: int, budget: int):
    if total > budget:
        raise StateBudgetError(total, budget)


def _rows_to_csr(rows):
    """CSR arrays from per-state {symbol: target} rows, labels ascending."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    syms: list[int] = []
    targets: list[int] = []
    for s, row in enumerate(rows):
        for c in sorted(row):
            syms.append(c)
            targets.append(row[c])
        offsets[s + 1] = len(syms)
    return offsets, syms, targets


def build_naive_common(s1: str, s2: str, *, state_budget: int = DEFAULT_STATE_BUDGET) -> Automaton:
    """Two-string common-subsequence automaton with one-step diagonal defaults.

    State (s1, s2) offers only the next character of each string (when it
    occurs in the other string's remainder) and otherwise skips to
    (s1+1, s2+1).
    """
    alphabet, _, codes, tables = _prepare([s1, s2], None)
    n1, n2 = len(s1), len(s2)
    indexer = TupleIndexer((n1, n2))
    _check_budget(indexer.total_states, state_budget)

    rows = []
    defaults = []
    for sid in range(indexer.total_states):
        p1, p2 = indexer.decode(sid)
        row: dict[int, int] = {}
        if p1 < n1:
            c = int(codes[0][p1])
            t2 = int(tables[1][p2, c])
            if t2 >= 0:
                row[c] = indexer.encode((p1 + 1, t2))
        if p2 < n2:
            c = int(codes[1][p2])
            t1 = int(tables[0][p1, c])
            if t1 >= 0:
                tid = indexer.encode((t1, p2 + 1))
                # both construction rules may name the same character; they
                # must then agree on the target
                if row.get(c, tid) != tid:
                    raise ValueError(f"naive construction: state ({p1}, {p2}) has two targets for symbol {c}")
                row[c] = tid
        rows.append(row)
        defaults.append(indexer.encode((p1 + 1, p2 + 1)) if p1 < n1 and p2 < n2 else -1)

    meta = {"variant": "naive-common", "lengths": [n1, n2], "k": None, "sigma": len(alphabet)}
    return assemble(alphabet, *_rows_to_csr(rows), defaults, meta)


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
    alphabet, sig, codes, tables = _prepare(texts, sigma)
    lengths = [len(t) for t in texts]
    cap = level_cap(2, sig)
    indexer = TupleIndexer(tuple(lengths))
    _check_budget(indexer.total_states, state_budget)

    rows = []
    defaults = []
    for sid in range(indexer.total_states):
        t = indexer.decode(sid)
        row: dict[int, int] = {}
        if sid == 0:
            for i in range(len(texts)):
                if lengths[i] == 0:
                    continue
                c = int(codes[i][0])
                tgt = [int(tab[0, c]) for tab in tables]
                if all(x >= 0 for x in tgt):
                    row[c] = indexer.encode(tuple(tgt))
            dflt = tuple([1] * len(texts))
            defaults.append(indexer.encode(dflt) if all(n >= 1 for n in lengths) else -1)
            rows.append(row)
            continue

        bt = bar_multi(t, cap, lengths)
        if bt is not None and bt[0] - t[0] < sig:
            window = [b for b in bt]
        else:
            window = lengths
        labels: set[int] = set()
        for i, c in enumerate(codes):
            labels.update(int(x) for x in c[t[i]: window[i]])
        for c in sorted(labels):
            tgt = [int(tables[i][t[i], c]) for i in range(len(texts))]
            if all(x >= 0 for x in tgt):
                row[c] = indexer.encode(tuple(tgt))
        rows.append(row)
        defaults.append(indexer.encode(bt) if bt is not None else -1)

    meta = {"variant": "common-level", "lengths": lengths, "k": None, "sigma": sig}
    return assemble(alphabet, *_rows_to_csr(rows), defaults, meta)


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
    alphabet, sig, codes, tables = _prepare(texts, sigma)
    lengths = [len(t) for t in texts]
    cap = level_cap(2, sig)
    indexer = TupleIndexer(tuple(n + 1 for n in lengths))
    _check_budget(indexer.total_states, state_budget)

    rows = []
    defaults = []
    for sid in range(indexer.total_states):
        t = indexer.decode(sid)
        row: dict[int, int] = {}
        if sid == 0:
            for i in range(len(texts)):
                if lengths[i] == 0:
                    continue
                c = int(codes[i][0])
                tgt = [int(tab[0, c]) for tab in tables]
                row[c] = indexer.encode(tuple(x if x >= 0 else lengths[j] + 1 for j, x in enumerate(tgt)))
            rows.append(row)
            defaults.append(indexer.encode(tuple([1] * len(texts))))
            continue

        live = [i for i in range(len(texts)) if t[i] <= lengths[i]]
        if not live:
            rows.append(row)
            defaults.append(-1)
            continue

        m = min(t[i] for i in live)
        lv = min(cap, _ruler2(m))
        bt = None
        if lv < cap:
            step = 1 << (lv + 1)
            gap = (m // step + 1) * step - m
            if all(t[i] + gap <= lengths[i] for i in live):
                bt = tuple(t[i] + gap if i in live else t[i] for i in range(len(texts)))
        if bt is not None and (bt[live[0]] - t[live[0]]) < sig:
            window = {i: bt[i] for i in live}
        else:
            window = {i: lengths[i] for i in live}
        labels: set[int] = set()
        for i in live:
            labels.update(int(x) for x in codes[i][t[i]: window[i]])
        for c in sorted(labels):
            tgt = []
            for i in range(len(texts)):
                if i in live:
                    x = int(tables[i][t[i], c])
                    tgt.append(x if x >= 0 else lengths[i] + 1)
                else:
                    tgt.append(t[i])
            row[c] = indexer.encode(tuple(tgt))
        rows.append(row)
        defaults.append(indexer.encode(bt) if bt is not None else -1)

    meta = {"variant": "any-level", "lengths": lengths, "k": None, "sigma": sig}
    return assemble(alphabet, *_rows_to_csr(rows), defaults, meta)
