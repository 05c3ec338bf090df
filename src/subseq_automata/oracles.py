"""Ground-truth oracles and complete equivalence checking.

The oracles answer "is P a subsequence of S" (and the every-string /
some-string variants) by greedy leftmost matching over the raw text, entirely
independent of the automaton builders. Every automaton consumes a pattern into
the state of its leftmost embedding, and the tabular oracles number states as
the automata do, so they are also the trace reference.

``equivalence_check`` and ``trace_equivalence`` consume one walk through the
automaton and a reference: a tabular oracle or a second automaton over as many
states. Both compare verdicts and consumed states. Two patterns that lead to
the same (automaton state, reference state) pair have the same extensions on
both sides, so the walk checks each distinct pair once per pattern length, in
the order of the first pattern that reaches it, and follows it while either
side is still alive (Hopcroft and Karp's pair walk, with the shared state
numbering in place of union-find). Every pattern up to the length bound is
thereby covered, and a bound past the longest path covers every pattern; the
cost tracks the reachable pairs times the check symbols. An automaton's rows
come from :func:`subseq_automata._kernels.step_cells` over its cached CSR
keys (:attr:`Automaton.key`), for a slice's live states as given; a tabular
oracle's from its ``step``, which the product oracles take from per-text
next-occurrence rows, tabled straight from the texts, without a table over
every coordinate tuple. Patterns are spelled only when reported, from the
cell that first reached each pair.

:func:`certify` checks a single-string automaton for every pattern, without a
walk or an oracle table, in time linear in its size (Baeza-Yates, *Searching
subsequences*, TCS 78, 1991, for the next-occurrence semantics).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .automaton import Automaton, _code_point_table, _digits, _look_up_code_points


# ---------------------------------------------------------------------------
# subsequence oracles


def is_subsequence(p: str, s: str) -> bool:
    """Greedy leftmost embedding test, linear in len(s)."""
    pos = 0
    for ch in p:
        pos = s.find(ch, pos) + 1
        if pos == 0:
            return False
    return True


def is_common_subsequence(p: str, texts) -> bool:
    return all(is_subsequence(p, s) for s in texts)


def is_any_subsequence(p: str, texts) -> bool:
    return any(is_subsequence(p, s) for s in texts)


def _next_occurrences_over(chars):
    """``table(text)``: the text's next-occurrence table over ``chars``, one
    column per entry, in order, n+1 for none. It is one table over the
    distinct ``chars`` and one column for the text's other symbols, to which
    its characters map through one code-point lookup; an entry that is not
    one character never occurs. Distinct ``chars`` get a view of it."""
    column = {ch: j for j, ch in enumerate(dict.fromkeys(chars))}
    other = len(column)
    singles = {ch: j for ch, j in column.items() if isinstance(ch, str) and len(ch) == 1}
    lookup = _code_point_table(singles, other)
    picks = slice(other) if len(chars) == other else [column[ch] for ch in chars]

    def table(text):
        return K.next_occurrence_table(_look_up_code_points(lookup, text), other + 1)[:, picks]

    return table


class GreedySubsequenceOracle:
    """Tabular greedy oracle; state = number of text positions consumed."""

    def __init__(self, text: str):
        self.text = text
        self.state_count = len(text) + 1
        self.initial = 0

    def transition_table(self, chars) -> np.ndarray:
        """``[state, j]``: the state after consuming ``chars[j]``, -1 if absent:
        the text's next-occurrence table over ``chars``."""
        table, n = _next_occurrences_over(chars)(self.text), len(self.text)
        rows = max(1, K._CHUNK // max(table.shape[1], 1))
        for lo in range(0, n + 1, rows):  # none becomes -1 a block of rows at a time: no table-sized mask
            block = table[lo : lo + rows]
            block[block > n] = -1
        return table

    def step(self, chars):
        """``step(states)``: entry ``i * len(chars) + j`` is the state after
        ``states[i]`` (-1: rejected) and ``chars[j]``, from :meth:`transition_table`."""
        table = self.transition_table(chars)

        def step(states):
            return np.where(states[:, None] >= 0, table[np.maximum(states, 0)], -1).reshape(-1)

        return step


class _ProductOracle:
    """Shared machinery for the every-string / some-string oracles: states are
    per-string greedy positions, numbered like the product automata's (see
    :func:`subseq_automata.automaton.state_dims`)."""

    def __init__(self, texts, dead_value: bool):
        self.texts = list(texts)
        self.dims = tuple(len(t) + dead_value for t in self.texts)
        self.dead = dead_value
        self.state_count = 1 + math.prod(self.dims)
        self.initial = 0

    def step(self, chars):
        """``step(states)`` advances product states (-1 once rejected) by every
        symbol of ``chars``, laid out as :meth:`GreedySubsequenceOracle.step`'s.

        Each coordinate steps like its text's greedy oracle. Common mode needs
        every coordinate to step; any mode parks a coordinate that cannot at
        its dead value n_i+1 and needs at least one to step.

        A next id is 1 plus one contribution (next - 1)·stride per coordinate,
        as :func:`subseq_automata.automaton._encode_ids` numbers them. Each
        text's contributions are tabled once, a row per coordinate value (0
        for the origin), from the text's next-occurrence table over the check
        columns, as the greedy oracle's. Row n_i holds no occurrence, so it
        also serves the dead value n_i+1. A step decodes the states a
        coordinate at a time and sums the rows they pick, so it costs a few
        arrays of the frontier's cells. A coordinate that cannot step adds
        -state_count in common mode, which leaves the sum negative, and its
        dead value's contribution in any mode, where only the all-dead id
        ``state_count - 1`` then means that no coordinate stepped.
        """
        width, last = len(chars), self.state_count - 1
        if 0 in self.dims:  # an empty text in common mode: only the origin, which steps nowhere
            return lambda states: np.full(states.shape[0] * width, -1, dtype=np.int64)
        next_after, tables, stride = _next_occurrences_over(chars), [], 1
        for text, dim in zip(reversed(self.texts), reversed(self.dims)):
            n = len(text)
            nxt = next_after(text).astype(np.int64)
            if self.dead:  # the dead value n + 1 reads row n
                nxt = nxt[np.minimum(np.arange(dim + 1), n)]
            tables.append(np.where(nxt <= n, (nxt - 1) * stride, (dim - 1) * stride if self.dead else -last - 1))
            stride *= dim

        def step(states):
            x = states.astype(np.int64) - 1
            inner = x >= 0  # the origin and rejected states read row 0
            ids = 1
            for contribution, digit in zip(tables, _digits(x, self.dims)):
                ids = ids + contribution[digit * inner]
            stuck = ids == last if self.dead else ids < 0
            return np.where(stuck | (x < -1)[:, None], -1, ids).reshape(-1)

        return step

    def transition_table(self, chars) -> np.ndarray:
        """``[state, j]``: the state after consuming ``chars[j]``, -1 if absent:
        :meth:`step` over every state."""
        return self.step(chars)(np.arange(self.state_count)).reshape(self.state_count, len(chars))


class CommonSubsequenceOracle(_ProductOracle):
    """Accepts patterns embeddable in every text."""

    def __init__(self, texts):
        super().__init__(texts, dead_value=False)


class AnySubsequenceOracle(_ProductOracle):
    """Accepts patterns embeddable in at least one text; exhausted texts park
    at a dead coordinate value."""

    def __init__(self, texts):
        super().__init__(texts, dead_value=True)


# ---------------------------------------------------------------------------
# equivalence checking


@dataclass
class Mismatch:
    pattern: str
    automaton_accepts: bool
    oracle_accepts: bool


@dataclass
class EquivalenceReport:
    """``ok`` judges verdicts only. ``trace_counterexample`` is the first
    pattern, in check order, that the automaton and the reference both
    accept through differing states (None when there is none)."""

    patterns_checked: int
    mismatches: list[Mismatch]
    max_defaults_per_char: int
    trace_counterexample: str | None

    @property
    def ok(self) -> bool:
        return not self.mismatches


def default_check_alphabet(texts) -> list[str]:
    """The texts' symbols plus one fresh symbol, so unknown-character
    rejection always gets exercised. The fresh symbol follows the largest one,
    or, when that is the last code point, is the highest unused one."""
    seen = sorted({c for t in texts for c in t})
    if not seen:
        return ["a"]
    fresh = ord(seen[-1]) + 1
    if fresh > sys.maxunicode:
        taken = set(seen)
        fresh = next(c for c in range(sys.maxunicode, -1, -1) if chr(c) not in taken)
    return seen + [chr(fresh)]


def _automaton_step(a: Automaton, chars):
    """``step(states)`` advances states of ``a`` (-1 once rejected) by every
    symbol of ``chars``.

    It returns the next states, entry ``i * len(chars) + j`` for
    ``states[i]`` and ``chars[j]`` (-1 when rejected), and the most defaults
    crossed before a consuming transition. The live states are stepped as
    given, repeats and all, by one call of
    :func:`subseq_automata._kernels.step_cells` over ``a.key``; a rejected
    state's row is all -1.
    """
    codes = np.array([a.alphabet.index.get(ch, -1) for ch in chars], dtype=np.int64)
    sigma = len(a.alphabet)

    def step(states):
        live = states >= 0
        if live.all():
            rows, hops = K.step_cells(a.key, a.targets, a.defaults, sigma, states, codes)
        else:
            rows = np.full((states.shape[0], len(codes)), -1, dtype=np.int32)
            rows[live], hops = K.step_cells(a.key, a.targets, a.defaults, sigma, states[live], codes)
        return rows.reshape(-1), int(hops.max(initial=0))

    return step


def _first_pairs(cells, states, ref, span):
    """The entries whose (state, reference state) pair comes first, in order."""
    _, first = np.unique((states + 1).astype(np.int64) * span + ref + 1, return_index=True)
    first.sort()
    return cells[first], states[first], ref[first]


def _spell(chars, links, base, i) -> str:
    """The pattern of cell ``base + i`` of one length: the cell's symbol after
    those of the cells that first reached its pair and each earlier pair,
    read back through ``links`` (per length from 1, that cell of each pair)."""
    width = len(chars)
    row, j = divmod(base + int(i), width)
    out = [chars[j]]
    for link in reversed(links):
        row, j = divmod(int(link[row]), width)
        out.append(chars[j])
    return "".join(reversed(out))


def _walk(a: Automaton, reference, chars, max_len: int):
    """Every pattern over ``chars`` up to ``max_len``, through ``a`` and
    through ``reference`` (a tabular oracle or a second automaton over as many
    states), checked once per distinct pair of states they reach.

    Yields ``(length, states, reference_states, max_hops, pattern)``: first
    the empty pattern, then the (pair, symbol) cells of each length, a slice
    of at most ``K._CHUNK`` cells (or one pair) at a time. Cell ``i * len(chars) + j`` of a slice steps
    pair i by ``chars[j]``; entry i of each state array is the state after
    it (-1 once rejected), ``pattern(i)`` spells it, and ``max_hops`` is the
    most defaults ``a`` crossed first in the slice. The pairs of a length are
    those its cells reach first that are still alive on one side; a pair
    also reached at a shorter length is left out when ``a``'s state was last
    visited with the same reference state. Both sides move forward, so a
    bound past the longest path ends the walk early; on automata whose edges
    loop it ends after (state_count + 1)**2 lengths, by when every pair has
    appeared at its shortest length.
    """
    if len(set(chars)) != len(chars):
        raise ValueError("check alphabet must not repeat symbols")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if reference.state_count != a.state_count:
        raise ValueError(
            f"oracle has {reference.state_count} states, automaton {a.state_count}: not the same texts"
        )
    step = _automaton_step(a, chars)
    if isinstance(reference, Automaton):
        ref_frontier = _automaton_step(reference, chars)

        def ref_step(states):
            return ref_frontier(states)[0]
    else:
        ref_step = reference.step(chars)

    width, span = len(chars), a.state_count + 1
    states = np.array([a.initial], dtype=np.int64)
    ref = np.array([reference.initial], dtype=np.int64)
    yield 0, states, ref, 0, lambda i: ""
    # the reference state each state of ``a`` (index -1: rejected) was last visited with
    last = np.full(span, -2, dtype=np.int64)
    last[states] = ref
    links = []
    rows = max(1, K._CHUNK // max(width, 1))
    for length in range(1, min(max_len, span * span) + 1):
        found = []
        for lo in range(0, states.shape[0], rows):
            nxt, hops = step(states[lo : lo + rows])
            nref = ref_step(ref[lo : lo + rows])
            yield length, nxt, nref, hops, functools.partial(_spell, chars, tuple(links), lo * width)
            if length < max_len:
                cells = np.flatnonzero(((nxt >= 0) | (nref >= 0)) & (last[nxt] != nref))
                found.append(_first_pairs(cells + lo * width, nxt[cells], nref[cells], span))
        if not found:
            return
        cells, states, ref = found[0] if len(found) == 1 else _first_pairs(*map(np.concatenate, zip(*found)), span)
        if not cells.shape[0]:
            return
        last[states] = ref
        links.append(cells)


def _diverged(states, ref) -> np.ndarray:
    """Indices of the cells both sides accept through differing states."""
    return np.flatnonzero((states >= 0) & (ref >= 0) & (states != ref))


def equivalence_check(a: Automaton, oracle, alphabet, max_len: int) -> EquivalenceReport:
    """Compare the automaton's verdict and consumed state with the oracle's on
    every pattern over ``alphabet`` of length <= ``max_len``, once per
    distinct pair of states reached (see :func:`_walk`).

    ``patterns_checked`` counts the empty pattern and one pattern per checked
    (pair, symbol) cell, and ``mismatches`` holds one pattern per mismatching
    cell, the first of them the first mismatching pattern in check order
    (shorter first, then by ``alphabet`` order). The oracle is a tabular
    oracle (the classes above) or a second automaton; one over a different
    number of states than ``a`` raises ``ValueError``.
    """
    chars = list(alphabet)
    checked, max_defaults, mismatches, trace = 0, 0, [], None
    for _, states, ref, hops, pattern in _walk(a, oracle, chars, max_len):
        checked += len(states)
        max_defaults = max(max_defaults, hops)
        accepts = states >= 0
        for b in np.flatnonzero(accepts != (ref >= 0)).tolist():
            mismatches.append(Mismatch(pattern(b), bool(accepts[b]), bool(ref[b] >= 0)))
        diverged = _diverged(states, ref)
        if trace is None and diverged.size:
            trace = pattern(int(diverged[0]))
    return EquivalenceReport(checked, mismatches, max_defaults, trace)


@dataclass
class TraceCheck:
    equal: bool
    counterexample: str | None
    patterns_checked: int


def trace_equivalence(a1: Automaton, a2: Automaton, alphabet, max_len: int) -> TraceCheck:
    """Check that both automata accept the same patterns and, on accepted
    patterns, consume through identical states: the walk of
    :func:`equivalence_check` with ``a2`` as the reference. The counterexample
    is a shortest failing pattern; at that length, one consumed through
    differing states outranks one with differing verdicts.

    Because every state accepts, matching the state after each consumed
    prefix is exactly matching consumed_targets of run().
    """
    chars = list(alphabet)
    checked, shortest, found = 0, max_len, {}
    for length, states, ref, _, pattern in _walk(a1, a2, chars, max_len):
        checked += len(states)
        if length > shortest:
            continue
        verdicts = np.flatnonzero((states >= 0) != (ref >= 0))
        for kind, failing in (("state", _diverged(states, ref)), ("verdict", verdicts)):
            if failing.size and kind not in found:
                found[kind], shortest = pattern(int(failing[0])), length
    counterexample = found.get("state", found.get("verdict"))
    return TraceCheck(counterexample is None, counterexample, checked)


# ---------------------------------------------------------------------------
# the single-string certificate


def _misdirected(sources, syms, targets, text_syms, prev):
    """Per transition: whether it misses its symbol's next occurrence after its source."""
    return (targets <= sources) | (text_syms[targets] != syms) | (prev[targets] > sources)


def certify(a: Automaton, text: str) -> str | None:
    """None when the validated single-string automaton ``a`` resolves every
    (state, symbol) cell to the symbol's next occurrence in ``text`` after the
    state, or rejects when there is none, as the greedy oracle does. Else a
    pattern on which the two differ: the text up to the smallest failing
    state, which leads there, then a symbol resolved wrongly there. Each state
    s, with e its default or n, must pass (a): each explicit (s, c, t) has
    s < t, text[t] = c and c's previous occurrence before t at or before s;
    and (b): as many have t <= e as (s, e] holds distinct symbols. Windows
    narrower than the symbols are scanned for them, wider ones take
    ``K.next_after_rows``, the recurrence behind ``K.csr_from_windows``'s wide
    rows, in batches of states from the end of at most ``K._CHUNK``
    transitions, positions and block cells.
    Text symbols outside the alphabet share one id."""
    n, sigma = len(text), len(a.alphabet)
    if a.state_count != n + 1:
        raise ValueError(f"a text of {n} characters needs {n + 1} states, automaton has {a.state_count}")
    codes = a.alphabet.codes(text)
    unknown = codes < 0
    codes[unknown], width = sigma, sigma + int(unknown.any())
    text_syms = np.concatenate([np.full(1, -1, dtype=np.int32), codes])  # the symbol at each position
    prev = K.previous_occurrences(codes, width)  # the symbol's previous position, 0 for none
    ends = np.where(a.defaults >= 0, a.defaults, n).astype(np.int64)
    span = ends - np.arange(n + 1)
    wide = span >= max(width, 1)
    work = np.concatenate([[0], np.cumsum(1 + np.diff(a.offsets) + np.where(wide, width, span))])

    failing, hi = n + 1, n + 1  # the smallest failing state, n + 1 for none
    carry = np.full(width, n + 1, dtype=np.int32)  # next occurrences after state min(hi, n)
    while hi > 0:
        lo = min(hi - 1, int(np.searchsorted(work, work[hi] - K._CHUNK)))
        top = min(hi, n)  # this batch scans positions (lo, top]
        sources = np.repeat(np.arange(lo, hi), np.diff(a.offsets[lo : hi + 1]))
        syms, targets = a.syms[a.offsets[lo] : a.offsets[hi]], a.targets[a.offsets[lo] : a.offsets[hi]]
        bad = sources[_misdirected(sources, syms, targets, text_syms, prev)]  # ascending, as sources
        explicit = np.bincount(sources[targets <= ends[sources]] - lo, minlength=hi - lo)

        narrow = np.flatnonzero(~wide[lo:hi]) + lo
        lens = span[narrow]
        seg = np.cumsum(lens) - lens
        p = np.repeat(narrow + 1 - seg, lens) + np.arange(lens.sum())
        hits = np.concatenate([[0], np.cumsum(prev[p] <= np.repeat(narrow, lens))])
        distinct = np.zeros(hi - lo, dtype=np.int64)
        distinct[narrow - lo] = hits[seg + lens] - hits[seg]

        rows = np.flatnonzero(wide[lo:hi]) + lo
        # the next occurrences after lo, carried to the batch before, and after the wide rows
        block = K.next_after_rows(np.concatenate([[lo], rows]), top, carry, prev, codes)
        carry = block[0]
        distinct[rows - lo] = np.count_nonzero(block[1:] <= ends[rows, None], axis=1)

        failing, hi = min([failing, *bad[:1], *(np.flatnonzero(explicit != distinct)[:1] + lo)]), lo

    if failing > n:
        return None
    s, entries = int(failing), slice(a.offsets[failing], a.offsets[failing + 1])
    syms = a.syms[entries]
    wrong = syms[_misdirected(s, syms, a.targets[entries], text_syms, prev)]
    if wrong.shape[0]:
        return text[:s] + a.alphabet.char(int(wrong[0]))
    # the first position of the window whose symbol s has no transition for
    return text[:s] + text[s + int(np.flatnonzero(~np.isin(text_syms[s + 1 : ends[s] + 1], syms))[0])]
