"""Ground-truth oracles, the certificate and complete equivalence checking.

The oracles answer "is P a subsequence of S" (and the every-string /
some-string variants) by greedy leftmost matching, independent of the
builders. Every automaton consumes a pattern into the state of its leftmost
embedding, and the tabular oracles number states as the automata do.

:func:`certify`, all that ``subseqa verify`` runs, checks an automaton of
N >= 1 texts in every state, reachable or not, against the oracle of its mode,
locally and without a walk: a certifying check (McConnell, Mehlhorn, Näher
and Schweitzer, Computer Science Review 5(2), 2011) over the next-occurrence
semantics (Baeza-Yates, *Searching subsequences*, TCS 78, 1991).

``equivalence_check`` and ``trace_equivalence`` walk an automaton next to a
tabular oracle or a second automaton, comparing verdicts and states, once per
distinct pair of states and pattern length, in the order of the first pattern
reaching it, while either side is alive (Hopcroft and Karp's pair walk). A
bound past the longest path covers every pattern. An automaton's rows come
from ``K.step_cells`` over :attr:`Automaton.key`, an oracle's from its
``step``; patterns are spelled only when reported.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from . import multi
from .automaton import Automaton, _code_point_table, _decode_ids, _digits, _look_up_code_points, state_dims
from .variants import VARIANTS


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
        """``step(states, columns=None)`` advances product states (-1 once
        rejected) by every symbol of ``chars``, laid out as
        :meth:`GreedySubsequenceOracle.step`'s; with ``columns``, entry i is
        the state after ``states[i]`` and ``chars[columns[i]]`` alone.

        Each coordinate steps like its text's greedy oracle. Common mode needs
        every one to step; any mode parks one that cannot at its dead value
        n_i+1 and needs one to step. A next id is 1 plus a contribution
        (next - 1)·stride per coordinate (``automaton._encode_ids``), tabled
        per text and coordinate value (0 for the origin; row n_i also serves
        the dead value). One that cannot step adds -state_count in common
        mode, and in any mode its dead value's: the all-dead id is stuck."""
        return self._step(map(_next_occurrences_over(chars), self.texts), len(chars))

    def _step(self, tables, width):
        """:meth:`step` from each text's next-occurrence table over ``width`` columns (n+1: none)."""
        if 0 in self.dims:  # an empty text in common mode: only the origin, which steps nowhere
            return lambda states, columns=None: np.full(states.shape[0] * (width if columns is None else 1), -1)
        contributions = []
        for i, (table, dim) in enumerate(zip(tables, self.dims)):
            n, stride = len(self.texts[i]), math.prod(self.dims[i + 1 :])
            c = np.empty((dim + 1, width), dtype=np.int64)
            c[: n + 1], c[n + 1 :] = table, table[n]  # the dead value n + 1 reads row n
            c -= 1
            c *= stride
            c[c >= n * stride] = (dim - 1) * stride if self.dead else -self.state_count  # none: n + 1
            contributions.insert(0, c)  # last text first, as ``_digits`` yields coordinates

        def step(states, columns=None):
            x = states.astype(np.int64) - 1
            inner = x >= 0  # the origin and rejected states read row 0
            ids = 1
            for contribution, digit in zip(contributions, _digits(x, self.dims)):
                digit *= inner
                ids = ids + (contribution[digit] if columns is None else contribution.take(digit * width + columns))
            ids = np.where(ids == self.state_count - 1 if self.dead else ids < 0, -1, ids)
            ids[x < -1] = -1
            return ids.reshape(-1)

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
# the certificate


def certify(a: Automaton, *texts: str):
    """None when the validated automaton ``a`` of the N >= 1 ``texts``
    resolves every (state, symbol) cell of every state, reachable or not, as
    the greedy oracle of its mode steps. Else a counterexample from the
    smallest failing state s and a symbol it resolves wrongly: the pattern
    text[:s] + symbol for one text; for more, (s, symbol), as s may be
    unreachable. Other texts than the automaton's raise ``ValueError``.

    Defaults point forward, so by induction over descending states every
    cell resolves so iff each state x passes (a): each explicit transition
    is the oracle's step; and (b): x has one for each symbol of R(x), those
    of its live windows (x_i, min(e_i, n_i)], e its default (n without one),
    in common mode only those occurring after every x_i. Only these rules
    depend on N; batches of states from the end (at most ``K._CHUNK``
    transitions and cells), the failing-state search and the report do not;
    each batch is checked once, and rule (b) hands it down a carry."""
    lengths, built = [len(t) for t in texts], list(a.meta.get("lengths", [a.state_count - 1]))
    if lengths != built:
        raise ValueError(
            f"a text of {lengths[0]} characters needs {lengths[0] + 1} states, automaton has {a.state_count}"
            if len(lengths) == len(built) == 1 else f"texts of lengths {lengths}, automaton built from lengths {built}"
        )
    cells, misdirected, short, missing, carry = (_text_rules if len(texts) == 1 else _product_rules)(a, *texts)
    work = np.zeros(a.state_count + 1, dtype=np.int64)
    np.cumsum(cells, out=work[1:])
    work += a.offsets
    del cells

    failing = hi = a.state_count  # the smallest failing state, state_count for none
    while hi > 0:
        lo = min(hi - 1, int(np.searchsorted(work, work[hi] - K._CHUNK)))
        sources = np.repeat(np.arange(lo, hi), np.diff(a.offsets[lo : hi + 1]))
        syms, targets = a.syms[a.offsets[lo] : a.offsets[hi]], a.targets[a.offsets[lo] : a.offsets[hi]]
        bad = sources[misdirected(sources, syms, targets)]  # ascending, as sources
        unresolved, carry = short(lo, hi, carry, sources, syms, targets)  # takes the carry of batch hi.., gives lo's
        failing, hi = min([failing, *bad[:1], *(np.flatnonzero(unresolved)[:1] + lo)]), lo

    if failing == a.state_count:
        return None
    s, entries = int(failing), slice(a.offsets[failing], a.offsets[failing + 1])
    syms = a.syms[entries]
    wrong = syms[misdirected(np.full(syms.shape[0], s), syms, a.targets[entries])]
    symbol = a.alphabet.symbols[wrong[0]] if wrong.shape[0] else missing(s, syms)
    return texts[0][:s] + symbol if len(texts) == 1 else (s, symbol)


def _text_rules(a: Automaton, text: str):
    """:func:`certify`'s cells and rules on one text. (a): each (s, c, t) has
    s < t, text[t] = c and c's previous occurrence at or before s. (b): as
    many transitions have t <= e as (s, e] has distinct symbols, scanned for
    in narrow windows; wider ones take ``K.next_after_rows``, the carry being
    the next occurrences after the batch after. Unknown symbols share an id."""
    n, sigma = len(text), len(a.alphabet)
    codes = a.alphabet.codes(text)
    unknown = codes < 0
    codes[unknown], width = sigma, sigma + int(unknown.any())
    text_syms = np.concatenate([np.full(1, -1, dtype=np.int32), codes])  # the symbol at each position
    prev = K.previous_occurrences(codes, width)  # the symbol's previous position, 0 for none
    ends = np.where(a.defaults >= 0, a.defaults, n).astype(np.int64)
    span = ends - np.arange(n + 1)
    wide = span >= max(width, 1)
    def misdirected(sources, syms, targets):
        return (targets <= sources) | (text_syms[targets] != syms) | (prev[targets] > sources)

    def short(lo, hi, carry, sources, syms, targets):
        explicit = np.bincount(sources[targets <= ends[sources]] - lo, minlength=hi - lo)
        narrow = np.flatnonzero(~wide[lo:hi]) + lo
        lens = span[narrow]
        p, seg = _window_positions(narrow, lens)
        hits = np.concatenate([[0], np.cumsum(prev[p] <= np.repeat(narrow, lens))])
        distinct = np.zeros(hi - lo, dtype=np.int64)
        distinct[narrow - lo] = hits[seg + lens] - hits[seg]

        rows = np.flatnonzero(wide[lo:hi]) + lo
        # the next occurrences after lo, carried to the batch before, and after the wide rows
        block = K.next_after_rows(np.concatenate([[lo], rows]), min(hi, n), carry, prev, codes)
        distinct[rows - lo] = np.count_nonzero(block[1:] <= ends[rows, None], axis=1)
        return explicit != distinct, block[0]

    def missing(s, syms):  # the first position of the window whose symbol s has no transition for
        return text[s + int(np.flatnonzero(~np.isin(text_syms[s + 1 : ends[s] + 1], syms))[0])]

    return 1 + np.where(wide, width, span), misdirected, short, missing, np.full(width, n + 1, dtype=np.int32)


def _product_rules(a: Automaton, *texts: str):
    """:func:`certify`'s cells and rules on N >= 2 texts, over one
    next-occurrence table per text, with a column per symbol of theirs. (a)
    is the step of the product oracle of the automaton's mode. (b) takes R(x)
    from ``multi._window_cells`` where x's windows span >= width positions,
    else scans them; a mask row counts as width / 32 cells (32·_CHUNK bytes)."""
    lengths, dims = [len(t) for t in texts], state_dims(a.meta)
    dead = VARIANTS[a.meta["variant"]].mode == "any"
    columns = [*a.alphabet.symbols, *sorted(set().union(*texts).difference(a.alphabet.symbols))]
    width, lookup = len(columns), _code_point_table(dict(zip(columns, range(len(columns)))), -1)
    codes = [_look_up_code_points(lookup, t) for t in texts]
    tables = [K.next_occurrence_table(c, width) for c in codes]
    step = _ProductOracle(texts, dead)._step(tables, width)  # the alphabet's symbols are the first columns

    def misdirected(sources, syms, targets):
        return step(sources, syms) != targets

    def windows(lo, hi):  # per text: states lo..hi-1's coordinates, window ends and spans
        d = a.defaults[lo:hi]
        x = _decode_ids(np.arange(lo, hi), dims).T.copy()
        ends = np.minimum(np.where((d < 0)[:, None], lengths, _decode_ids(d, dims)), lengths).T.copy()
        return x, ends, np.maximum(ends - x, 0)  # no default: the remainders; a dead coordinate's is empty

    def short(lo, hi, carry, sources, syms, targets):
        x, ends, span = windows(lo, hi)
        wide = span.sum(axis=0) >= width
        explicit = np.zeros((hi - lo, width), dtype=bool)  # the symbols each state has a transition for
        explicit.reshape(-1)[(sources - lo) * width + syms] = True
        out = np.zeros(hi - lo, dtype=bool)
        out[wide] = (multi._window_cells(tables, x[:, wide], ends[:, wide], lengths, dead)[1] > explicit[wide]).any(axis=1)
        rows = np.flatnonzero(~wide)
        for text_codes, x_i, span_i in zip(codes, x, span):  # each position's symbol, where no transition takes it
            owner = np.repeat(rows, span_i[rows])
            c = text_codes[_window_positions(x_i[rows], span_i[rows])[0] - 1]
            missed = ~explicit.reshape(-1).take(owner * width + c)
            for table, x_j, n in (() if dead else zip(tables, x, lengths)):  # and every text still holds it
                missed &= table.take(x_j.take(owner) * width + c) <= n
            out[owner[missed]] = True
        return out, carry

    def missing(s, syms):  # the first symbol of R(s) that s has no transition for
        emit = multi._window_cells(tables, *windows(s, s + 1)[:2], lengths, dead)[1][0]
        emit[syms] = False
        return columns[int(np.flatnonzero(emit)[0])]

    cells = np.empty(a.state_count, dtype=np.int64)  # the positions a state scans, or its cells when wide
    for lo in range(0, a.state_count, 1 << 13):
        cells[lo : lo + (1 << 13)] = windows(lo, min(lo + (1 << 13), a.state_count))[2].sum(axis=0)
    cells[cells >= width] = len(texts) * width
    np.maximum(cells, width // 32, out=cells)
    return cells + 1, misdirected, short, missing, None


def _window_positions(starts, lens):
    """The positions of the windows (starts[j], starts[j] + lens[j]], in order, and where each begins."""
    seg = np.cumsum(lens) - lens
    return np.repeat(starts + 1 - seg, lens) + np.arange(lens.sum()), seg
