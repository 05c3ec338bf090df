"""Ground-truth oracles and exhaustive equivalence checking.

The oracles answer "is P a subsequence of S" (and the every-string /
some-string variants) by greedy leftmost matching over the raw text, entirely
independent of the automaton builders. Every automaton consumes a pattern into
the state of its leftmost embedding, and the tabular oracles number states as
the automata do, so they are also the trace reference.

``equivalence_check`` and ``trace_equivalence`` consume one walk over every
pattern up to a length bound, through the automaton and a reference: a
tabular oracle or a second automaton over as many states. Both compare
verdicts and consumed states. The walk covers all patterns of one length at a
time, as a frontier of state arrays. An automaton's frontier advances from
the rows of its distinct live states, each resolved once over the check
symbols by :func:`subseq_automata._kernels.resolved_tables` and expanded back
to the patterns: the same states as running each pattern through
:func:`subseq_automata.automaton.run`, without a table over every state. A
tabular oracle's frontier advances through its ``transition_table``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .automaton import Automaton, _decode_ids, _encode_ids

ENUM_BUDGET = 2_000_000
# Pattern spaces are counted exactly up to this size; a larger one is "more
# than SPACE_CAP" patterns.
SPACE_CAP = 2**63


class EnumerationBudgetError(RuntimeError):
    """The pattern space to enumerate exceeds :data:`ENUM_BUDGET`.

    ``patterns`` is its size, or ``SPACE_CAP + 1`` for any size above
    :data:`SPACE_CAP`; ``count`` spells it out ("more than ..." for the latter).
    """

    def __init__(self, patterns: int, budget: int):
        self.patterns = patterns
        self.budget = budget
        self.count = f"more than {SPACE_CAP}" if patterns > SPACE_CAP else str(patterns)
        super().__init__(f"enumerating {self.count} patterns exceeds the budget of {budget}")


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


def is_subsequence_dp(p: str, s: str) -> bool:
    """Independent check: longest matched prefix of ``p`` via dynamic
    programming over text positions. Guards against a buggy greedy oracle."""
    matched = 0
    best = [0] * (len(s) + 1)
    for i, ch in enumerate(s, 1):
        best[i] = best[i - 1]
        if best[i - 1] == matched and matched < len(p) and ch == p[matched]:
            matched += 1
            best[i] = matched
    return best[len(s)] == len(p)


def is_common_subsequence(p: str, texts) -> bool:
    return all(is_subsequence(p, s) for s in texts)


def is_any_subsequence(p: str, texts) -> bool:
    return any(is_subsequence(p, s) for s in texts)


class GreedySubsequenceOracle:
    """Incremental greedy oracle; state = number of text positions consumed."""

    def __init__(self, text: str):
        self.text = text
        self.state_count = len(text) + 1
        self.initial = 0

    def __call__(self, pattern: str) -> bool:
        return is_subsequence(pattern, self.text)

    def transition_table(self, chars) -> np.ndarray:
        """``[state, j]``: the state after consuming ``chars[j]``, -1 if absent.
        Distinct ``chars`` get a view of one (n+1)-row next-occurrence table
        over them plus one column for the text's other symbols."""
        column = {ch: j for j, ch in enumerate(dict.fromkeys(chars))}
        other = len(column)
        codes = np.fromiter((column.get(ch, other) for ch in self.text), dtype=np.int64, count=len(self.text))
        table = K.next_occurrence_table(codes, other + 1)
        return table[:, :other] if len(chars) == other else table[:, [column[ch] for ch in chars]]


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

    def transition_table(self, chars) -> np.ndarray:
        """``[state, j]``: the state after consuming ``chars[j]``, -1 if absent.

        Each coordinate steps like its text's greedy oracle. Common mode needs
        every coordinate to step; any mode parks a coordinate that cannot at
        its dead value n_i+1 and needs at least one to step.
        """
        coords = _decode_ids(np.arange(self.state_count), self.dims)
        nxt = np.empty((len(self.texts), self.state_count, len(chars)), dtype=np.int64)
        for i, text in enumerate(self.texts):
            greedy = GreedySubsequenceOracle(text).transition_table(chars)
            # row n_i+1, reached only by a dead coordinate, steps nowhere
            nxt[i] = np.vstack([greedy, np.full(len(chars), -1)])[coords[:, i]]
        found = nxt >= 0
        # a coordinate that cannot step parks at dims[i]: in any mode, the dead value n_i+1
        nxt = np.where(found, nxt, np.reshape(self.dims, (-1, 1, 1)))
        stepped = found.any(axis=0) if self.dead else found.all(axis=0)
        return np.where(stepped, _encode_ids(np.moveaxis(nxt, 0, -1), self.dims), -1)


class CommonSubsequenceOracle(_ProductOracle):
    """Accepts patterns embeddable in every text."""

    def __init__(self, texts):
        super().__init__(texts, dead_value=False)

    def __call__(self, pattern: str) -> bool:
        return is_common_subsequence(pattern, self.texts)


class AnySubsequenceOracle(_ProductOracle):
    """Accepts patterns embeddable in at least one text; exhausted texts park
    at a dead coordinate value."""

    def __init__(self, texts):
        super().__init__(texts, dead_value=True)

    def __call__(self, pattern: str) -> bool:
        return is_any_subsequence(pattern, self.texts)


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


def _pattern_space(chars, max_len: int) -> int:
    """Patterns over ``chars`` of length <= ``max_len``, or ``SPACE_CAP + 1``
    when there are more than :data:`SPACE_CAP`."""
    if len(set(chars)) != len(chars):
        raise ValueError("check alphabet must not repeat symbols")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    sigma = len(chars)
    if sigma <= 1:
        return min(1 + sigma * max_len, SPACE_CAP + 1)
    total = level = 1
    # with two or more symbols this returns within 64 lengths
    for _ in range(max_len):
        level *= sigma
        total += level
        if total > SPACE_CAP:
            return SPACE_CAP + 1
    return total


def _automaton_step(a: Automaton, chars):
    """``step(states)`` advances a frontier of ``a``'s states (-1 once
    rejected) by every symbol of ``chars``.

    It returns the next frontier, entry ``i * len(chars) + j`` for
    ``states[i]`` and ``chars[j]`` (-1 when rejected), and the most defaults
    crossed before a consuming transition. Each distinct live state's row is
    resolved once, by :func:`subseq_automata._kernels.resolved_tables`.
    """
    columns = np.full(len(a.alphabet), -1, dtype=np.int64)
    for j, ch in enumerate(chars):
        code = a.alphabet.code(ch)
        if code is not None:
            columns[code] = j
    width = len(chars)

    def step(states):
        distinct, inverse = np.unique(states, return_inverse=True)
        dead = int(np.searchsorted(distinct, 0))  # 1 when -1 (sorted first) is there
        rows, hops = K.resolved_tables(a.offsets, a.syms, a.targets, a.defaults, distinct[dead:], columns, width)
        if dead:
            rows = np.vstack([np.full((1, width), -1, dtype=rows.dtype), rows])
        return rows[inverse].reshape(-1), int(hops.max(initial=0))

    return step


def _decode_pattern(index: int, length: int, chars) -> str:
    digits = []
    for _ in range(length):
        index, d = divmod(index, len(chars))
        digits.append(chars[d])
    return "".join(reversed(digits))


def _walk(a: Automaton, reference, chars, max_len: int):
    """Every pattern over ``chars`` up to ``max_len``, one length at a time,
    through ``a`` and through ``reference`` (a tabular oracle or a second
    automaton over as many states).

    Yields ``(length, states, reference_states, max_hops)``: entry i of each
    state array is the state after the pattern whose base-``len(chars)``
    digits spell i (-1 once rejected), and ``max_hops`` is the most defaults
    ``a`` crossed before consuming one character at that length.
    """
    total = _pattern_space(chars, max_len)
    if total > ENUM_BUDGET:
        raise EnumerationBudgetError(total, ENUM_BUDGET)
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
        table = reference.transition_table(chars)

        def ref_step(states):
            return np.where(states[:, None] >= 0, table[np.maximum(states, 0)], -1).reshape(-1)

    states = np.array([a.initial], dtype=np.int64)
    ref = np.array([reference.initial], dtype=np.int64)
    yield 0, states, ref, 0
    for length in range(1, max_len + 1):
        states, hops = step(states)
        ref = ref_step(ref)
        yield length, states, ref, hops


def _diverged(states, ref) -> np.ndarray:
    """Indices of the patterns both sides accept through differing states."""
    return np.flatnonzero((states >= 0) & (ref >= 0) & (states != ref))


def equivalence_check(a: Automaton, oracle, alphabet, max_len: int) -> EquivalenceReport:
    """Compare the automaton's verdict and consumed state with the oracle's on
    every pattern over ``alphabet`` of length <= ``max_len``.

    The oracle is a tabular oracle (the classes above) or a second automaton;
    one over a different number of states than ``a`` raises ``ValueError``,
    and a pattern space over :data:`ENUM_BUDGET` raises
    :class:`EnumerationBudgetError`.
    """
    chars = list(alphabet)
    checked, max_defaults, mismatches, trace = 0, 0, [], None
    for length, states, ref, hops in _walk(a, oracle, chars, max_len):
        checked += len(states)
        max_defaults = max(max_defaults, hops)
        accepts = states >= 0
        for b in np.flatnonzero(accepts != (ref >= 0)).tolist():
            mismatches.append(Mismatch(_decode_pattern(b, length, chars), bool(accepts[b]), bool(ref[b] >= 0)))
        diverged = _diverged(states, ref)
        if trace is None and diverged.size:
            trace = _decode_pattern(int(diverged[0]), length, chars)
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
    checked, counterexample = 0, None
    for length, states, ref, _ in _walk(a1, a2, chars, max_len):
        checked += len(states)
        if counterexample is None:
            failing = _diverged(states, ref)
            if not failing.size:
                failing = np.flatnonzero((states >= 0) != (ref >= 0))
            if failing.size:
                counterexample = _decode_pattern(int(failing[0]), length, chars)
    return TraceCheck(counterexample is None, counterexample, checked)
