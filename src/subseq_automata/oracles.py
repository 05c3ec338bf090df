"""Ground-truth oracles and exhaustive equivalence checking.

The oracles answer "is P a subsequence of S" (and the every-string /
some-string variants) by greedy leftmost matching over the raw text, entirely
independent of the automaton builders. Every automaton consumes a pattern into
the state of its leftmost embedding, and the tabular oracles number states as
the automata do, so they are also the trace reference. ``equivalence_check``
enumerates every pattern up to a length bound (or a seeded random sample when
the pattern space exceeds the budget) and compares verdicts and, with a
tabular oracle or a second automaton as the reference, consumed states;
``trace_equivalence`` is the same walk with a second automaton as the
reference. It walks all patterns of one length at a time, as a frontier of
state arrays. An automaton's frontier advances by binary search over its CSR
keys, one search per default hop, which is equivalent to running each pattern
through :func:`subseq_automata.automaton.run` without any (state × symbol)
table. A tabular oracle's frontier advances through its ``transition_table``.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .automaton import Automaton, _decode_ids, _encode_ids

DEFAULT_ENUM_BUDGET = 2_000_000


class EnumerationBudgetError(RuntimeError):
    """Pattern space exceeds the enumeration budget and sampling is off."""

    def __init__(self, patterns: int, budget: int):
        super().__init__(
            f"enumerating {patterns} patterns exceeds the budget of {budget}; "
            f"pass a sample size to check a random subset"
        )
        self.patterns = patterns
        self.budget = budget


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
        self.n_states = len(text) + 1
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
        self.n_states = 1 + math.prod(self.dims)
        self.initial = 0

    def transition_table(self, chars) -> np.ndarray:
        """``[state, j]``: the state after consuming ``chars[j]``, -1 if absent.

        Each coordinate steps like its text's greedy oracle. Common mode needs
        every coordinate to step; any mode parks a coordinate that cannot at
        its dead value n_i+1 and needs at least one to step.
        """
        coords = _decode_ids(np.arange(self.n_states), self.dims)
        nxt = np.empty((len(self.texts), self.n_states, len(chars)), dtype=np.int64)
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
    pattern, in check order, that the automaton and a tabular oracle both
    accept through differing states (None when there is none, or when the
    oracle is a plain callable)."""

    patterns_checked: int
    mismatches: list[Mismatch]
    max_defaults_per_char: int
    elapsed_seconds: float
    mode: str = "exhaustive"
    trace_counterexample: str | None = None

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
    if len(set(chars)) != len(chars):
        raise ValueError("check alphabet must not repeat symbols")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    total = 1
    level = 1
    for _ in range(max_len):
        level *= len(chars)
        total += level
    return total


def _frontier_step(a: Automaton, chars):
    """``step(states, js)`` advances (state, check-symbol index) pairs of ``a``.

    It returns each pair's target (-1 when rejected; state -1 stays
    rejected) and the defaults crossed before the consuming transition (0
    when rejected). The CSR is sorted by the global key ``state * sigma +
    symbol``, as ``_kernels.csr_from_windows`` and ``multi._keys_to_csr``
    emit it, so one searchsorted per default hop advances the whole frontier.
    Defaults point forward, so the hops end within the longest default chain.
    """
    sigma = len(a.alphabet)
    # one sentinel key past the last state keeps every search index in range
    counts = np.append(np.diff(a.offsets), 1)
    keys = np.repeat(np.arange(a.state_count + 1, dtype=np.int64) * sigma, counts)
    keys[:-1] += a.syms
    codes = np.array([a.alphabet.index.get(ch, -1) for ch in chars], dtype=np.int64)

    def step(states, js):
        targets = np.full(len(states), -1, dtype=np.int64)
        hops = np.zeros(len(states), dtype=np.int64)
        syms = codes[js]
        pending = np.flatnonzero((states >= 0) & (syms >= 0))
        cur, syms = states[pending], syms[pending]
        crossed = 0
        while pending.size:
            query = cur * sigma + syms
            at = np.searchsorted(keys, query)
            hit = keys[at] == query
            targets[pending[hit]] = a.targets[at[hit]]
            hops[pending[hit]] = crossed
            miss = ~hit
            nxt = a.defaults[cur[miss]].astype(np.int64)
            more = nxt >= 0
            pending, cur, syms = pending[miss][more], nxt[more], syms[miss][more]
            crossed += 1
        return targets, hops

    return step


def _breadth_first(steps, initials, n_chars: int, max_len: int):
    """Every pattern over ``n_chars`` check symbols up to ``max_len``, one
    length at a time. Yields ``(length, states)``: ``states[w]`` holds walker
    ``w``'s state after each pattern of that length (-1 once rejected), the
    i-th pattern being the one whose base-``n_chars`` digits spell i. Each
    ``steps[w](states, js)`` returns the walker's next states."""
    states = [np.array([s], dtype=np.int64) for s in initials]
    yield 0, states
    for length in range(1, max_len + 1):
        js = np.tile(np.arange(n_chars), len(states[0]))
        states = [step(np.repeat(s, n_chars), js) for step, s in zip(steps, states)]
        yield length, states


def _decode_pattern(index: int, length: int, chars) -> str:
    digits = []
    for _ in range(length):
        index, d = divmod(index, len(chars))
        digits.append(chars[d])
    return "".join(reversed(digits))


def equivalence_check(
    a: Automaton,
    oracle,
    alphabet,
    max_len: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
    sample: int | None = None,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare the automaton's verdict with the oracle's on every pattern over
    ``alphabet`` of length <= ``max_len``.

    When the pattern space exceeds ``budget``, a ``sample``-sized seeded
    random subset is checked instead (refused if ``sample`` is None). The
    oracle is a tabular incremental oracle (the classes above) or a second
    automaton, whose states are then also compared with the automaton's on
    every checked prefix, or any ``pattern -> bool`` callable (slower path,
    verdicts only). A tabular oracle or automaton over a different number of
    states than ``a`` raises ``ValueError``.
    """
    return _compare(a, oracle, list(alphabet), max_len, budget, sample, seed)


@dataclass
class TraceCheck:
    equal: bool
    counterexample: str | None
    patterns_checked: int


def trace_equivalence(
    a1: Automaton,
    a2: Automaton,
    alphabet,
    max_len: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> TraceCheck:
    """Check that both automata accept the same patterns and, on accepted
    patterns, consume through identical states: the exhaustive walk of
    :func:`equivalence_check` with ``a2`` as the oracle. The counterexample is
    a shortest failing pattern; at that length, one consumed through
    differing states outranks one with differing verdicts.

    Because every state accepts, matching the state after each consumed
    prefix is exactly matching consumed_targets of run().
    """
    report = _compare(a1, a2, list(alphabet), max_len, budget, None, 0)
    first = (report.trace_counterexample, *(m.pattern for m in report.mismatches[:1]))
    failing = [p for p in first if p is not None]
    return TraceCheck(not failing, min(failing, key=len, default=None), report.patterns_checked)


def _compare(a: Automaton, oracle, chars, max_len, budget, sample, seed) -> EquivalenceReport:
    """The one walk behind :func:`equivalence_check` and
    :func:`trace_equivalence`."""
    start = time.perf_counter()
    total = _pattern_space(chars, max_len)
    sampled = total > budget
    if sampled and sample is None:
        raise EnumerationBudgetError(total, budget)

    step = _frontier_step(a, chars)
    max_defaults = 0

    def auto_step(states, js):
        nonlocal max_defaults
        targets, hops = step(states, js)
        max_defaults = max(max_defaults, int(hops.max(initial=0)))
        return targets

    steps, initials = [auto_step], [a.initial]
    reference = isinstance(oracle, Automaton)
    tabular = reference or hasattr(oracle, "transition_table")
    if tabular:
        n_states = oracle.state_count if reference else oracle.n_states
        if n_states != a.state_count:
            raise ValueError(f"oracle has {n_states} states, automaton {a.state_count}: not the same texts")
        if reference:
            ref_step = _frontier_step(oracle, chars)
            steps.append(lambda states, js: ref_step(states, js)[0])
        else:
            table = oracle.transition_table(chars)
            steps.append(lambda states, js: np.where(states >= 0, table[np.maximum(states, 0), js], -1))
        initials.append(oracle.initial)

    def mismatches_of(states, pattern_of) -> list[Mismatch]:
        """``pattern_of(i)`` spells the pattern that led to ``states[w][i]``."""
        auto = states[0]
        if tabular:
            accepts = states[1] >= 0
        else:
            verdicts = (bool(oracle(pattern_of(i))) for i in range(len(auto)))
            accepts = np.fromiter(verdicts, dtype=bool, count=len(auto))
        bad = np.flatnonzero((auto >= 0) != accepts)
        return [Mismatch(pattern_of(int(b)), bool(auto[b] >= 0), bool(accepts[b])) for b in bad]

    def differ(states) -> np.ndarray:
        """Walkers that both sides accept through differing states."""
        if not tabular:
            return np.zeros(len(states[0]), dtype=bool)
        return (states[0] >= 0) & (states[1] >= 0) & (states[0] != states[1])

    mismatches: list[Mismatch] = []
    trace = None
    if not sampled:
        checked = 0
        for length, states in _breadth_first(steps, initials, len(chars), max_len):
            checked += len(states[0])
            mismatches += mismatches_of(states, lambda i, length=length: _decode_pattern(i, length, chars))
            bad = np.flatnonzero(differ(states))
            if trace is None and bad.size:
                trace = _decode_pattern(int(bad[0]), length, chars)
        mode = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, max_len + 1, size=sample)
        symbols = rng.integers(0, len(chars), size=(sample, max_len))

        def spell(i, length) -> str:
            return "".join(chars[j] for j in symbols[i, :length])

        states = [np.full(sample, s, dtype=np.int64) for s in initials]
        diverged = np.zeros(sample, dtype=np.int64)  # prefix length where the states first differ
        for col in range(max_len):
            active = lengths > col
            for w, walker in enumerate(steps):
                states[w][active] = walker(states[w][active], symbols[active, col])
            diverged[(diverged == 0) & active & differ(states)] = col + 1
        checked = sample
        mismatches = mismatches_of(states, lambda i: spell(i, lengths[i]))
        first = np.flatnonzero(diverged)[:1]
        trace = spell(first[0], diverged[first[0]]) if first.size else None
        mode = "sampled"

    return EquivalenceReport(
        patterns_checked=checked,
        mismatches=mismatches,
        max_defaults_per_char=max_defaults,
        elapsed_seconds=time.perf_counter() - start,
        mode=mode,
        trace_counterexample=trace,
    )
