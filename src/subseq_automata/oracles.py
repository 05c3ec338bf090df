"""Ground-truth oracles and exhaustive equivalence checking.

The oracles answer "is P a subsequence of S" (and the every-string /
some-string variants) by greedy leftmost matching over the raw text, entirely
independent of the automaton builders. ``equivalence_check`` enumerates every
pattern up to a length bound (or a seeded random sample when the pattern space
exceeds the budget) and compares automaton verdicts against an oracle;
``trace_equivalence`` additionally compares the consumed-state sequences of
two automata. Both enumerate breadth-first with vectorized state arrays over
precomputed default-chain-resolved transition tables, which is equivalent to
running each pattern through :func:`subseq_automata.automaton.run`.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .automaton import Automaton, _decode_ids, state_dims

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
        table = np.full((self.n_states, len(chars)), -1, dtype=np.int64)
        for j, ch in enumerate(chars):
            for pos in range(self.n_states):
                idx = self.text.find(ch, pos)
                if idx >= 0:
                    table[pos, j] = idx + 1
        return table


class _ProductOracle:
    """Shared machinery for the every-string / some-string oracles: states are
    per-string greedy positions, mixed-radix encoded."""

    def __init__(self, texts, dead_value: bool):
        self.texts = list(texts)
        self.dims = tuple(len(t) + (2 if dead_value else 1) for t in self.texts)
        self.dead = dead_value
        self.n_states = int(np.prod(self.dims)) if self.dims else 1
        self.initial = 0

    def _encode(self, coords) -> int:
        sid = 0
        for x, d in zip(coords, self.dims):
            sid = sid * d + x
        return sid

    def transition_table(self, chars) -> np.ndarray:
        table = np.full((self.n_states, len(chars)), -1, dtype=np.int64)
        # product() runs the last coordinate fastest: mixed-radix id order
        for sid, coords in enumerate(itertools.product(*map(range, self.dims))):
            for j, ch in enumerate(chars):
                nxt = self._step(coords, ch)
                if nxt is not None:
                    table[sid, j] = self._encode(nxt)
        return table

    def _step(self, coords, ch):
        raise NotImplementedError


class CommonSubsequenceOracle(_ProductOracle):
    """Accepts patterns embeddable in every text."""

    def __init__(self, texts):
        super().__init__(texts, dead_value=False)

    def __call__(self, pattern: str) -> bool:
        return is_common_subsequence(pattern, self.texts)

    def _step(self, coords, ch):
        out = []
        for pos, text in zip(coords, self.texts):
            idx = text.find(ch, pos)
            if idx < 0:
                return None
            out.append(idx + 1)
        return out


class AnySubsequenceOracle(_ProductOracle):
    """Accepts patterns embeddable in at least one text; exhausted texts park
    at a dead coordinate value."""

    def __init__(self, texts):
        super().__init__(texts, dead_value=True)

    def __call__(self, pattern: str) -> bool:
        return is_any_subsequence(pattern, self.texts)

    def _step(self, coords, ch):
        out = []
        alive = False
        for pos, text in zip(coords, self.texts):
            dead = len(text) + 1
            idx = -1 if pos == dead else text.find(ch, pos)
            if idx < 0:
                out.append(dead)
            else:
                out.append(idx + 1)
                alive = True
        return out if alive else None


# ---------------------------------------------------------------------------
# equivalence checking


@dataclass
class Mismatch:
    pattern: str
    automaton_accepts: bool
    oracle_accepts: bool


@dataclass
class EquivalenceReport:
    patterns_checked: int
    mismatches: list[Mismatch]
    max_defaults_per_char: int
    elapsed_seconds: float
    mode: str = "exhaustive"

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


def _pattern_space(n_chars: int, max_len: int) -> int:
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    total = 1
    level = 1
    for _ in range(max_len):
        level *= n_chars
        total += level
    return total


def _resolved_check_tables(a: Automaton, chars):
    """Default-chain-resolved (target, hops) tables restricted to ``chars``;
    characters outside the automaton's alphabet become always-reject columns."""
    table, hops = K.resolved_tables(a.offsets, a.syms, a.targets, a.defaults, len(a.alphabet))
    t_out = np.full((a.state_count, len(chars)), -1, dtype=np.int64)
    h_out = np.zeros((a.state_count, len(chars)), dtype=np.int64)
    for j, ch in enumerate(chars):
        c = a.alphabet.code(ch)
        if c is not None:
            t_out[:, j] = table[:, c]
            h_out[:, j] = hops[:, c]
    return t_out, h_out


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
    oracle is either a tabular incremental oracle (the classes above) or any
    ``pattern -> bool`` callable (slower path).
    """
    chars = list(alphabet)
    if len(set(chars)) != len(chars):
        raise ValueError("check alphabet must not repeat symbols")
    start = time.perf_counter()
    total = _pattern_space(len(chars), max_len)
    sampled = total > budget
    if sampled and sample is None:
        raise EnumerationBudgetError(total, budget)

    t_auto, h_auto = _resolved_check_tables(a, chars)
    tabular = hasattr(oracle, "transition_table")
    t_orac = oracle.transition_table(chars) if tabular else None

    mismatches: list[Mismatch] = []
    max_defaults = 0
    checked = 0

    def compare(auto_states, orac_accepts, level_len, indices):
        nonlocal checked
        checked += len(auto_states)
        bad = np.nonzero((auto_states >= 0) != orac_accepts)[0]
        for b in bad:
            pat = _decode_pattern(int(indices[b]), level_len, chars)
            mismatches.append(Mismatch(pat, bool(auto_states[b] >= 0), bool(orac_accepts[b])))

    if not sampled:
        auto = np.array([a.initial], dtype=np.int64)
        orac = (
            np.array([oracle.initial], dtype=np.int64)
            if tabular
            else np.array([0], dtype=np.int64)
        )
        indices = np.array([0], dtype=np.int64)
        patterns = [""]
        for length in range(max_len + 1):
            if tabular:
                orac_accepts = orac >= 0
            else:
                orac_accepts = np.fromiter(
                    (bool(oracle(p)) for p in patterns), dtype=bool, count=len(patterns)
                )
            compare(auto, orac_accepts, length, indices)
            if length == max_len:
                break
            prev = np.maximum(auto, 0)
            new_auto = np.where(auto[:, None] >= 0, t_auto[prev], -1).ravel()
            hops = np.where(
                (auto[:, None] >= 0) & (t_auto[prev] >= 0), h_auto[prev], 0
            ).ravel()
            if hops.size:
                max_defaults = max(max_defaults, int(hops.max()))
            if tabular:
                prev_o = np.maximum(orac, 0)
                orac = np.where(orac[:, None] >= 0, t_orac[prev_o], -1).ravel()
            else:
                patterns = [p + c for p in patterns for c in chars]
            auto = new_auto
            indices = (indices[:, None] * len(chars) + np.arange(len(chars))).ravel()
        mode = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, max_len + 1, size=sample)
        symbols = rng.integers(0, len(chars), size=(sample, max_len))
        auto = np.full(sample, a.initial, dtype=np.int64)
        orac = np.full(sample, oracle.initial if tabular else 0, dtype=np.int64)
        for col in range(max_len):
            active = (lengths > col) & (auto >= 0)
            sel = symbols[:, col]
            nxt = t_auto[np.maximum(auto, 0), sel]
            hops = h_auto[np.maximum(auto, 0), sel]
            good = active & (nxt >= 0)
            if good.any():
                max_defaults = max(max_defaults, int(hops[good].max()))
            auto = np.where(active, nxt, auto)
            if tabular:
                o_active = (lengths > col) & (orac >= 0)
                o_nxt = t_orac[np.maximum(orac, 0), sel]
                orac = np.where(o_active, o_nxt, orac)
        pats = [
            "".join(chars[symbols[i, j]] for j in range(lengths[i])) for i in range(sample)
        ]
        if tabular:
            orac_accepts = orac >= 0
        else:
            orac_accepts = np.fromiter((bool(oracle(p)) for p in pats), dtype=bool, count=sample)
        checked = sample
        bad = np.nonzero((auto >= 0) != orac_accepts)[0]
        for b in bad:
            mismatches.append(Mismatch(pats[b], bool(auto[b] >= 0), bool(orac_accepts[b])))
        mode = "sampled"

    return EquivalenceReport(
        patterns_checked=checked,
        mismatches=mismatches,
        max_defaults_per_char=max_defaults,
        elapsed_seconds=time.perf_counter() - start,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# trace equivalence


@dataclass
class TraceCheck:
    equal: bool
    counterexample: str | None
    patterns_checked: int


def _state_coords(a: Automaton) -> np.ndarray:
    dims = state_dims(a.meta)
    ids = np.arange(a.state_count, dtype=np.int64)
    if dims is None:
        return ids.reshape(-1, 1)
    return _decode_ids(ids, dims)


def trace_equivalence(
    a1: Automaton,
    a2: Automaton,
    alphabet,
    max_len: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> TraceCheck:
    """Check that both automata accept the same patterns and, on accepted
    patterns, consume through identical states (compared as decoded
    coordinates for product automata).

    Because every built state is accepting, matching the state after each
    consumed prefix is exactly matching consumed_targets of run().
    """
    chars = list(alphabet)
    total = _pattern_space(len(chars), max_len)
    if total > budget:
        raise EnumerationBudgetError(total, budget)
    t1, _ = _resolved_check_tables(a1, chars)
    t2, _ = _resolved_check_tables(a2, chars)
    c1 = _state_coords(a1)
    c2 = _state_coords(a2)
    if c1.shape[1] != c2.shape[1]:
        raise ValueError("automata have incomparable state spaces")

    s1 = np.array([a1.initial], dtype=np.int64)
    s2 = np.array([a2.initial], dtype=np.int64)
    indices = np.array([0], dtype=np.int64)
    checked = 0
    for length in range(max_len + 1):
        checked += len(s1)
        alive1 = s1 >= 0
        alive2 = s2 >= 0
        disagree = alive1 != alive2
        both = alive1 & alive2
        if length > 0 and both.any():
            rows = np.nonzero(both)[0]
            diff = np.any(c1[s1[rows]] != c2[s2[rows]], axis=1)
            if diff.any():
                first = rows[np.nonzero(diff)[0][0]]
                return TraceCheck(False, _decode_pattern(int(indices[first]), length, chars), checked)
        if disagree.any():
            first = np.nonzero(disagree)[0][0]
            return TraceCheck(False, _decode_pattern(int(indices[first]), length, chars), checked)
        if length == max_len:
            break
        s1 = np.where(s1[:, None] >= 0, t1[np.maximum(s1, 0)], -1).ravel()
        s2 = np.where(s2[:, None] >= 0, t2[np.maximum(s2, 0)], -1).ravel()
        indices = (indices[:, None] * len(chars) + np.arange(len(chars))).ravel()
    return TraceCheck(True, None, checked)
