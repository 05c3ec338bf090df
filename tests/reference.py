"""Reference definitions that only the tests use: independent statements of
what the package's kernels compute, kept out of the package."""

import math
from dataclasses import dataclass

import numpy as np

from subseq_automata import _kernels as K
from subseq_automata.automaton import (
    Alphabet,
    Automaton,
    DocumentError,
    ParameterError,
    ValidationReport,
    _digits,
    _encode_ids,
    _product_forward,
    _sym_repr,
    assemble,
    state_dims,
)
from subseq_automata.multi import DEFAULT_STATE_BUDGET, _product
from subseq_automata.oracles import (
    AnySubsequenceOracle,
    CommonSubsequenceOracle,
    EquivalenceReport,
    GreedySubsequenceOracle,
    Mismatch,
    TraceCheck,
    _automaton_step,
    _diverged,
    is_any_subsequence,
    is_common_subsequence,
    is_subsequence,
)
from subseq_automata.single import effective_sigma, level_cap


@dataclass(frozen=True)
class LevelParams:
    """Base/cap/length bundle defining a ruler-level hierarchy.

    ``cap`` is None for the uncapped hierarchy, otherwise the level ceiling
    (at least 1; the alphabet-aware builders use ceil(log_k sigma)).
    """

    k: int
    cap: int | None
    n: int

    def __post_init__(self):
        if self.k < 2:
            raise ParameterError(f"level base k must be >= 2, got {self.k}")
        if self.cap is not None and self.cap < 1:
            raise ParameterError(f"level cap must be >= 1, got {self.cap}")
        if self.n < 0:
            raise ParameterError("n must be non-negative")


def level(i: int, p: LevelParams) -> int:
    """Exponent of the largest power of ``p.k`` dividing ``i``, clamped to the cap."""
    if i < 1:
        raise ValueError("level is defined for positive state ids")
    x = 0
    while i % p.k == 0 and (p.cap is None or x < p.cap):
        i //= p.k
        x += 1
    return x


def bar(s: int, p: LevelParams) -> int | None:
    """Smallest state above ``s`` (within 1..n) whose level strictly exceeds
    level(s); None when no such state exists, including at the cap.

    Such a state must be divisible by k**(level(s)+1), so it is the next
    multiple of that power; the definitional scan is kept as a test oracle.
    """
    if not 1 <= s <= p.n:
        raise ValueError(f"state must lie in 1..{p.n}, got {s}")
    lv = level(s, p)
    if p.cap is not None and lv >= p.cap:
        return None
    step = p.k ** (lv + 1)
    t = (s // step + 1) * step
    return t if t <= p.n else None


def csr_from_table(table, window_end):
    """CSR of the cells of a next-occurrence table that lie inside each
    state's window, read off the dense table and a mask of its shape; the
    table's n + 1 (no occurrence) lies inside no window."""
    keep = table <= np.minimum(window_end, table.shape[0] - 1)[:, None]
    counts = keep.sum(axis=1, dtype=np.int64)
    offsets = np.zeros(table.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    _, syms = np.nonzero(keep)
    return offsets, syms.astype(np.int32), table[keep].astype(np.int32)


def ruler_levels(n, k, cap):
    """The level of each state 0..n of the ruler hierarchy: how many times k
    divides the state, at most ``cap`` unless it is negative; -1 for state 0.
    The multiples of k**x are the states at level x or above, so each level
    is one strided write."""
    levels = np.zeros(n + 1, dtype=np.int32)
    power, x = k, 1
    while power <= n and (cap < 0 or x <= cap):
        levels[::power] = x
        power *= k
        x += 1
    levels[0] = -1
    return levels


# ---------------------------------------------------------------------------
# the four single-string builders and their window helper as they stood before
# one hop-rule builder replaced them


def build_sa(text: str) -> Automaton:
    """Plain subsequence automaton: state s carries one transition per symbol
    occurring after position s, to its leftmost occurrence; no defaults."""
    alphabet = Alphabet.from_texts([text])
    n = len(text)
    window = np.full(n + 1, n, dtype=np.int32)
    offsets, syms, targets = K.csr_from_windows(alphabet.codes(text), len(alphabet), window)
    defaults = np.full(n + 1, -1, dtype=np.int32)
    meta = {"variant": "sa", "n": n, "k": None, "sigma": len(alphabet)}
    return assemble(alphabet, offsets, syms, targets, defaults, meta)


def build_chain(text: str) -> Automaton:
    """Prefix chain: state i < n has exactly text[i+1] -> i+1 and a default
    -> i+1; state n has neither."""
    alphabet = Alphabet.from_texts([text])
    n = len(text)
    codes = alphabet.codes(text)
    offsets = np.arange(n + 2, dtype=np.int64)
    offsets[-1] = n
    targets = np.arange(1, n + 1, dtype=np.int32)
    defaults = np.concatenate([targets, [-1]]).astype(np.int32)
    meta = {"variant": "chain", "n": n, "k": None, "sigma": len(alphabet)}
    return assemble(alphabet, offsets, codes.copy(), targets, defaults, meta)


def _level_windows(n: int, k: int, cap: int | None, sigma: int, full_at_sigma: bool):
    """Default targets plus per-state window ends for the hierarchy builders.

    window_end[s] bounds the text interval [s+1, window_end[s]] whose distinct
    symbols get transitions; the hop target (when one exists) caps the window,
    except that hops of at least sigma positions widen it to the full suffix
    (alphabet-aware builders only). State 0 is pinned to window [1, 1] with a
    default to state 1.
    """
    capv = -1 if cap is None else cap
    bars = K.bar_targets(n, k, capv)
    window = np.where(bars >= 0, bars, n).astype(np.int32)
    if full_at_sigma:
        gap = bars - np.arange(n + 1, dtype=np.int32)
        window[(bars >= 0) & (gap >= sigma)] = n
    defaults = bars.copy()
    if n >= 1:
        window[0] = 1
        defaults[0] = 1
    return defaults, window


def build_level(text: str) -> Automaton:
    """Uncapped base-2 hierarchy: state s keeps transitions for the distinct
    symbols between s and its hop target (full suffix when no hop exists)."""
    alphabet = Alphabet.from_texts([text])
    n = len(text)
    defaults, window = _level_windows(n, 2, None, len(alphabet), full_at_sigma=False)
    offsets, syms, targets = K.csr_from_windows(alphabet.codes(text), len(alphabet), window)
    meta = {"variant": "level", "n": n, "k": None, "sigma": len(alphabet)}
    return assemble(alphabet, offsets, syms, targets, defaults, meta)


def build_k_level(text: str, k: int, *, sigma: int | None = None) -> Automaton:
    """Base-k hierarchy with levels capped at ceil(log_k sigma).

    States whose hop spans at least sigma positions (or that have no hop)
    carry transitions for the whole suffix. ``sigma`` may override the text's
    distinct-symbol count upward; ``k`` must satisfy 2 <= k <= max(2, sigma).
    """
    alphabet = Alphabet.from_texts([text])
    n = len(text)
    sig = effective_sigma(len(alphabet), sigma)
    if not 2 <= k <= max(2, sig):
        raise ParameterError(f"k must lie in [2, {max(2, sig)}] for sigma={sig}, got {k}")
    cap = level_cap(k, sig)
    defaults, window = _level_windows(n, k, cap, sig, full_at_sigma=True)
    offsets, syms, targets = K.csr_from_windows(alphabet.codes(text), len(alphabet), window)
    meta = {"variant": "klevel", "n": n, "k": k, "sigma": sig}
    return assemble(alphabet, offsets, syms, targets, defaults, meta)


# ---------------------------------------------------------------------------
# product states: tuple arithmetic one state at a time, and the
# symbol-by-symbol levelled construction the batched emitter replaced

TupleState = tuple[int, ...]


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


def levelled(texts, sigma=None, *, dead, state_budget=DEFAULT_STATE_BUDGET):
    """The levelled product (``build_common_level``, or ``build_any_level``
    with ``dead``) emitted symbol by symbol: each symbol's next occurrences
    for all states at once, reduced over the texts, then one sort of all
    (state, symbol) keys into CSR."""
    alphabet = Alphabet.from_texts(texts)
    sig = effective_sigma(len(alphabet), sigma)
    lengths = np.array([len(t) for t in texts], dtype=np.int64)
    dims = tuple(len(t) + dead for t in texts)
    total, coords = _product(dims, state_budget)

    live = coords <= lengths
    cap, top = level_cap(2, sig), int(lengths.max())
    m = np.where(live, coords, top + 1).min(axis=1)
    m[m > top] = 0
    bars = K.bar_targets(top, 2, cap).astype(np.int64)[m]
    gap = (bars - m)[:, None] * live
    hop = (bars >= 0) & np.all(~live | (coords + gap <= lengths), axis=1)
    defaults = np.full(total, -1, dtype=np.int64)
    defaults[hop] = _encode_ids((coords[hop] + gap[hop]).T, dims)
    if total > 1:
        defaults[0] = 1

    end = np.where((hop & (bars - m < sig))[:, None], coords + gap, lengths)
    end[0] = np.minimum(lengths, 1)
    rows = np.minimum(coords, lengths)
    tables = [K.next_occurrence_table(alphabet.codes(t), len(alphabet)) for t in texts]
    keys, targets = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for c in range(len(alphabet)):
        nxt = np.stack([tab[rows[:, i], c] for i, tab in enumerate(tables)], axis=1)
        found = nxt <= lengths  # none reads n_i + 1, the dead value
        emit = np.any(found & (nxt <= end), axis=1) & (dead | found.all(axis=1))
        sids = np.flatnonzero(emit)
        keys.append(sids * len(alphabet) + c)
        targets.append(_encode_ids(nxt[sids].T, dims))
    keys, targets = np.concatenate(keys), np.concatenate(targets)
    order = np.argsort(keys)
    keys = keys[order]
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // len(alphabet), minlength=total), out=offsets[1:])
    syms = (keys % len(alphabet)).astype(np.int32)
    variant = "any-level" if dead else "common-level"
    meta = {"variant": variant, "lengths": lengths.tolist(), "k": None, "sigma": sig}
    return assemble(alphabet, offsets, syms, targets[order].astype(np.int32), defaults, meta)


# ---------------------------------------------------------------------------
# oracle verdicts one pattern at a time, and the pattern-by-pattern walk the
# pair walk of ``oracles._walk`` replaced (stepping states as it does)


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


def variant_oracle(v, texts):
    """The greedy oracle of a registry row ``v`` over ``texts``: the
    some-string oracle in any mode, else the every-string one, which at
    N = 1 numbers its states as the greedy oracle does."""
    return (AnySubsequenceOracle if v.mode == "any" else CommonSubsequenceOracle)(texts)


def oracle_accepts(oracle, pattern: str) -> bool:
    """The verdict of one of the package's oracles on ``pattern``, from the
    texts it was built over."""
    if isinstance(oracle, GreedySubsequenceOracle):
        return is_subsequence(pattern, oracle.text)
    if isinstance(oracle, CommonSubsequenceOracle):
        return is_common_subsequence(pattern, oracle.texts)
    if isinstance(oracle, AnySubsequenceOracle):
        return is_any_subsequence(pattern, oracle.texts)
    raise TypeError(f"not an oracle: {oracle!r}")


def _decode_pattern(index: int, length: int, chars) -> str:
    digits = []
    for _ in range(length):
        index, d = divmod(index, len(chars))
        digits.append(chars[d])
    return "".join(reversed(digits))


def table_built_product_step(oracle, chars):
    """``oracle.step(chars)`` of a product oracle as it once was: each text's
    contributions taken from its greedy oracle's transition table, with the
    dead row stacked below."""
    width, last = len(chars), oracle.state_count - 1
    if 0 in oracle.dims:
        return lambda states: np.full(states.shape[0] * width, -1, dtype=np.int64)
    tables, stride = [], 1
    for text, dim in zip(reversed(oracle.texts), reversed(oracle.dims)):
        greedy = GreedySubsequenceOracle(text).transition_table(chars).astype(np.int64)
        nxt = np.vstack([greedy, np.full(width, -1)])[: dim + 1]
        tables.append(np.where(nxt >= 0, (nxt - 1) * stride, (dim - 1) * stride if oracle.dead else -last - 1))
        stride *= dim

    def step(states):
        x = states.astype(np.int64) - 1
        inner = x >= 0
        ids = 1
        for contribution, digit in zip(tables, _digits(x, oracle.dims)):
            ids = ids + contribution[digit * inner]
        stuck = ids == last if oracle.dead else ids < 0
        return np.where(stuck | (x < -1)[:, None], -1, ids).reshape(-1)

    return step


def pattern_walk(a: Automaton, reference, chars, max_len: int):
    """Every pattern over ``chars`` up to ``max_len``, one length at a time,
    through ``a`` and through ``reference`` (a tabular oracle or a second
    automaton over as many states): ``(length, states, reference_states,
    max_hops)``, entry i of each state array the state after the pattern whose
    base-``len(chars)`` digits spell i (-1 once rejected). Its arrays hold
    len(chars)**length entries, so keep the bound small."""
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


def pattern_equivalence_check(a: Automaton, oracle, chars, max_len: int) -> EquivalenceReport:
    """``equivalence_check`` over every pattern, one check each."""
    checked, max_defaults, mismatches, trace = 0, 0, [], None
    for length, states, ref, hops in pattern_walk(a, oracle, chars, max_len):
        checked += len(states)
        max_defaults = max(max_defaults, hops)
        accepts = states >= 0
        for b in np.flatnonzero(accepts != (ref >= 0)).tolist():
            mismatches.append(Mismatch(_decode_pattern(b, length, chars), bool(accepts[b]), bool(ref[b] >= 0)))
        diverged = _diverged(states, ref)
        if trace is None and diverged.size:
            trace = _decode_pattern(int(diverged[0]), length, chars)
    return EquivalenceReport(checked, mismatches, max_defaults, trace)


def pattern_trace_equivalence(a1: Automaton, a2: Automaton, chars, max_len: int) -> TraceCheck:
    """``trace_equivalence`` over every pattern, one check each."""
    checked, counterexample = 0, None
    for length, states, ref, _ in pattern_walk(a1, a2, chars, max_len):
        checked += len(states)
        if counterexample is None:
            failing = _diverged(states, ref)
            if not failing.size:
                failing = np.flatnonzero((states >= 0) != (ref >= 0))
            if failing.size:
                counterexample = _decode_pattern(int(failing[0]), length, chars)
    return TraceCheck(counterexample is None, counterexample, checked)


# ---------------------------------------------------------------------------
# the reference for ``K.step_cells`` and the walk's step over it: default
# chains resolved row by row in lockstep, rows sharing the chain tails of
# other rows


def resolved_tables(offsets, syms, targets, defaults, states, columns, width):
    # Rows of the resolved tables for any states, in any order, repeats
    # included: cell [r, j] is where states[r] consumes the symbol whose
    # column is j (columns[symbol], -1 for none) and the defaults crossed
    # first; -1 and 0 when it cannot. Columns are distinct per symbol. The
    # rows walk their default chains in lockstep, and at depth h each fills
    # its still-empty cells from its chain state's CSR slice. A row drops out
    # when its chain ends, when every column of an alphabet symbol is filled,
    # or when its chain reaches another of the states: from there on the
    # chains coincide, so the row is linked to that state's row at depth h.
    # Defaults point forward, so links do too and never form a cycle. After
    # the walk, linked rows take the still-empty cells of their link's row
    # (hops + h) in order of how many links lie between them and an unlinked
    # row, which longest_chain_lengths counts. A row thus stops reading where
    # its chain meets another of the states, and a call with every state
    # reads each CSR entry at most once. Links are found in a sorted copy of
    # the states, so a call's temporaries track its rows, not the automaton.
    u = states.shape[0]
    out = np.full((u, width), -1, dtype=np.int32)
    hops = np.zeros((u, width), dtype=np.int32)
    need = np.count_nonzero(columns >= 0)
    if not u or not need:
        return out, hops
    flat_out, flat_hops = out.reshape(-1), hops.reshape(-1)
    every = need == columns.shape[0]  # no entry's symbol lacks a column
    # the states in ascending order and the row of each, after -1 (a chain
    # that has ended: the row is done) and before one past every state
    order = states.argsort()
    ordered = np.concatenate(([-1], states[order], [offsets.shape[0]]))
    row = np.concatenate(([-2], order, [-1]))
    link = np.full(u, -1, dtype=np.int64)
    link_depth = np.zeros(u, dtype=np.int32)
    # the rows walk in state order, so their chains' states come to the
    # search and the CSR nearly sorted: row * width, per walking row
    base = order * width
    cur = ordered[1:-1]
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
        nxt = defaults[cur].astype(np.intp, copy=False)  # intp indexes and searches without a cast
        # -1: walk on; -2: the row is done; a row r: link to it
        i = ordered.searchsorted(nxt)
        at = row[i]
        at[ordered[i] != nxt] = -1
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
        rank = K.longest_chain_lengths(link)[linked]
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


def resolved_tables_step(a: Automaton, chars):
    """``oracles._automaton_step`` over :func:`resolved_tables`."""
    columns = np.full(len(a.alphabet), -1, dtype=np.int64)
    for j, ch in enumerate(chars):
        code = a.alphabet.index.get(ch)
        if code is not None:
            columns[code] = j
    width = len(chars)

    def step(states):
        live = states >= 0
        if live.all():
            rows, hops = resolved_tables(a.offsets, a.syms, a.targets, a.defaults, states, columns, width)
        else:
            rows = np.full((states.shape[0], width), -1, dtype=np.int32)
            rows[live], hops = resolved_tables(a.offsets, a.syms, a.targets, a.defaults, states[live], columns, width)
        return rows.reshape(-1), int(hops.max(initial=0))

    return step


# ---------------------------------------------------------------------------
# the automaton checks and document-mode helpers as first written: a boolean
# mask per condition, a Python pass per symbol, hashed set operations, and a
# sweep over every state


def validate_by_masks(a: Automaton) -> ValidationReport:
    """``validate``, one boolean mask per condition and per bound."""
    v: list[str] = []
    n_states = a.state_count
    sigma = len(a.alphabet)

    if n_states < 1:
        return ValidationReport(False, ["automaton must have at least one state"])
    if len(a.offsets) != n_states + 1 or a.offsets[0] != 0:
        return ValidationReport(False, ["malformed transition offsets"])
    if np.any(np.diff(a.offsets) < 0) or a.offsets[-1] != len(a.syms) or len(a.syms) != len(a.targets):
        return ValidationReport(False, ["malformed transition arrays"])
    if len(a.defaults) != n_states:
        return ValidationReport(False, ["defaults array must have one entry per state"])

    sources = np.repeat(np.arange(n_states, dtype=np.int32), np.diff(a.offsets))

    bad = np.flatnonzero((a.syms < 0) | (a.syms >= sigma))
    for j in bad:
        v.append(f"state {sources[j]}: symbol id {a.syms[j]} outside alphabet of size {sigma}")

    if len(a.syms) > 1:
        same_state = sources[1:] == sources[:-1]
        dup = np.flatnonzero(same_state & (a.syms[1:] == a.syms[:-1]))
        unsorted = np.flatnonzero(same_state & (a.syms[1:] < a.syms[:-1]))
        for j in dup:
            v.append(f"state {sources[j]}: duplicate label {_sym_repr(a, a.syms[j])}")
        for j in unsorted:
            v.append(f"state {sources[j]}: unsorted labels at entry {j + 1}")

    bad = np.flatnonzero((a.targets < 0) | (a.targets >= n_states))
    for j in bad:
        v.append(f"state {sources[j]}: transition target {a.targets[j]} out of range")

    has_default = a.defaults >= 0
    bad = np.nonzero((a.defaults < -1) | (a.defaults >= n_states))[0]
    for s in bad:
        v.append(f"state {s}: default target {a.defaults[s]} out of range")

    in_range = (a.targets >= 0) & (a.targets < n_states)
    d_in_range = has_default & (a.defaults < n_states)

    dims = state_dims(a.meta)
    if dims is None:
        fwd = a.targets > sources
        dfwd = a.defaults > np.arange(n_states)
    else:
        fwd = _product_forward(sources, a.targets, dims)
        dfwd = _product_forward(np.arange(n_states, dtype=np.int32), np.maximum(a.defaults, 0), dims)

    for j in np.nonzero(in_range & ~fwd)[0]:
        v.append(
            f"state {sources[j]}: non-forward transition to {a.targets[j]} "
            f"(label {_sym_repr(a, a.syms[j])})"
        )
    for s in np.nonzero(d_in_range & ~dfwd)[0]:
        v.append(f"state {s}: non-forward default to {a.defaults[s]}")

    return ValidationReport(not v, v)


def alphabet_index(symbols) -> dict:
    """The ``Alphabet`` entry check, one symbol at a time, and the index it
    builds; raises ValueError as ``Alphabet`` does."""
    for c in symbols:
        if not isinstance(c, str) or len(c) != 1:
            raise ValueError(f"alphabet entries must be single characters, got {c!r}")
    if list(symbols) != sorted(set(symbols)):
        raise ValueError("alphabet symbols must be distinct and sorted")
    return {c: i for i, c in enumerate(symbols)}


def code_point_table(index: dict, fill: int) -> np.ndarray:
    """``automaton._code_point_table`` from ``ord`` of each key."""
    points = [ord(c) for c in index]
    table = np.full(max(points, default=-1) + 2, fill, dtype=np.int32)
    table[points] = list(index.values())
    return table


def reconstruct_text_by_sets(a: Automaton) -> str:
    """``cli.reconstruct_text`` through a set difference and ``np.unique``."""
    n = a.meta.get("n")
    if n is None:
        raise ParameterError("cannot reconstruct the source texts of a multi-string document; pass --texts")
    sources = np.repeat(np.arange(a.state_count), np.diff(a.offsets))
    edges = np.flatnonzero(a.targets == sources + 1)
    missing = np.setdiff1d(np.arange(n), sources[edges])
    if missing.size:
        s = int(missing[0])
        raise DocumentError(f"document carries no edge from state {s} to {s + 1}; cannot recover the text")
    _, first = np.unique(sources[edges], return_index=True)
    return "".join([a.alphabet.symbols[c] for c in a.syms[edges[first]].tolist()])


def reachable_by_sweep(a: Automaton) -> int:
    """``reachable_states`` by one ascending sweep over every state."""
    reach = np.zeros(a.state_count, dtype=bool)
    reach[a.initial] = True
    for s in range(a.state_count):
        if not reach[s]:
            continue
        lo, hi = int(a.offsets[s]), int(a.offsets[s + 1])
        if hi > lo:
            reach[a.targets[lo:hi]] = True
        d = a.defaults[s]
        if d >= 0:
            reach[d] = True
    return int(reach.sum())
