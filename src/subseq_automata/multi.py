"""The one construction of the package's automata, for N >= 1 texts.

States are coordinate tuples (s_1, ..., s_N): position s_i of string i has
been consumed so far. The distinguished origin (0, ..., 0) is state id 0 and
every other coordinate runs from 1 (mixed-radix ids: ``automaton._encode_ids``,
shared with the oracles), so a single string's state s is position s: one
string is the N = 1 case of the product. A variant's place on the size/delay
trade-off is set by its hop rule, the default target of each position of a
single string; the four rules below are the package's only ones.
``_construct`` runs a rule along every diagonal. ``single``'s four builders
are its N = 1 calls; the three here are its products: ``naive-common`` (two
strings, the chain rule), ``common-level`` (subsequences of every string)
and ``any-level`` (of some string, with a dead sentinel n_i+1 per
coordinate), the last two over the base-2 ruler capped at ceil(log2 sigma).

Only emission depends on N: one string's windows go to
``K.csr_from_windows`` (the chain's CSR is the text itself), and a product's
transitions are emitted for batches of states with one pass per text,
already in CSR order. The full product state set is still materialized,
unreachable states included, so state counts match the construction exactly;
``reachable_states`` reports the honest reachable count. A state budget
refuses explosive products.

Positions are 1-based: text[s] in the docs below means the s-th character.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels as K
from .automaton import Alphabet, Automaton, ParameterError, _decode_ids, _encode_ids, assemble

DEFAULT_STATE_BUDGET = 10**6


@dataclass(frozen=True)
class _HopRule:
    """``targets(n, k, sigma)`` is the hop target of each state 0..n of a
    text of length n, -1 for none; ``widens``: a hop spanning sigma or more
    positions widens the window to the whole suffix, so the automaton depends
    on sigma (which may be overridden); ``delay_cap(meta)`` bounds the
    longest default chain of an automaton with this metadata."""

    targets: Callable[[int, int, int], np.ndarray] | None  # None: no hops
    widens: bool
    delay_cap: Callable[[dict], int]


def level_cap(k: int, sigma: int) -> int:
    """ceil(log_k sigma), floored at 1 so level-0 and cap-level states stay
    distinct even for tiny alphabets."""
    c, p = 0, 1
    while p < sigma:
        p *= k
        c += 1
    return max(1, c)


# sa: no hops; largest, delay-free
_NONE = _HopRule(None, widens=False, delay_cap=lambda meta: 0)
# chain and naive-common: s -> s+1; smallest, worst delay
_CHAIN = _HopRule(
    lambda n, k, sigma: np.append(np.arange(1, n + 1, dtype=np.int32), np.int32(-1)),
    widens=False,
    delay_cap=lambda meta: min(meta["lengths"]) if "lengths" in meta else meta["n"],
)
# level: the uncapped base-2 ruler over state indices; n log n size, log n delay
_UNCAPPED = _HopRule(
    lambda n, k, sigma: K.bar_targets(n, 2, -1),
    widens=False,
    delay_cap=lambda meta: meta["n"].bit_length(),  # floor(log2 n) + 1, 0 for n = 0
)
# klevel (base k) and the levelled products (base 2, meta k None): the ruler
# capped at ceil(log_k sigma); k tunes size against delay
_RULER = _HopRule(
    lambda n, k, sigma: K.bar_targets(n, k, level_cap(k, sigma)),
    widens=True,
    delay_cap=lambda meta: level_cap(meta.get("k") or 2, meta.get("sigma", 0)) + 1,
)


def _check_k(k: int | None, sigma: int) -> None:
    """Refuse a base k outside [2, max(2, sigma)]; None is no base."""
    if k is not None and not 2 <= k <= max(2, sigma):
        raise ParameterError(f"k must lie in [2, {max(2, sigma)}] for sigma={sigma}, got {k}")


def effective_sigma(text_sigma: int, sigma: int | None) -> int:
    if sigma is None:
        return text_sigma
    if sigma < text_sigma:
        raise ParameterError(
            f"sigma override {sigma} is below the text's distinct-symbol count {text_sigma}"
        )
    if sigma > 0x110000:  # no alphabet of single code points is larger
        raise ParameterError(f"sigma override {sigma} exceeds 1114112, the number of Unicode code points")
    return sigma


class StateBudgetError(ParameterError):
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


def _construct(texts: list, variant: str, rule: _HopRule, k=None, sigma=None, state_budget=None) -> Automaton:
    """The automaton of ``rule`` over the N >= 1 ``texts`` (base k, 2 when
    k is None; ``state_budget`` bounds products, None for the default).

    Coordinate i is live while it is at most n_i (``any-level`` adds the
    dead sentinel n_i+1). A state hops like position m of a single string,
    m being its smallest live coordinate (0 for the origin and all-dead
    states): every live coordinate moves by m's step, and the hop exists
    only where each of them can take it. Its windows (s_i, end_i] reach the
    hop, or the whole remainder without one or, where the rule widens, past
    sigma positions. A rule with hops pins the origin to default 1 and
    windows (0, 1]. At N = 1 each state is its own position m, so its hop,
    default and window are the rule's.
    """
    alphabet = Alphabet.from_texts(texts)
    sig = effective_sigma(len(alphabet), sigma)
    _check_k(k, sig)
    lengths = [len(t) for t in texts]
    top = max(lengths)
    dead = variant == "any-level"
    dims = tuple(n + dead for n in lengths)

    bars = np.full(top + 1, -1, dtype=np.int32) if rule.targets is None else rule.targets(top, k or 2, sig)
    hop = bars >= 0
    short = hop & (bars - np.arange(top + 1, dtype=np.int32) < sig) if rule.widens else hop
    if len(texts) == 1:  # each state is its own position: the rule's hops are its defaults
        ys, defaults, size = [bars], bars, {"n": top}
    else:
        total, coords = _product(dims, DEFAULT_STATE_BUDGET if state_budget is None else state_budget)
        coords = list(coords.T)
        m = np.full(total, top + 1, dtype=np.int64)
        for x, n in zip(coords, lengths):
            np.minimum(m, np.where(x <= n, x, top + 1), out=m)
        m[m > top] = 0
        step, hop, short = bars[m] - m, hop[m], short[m]
        for x, n in zip(coords, lengths):
            hop &= (x > n) | (x + step <= n)
        short &= hop
        ys = [np.where(x <= n, x + step, x) for x, n in zip(coords, lengths)]
        defaults = np.where(hop, _encode_ids(ys, dims), -1)
        size = {"lengths": lengths}
        del m, step
    if rule.targets is not None and defaults.shape[0] > 1:  # the origin pin: default 1, windows (0, 1]
        defaults[0], short[0] = 1, True
        for y, n in zip(ys, lengths):
            y[0] = min(n, 1)
    del bars, hop

    codes = [alphabet.codes(t) for t in texts]
    # windows (s_i, end_i]; the emitters clip each to its text, so a dead
    # coordinate's is empty. The chain's, one position each, need none at N = 1
    chain = len(texts) == 1 and rule is _CHAIN
    ends = [] if chain else [np.where(short, y, n).astype(np.int32, copy=False) for y, n in zip(ys, lengths)]
    del ys, short
    if chain:  # row s < n holds text[s+1] alone, row n nothing
        offsets = np.arange(top + 2, dtype=np.int64)
        offsets[-1] = top
        csr = offsets, codes[0], np.arange(1, top + 1, dtype=np.int32)
    elif len(texts) == 1:
        csr = K.csr_from_windows(codes[0], len(alphabet), ends[0])
    else:
        csr = _product_csr(codes, len(alphabet), coords, ends, lengths, dims, dead)
        del coords
    del ends  # validation peaks higher; free these first
    return assemble(alphabet, *csr, defaults, {"variant": variant, **size, "k": k, "sigma": sig})


def _product_csr(codes, width, coords, ends, lengths, dims, dead):
    """The CSR transitions of a product's windows (state coordinates
    ``coords``, window ends ``ends``, one array per text), from
    :func:`_window_cells` over batches of at most ``K._CHUNK`` (state,
    symbol) cells. The row-major mask's cells come out in CSR order; each
    target is the mixed-radix id of the cell's next occurrences."""
    total = coords[0].shape[0]
    tables = [K.next_occurrence_table(c, width) for c in codes]
    batch = min(total, max(1, K._CHUNK // max(width, 1)))
    # cell j of a batch's row-major (state, symbol) block holds symbol
    # j % width of the batch's state j // width
    cell_sym = np.tile(np.arange(width, dtype=np.int32), batch)
    cell_row = np.arange(batch).repeat(width)
    counts = np.zeros(total, dtype=np.int64)
    syms, targets = [], []
    for a in range(0, total, batch):
        b = min(a + batch, total)
        blocks, emit = _window_cells(tables, [x[a:b] for x in coords], [end[a:b] for end in ends], lengths, dead)
        cells = np.flatnonzero(emit)
        counts[a:b] = np.bincount(cell_row[cells], minlength=b - a)
        syms.append(cell_sym[cells])
        targets.append(_encode_ids((nxt.reshape(-1)[cells] for nxt in blocks), dims))
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, np.concatenate(syms), np.concatenate(targets)


def _window_cells(tables, coords, ends, lengths, dead):
    """Each text's (states, symbols) block of next-occurrence rows (n+1: none)
    at ``coords``, and the mask of cells whose next occurrence lies in some
    window (x_i, end_i], both clipped to the text; without the sentinel, only
    those every text still holds. ``_product_csr`` emits it, ``certify`` checks it."""
    blocks = [np.take(tab, np.minimum(x, n), axis=0) for x, tab, n in zip(coords, tables, lengths)]
    emit = np.zeros(blocks[0].shape, dtype=bool)
    for nxt, end, n in zip(blocks, ends, lengths):
        emit |= nxt <= np.minimum(end, n)[:, None]
    if not dead:  # every string must still hold the symbol
        for nxt, n in zip(blocks, lengths):
            emit &= nxt <= n
    return blocks, emit


def _two_or_more(texts, variant: str) -> list:
    texts = list(texts)
    if len(texts) < 2:
        raise ValueError(f"{variant} construction needs at least two strings")
    return texts


def build_naive_common(s1: str, s2: str, *, state_budget: int = DEFAULT_STATE_BUDGET) -> Automaton:
    """Two-string common-subsequence automaton with one-step diagonal defaults.

    The levelled product over the chain rule (m -> m+1, none at the top):
    state (s1, s2) skips to (s1+1, s2+1) while both strings have a next
    character, and offers the next character of each string when it occurs
    in the other string's remainder.
    """
    return _construct([s1, s2], "naive-common", _CHAIN, state_budget=state_budget)


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
    return _construct(_two_or_more(texts, "common-level"), "common-level", _RULER, None, sigma, state_budget)


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
    return _construct(_two_or_more(texts, "any-level"), "any-level", _RULER, None, sigma, state_budget)
