"""Single-string subsequence automata across the size/delay trade-off.

Every automaton here has states 0..n (state s = "a prefix of the pattern has
been matched inside the first s text characters"), all accepting, whose
language is exactly the subsequences of the text. A variant's place on the
trade-off is set by its hop rule, the default target of each state. The four
rules below are the package's only ones; ``multi``'s products take them too.
One builder, ``_build``, turns a rule into windows and emits them, and each
public builder names its rule.

Positions are 1-based: text[s] in the docs below means the s-th character.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels as K
from .automaton import Alphabet, Automaton, ParameterError, assemble


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


def _build(text: str, variant: str, rule: _HopRule, k: int | None = None, sigma: int | None = None) -> Automaton:
    """The automaton of ``rule`` over ``text``: state s defaults to its hop
    target and keeps transitions for the distinct symbols of the window
    (s, end], which ends at the hop target, or at n where there is no hop or
    the rule widens. A rule with hops pins the origin to window (0, 1] with
    a default to state 1."""
    alphabet = Alphabet.from_text(text)
    n = len(text)
    sig = effective_sigma(len(alphabet), sigma)
    if k is not None and not 2 <= k <= max(2, sig):
        raise ParameterError(f"k must lie in [2, {max(2, sig)}] for sigma={sig}, got {k}")
    codes = alphabet.codes(text)
    defaults = np.full(n + 1, -1, dtype=np.int32) if rule.targets is None else rule.targets(n, k, sig)
    if rule.targets is not None and n >= 1:
        defaults[0] = 1
    if rule is _CHAIN:
        # windows of one position each: row s < n holds text[s+1] alone, row n nothing
        offsets = np.arange(n + 2, dtype=np.int64)
        offsets[-1] = n
        syms, targets = codes, np.arange(1, n + 1, dtype=np.int32)
    else:
        window = np.where(defaults >= 0, defaults, n).astype(np.int32, copy=False)
        if rule.widens:  # the origin's widens only at sigma 1, where (0, n] holds what (0, 1] does
            window[(defaults >= 0) & (defaults - np.arange(n + 1, dtype=np.int32) >= sig)] = n
        offsets, syms, targets = K.csr_from_windows(codes, len(alphabet), window)
    meta = {"variant": variant, "n": n, "k": k, "sigma": sig}
    return assemble(alphabet, offsets, syms, targets, defaults, meta)


def build_sa(text: str) -> Automaton:
    """Plain subsequence automaton: state s carries one transition per symbol
    occurring after position s, to its leftmost occurrence; no defaults."""
    return _build(text, "sa", _NONE)


def build_chain(text: str) -> Automaton:
    """Prefix chain: state i < n has exactly text[i+1] -> i+1 and a default
    -> i+1; state n has neither."""
    return _build(text, "chain", _CHAIN)


def build_level(text: str) -> Automaton:
    """Uncapped base-2 hierarchy: state s keeps transitions for the distinct
    symbols between s and its hop target (full suffix when no hop exists)."""
    return _build(text, "level", _UNCAPPED)


def build_k_level(text: str, k: int, *, sigma: int | None = None) -> Automaton:
    """Base-k hierarchy with levels capped at ceil(log_k sigma).

    States whose hop spans at least sigma positions (or that have no hop)
    carry transitions for the whole suffix. ``sigma`` may override the text's
    distinct-symbol count upward; ``k`` must satisfy 2 <= k <= max(2, sigma).
    """
    return _build(text, "klevel", _RULER, k, sigma)
