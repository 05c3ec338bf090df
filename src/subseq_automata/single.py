"""Single-string subsequence automata across the size/delay trade-off.

All four builders produce automata with states 0..n (state s = "a prefix of
the pattern has been matched inside the first s text characters"), all
accepting, whose language is exactly the subsequences of the text:

  * ``build_sa``      - one transition per distinct suffix symbol, no
                        defaults; largest, delay-free.
  * ``build_chain``   - one labeled and one default edge per position;
                        smallest, worst delay.
  * ``build_level``   - ruler-function hierarchy over state indices, base 2,
                        uncapped; n log n size, log n delay.
  * ``build_k_level`` - base-k hierarchy with levels capped at ceil(log_k
                        sigma) and full-suffix fan-out where the hop already
                        spans sigma positions; k tunes size against delay.

Positions are 1-based: text[s] in the docs below means the s-th character.
"""

from __future__ import annotations

import numpy as np

from . import _kernels as K
from .automaton import Alphabet, Automaton, ParameterError, assemble


def build_sa(text: str) -> Automaton:
    """Plain subsequence automaton: state s carries one transition per symbol
    occurring after position s, to its leftmost occurrence; no defaults."""
    alphabet = Alphabet.from_text(text)
    n = len(text)
    window = np.full(n + 1, n, dtype=np.int32)
    offsets, syms, targets = K.csr_from_windows(alphabet.codes(text), len(alphabet), window)
    defaults = np.full(n + 1, -1, dtype=np.int32)
    meta = {"variant": "sa", "n": n, "k": None, "sigma": len(alphabet)}
    return assemble(alphabet, offsets, syms, targets, defaults, meta)


def build_chain(text: str) -> Automaton:
    """Prefix chain: state i < n has exactly text[i+1] -> i+1 and a default
    -> i+1; state n has neither."""
    alphabet = Alphabet.from_text(text)
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
    alphabet = Alphabet.from_text(text)
    n = len(text)
    defaults, window = _level_windows(n, 2, None, len(alphabet), full_at_sigma=False)
    offsets, syms, targets = K.csr_from_windows(alphabet.codes(text), len(alphabet), window)
    meta = {"variant": "level", "n": n, "k": None, "sigma": len(alphabet)}
    return assemble(alphabet, offsets, syms, targets, defaults, meta)


def level_cap(k: int, sigma: int) -> int:
    """ceil(log_k sigma), floored at 1 so level-0 and cap-level states stay
    distinct even for tiny alphabets."""
    c, p = 0, 1
    while p < sigma:
        p *= k
        c += 1
    return max(1, c)


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


def build_k_level(text: str, k: int, *, sigma: int | None = None) -> Automaton:
    """Base-k hierarchy with levels capped at ceil(log_k sigma).

    States whose hop spans at least sigma positions (or that have no hop)
    carry transitions for the whole suffix. ``sigma`` may override the text's
    distinct-symbol count upward; ``k`` must satisfy 2 <= k <= max(2, sigma).
    """
    alphabet = Alphabet.from_text(text)
    n = len(text)
    sig = effective_sigma(len(alphabet), sigma)
    if not 2 <= k <= max(2, sig):
        raise ParameterError(f"k must lie in [2, {max(2, sig)}] for sigma={sig}, got {k}")
    cap = level_cap(k, sig)
    defaults, window = _level_windows(n, k, cap, sig, full_at_sigma=True)
    offsets, syms, targets = K.csr_from_windows(alphabet.codes(text), len(alphabet), window)
    meta = {"variant": "klevel", "n": n, "k": k, "sigma": sig}
    return assemble(alphabet, offsets, syms, targets, defaults, meta)
