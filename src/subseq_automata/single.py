"""Single-string subsequence automata across the size/delay trade-off.

Every automaton here has states 0..n (state s = "a prefix of the pattern has
been matched inside the first s text characters"), all accepting, whose
language is exactly the subsequences of the text. Each builder is the one
construction, ``multi._construct``, at N = 1 with the variant's hop rule;
``level_cap`` and ``effective_sigma`` are that module's.

Positions are 1-based: text[s] in the docs below means the s-th character.
"""

from __future__ import annotations

from .automaton import Automaton
from .multi import _CHAIN, _NONE, _RULER, _UNCAPPED, _construct
from .multi import effective_sigma, level_cap  # noqa: F401  (public names of this module too)


def build_sa(text: str) -> Automaton:
    """Plain subsequence automaton: state s carries one transition per symbol
    occurring after position s, to its leftmost occurrence; no defaults."""
    return _construct([text], "sa", _NONE)


def build_chain(text: str) -> Automaton:
    """Prefix chain: state i < n has exactly text[i+1] -> i+1 and a default
    -> i+1; state n has neither."""
    return _construct([text], "chain", _CHAIN)


def build_level(text: str) -> Automaton:
    """Uncapped base-2 hierarchy: state s keeps transitions for the distinct
    symbols between s and its hop target (full suffix when no hop exists)."""
    return _construct([text], "level", _UNCAPPED)


def build_k_level(text: str, k: int, *, sigma: int | None = None) -> Automaton:
    """Base-k hierarchy with levels capped at ceil(log_k sigma).

    States whose hop spans at least sigma positions (or that have no hop)
    carry transitions for the whole suffix. ``sigma`` may override the text's
    distinct-symbol count upward; ``k`` must satisfy 2 <= k <= max(2, sigma).
    """
    return _construct([text], "klevel", _RULER, k, sigma)
