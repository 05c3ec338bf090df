"""The variant registry: one row per construction holding every fact that
differs between variants, and the size/delay report and trade-off table built
from it.

A row names its hop rule (one of ``multi``'s four) and derives from it
whether it takes a sigma override (only a rule that widens depends on sigma)
and its delay bound. Every row builds through ``multi._construct``, the one
construction behind every public builder.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import multi
from .automaton import Automaton, ParameterError, size_metrics


@dataclass(frozen=True)
class Variant:
    """One construction. ``hops`` is its hop rule; ``mode`` tells
    :func:`subseq_automata.oracles.certify` which oracle its products follow."""

    name: str
    min_texts: int
    max_texts: int | None  # None: any number of texts from min_texts up
    mode: str | None  # "common" or "any" acceptance; None for one text
    descriptor: str
    hops: multi._HopRule
    takes_k: bool = False

    def build(self, texts, k, sigma, state_budget) -> Automaton:
        """The automaton of ``texts``, ignoring the parameters that do not apply."""
        k = k if self.takes_k else None
        sigma = sigma if self.hops.widens else None
        return multi._construct(texts, self.name, self.hops, k, sigma, state_budget)


VARIANTS: dict[str, Variant] = {
    v.name: v
    for v in (
        Variant("sa", 1, 1, None, "size O(n*sigma), delay O(1)", multi._NONE),
        Variant("chain", 1, 1, None, "size O(n), delay O(n)", multi._CHAIN),
        Variant("level", 1, 1, None, "size O(n*log n), delay O(log n)", multi._UNCAPPED),
        Variant("klevel", 1, 1, None, "size O(n*k*log_k sigma), delay O(log_k sigma)", multi._RULER, takes_k=True),
        Variant("naive-common", 2, 2, "common", "size O(n1*n2), delay O(min(n1,n2))", multi._CHAIN),
        Variant("common-level", 2, None, "common", "size O(N*log sigma*prod n_i), delay O(log sigma)", multi._RULER),
        Variant("any-level", 2, None, "any", "size O(N*log sigma*prod n_i), delay O(log sigma)", multi._RULER),
    )
}

# the names the CLI accepts: the variants plus the alias "naive" of naive-common
NAMES = sorted([*VARIANTS, "naive"])


def resolve(name, n_texts: int, mode=None, k=None, sigma=None, state_budget=None) -> Variant:
    """The row for a build request, checked against its inputs.

    ``name`` may be an alias: "naive" is naive-common, and "level" for two
    or more texts the ``mode`` flavour (common by default) of the levelled
    product.
    """
    if name is None:
        raise ParameterError("--variant is required here")
    if name == "naive":
        name = "naive-common"
    elif n_texts >= 2 and name == "level":
        name = f"{mode or 'common'}-level"
    return _checked(name, n_texts, mode, k, sigma, state_budget)


def variant_of(meta: dict) -> Variant:
    """The row an automaton's metadata names, checked against its text count
    and ``k`` (within ``build_k_level``'s range for the stored sigma)."""
    v = _checked(meta.get("variant"), len(meta.get("lengths", [None])), None, meta.get("k"), None)
    multi._check_k(meta.get("k"), meta.get("sigma", 0))  # _checked has made it None or an int >= 2
    return v


def _checked(name, n_texts, mode, k, sigma, state_budget=None) -> Variant:
    v = VARIANTS.get(name)
    if v is None:
        raise ParameterError(f"unknown variant {name!r}")
    if not v.min_texts <= n_texts <= (v.max_texts or n_texts):
        count = v.max_texts or f"{v.min_texts} or more"
        raise ParameterError(f"variant {name!r} takes {count} text(s), got {n_texts}")
    if mode is not None and mode != v.mode:
        raise ParameterError(f"mode {mode!r} contradicts variant {name!r}")
    if v.takes_k and (not isinstance(k, int) or k < 2):
        raise ParameterError(f"variant {name!r} requires an integer k >= 2, got {k!r}")
    if k is not None and not v.takes_k:
        raise ParameterError(f"variant {name!r} takes no k")
    if sigma is not None and not v.hops.widens:
        raise ParameterError(f"variant {name!r} takes no sigma override")
    if state_budget is not None and v.max_texts == 1:
        raise ParameterError(f"variant {name!r} takes no --state-budget: it bounds product variants only")
    return v


def structural_delay_cap(meta: dict) -> int:
    """Variant-specific upper bound on the longest default chain."""
    return variant_of(meta).hops.delay_cap(meta)


# ---------------------------------------------------------------------------
# trade-off measurement


def size_report(a: Automaton) -> dict:
    """Size and delay of ``a``, in report order. ``delay`` is the paper's:
    the most defaults followed before a character is consumed, which is the
    longest default chain; ``delay_cap`` is the variant's bound on it."""
    m = size_metrics(a)
    meta = a.meta
    v = variant_of(meta)
    texts = {"lengths": list(meta["lengths"])} if "lengths" in meta else {"n": meta["n"]}
    return {
        "variant": v.name,
        **texts,
        "sigma": meta.get("sigma", len(a.alphabet)),
        "k": meta.get("k"),
        "states": m.states,
        "regular_transitions": m.regular_transitions,
        "default_transitions": m.default_transitions,
        "size_total": m.size_total,
        "delay": m.longest_default_chain,
        "delay_cap": v.hops.delay_cap(meta),
    }


def tradeoff_table(text: str, ks, *, sigma: int | None = None) -> list[dict]:
    """The :func:`size_report` of each single-string variant in registry
    order (sa, chain, level, klevel), klevel once for each requested k in
    ascending order."""
    return [
        size_report(v.build([text], k, sigma, None))
        for v in VARIANTS.values()
        if v.max_texts == 1
        for k in (sorted(set(int(k) for k in ks)) if v.takes_k else [None])
    ]
