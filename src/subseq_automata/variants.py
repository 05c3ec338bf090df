"""The variant registry: one row per construction holding every fact that
differs between variants, and the size/delay trade-off table built from it.

Rows call the builders through this module's global names at call time, so
rebinding those names (as an outside tracer does) reaches every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .automaton import Automaton, ParameterError, SizeMetrics, size_metrics
from .multi import build_any_level, build_common_level, build_naive_common
from .oracles import AnySubsequenceOracle, CommonSubsequenceOracle, GreedySubsequenceOracle
from .single import build_chain, build_k_level, build_level, build_sa, level_cap


@dataclass(frozen=True)
class Variant:
    """One construction. ``build(texts, k, sigma, state_budget)`` ignores the
    parameters that do not apply; ``chain_cap(meta)`` bounds the longest
    default chain; ``reference(texts, state_budget)`` builds the automaton whose
    consumed states must match (None: no reference construction exists)."""

    name: str
    min_texts: int
    max_texts: int | None  # None: any number of texts from min_texts up
    mode: str | None  # "common" or "any" acceptance; None for one text
    descriptor: str
    build: Callable[..., Automaton]
    chain_cap: Callable[[dict], int]
    oracle: Callable[[list], object]  # texts -> ground-truth oracle
    reference: Callable[..., Automaton] | None
    takes_k: bool = False
    takes_sigma: bool = False


def _greedy(texts):
    return GreedySubsequenceOracle(texts[0])


def _sa_reference(texts, state_budget):
    return build_sa(texts[0])


def _common_reference(texts, state_budget):
    """The naive construction for two texts; beyond that, the levelled one at
    the texts' own alphabet size."""
    if len(texts) == 2:
        return build_naive_common(texts[0], texts[1], state_budget=state_budget)
    return build_common_level(texts, state_budget=state_budget)


VARIANTS: dict[str, Variant] = {
    v.name: v
    for v in (
        Variant(
            "sa", 1, 1, None,
            descriptor="size O(n*sigma), delay O(1)",
            build=lambda texts, k, sigma, budget: build_sa(texts[0]),
            chain_cap=lambda meta: 0,
            oracle=_greedy, reference=_sa_reference,
        ),
        Variant(
            "chain", 1, 1, None,
            descriptor="size O(n), delay O(n)",
            build=lambda texts, k, sigma, budget: build_chain(texts[0]),
            chain_cap=lambda meta: meta["n"],
            oracle=_greedy, reference=_sa_reference,
        ),
        Variant(
            "level", 1, 1, None,
            descriptor="size O(n*log n), delay O(log n)",
            build=lambda texts, k, sigma, budget: build_level(texts[0]),
            chain_cap=lambda meta: meta["n"].bit_length(),  # floor(log2 n) + 1, 0 for n = 0
            oracle=_greedy, reference=_sa_reference,
        ),
        Variant(
            "klevel", 1, 1, None, takes_k=True, takes_sigma=True,
            descriptor="size O(n*k*log_k sigma), delay O(log_k sigma)",
            build=lambda texts, k, sigma, budget: build_k_level(texts[0], k, sigma=sigma),
            chain_cap=lambda meta: level_cap(meta["k"], meta.get("sigma", 0)) + 1,
            oracle=_greedy, reference=_sa_reference,
        ),
        Variant(
            "naive-common", 2, 2, "common",
            descriptor="size O(n1*n2), delay O(min(n1,n2))",
            build=lambda texts, k, sigma, budget: build_naive_common(*texts, state_budget=budget),
            chain_cap=lambda meta: min(meta["lengths"]),
            oracle=CommonSubsequenceOracle, reference=_common_reference,
        ),
        Variant(
            "common-level", 2, None, "common", takes_sigma=True,
            descriptor="size O(N*log sigma*prod n_i), delay O(log sigma)",
            build=lambda texts, k, sigma, budget: build_common_level(texts, sigma=sigma, state_budget=budget),
            chain_cap=lambda meta: level_cap(2, meta.get("sigma", 0)) + 1,
            oracle=CommonSubsequenceOracle, reference=_common_reference,
        ),
        Variant(
            "any-level", 2, None, "any", takes_sigma=True,
            descriptor="size O(N*log sigma*prod n_i), delay O(log sigma)",
            build=lambda texts, k, sigma, budget: build_any_level(texts, sigma=sigma, state_budget=budget),
            chain_cap=lambda meta: level_cap(2, meta.get("sigma", 0)) + 1,
            oracle=AnySubsequenceOracle, reference=None,
        ),
    )
}

# the names the CLI accepts: the variants plus the multi-string alias "naive"
NAMES = sorted([*VARIANTS, "naive"])


def resolve(name, n_texts: int, mode=None, k=None, sigma=None) -> Variant:
    """The row for a build request, checked against its inputs.

    ``name`` may be an alias for two or more texts: "naive" is naive-common,
    "level" the ``mode`` flavour (common by default) of the levelled product.
    """
    if name is None:
        raise ParameterError("--variant is required here")
    if n_texts >= 2 and name in ("naive", "level"):
        name = "naive-common" if name == "naive" else f"{mode or 'common'}-level"
    return _checked(name, n_texts, mode, k, sigma)


def text_count(meta: dict) -> int:
    """How many texts the automaton with this metadata was built from."""
    return len(meta["lengths"]) if "lengths" in meta else 1


def variant_of(meta: dict) -> Variant:
    """The row an automaton's metadata names, checked against its text count
    and ``k`` (within ``build_k_level``'s range for the stored sigma)."""
    v = _checked(meta.get("variant"), text_count(meta), None, meta.get("k"), None)
    sigma = meta.get("sigma", 0)
    if v.takes_k and meta["k"] > max(2, sigma):
        raise ParameterError(f"k must lie in [2, {max(2, sigma)}] for sigma={sigma}, got {meta['k']}")
    return v


def _checked(name, n_texts, mode, k, sigma) -> Variant:
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
    if sigma is not None and not v.takes_sigma:
        raise ParameterError(f"variant {name!r} takes no sigma override")
    return v


def structural_delay_cap(meta: dict) -> int:
    """Variant-specific upper bound on the longest default chain."""
    return variant_of(meta).chain_cap(meta)


# ---------------------------------------------------------------------------
# trade-off measurement


@dataclass
class TradeoffRow:
    variant: str
    n: int
    sigma: int
    k: int | None
    metrics: SizeMetrics
    delay_bound: int
    theoretical_delay_cap: int
    descriptor: str

    def stats_dict(self) -> dict:
        m = self.metrics
        return {
            "variant": self.variant,
            "n": self.n,
            "sigma": self.sigma,
            "k": self.k,
            "states": m.states,
            "regular_transitions": m.regular_transitions,
            "default_transitions": m.default_transitions,
            "size_total": m.size_total,
            "longest_default_chain": m.longest_default_chain,
            "delay_bound_structural": self.delay_bound,
            "theoretical_delay_cap": self.theoretical_delay_cap,
            "descriptor": self.descriptor,
        }


def tradeoff_row(a: Automaton) -> TradeoffRow:
    m = size_metrics(a)
    meta = a.meta
    v = variant_of(meta)
    n = meta.get("n", 0) if "n" in meta else max(meta.get("lengths", [0]))
    return TradeoffRow(
        variant=v.name,
        n=n,
        sigma=meta.get("sigma", len(a.alphabet)),
        k=meta.get("k"),
        metrics=m,
        delay_bound=m.longest_default_chain + 1,
        theoretical_delay_cap=v.chain_cap(meta),
        descriptor=v.descriptor,
    )


def tradeoff_table(text: str, ks, *, sigma: int | None = None) -> list[TradeoffRow]:
    """One row per single-string variant in registry order (sa, chain, level,
    klevel), klevel once for each requested k in ascending order."""
    return [
        tradeoff_row(v.build([text], k, sigma, None))
        for v in VARIANTS.values()
        if v.max_texts == 1
        for k in (sorted(set(int(k) for k in ks)) if v.takes_k else [None])
    ]
