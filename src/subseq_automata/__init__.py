"""Subsequence automata with default transitions.

Builders cover the whole size/delay trade-off for a single string (plain
subsequence automaton, prefix chain, uncapped and base-k capped level
hierarchies) and for several strings (naive common, levelled common, levelled
any-of). Ground-truth oracles, equivalence checks and certificates, and a CLI
(``subseqa``) round out the package.
"""

from ._kernels import BACKEND, warmup
from .automaton import (
    Alphabet,
    Automaton,
    DocumentError,
    ParameterError,
    RunOutcome,
    SizeMetrics,
    ValidationReport,
    deserialize,
    export_dot,
    reachable_states,
    run,
    serialize,
    size_metrics,
    validate,
)
from .multi import (
    StateBudgetError,
    build_any_level,
    build_common_level,
    build_naive_common,
)
from .oracles import (
    AnySubsequenceOracle,
    CommonSubsequenceOracle,
    EquivalenceReport,
    GreedySubsequenceOracle,
    TraceCheck,
    certify,
    default_check_alphabet,
    equivalence_check,
    is_any_subsequence,
    is_common_subsequence,
    is_subsequence,
    trace_equivalence,
)
from .single import (
    build_chain,
    build_k_level,
    build_level,
    build_sa,
    level_cap,
)
from .variants import size_report, structural_delay_cap, tradeoff_table

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AnySubsequenceOracle",
    "Automaton",
    "BACKEND",
    "CommonSubsequenceOracle",
    "DocumentError",
    "EquivalenceReport",
    "GreedySubsequenceOracle",
    "ParameterError",
    "RunOutcome",
    "SizeMetrics",
    "StateBudgetError",
    "TraceCheck",
    "ValidationReport",
    "build_any_level",
    "build_chain",
    "build_common_level",
    "build_k_level",
    "build_level",
    "build_naive_common",
    "build_sa",
    "certify",
    "default_check_alphabet",
    "deserialize",
    "equivalence_check",
    "export_dot",
    "is_any_subsequence",
    "is_common_subsequence",
    "is_subsequence",
    "level_cap",
    "reachable_states",
    "run",
    "serialize",
    "size_metrics",
    "size_report",
    "structural_delay_cap",
    "trace_equivalence",
    "tradeoff_table",
    "validate",
    "warmup",
]
