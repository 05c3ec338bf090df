"""Oracle self-checks, equivalence machinery (including mutation detection and
the sampled mode), and trade-off tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseq_automata import (
    Automaton,
    EnumerationBudgetError,
    GreedySubsequenceOracle,
    build_k_level,
    build_level,
    build_sa,
    default_check_alphabet,
    equivalence_check,
    is_subsequence,
    is_subsequence_dp,
    run,
    size_metrics,
    structural_delay_cap,
    trace_equivalence,
    tradeoff_table,
)

texts_st = st.text(alphabet="abcd", max_size=12)


class TestSubsequenceOracles:
    def test_examples(self):
        assert is_subsequence("bda", "abadca")
        assert not is_subsequence("aab", "abadca")
        assert is_subsequence("", "x")
        assert is_subsequence("", "")
        assert not is_subsequence("x", "")

    @given(p=texts_st, s=texts_st)
    @settings(deadline=None, max_examples=300)
    def test_greedy_agrees_with_dp(self, p, s):
        assert is_subsequence(p, s) == is_subsequence_dp(p, s)

    @given(s=texts_st, data=st.data())
    @settings(deadline=None, max_examples=100)
    def test_actual_subsequences_accepted(self, s, data):
        keep = data.draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
        p = "".join(c for c, k in zip(s, keep) if k)
        assert is_subsequence(p, s) and is_subsequence_dp(p, s)

    def test_tabular_oracle_matches_calls(self):
        text = "abadca"
        oracle = GreedySubsequenceOracle(text)
        chars = default_check_alphabet([text])
        table = oracle.transition_table(chars)
        import itertools

        for l in range(4):
            for tup in itertools.product(range(len(chars)), repeat=l):
                state = 0
                for c in tup:
                    state = int(table[state, c]) if state >= 0 else -1
                pattern = "".join(chars[c] for c in tup)
                assert (state >= 0) == oracle(pattern)


def delete_transition(a: Automaton, entry_index: int) -> Automaton:
    """Copy of ``a`` with one CSR entry removed."""
    keep = np.ones(len(a.syms), dtype=bool)
    keep[entry_index] = False
    sources = np.repeat(np.arange(a.state_count), np.diff(a.offsets))
    counts = np.bincount(sources[keep], minlength=a.state_count)
    offsets = np.zeros(a.state_count + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Automaton(
        a.alphabet, offsets, a.syms[keep], a.targets[keep], a.defaults.copy(),
        a.accepting.copy(), a.meta,
    )


def test_check_alphabet_fresh_symbol_below_last_code_point():
    assert default_check_alphabet(["ba"]) == ["a", "b", "c"]
    top = chr(0x10FFFF)
    chars = default_check_alphabet(["a" + top + chr(0x10FFFE)])
    assert chars == ["a", chr(0x10FFFE), top, chr(0x10FFFD)]
    a = build_sa("a" + top)
    assert equivalence_check(a, GreedySubsequenceOracle("a" + top), default_check_alphabet(["a" + top]), 3).ok


class TestEquivalenceCheck:
    def test_sa_clean(self):
        text = "abadca"
        report = equivalence_check(
            build_sa(text), GreedySubsequenceOracle(text), default_check_alphabet([text]), 4
        )
        assert report.ok and report.mode == "exhaustive"
        assert report.patterns_checked == sum(5**l for l in range(5))
        assert report.max_defaults_per_char == 0

    def test_mutation_caught_and_replayable(self):
        text = "abadca"
        a = delete_transition(build_k_level(text, 2), 3)
        report = equivalence_check(
            a, GreedySubsequenceOracle(text), default_check_alphabet([text]), 4
        )
        assert len(report.mismatches) >= 1
        for mm in report.mismatches[:5]:
            assert run(a, mm.pattern).accepted == mm.automaton_accepts
            assert is_subsequence(mm.pattern, text) == mm.oracle_accepts
            assert mm.automaton_accepts != mm.oracle_accepts

    def test_empty_text_accepts_only_epsilon(self):
        a = build_level("")
        report = equivalence_check(a, GreedySubsequenceOracle(""), ["a"], 3)
        assert report.ok
        assert run(a, "").accepted and not run(a, "a").accepted

    def test_callable_oracle_path_agrees_with_tabular(self):
        text = "abacba"
        a = build_level(text)
        chars = default_check_alphabet([text])
        tab = equivalence_check(a, GreedySubsequenceOracle(text), chars, 4)
        plain = equivalence_check(a, lambda p: is_subsequence(p, text), chars, 4)
        assert tab.ok == plain.ok
        assert tab.patterns_checked == plain.patterns_checked
        assert tab.max_defaults_per_char == plain.max_defaults_per_char

    def test_max_defaults_matches_per_pattern_runs(self):
        import itertools

        text = "abacbabcabad"
        a = build_level(text)
        chars = default_check_alphabet([text])
        report = equivalence_check(a, GreedySubsequenceOracle(text), chars, 3)
        worst = 0
        for l in range(4):
            for tup in itertools.product(chars, repeat=l):
                out = run(a, "".join(tup))
                worst = max(worst, max(out.defaults_per_char, default=0))
        assert report.max_defaults_per_char == worst

    def test_budget_refusal_counts(self):
        text = "abadca"
        with pytest.raises(EnumerationBudgetError) as e:
            equivalence_check(
                build_sa(text), GreedySubsequenceOracle(text), default_check_alphabet([text]), 10,
                budget=1000,
            )
        assert e.value.patterns == sum(5**l for l in range(11))

    def test_negative_max_len_refused(self):
        text = "abcabd"
        with pytest.raises(ValueError, match="max_len"):
            equivalence_check(build_k_level(text, 2), GreedySubsequenceOracle(text), default_check_alphabet([text]), -1)

    def test_sampling_mode_is_seeded_and_deterministic(self):
        text = "abadca"
        a = build_sa(text)
        oracle = GreedySubsequenceOracle(text)
        chars = default_check_alphabet([text])
        r1 = equivalence_check(a, oracle, chars, 10, budget=1000, sample=500, seed=42)
        r2 = equivalence_check(a, oracle, chars, 10, budget=1000, sample=500, seed=42)
        assert r1.mode == r2.mode == "sampled"
        assert r1.patterns_checked == 500 and r1.ok
        assert [m.pattern for m in r1.mismatches] == [m.pattern for m in r2.mismatches]

    def test_sampling_catches_mutation(self):
        text = "abadcaabdc"
        a = delete_transition(build_sa(text), 1)
        report = equivalence_check(
            a, GreedySubsequenceOracle(text), default_check_alphabet([text]), 8,
            budget=100, sample=4000, seed=1,
        )
        assert not report.ok

    def test_vectorized_verdicts_match_per_pattern_runs(self):
        # the BFS fast path must agree with run() pattern by pattern, also on
        # deliberately broken automata
        import itertools

        text = "abacba"
        chars = default_check_alphabet([text])
        for a in [build_level(text), delete_transition(build_level(text), 2)]:
            rep = equivalence_check(a, GreedySubsequenceOracle(text), chars, 4)
            flagged = {m.pattern for m in rep.mismatches}
            for l in range(5):
                for tup in itertools.product(chars, repeat=l):
                    p = "".join(tup)
                    disagrees = run(a, p).accepted != is_subsequence(p, text)
                    assert (p in flagged) == disagrees, p


class TestTraceEquivalence:
    def test_clean_pairs(self):
        text = "abacbabcabad"
        chars = default_check_alphabet([text])
        sa = build_sa(text)
        assert trace_equivalence(sa, build_level(text), chars, 4).equal
        assert trace_equivalence(sa, build_k_level(text, 3), chars, 4).equal

    def test_chain_vs_klevel(self):
        from subseq_automata import build_chain

        chars = default_check_alphabet(["abadca"])
        check = trace_equivalence(build_chain("abadca"), build_k_level("abadca", 2), chars, 4)
        assert check.equal, check.counterexample

    def test_negative_max_len_refused(self):
        text = "abcabd"
        with pytest.raises(ValueError, match="max_len"):
            trace_equivalence(build_sa(text), build_k_level(text, 2), default_check_alphabet([text]), -1)

    def test_counterexample_reported(self):
        text = "abadca"
        sa = build_sa(text)
        broken = delete_transition(build_level(text), 0)
        check = trace_equivalence(sa, broken, default_check_alphabet([text]), 4)
        assert not check.equal
        assert check.counterexample is not None
        assert run(sa, check.counterexample).accepted != run(broken, check.counterexample).accepted or (
            run(sa, check.counterexample).consumed_targets
            != run(broken, check.counterexample).consumed_targets
        )


class TestTradeoffTable:
    def test_abadca_rows(self):
        rows = tradeoff_table("abadca", [2])
        by_variant = {r.variant: r for r in rows}
        assert by_variant["sa"].metrics.regular_transitions == 17
        assert by_variant["chain"].metrics.size_total == 7 + 6 + 6
        assert by_variant["klevel"].k == 2
        assert [r.variant for r in rows] == ["sa", "chain", "level", "klevel"]

    def test_delay_bound_column_non_increasing_in_k(self):
        rng = np.random.default_rng(3)
        text = "".join(chr(int(v)) for v in rng.integers(0, 64, 2000))
        rows = [r for r in tradeoff_table(text, [2, 4, 8, 64], sigma=64) if r.variant == "klevel"]
        bounds = [r.delay_bound for r in rows]
        assert bounds == sorted(bounds, reverse=True) or all(
            x >= y for x, y in zip(bounds, bounds[1:])
        )
        for r in rows:
            assert r.metrics.longest_default_chain <= r.theoretical_delay_cap

    def test_chain_row_at_structural_cap(self):
        rows = tradeoff_table("abadca", [2, 4])
        for r in rows:
            assert r.metrics.longest_default_chain <= structural_delay_cap(
                {"variant": r.variant, "n": r.n, "k": r.k, "sigma": r.sigma,
                 **({"lengths": [r.n]} if r.variant.endswith("common") else {})}
            )

    def test_rows_match_direct_metrics(self):
        rows = tradeoff_table("abacbabcabad", [2, 3])
        builders = {
            "sa": lambda: build_sa("abacbabcabad"),
            "chain": lambda: __import__("subseq_automata").build_chain("abacbabcabad"),
            "level": lambda: build_level("abacbabcabad"),
        }
        for r in rows:
            if r.variant in builders:
                assert r.metrics == size_metrics(builders[r.variant]())
