"""Oracle self-checks, equivalence machinery (including mutation detection and
trace counterexamples), and trade-off tables."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseq_automata import (
    AnySubsequenceOracle,
    Automaton,
    CommonSubsequenceOracle,
    EnumerationBudgetError,
    GreedySubsequenceOracle,
    TupleIndexer,
    build_any_level,
    build_chain,
    build_common_level,
    build_k_level,
    build_level,
    build_naive_common,
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
from subseq_automata import _kernels as K
from subseq_automata import oracles

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
        for l in range(4):
            for tup in itertools.product(range(len(chars)), repeat=l):
                state = 0
                for c in tup:
                    state = int(table[state, c]) if state >= 0 else -1
                pattern = "".join(chars[c] for c in tup)
                assert (state >= 0) == oracle(pattern)


def reference_greedy_table(text, chars):
    """Per-state, per-character ``str.find`` walk: the greedy oracle's table."""
    table = np.full((len(text) + 1, len(chars)), -1, dtype=np.int64)
    for j, ch in enumerate(chars):
        for pos in range(len(text) + 1):
            idx = text.find(ch, pos)
            if idx >= 0:
                table[pos, j] = idx + 1
    return table


def reference_product_table(texts, chars, dead):
    """Per-product-state step over the product automata's state ids (the
    origin, then 1-based coordinates through ``TupleIndexer``): the
    every-string (``dead`` False) or some-string oracle's table."""
    indexer = TupleIndexer(tuple(len(t) + dead for t in texts))

    def step(coords, ch):
        out, alive = [], False
        for pos, text in zip(coords, texts):
            idx = -1 if pos == len(text) + 1 else text.find(ch, pos)
            if idx >= 0:
                out.append(idx + 1)
                alive = True
            elif dead:
                out.append(len(text) + 1)
            else:
                return None
        return out if alive or not dead else None

    origin = tuple(0 for _ in texts)
    states = [origin, *itertools.product(*(range(1, d + 1) for d in indexer.dims))]
    table = np.full((indexer.total_states, len(chars)), -1, dtype=np.int64)
    for coords in states:
        for j, ch in enumerate(chars):
            nxt = step(coords, ch)
            if nxt is not None:
                table[indexer.encode(coords), j] = indexer.encode(nxt)
    return table


def random_texts(rng, count, alphabet, max_len):
    return ["".join(rng.choice(list(alphabet), size=int(rng.integers(0, max_len + 1)))) for _ in range(count)]


def test_greedy_table_matches_find_loop():
    rng = np.random.default_rng(8)
    for text in ["", "a", "abadca"] + random_texts(rng, 6, "abcd", 20):
        for chars in [default_check_alphabet([text]), ["d", "z", "a"], ["a", "a"], []]:
            got = GreedySubsequenceOracle(text).transition_table(chars)
            assert np.array_equal(got, reference_greedy_table(text, chars)), (text, chars)


def test_product_tables_match_per_state_loops():
    rng = np.random.default_rng(9)
    cases = [[""], ["", ""], ["ab", ""], ["", "ba", "a"]]
    cases += [random_texts(rng, n, "abc", {2: 6, 3: 4, 4: 3}[n]) for n in (2, 3, 4) for _ in range(3)]
    for texts in cases:
        # the fresh symbol never occurs; ["c", "a"] lacks text symbols and reorders
        for chars in [default_check_alphabet(texts), ["c", "a"]]:
            for oracle, dead in ((CommonSubsequenceOracle, False), (AnySubsequenceOracle, True)):
                got = oracle(texts).transition_table(chars)
                assert np.array_equal(got, reference_product_table(texts, chars, dead)), (texts, chars, dead)


def test_greedy_table_holds_one_next_occurrence_table():
    # the check symbols' columns plus one shared by the text's other symbols
    rng = np.random.default_rng(4)
    text = "".join(map(chr, rng.integers(0, 256, size=20_000)))
    chars = default_check_alphabet([text])
    oracle = GreedySubsequenceOracle(text)
    tracemalloc.start()
    try:
        table = oracle.transition_table(chars)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (len(text) + 1, len(chars))
    assert peak < 1.25 * (len(text) + 1) * (256 + 2) * 4


def reference_resolved_tables(a: Automaton):
    """Per-state closure over the default chain: where each symbol ends up and
    how many defaults are crossed first. Defaults point forward, so rows are
    filled in descending state order."""
    sigma = len(a.alphabet)
    table = np.full((a.state_count, sigma), -1, dtype=np.int32)
    hops = np.zeros((a.state_count, sigma), dtype=np.int32)
    for s in range(a.state_count - 1, -1, -1):
        d = a.defaults[s]
        if d >= 0:
            table[s] = table[d]
            hops[s] = hops[d] + 1
        lo, hi = a.offsets[s], a.offsets[s + 1]
        if hi > lo:
            table[s, a.syms[lo:hi]] = a.targets[lo:hi]
            hops[s, a.syms[lo:hi]] = 0
    return table, hops


def test_resolved_tables_against_default_walk():
    for a in [build_sa("abadca"), build_level("abacbabcabad"), build_k_level("abacbabcabad", 2)]:
        table, hops = reference_resolved_tables(a)
        for s in range(a.state_count):
            for c in range(len(a.alphabet)):
                state, n_hops, target = s, 0, -1
                while True:
                    t = a.transition(state, c)
                    if t is not None:
                        target = t
                        break
                    if a.default(state) is None:
                        break
                    state = a.default(state)
                    n_hops += 1
                assert table[s, c] == target
                if target >= 0:
                    assert hops[s, c] == n_hops


def test_resolved_table_rows_match_reference():
    rng = np.random.default_rng(10)
    automata = []
    for text in ["", "abadca"] + random_texts(rng, 3, "abcde", 40):
        automata += [build_sa(text), build_chain(text), build_level(text)]
        automata += [build_k_level(text, 2), build_k_level(text, 3, sigma=5)]
    for texts in [random_texts(rng, 2, "abc", 8), random_texts(rng, 3, "abc", 5)]:
        automata += [build_common_level(texts), build_any_level(texts)]
    automata.append(build_naive_common(*random_texts(rng, 2, "abc", 8)))
    for a in automata:
        table, hops = reference_resolved_tables(a)
        chars = ["z"] + list(a.alphabet)[::-1]  # "z" is outside every alphabet
        codes = [a.alphabet.code(ch) for ch in chars]
        columns = np.full(len(a.alphabet), -1, dtype=np.int64)
        for j, c in enumerate(codes):
            if c is not None:
                columns[c] = j
        states = np.arange(a.state_count)
        got_t, got_h = K.resolved_tables(a.offsets, a.syms, a.targets, a.defaults, states, columns, len(chars))
        want_t = np.full((a.state_count, len(chars)), -1)
        want_h = np.zeros((a.state_count, len(chars)), dtype=np.int64)
        for j, c in enumerate(codes):
            if c is not None:
                want_t[:, j] = table[:, c]
                want_h[:, j] = np.where(table[:, c] >= 0, hops[:, c], 0)
        assert got_t.tolist() == want_t.tolist(), a.meta
        assert got_h.tolist() == want_h.tolist(), a.meta


def test_walk_resolves_each_distinct_live_state_once(monkeypatch):
    # at every length the kernel gets exactly the distinct live states of the
    # previous frontier, so the walk's cost tracks states, not patterns
    rng = np.random.default_rng(5)
    text = "".join(map(chr, rng.integers(0, 64, size=2000)))
    a = build_k_level(text, 2)
    chars = default_check_alphabet([text])
    calls = []
    kernel = K.resolved_tables

    def spy(offsets, syms, targets, defaults, states, columns, width):
        calls.append(np.array(states))
        return kernel(offsets, syms, targets, defaults, states, columns, width)

    monkeypatch.setattr(K, "resolved_tables", spy)
    oracle = GreedySubsequenceOracle(text)
    report = equivalence_check(a, oracle, chars, 3)
    # verdicts and states agree, so the automaton's frontiers are the oracle's
    assert report.ok and report.trace_counterexample is None
    assert len(calls) == 3
    table = oracle.transition_table(chars)
    frontier = np.array([a.initial])
    for asked in calls:
        assert len(set(asked.tolist())) == len(asked)
        assert sorted(asked.tolist()) == sorted(set(frontier[frontier >= 0].tolist()))
        frontier = np.where(frontier[:, None] >= 0, table[np.maximum(frontier, 0)], -1).reshape(-1)
    assert len(calls[-1]) < len(chars) ** 2 // 10


def test_trace_check_holds_no_state_by_symbol_table():
    # one (n+1) x sigma int32 table is the bound the frontier walk stays under
    rng = np.random.default_rng(4)
    text = "".join(map(chr, rng.integers(0, 256, size=20_000)))
    a1, a2 = build_k_level(text, 2), build_k_level(text, 16)
    chars = default_check_alphabet([text])
    tracemalloc.start()
    try:
        assert trace_equivalence(a1, a2, chars, 2).equal
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (len(text) + 1) * 256 * 4


def delete_transition(a: Automaton, entry_index: int) -> Automaton:
    """Copy of ``a`` with one CSR entry removed."""
    keep = np.ones(len(a.syms), dtype=bool)
    keep[entry_index] = False
    sources = np.repeat(np.arange(a.state_count), np.diff(a.offsets))
    counts = np.bincount(sources[keep], minlength=a.state_count)
    offsets = np.zeros(a.state_count + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Automaton(a.alphabet, offsets, a.syms[keep], a.targets[keep], a.defaults.copy(), a.meta)


def redirect_transition(a: Automaton, state: int, ch: str, target: int) -> Automaton:
    """Copy of ``a`` whose ``state`` sends ``ch`` to ``target``."""
    lo, hi = a.offsets[state], a.offsets[state + 1]
    targets = a.targets.copy()
    targets[lo + a.syms[lo:hi].tolist().index(a.alphabet.code(ch))] = target
    return Automaton(a.alphabet, a.offsets, a.syms, targets, a.defaults, a.meta)


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
        assert report.ok
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

    def test_differing_state_is_a_trace_counterexample(self):
        text = "abcabc"
        oracle = GreedySubsequenceOracle(text)
        chars = default_check_alphabet([text])
        a = redirect_transition(build_sa(text), 0, "a", 4)
        report = equivalence_check(a, oracle, chars, 1)
        assert report.ok and report.trace_counterexample == "a"
        assert equivalence_check(build_sa(text), oracle, chars, 3).trace_counterexample is None

    def test_automaton_reference_reports_like_the_greedy_oracle(self):
        text = "abacbabcabad"
        chars = default_check_alphabet([text])
        a = build_k_level(text, 2)
        by_oracle = equivalence_check(a, GreedySubsequenceOracle(text), chars, 4)
        by_automaton = equivalence_check(a, build_sa(text), chars, 4)
        assert by_oracle.ok and by_oracle.trace_counterexample is None
        for field in ("patterns_checked", "mismatches", "max_defaults_per_char", "trace_counterexample"):
            assert getattr(by_automaton, field) == getattr(by_oracle, field), field

    def test_oracle_over_other_states_refused(self):
        with pytest.raises(ValueError, match="states"):
            equivalence_check(build_sa("abc"), GreedySubsequenceOracle("ab"), ["a", "b", "c"], 1)
        texts = ["ab", "ba"]
        with pytest.raises(ValueError, match="states"):
            equivalence_check(build_any_level(texts), CommonSubsequenceOracle(texts), ["a", "b"], 1)

    def test_empty_text_accepts_only_epsilon(self):
        a = build_level("")
        report = equivalence_check(a, GreedySubsequenceOracle(""), ["a"], 3)
        assert report.ok
        assert run(a, "").accepted and not run(a, "a").accepted

    def test_max_defaults_matches_per_pattern_runs(self):
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
                build_sa(text), GreedySubsequenceOracle(text), default_check_alphabet([text]), 10
            )
        assert e.value.patterns == sum(5**l for l in range(11))

    @pytest.mark.parametrize(
        "chars,max_len,count",
        [
            (["a"], 10**12, str(10**12 + 1)),
            (["a", "b"], 62, str(2**63 - 1)),
            (["a", "b"], 63, f"more than {2**63}"),
            (["a", "b", "c"], 10**12, f"more than {2**63}"),
        ],
    )
    def test_budget_refusal_of_huge_spaces(self, chars, max_len, count):
        text = "abc"
        with pytest.raises(EnumerationBudgetError, match=f"enumerating {count} patterns") as e:
            equivalence_check(build_sa(text), GreedySubsequenceOracle(text), chars, max_len)
        assert e.value.count == count

    def test_negative_max_len_refused(self):
        text = "abcabd"
        with pytest.raises(ValueError, match="max_len"):
            equivalence_check(build_k_level(text, 2), GreedySubsequenceOracle(text), default_check_alphabet([text]), -1)

    def test_vectorized_verdicts_match_per_pattern_runs(self):
        # the BFS fast path must agree with run() pattern by pattern, also on
        # deliberately broken automata
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

    def test_repeated_check_symbols_refused(self):
        text = "abcabd"
        with pytest.raises(ValueError, match="repeat"):
            trace_equivalence(build_sa(text), build_k_level(text, 2), ["a", "b", "a"], 2)

    def test_negative_max_len_refused(self):
        text = "abcabd"
        with pytest.raises(ValueError, match="max_len"):
            trace_equivalence(build_sa(text), build_k_level(text, 2), default_check_alphabet([text]), -1)

    def test_redirected_edge_is_the_counterexample(self):
        chars = default_check_alphabet(["abcabc"])
        broken = redirect_transition(build_sa("abcabc"), 0, "a", 4)
        check = trace_equivalence(build_sa("abcabc"), broken, chars, 3)
        assert not check.equal and check.counterexample == "a"
        assert check.patterns_checked == sum(len(chars) ** l for l in range(4))

    def test_shortest_failure_first_and_state_before_verdict(self):
        sa = build_sa("abcabc")
        chars = default_check_alphabet(["abcabc"])
        # length 1: "a" rejected by the copy (verdict), "c" consumed into 6, not 3 (state)
        broken = delete_transition(redirect_transition(sa, 0, "c", 6), 0)
        assert trace_equivalence(sa, broken, chars, 3).counterexample == "c"
        # a verdict at length 1 comes before a state at length 2 ("bc": 3 -> 6)
        broken = delete_transition(redirect_transition(sa, 2, "c", 6), 0)
        assert trace_equivalence(sa, broken, chars, 3).counterexample == "a"

    def test_decodes_only_the_counterexample(self, monkeypatch):
        # a failing pair decodes one pattern, however many differ
        decoded = []
        decode = oracles._decode_pattern

        def counting_decode(*args):
            decoded.append(args)
            return decode(*args)

        monkeypatch.setattr(oracles, "_decode_pattern", counting_decode)
        texts = ["abcabcab", "bcacbaab"]
        check = trace_equivalence(build_sa(texts[0]), build_sa(texts[1]), default_check_alphabet(texts), 4)
        assert check.counterexample == "a" and check.patterns_checked == 341
        assert len(decoded) == 1

    def test_other_state_counts_refused(self):
        with pytest.raises(ValueError, match="states"):
            trace_equivalence(build_sa("abc"), build_sa("abca"), ["a", "b", "c"], 2)
        with pytest.raises(ValueError, match="states"):
            trace_equivalence(build_common_level(["ab", "ba"]), build_any_level(["ab", "ba"]), ["a", "b"], 2)

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
