"""Oracle self-checks, equivalence machinery (including mutation detection and
trace counterexamples), and trade-off tables."""

import hashlib
import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseq_automata import (
    Alphabet,
    AnySubsequenceOracle,
    Automaton,
    CommonSubsequenceOracle,
    GreedySubsequenceOracle,
    build_any_level,
    build_chain,
    build_common_level,
    build_k_level,
    build_level,
    build_naive_common,
    build_sa,
    certify,
    default_check_alphabet,
    deserialize,
    equivalence_check,
    export_dot,
    is_subsequence,
    run,
    serialize,
    size_metrics,
    structural_delay_cap,
    trace_equivalence,
    tradeoff_table,
    validate,
)
from subseq_automata import _kernels as K
from subseq_automata import oracles
from subseq_automata.automaton import _decode_ids, state_dims
from subseq_automata.cli import main

from subseq_automata.variants import VARIANTS

from test_golden import GOLDEN
from reference import (
    TupleIndexer,
    is_subsequence_dp,
    oracle_accepts,
    pattern_equivalence_check,
    pattern_trace_equivalence,
    resolved_tables,
    resolved_tables_step,
    table_built_product_step,
    variant_oracle,
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
        for l in range(4):
            for tup in itertools.product(range(len(chars)), repeat=l):
                state = 0
                for c in tup:
                    state = int(table[state, c]) if state >= 0 else -1
                pattern = "".join(chars[c] for c in tup)
                assert (state >= 0) == oracle_accepts(oracle, pattern)


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


def test_greedy_table_over_code_points_beyond_latin_1():
    # text symbols below, between and above the check symbols' code points,
    # a lone surrogate, and check symbols absent from the text
    rng = np.random.default_rng(10)
    symbols = "a\xe9\u20ac\ud800\U0001d11e"
    for text in random_texts(rng, 4, symbols, 30):
        for chars in [list(symbols), ["\u20ac"], ["\U0001d11e", "b", "\xe9", "\U0001d11e"], ["\U0010ffff", "a"]]:
            got = GreedySubsequenceOracle(text).transition_table(chars)
            assert np.array_equal(got, reference_greedy_table(text, chars)), (text, chars)


def test_greedy_table_gives_entries_that_are_not_one_character_no_transitions():
    # check alphabets may hold such entries; like the automaton's step, the
    # oracle never matches them, and the single characters beside them still do
    text = "abcab\u20ac"
    chars = ["ab", "a", 3, "", "\u20ac", "b"]
    got = GreedySubsequenceOracle(text).transition_table(chars)
    assert np.all(got[:, [0, 2, 3]] == -1)
    assert np.array_equal(got[:, [1, 4, 5]], reference_greedy_table(text, ["a", "\u20ac", "b"]))
    report = equivalence_check(build_level(text), GreedySubsequenceOracle(text), ["ab", "a"], 2)
    assert report.ok and report.trace_counterexample is None


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


def test_product_step_matches_per_state_loops_on_any_frontier():
    # frontiers in any order with repeats, -1 and the origin, over texts
    # with empty members (a zero dimension in common mode) and check
    # alphabets with absent, reordered and multi-character entries
    rng = np.random.default_rng(12)
    cases = [["", "ab"], ["ba", ""], ["", "", "a"], ["abca", "cab"], ["a", "b", "ab"]]
    cases += [random_texts(rng, n, "abc", 5) for n in (2, 3) for _ in range(2)]
    for texts in cases:
        for chars in [default_check_alphabet(texts), ["c", "a"], ["z"], ["ab", "b", "", "a"], []]:
            singles = [j for j, ch in enumerate(chars) if len(ch) == 1]
            for oracle, dead in ((CommonSubsequenceOracle, False), (AnySubsequenceOracle, True)):
                o = oracle(texts)
                table = np.full((o.state_count, len(chars)), -1, dtype=np.int64)
                table[:, singles] = reference_product_table(texts, [chars[j] for j in singles], dead)
                step = o.step(chars)
                every = rng.permutation(o.state_count)
                for states in [every, np.array([-1, 0, -1, 0]), rng.integers(-1, o.state_count, 9), every[:0]]:
                    want = np.where(states[:, None] >= 0, table[np.maximum(states, 0)], -1).reshape(-1)
                    assert np.array_equal(step(states), want), (texts, chars, dead, states)
    # any mode's dead coordinates: state (1, 2) of ["ab", "b"] has parked the
    # second text at its dead value; only "b" steps it, to (2, 2)
    o = AnySubsequenceOracle(["ab", "b"])
    dead_state = 1 + 0 * 2 + 1
    assert np.array_equal(o.step(["a", "b"])(np.array([dead_state])), [-1, 1 + 1 * 2 + 1])


def test_product_step_equals_the_table_built_step():
    # the contributions tabled straight from the texts step every state as
    # those taken from the greedy oracles' tables did
    rng = np.random.default_rng(24)
    cases = [["", "abc"], ["ab", "", "b"], ["", ""]]
    cases += [random_texts(rng, count, "abc", 6) for count in (2, 3) for _ in range(6)]
    assert any(0 in CommonSubsequenceOracle(texts).dims for texts in cases)
    for texts in cases:
        fresh = default_check_alphabet(texts)
        for chars in [fresh, ["b", "ab", "a", fresh[-1]], ["c", "", "a"]]:
            for oracle in (CommonSubsequenceOracle(texts), AnySubsequenceOracle(texts)):
                every = np.arange(-1, oracle.state_count)
                got = oracle.step(chars)(every)
                assert np.array_equal(got, table_built_product_step(oracle, chars)(every)), (texts, chars)


def test_product_checks_hold_no_grid_over_coordinate_tuples():
    # 200 x 200 at sigma=256: the grid took about 270 MiB
    rng = np.random.default_rng(0)
    texts = ["".join(chr(0x100 + int(v)) for v in rng.integers(0, 256, size=200)) for _ in range(2)]
    chars = default_check_alphabet(texts)
    for build, oracle, checked in ((build_common_level, CommonSubsequenceOracle, 15_404),
                                   (build_any_level, AnySubsequenceOracle, 44_522)):
        a = build(texts)
        report, peak = traced_peak(lambda: equivalence_check(a, oracle(texts), chars, 2))
        assert report.ok and report.trace_counterexample is None
        assert report.patterns_checked == checked
        assert peak <= 8 * 2**20


def test_product_checks_never_ask_for_the_whole_table(monkeypatch, capsys):
    def refuse(self, chars):
        raise AssertionError("product oracle table built")

    for oracle in (CommonSubsequenceOracle, AnySubsequenceOracle):
        monkeypatch.setattr(oracle, "transition_table", refuse)
    pair, triple = ["abcab", "bacba"], ["abc", "bca", "cab"]
    for texts, build, oracle, checked in [
        (pair, build_common_level, CommonSubsequenceOracle, 33),
        (pair, build_any_level, AnySubsequenceOracle, 49),
        (pair, lambda t: build_naive_common(*t), CommonSubsequenceOracle, 33),
        (triple, build_common_level, CommonSubsequenceOracle, 17),
        (triple, build_any_level, AnySubsequenceOracle, 41),
    ]:
        report = equivalence_check(build(texts), oracle(texts), default_check_alphabet(texts), 4)
        assert report.ok and report.trace_counterexample is None
        assert report.patterns_checked == checked
    check = trace_equivalence(build_common_level(pair), build_naive_common(*pair), default_check_alphabet(pair), 4)
    assert check.equal and check.patterns_checked == 33
    for case in ("verify-naive-common", "verify-common-level", "verify-any-level", "verify-common-level-triple"):
        argv, digest = GOLDEN[case]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
        codes = [a.alphabet.index.get(ch) for ch in chars]
        columns = np.full(len(a.alphabet), -1, dtype=np.int64)
        for j, c in enumerate(codes):
            if c is not None:
                columns[c] = j
        states = np.arange(a.state_count)
        want_t = np.full((a.state_count, len(chars)), -1)
        want_h = np.zeros((a.state_count, len(chars)), dtype=np.int64)
        for j, c in enumerate(codes):
            if c is not None:
                want_t[:, j] = table[:, c]
                want_h[:, j] = np.where(table[:, c] >= 0, hops[:, c], 0)
        for got_t, got_h in (
            resolved_tables(a.offsets, a.syms, a.targets, a.defaults, states, columns, len(chars)),
            step_rows(a, states, columns, len(chars)),
        ):
            assert got_t.tolist() == want_t.tolist(), a.meta
            assert got_h.tolist() == want_h.tolist(), a.meta


def step_rows(a: Automaton, states, columns, width):
    """``K.step_cells`` over ``a.key``, with ``resolved_tables``' arguments:
    ``columns`` maps symbol ids to check columns (-1 for none)."""
    codes = np.full(width, -1, dtype=np.int64)
    codes[columns[columns >= 0]] = np.flatnonzero(columns >= 0)
    return K.step_cells(a.key, a.targets, a.defaults, len(a.alphabet), states, codes)


def reference_rows(a: Automaton, states, columns, width):
    """The rows ``resolved_tables`` and ``K.step_cells`` return, cut from the
    closure over every state."""
    table, hops = reference_resolved_tables(a)
    want_t = np.full((len(states), width), -1, dtype=np.int32)
    want_h = np.zeros((len(states), width), dtype=np.int32)
    for c, j in enumerate(columns.tolist()):
        if j >= 0:
            want_t[:, j] = table[states, c]
            want_h[:, j] = np.where(table[states, c] >= 0, hops[states, c], 0)
    return want_t, want_h


def random_forward_automaton(rng, n, sigma):
    """States 0..n, each with distinct sorted symbols to later states and a
    default to a later state or none; one-step defaults make long chains."""
    offsets, syms, targets = [0], [], []
    defaults = np.full(n + 1, -1, dtype=np.int32)
    for s in range(n + 1):
        if s < n:
            row = np.sort(rng.choice(sigma, size=int(rng.integers(0, min(sigma, 3) + 1)), replace=False))
            syms += row.tolist()
            targets += rng.integers(s + 1, n + 1, size=len(row)).tolist()
            if rng.random() < 0.85:
                defaults[s] = s + 1 if rng.random() < 0.6 else rng.integers(s + 1, n + 1)
        offsets.append(len(syms))
    alphabet = Alphabet(tuple(chr(0x100 + i) for i in range(sigma)))
    return Automaton(alphabet, offsets, syms, targets, defaults, {"variant": "random"})


def link_model(a: Automaton, states, columns):
    """Per row, the row its chain reaches before its alphabet columns fill
    (-1 for none), and whether it stopped because they filled: the sharing
    rule of the reference ``resolved_tables``, one row at a time."""
    row_of = {s: r for r, s in enumerate(states.tolist())}
    need = {c for c in range(len(columns)) if columns[c] >= 0}
    links, full = [], []
    for s in states.tolist():
        seen, cur = set(), s
        while True:
            seen |= {c for c, _ in a.transitions(cur)} & need
            nxt = a.default(cur)
            if seen == need or nxt is None:
                links.append(-1)
                break
            if nxt in row_of:
                links.append(row_of[nxt])
                break
            cur = nxt
        full.append(seen == need)
    return links, full


def test_resolved_tables_on_random_forward_automata():
    rng = np.random.default_rng(14)
    deepest, linked_to_full, partial_columns, wide, repeats = 0, 0, 0, 0, 0
    for trial in range(120):
        sigma = int(rng.integers(1, 7))
        a = random_forward_automaton(rng, int(rng.integers(0, 40)), sigma)
        width = sigma + int(rng.integers(0, 3))
        # each symbol a distinct column, or none
        columns = rng.permutation(width)[:sigma].astype(np.int64)
        columns[rng.random(sigma) < 0.2] = -1
        k = int(rng.integers(0, a.state_count + 1))
        states = np.sort(rng.choice(a.state_count, size=k, replace=False))
        want = reference_rows(a, states, columns, width)
        for order in (states, rng.permutation(states)):
            # any order of the states gives the same rows
            got_t, got_h = resolved_tables(a.offsets, a.syms, a.targets, a.defaults, order, columns, width)
            assert got_t.dtype == got_h.dtype == np.int32
            rank = np.argsort(order)
            assert got_t[rank].tolist() == want[0].tolist(), trial
            assert got_h[rank].tolist() == want[1].tolist(), trial
        # any states in any order, repeats included, give each its own row
        frontier = rng.integers(0, a.state_count, size=int(rng.integers(0, 2 * a.state_count + 1)))
        got = resolved_tables(a.offsets, a.syms, a.targets, a.defaults, frontier, columns, width)
        want = reference_rows(a, frontier, columns, width)
        assert all(g.tolist() == w.tolist() for g, w in zip(got, want)), trial
        repeats += len(set(frontier.tolist())) < frontier.shape[0]
        # the walk's step: rejected entries give -1 rows and no hops
        chars = [chr(0x41 + j) for j in range(width)]  # outside the alphabet
        for c, j in enumerate(columns.tolist()):
            if j >= 0:
                chars[j] = a.alphabet.symbols[c]
        frontier = rng.permutation(np.append(frontier, [-1] * int(rng.integers(1, 4))))
        got_rows, got_hops = oracles._automaton_step(a, chars)(frontier)
        want_t, want_h = reference_rows(a, np.maximum(frontier, 0), columns, width)
        want_t[frontier < 0] = -1
        assert got_rows.tolist() == want_t.reshape(-1).tolist(), trial
        assert got_hops == want_h[frontier >= 0].max(initial=0), trial
        links, full = link_model(a, states, columns)
        for r in range(len(links)):
            depth, to = 0, r
            while links[to] >= 0:
                to, depth = links[to], depth + 1
            deepest = max(deepest, depth)
            linked_to_full += links[r] >= 0 and full[links[r]]
        partial_columns += bool((columns < 0).any() and k)
        wide += width > sigma and k > 0
    # the cases the sharing has to get right all occurred
    assert deepest >= 3 and linked_to_full and partial_columns and wide and repeats
    empty = resolved_tables(a.offsets, a.syms, a.targets, a.defaults, np.zeros(0, dtype=np.int64), columns, width)
    assert [x.shape for x in empty] == [(0, width), (0, width)]


class CountingArray(np.ndarray):
    """Counts the entries read through fancy indexing."""

    reads = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            CountingArray.reads += key.size
        return np.asarray(super().__getitem__(key))


def test_resolved_tables_reads_each_shared_chain_tail_once():
    # the reference kernel's sharing: in a chain automaton over distinct
    # symbols no row ever fills, and without sharing row s would read the
    # n - s slices along its chain, ~n**2/2 in all (K.step_cells gives this
    # up: each cell searches the keys once per default it crosses)
    n = 2000
    a = build_chain("".join(chr(0x100 + i) for i in range(n)))
    columns = np.arange(n, dtype=np.int64)
    states = np.arange(a.state_count)
    want = reference_rows(a, states, columns, n + 1)
    syms = a.syms.view(CountingArray)
    # in any order of the states
    for order in (states, np.random.default_rng(2).permutation(states)):
        CountingArray.reads = 0
        got = resolved_tables(a.offsets, syms, a.targets, a.defaults, order, columns, n + 1)
        assert CountingArray.reads <= len(a.syms) + a.state_count
        assert all(np.array_equal(g[np.argsort(order)], w) for g, w in zip(got, want))


def test_cell_step_matches_resolved_tables():
    # K.step_cells, targets and per-cell hops, and the walk's step over it,
    # against the reference kernel: random forward automata, every variant
    # and its single-edit mutants, frontiers with repeats and rejected
    # states, a check column whose symbol is outside the alphabet, and the
    # empty frontier
    rng = np.random.default_rng(27)
    automata = [random_forward_automaton(rng, int(rng.integers(0, 40)), int(rng.integers(1, 7))) for _ in range(60)]
    for name, v in VARIANTS.items():
        for _ in range(4):
            count = 1 if v.max_texts == 1 else v.min_texts + int(rng.integers(2)) * (v.max_texts is None)
            texts = random_texts(rng, count, "abc", 12 if count == 1 else 6)
            k = int(rng.integers(2, max(2, len(set("".join(texts)))) + 1)) if v.takes_k else None
            a = v.build(texts, k, None, 10**6)
            automata += [a, *single_edit_mutants(a, rng)]
    repeats = rejected = 0
    for a in automata:
        # some symbols left out, "z" outside every alphabet, in shuffled columns
        chars = [ch for ch in a.alphabet if rng.random() < 0.8] + ["z"]
        chars = [chars[j] for j in rng.permutation(len(chars))]
        columns = np.full(len(a.alphabet), -1, dtype=np.int64)
        for j, ch in enumerate(chars):
            if ch in a.alphabet:
                columns[a.alphabet.index[ch]] = j
        width = len(chars)
        frontier = rng.integers(-1, a.state_count, size=int(rng.integers(0, 2 * a.state_count + 2)))
        live = frontier[frontier >= 0]
        got = step_rows(a, live, columns, width)
        want = resolved_tables(a.offsets, a.syms, a.targets, a.defaults, live, columns, width)
        assert all(g.dtype == np.int32 and g.tolist() == w.tolist() for g, w in zip(got, want)), a.meta
        got, want = oracles._automaton_step(a, chars)(frontier), resolved_tables_step(a, chars)(frontier)
        assert got[0].tolist() == want[0].tolist() and got[1] == want[1], a.meta
        repeats += len(set(live.tolist())) < live.shape[0]
        rejected += live.shape[0] < frontier.shape[0]
    assert repeats and rejected
    for a in automata[:: len(automata) // 10]:
        empty, sigma = np.zeros(0, dtype=np.int64), len(a.alphabet)
        assert [x.shape for x in step_rows(a, empty, np.arange(sigma), sigma)] == [(0, sigma), (0, sigma)]
        rows, hops = oracles._automaton_step(a, ["z"])(empty)
        assert rows.shape == (0,) and hops == 0


def test_walk_reports_over_cell_steps_equal_the_reference_kernels(monkeypatch):
    # perfbench multi's shapes (a 60 x 60 pair and a 12**3 triple over DNA,
    # max_len 5), as built and with single edits: whole reports, mismatches
    # and counterexamples included
    rng = np.random.default_rng(28)
    pair = ["".join(rng.choice(list("acgt"), size=60)) for _ in range(2)]
    triple = ["".join(rng.choice(list("acgt"), size=12)) for _ in range(3)]
    cases, built = [], {}
    for texts, name in [(pair, "common-level"), (pair, "any-level"), (pair, "naive-common"),
                        (triple, "common-level"), (triple, "any-level")]:
        v = VARIANTS[name]
        a = v.build(texts, None, None, 10**6)
        # the random edits mostly land on unreachable product states; dropping
        # an edge of the initial state is seen
        built[len(texts), name] = [a, *single_edit_mutants(a, rng), delete_transition(a, 0)]
        cases += [(b, variant_oracle(v, texts), default_check_alphabet(texts)) for b in built[len(texts), name]]
    # the trace check of perfbench multi, common-level against naive-common, and of their mutants
    traces = [(b, built[2, "naive-common"][0]) for b in built[2, "common-level"]]
    traces += [(built[2, "common-level"][0], b) for b in built[2, "naive-common"]]

    def reports():
        out = [equivalence_check(b, oracle, chars, 5) for b, oracle, chars in cases]
        return out + [trace_equivalence(a1, a2, default_check_alphabet(pair), 5) for a1, a2 in traces]

    got = reports()
    monkeypatch.setattr(oracles, "_automaton_step", resolved_tables_step)
    want = reports()
    assert got == want
    assert not all(r.ok for r in got[: len(cases)]) and not all(r.equal for r in got[len(cases) :])


def test_walk_resolves_each_distinct_live_state_once(monkeypatch):
    # a correct automaton pairs each state with itself, so the walk resolves
    # each state reached below the bound once in all: its cost tracks states,
    # not patterns
    rng = np.random.default_rng(5)
    text = "".join(map(chr, rng.integers(0, 64, size=2000)))
    a = build_k_level(text, 2)
    chars = default_check_alphabet([text])
    calls = []
    kernel = K.step_cells

    def spy(key, targets, defaults, sigma, states, codes):
        calls.append(np.array(states))
        return kernel(key, targets, defaults, sigma, states, codes)

    monkeypatch.setattr(K, "step_cells", spy)
    oracle = GreedySubsequenceOracle(text)
    report = equivalence_check(a, oracle, chars, 3)
    assert report.ok and report.trace_counterexample is None
    asked = np.concatenate(calls).tolist()
    assert len(asked) == len(set(asked))
    table = oracle.transition_table(chars)
    frontier, below = np.array([a.initial]), set()
    for _ in range(3):
        below |= set(frontier.tolist())
        frontier = np.unique(table[frontier])
        frontier = frontier[frontier >= 0]
    assert set(asked) == below
    assert report.patterns_checked == len(below) * len(chars) + 1
    assert len(asked) < len(chars) ** 2 // 10


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


def traced_peak(check):
    """The result of ``check()`` and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        result = check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_walk_slices_wide_alphabets():
    # 3000 distinct symbols: 9 M (pair, symbol) cells at length 2, resolved
    # and compared a slice at a time, next to the oracle's table
    text = "".join(chr(0x100 + int(i)) for i in np.random.default_rng(6).permutation(3000))
    a = build_k_level(text, 2)
    chars = default_check_alphabet([text])
    report, peak = traced_peak(lambda: equivalence_check(a, GreedySubsequenceOracle(text), chars, 2))
    assert report.ok and report.trace_counterexample is None
    assert report.patterns_checked == 1 + 3001 + 3000 * 3001
    assert peak < 1.5 * (len(text) + 1) * len(chars) * 4


def test_complete_check_resolves_each_state_once(monkeypatch):
    # a bound past the longest path: every (state, symbol) cell of a
    # sigma = 256 automaton once, at the oracle's table plus 32 MiB
    text = "".join(map(chr, np.random.default_rng(7).integers(0, 256, size=100_000)))
    a = build_k_level(text, 2)
    chars = default_check_alphabet([text])
    asked = []
    kernel = K.step_cells

    def spy(key, targets, defaults, sigma, states, codes):
        asked.append(np.array(states))
        return kernel(key, targets, defaults, sigma, states, codes)

    monkeypatch.setattr(K, "step_cells", spy)
    report, peak = traced_peak(lambda: equivalence_check(a, GreedySubsequenceOracle(text), chars, len(text) + 1))
    assert report.ok and report.trace_counterexample is None
    assert report.patterns_checked == a.state_count * len(chars) + 1
    assert np.array_equal(np.sort(np.concatenate(asked)), np.arange(a.state_count))
    assert peak < (len(text) + 1) * len(chars) * 4 + 32 * 2**20


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
    targets[lo + a.syms[lo:hi].tolist().index(a.alphabet.index[ch])] = target
    return Automaton(a.alphabet, a.offsets, a.syms, targets, a.defaults, a.meta)


def single_edit_mutants(a: Automaton, rng) -> list[Automaton]:
    """Copies of ``a`` with one edit each, where ``a`` has room for it: a
    transition redirected to another later state, a transition dropped, and
    a default toggled (dropped, or added to a later state)."""
    out = []
    sources = np.repeat(np.arange(a.state_count), np.diff(a.offsets))
    room = np.flatnonzero(sources + 2 < a.state_count)
    if room.size:
        j = int(rng.choice(room))
        targets = a.targets.copy()
        others = [t for t in range(int(sources[j]) + 1, a.state_count) if t != targets[j]]
        targets[j] = rng.choice(others)
        out.append(Automaton(a.alphabet, a.offsets, a.syms, targets, a.defaults, a.meta))
    if len(a.syms):
        out.append(delete_transition(a, int(rng.integers(len(a.syms)))))
    if a.state_count > 1:
        s = int(rng.integers(a.state_count - 1))
        defaults = a.defaults.copy()
        defaults[s] = -1 if defaults[s] >= 0 else rng.integers(s + 1, a.state_count)
        out.append(Automaton(a.alphabet, a.offsets, a.syms, a.targets, defaults, a.meta))
    return out


def test_pair_walk_reports_like_the_pattern_walk():
    # the pattern walk checks every pattern; the pair walk one per distinct
    # pair of states, and must follow pairs past a divergence, where a
    # verdict mismatch may first show
    rng = np.random.default_rng(17)
    cases, failing, below_divergence = 0, 0, 0
    for trial in range(10):
        for name, v in VARIANTS.items():
            count = 1 if v.max_texts == 1 else v.min_texts + int(rng.integers(2)) * (v.max_texts is None)
            texts = random_texts(rng, count, "abc", 6 if count == 1 else 4)
            k = int(rng.integers(2, max(2, len(set("".join(texts)))) + 1)) if v.takes_k else None
            a = v.build(texts, k, None, 10**6)
            oracle, chars = variant_oracle(v, texts), default_check_alphabet(texts)
            for b in [a] + single_edit_mutants(a, rng):
                for max_len in range(5):
                    got = equivalence_check(b, oracle, chars, max_len)
                    want = pattern_equivalence_check(b, oracle, chars, max_len)
                    case = (name, texts, max_len)
                    assert got.ok == want.ok, case
                    assert got.mismatches[:1] == want.mismatches[:1], case
                    assert got.max_defaults_per_char == want.max_defaults_per_char, case
                    assert got.trace_counterexample == want.trace_counterexample, case
                    assert {repr(m) for m in got.mismatches} <= {repr(m) for m in want.mismatches}, case
                    assert got.patterns_checked <= want.patterns_checked, case
                    for pair in ((a, b), (b, a)):
                        got_t = trace_equivalence(*pair, chars, max_len)
                        want_t = pattern_trace_equivalence(*pair, chars, max_len)
                        assert (got_t.equal, got_t.counterexample) == (want_t.equal, want_t.counterexample), case
                    cases += 1
                    failing += not want.ok
                    cx = want.trace_counterexample
                    below_divergence += cx is not None and not want.ok and want.mismatches[0].pattern.startswith(cx)
    assert cases > 1000 and failing > 100 and below_divergence > 0


def test_pair_walk_ends_on_looping_automata():
    # unvalidated automata may loop (1 -a-> 1 against 1 -a-> 2 -a-> 1), so
    # both sides never run out; past (state_count + 1)**2 lengths no new pair
    # of states can appear, and the walk stops there
    alphabet, meta = Alphabet(("a",)), {"variant": "random"}
    loop = Automaton(alphabet, [0, 1, 2, 2], [0, 0], [1, 1], [-1, -1, -1], meta)
    cycle = Automaton(alphabet, [0, 1, 2, 3], [0, 0, 0], [1, 2, 1], [-1, -1, -1], meta)
    for pair in ((loop, cycle), (cycle, loop)):
        short = trace_equivalence(*pair, ["a", "b"], 20)
        assert not short.equal
        start = time.perf_counter()
        long = trace_equivalence(*pair, ["a", "b"], 10**12)
        assert time.perf_counter() - start < 1
        assert (long.equal, long.counterexample) == (short.equal, short.counterexample)
        report = equivalence_check(pair[0], pair[1], ["a", "b"], 10**12)
        assert report.trace_counterexample == short.counterexample


@pytest.mark.parametrize(
    "variant,text,max_len,cells",
    [("sa", "abcdefgh", 9, 9 * 9 + 1), ("klevel", "ab", 30, 3 * 3 + 1),
     ("sa", "abc", 20000, 4 * 4 + 1), ("sa", "abc", 10**12, 4 * 4 + 1)],
    ids=["sa-abcdefgh-9", "klevel-ab-30", "sa-abc-20000", "sa-abc-1000000000000"],
)
def test_pair_walk_past_the_longest_path_checks_each_cell_once(variant, text, max_len, cells):
    # the walk ends with the last live pair of states: each (state, symbol) cell once
    t0 = time.perf_counter()
    a = VARIANTS[variant].build([text], 2 if variant == "klevel" else None, None, None)
    report = equivalence_check(a, GreedySubsequenceOracle(text), default_check_alphabet([text]), max_len)
    assert time.perf_counter() - t0 < 1
    assert report.ok and report.trace_counterexample is None
    assert report.patterns_checked == cells


def certificate_mutants(a: Automaton, text: str, rng) -> list[tuple[Automaton, str]]:
    """(automaton, text) pairs with one edit each, where there is room for
    it: a transition redirected to another later state, a transition dropped,
    one added to a later state, one state's default moved forward, moved back
    (or added, when the state has none) and removed, and a text position
    replaced by a symbol outside the alphabet."""
    n = a.state_count - 1
    if not n:
        return []
    out = []
    sources = np.repeat(np.arange(a.state_count), np.diff(a.offsets))
    if len(a.syms):
        j = int(rng.integers(len(a.syms)))
        if sources[j] + 1 < n:
            targets = a.targets.copy()
            targets[j] = rng.choice([t for t in range(sources[j] + 1, n + 1) if t != targets[j]])
            out.append(Automaton(a.alphabet, a.offsets, a.syms, targets, a.defaults, a.meta))
        out.append(delete_transition(a, j))
    s = int(rng.integers(n))
    lo, hi = a.offsets[s], a.offsets[s + 1]
    missing = sorted(set(range(len(a.alphabet))) - set(a.syms[lo:hi].tolist()))
    if missing:
        c = int(rng.choice(missing))
        at = lo + int(np.searchsorted(a.syms[lo:hi], c))
        offsets = a.offsets.copy()
        offsets[s + 1 :] += 1
        syms, targets = np.insert(a.syms, at, c), np.insert(a.targets, at, rng.integers(s + 1, n + 1))
        out.append(Automaton(a.alphabet, offsets, syms, targets, a.defaults, a.meta))
    end = int(a.defaults[s]) if a.defaults[s] >= 0 else n
    for choices in (range(end + 1, n + 1), range(s + 1, end), [-1] if end < n else []):
        if len(choices):
            defaults = a.defaults.copy()
            defaults[s] = rng.choice(choices)
            out.append(Automaton(a.alphabet, a.offsets, a.syms, a.targets, defaults, a.meta))
    i = int(rng.integers(n))
    return [(b, text) for b in out] + [(a, text[:i] + "z" + text[i + 1 :])]


def greedy_states(text: str, pattern: str) -> list[int]:
    """The states the greedy oracle consumes ``pattern`` through, up to the
    first character it rejects."""
    states, pos = [], 0
    for ch in pattern:
        pos = text.find(ch, pos) + 1
        if not pos:
            break
        states.append(pos)
    return states


def test_certificate_decides_like_the_complete_pair_walk():
    # the certificate passes exactly when no pattern of any length tells the
    # automaton from the greedy oracle, and a failure names such a pattern
    rng = np.random.default_rng(20)
    cases, verdicts, unchanged = 0, set(), []
    for _ in range(100):
        sigma, n = int(rng.integers(1, 6)), int(rng.integers(0, 15))
        text = "".join(rng.choice(list("abcde"[:sigma]), size=n))
        for name in ("sa", "chain", "level", "klevel"):
            a = VARIANTS[name].build([text], 2 if name == "klevel" else None, None, None)
            cells = reference_resolved_tables(a)[0]
            for b, t in [(a, text), *certificate_mutants(a, text, rng)]:
                assert validate(b).ok
                report = equivalence_check(b, GreedySubsequenceOracle(t), default_check_alphabet([t]), n + 1)
                counterexample = certify(b, t)
                case = (name, text, t, counterexample)
                assert (counterexample is None) == (report.ok and report.trace_counterexample is None), case
                if counterexample is not None:
                    out, states = run(b, counterexample), greedy_states(t, counterexample)
                    assert (out.accepted, out.consumed_targets) != (len(states) == len(counterexample), states), case
                if b is not a and np.array_equal(reference_resolved_tables(b)[0], cells):
                    unchanged.append(counterexample is None)
                cases += 1
                verdicts.add(counterexample is None)
    assert cases >= 2000 and verdicts == {True, False}
    # some edits leave every resolved cell as it was, and those pass
    assert unchanged and all(unchanged)


def test_certificate_names_the_smallest_failing_state():
    # against "abzdca", states 0 and 1 still pass; state 2's "a" edge leads
    # to 3, which now holds "z", where the greedy oracle goes on to 6
    a = build_k_level("abadca", 2)
    assert certify(a, "abadca") is None
    assert certify(a, "abzdca") == "aba"
    assert run(a, "aba").consumed_targets == [1, 2, 3]
    with pytest.raises(ValueError, match="needs 4 states, automaton has 7"):
        certify(a, "abc")


def test_certificate_peaks_below_16_mib():
    # klevel k=2 at n = 1e5, sigma = 256: 100 001 states and 477 532
    # transitions, next to the greedy oracle's 98 MiB table
    text = "".join(map(chr, np.random.default_rng(7).integers(0, 256, size=100_000)))
    a = build_k_level(text, 2)
    counterexample, peak = traced_peak(lambda: certify(a, text))
    assert counterexample is None
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_document_read_peaks_one_block_above_its_arrays(n):
    # klevel k=2, sigma = 256: 0.8 and 8.8 MB documents. The canonical
    # reader's temporaries are one block's, as text or as bytes, whatever
    # the document's size: 0.85 MiB at both sizes, where a reader that
    # works on 256 KiB blocks with int64 values per digit takes 3 MiB
    text = "".join(map(chr, np.random.default_rng(8).integers(0, 256, size=n)))
    doc = serialize(build_k_level(text, 2))
    for data in (doc, doc.encode()):
        a, peak = traced_peak(lambda: deserialize(data))
        arrays = sum(x.nbytes for x in (a.offsets, a.syms, a.targets, a.defaults))
        assert peak - arrays <= 1.5 * 2**20, (type(data), peak - arrays)


def test_validate_peaks_below_2_mib():
    # klevel k=2 at n = 2e5, sigma = 256: 9.6 MiB of arrays, checked in
    # slices; about 1 MiB, where whole-array masks and sources take 6 MiB
    text = "".join(map(chr, np.random.default_rng(9).integers(0, 256, size=200_000)))
    a = build_k_level(text, 2)
    report, peak = traced_peak(lambda: validate(a))
    assert report.ok
    assert peak <= 2 * 2**20


def test_dot_export_peaks_below_8_mib(tmp_path):
    # klevel k=2 at n = 2e4, sigma = 256: a 1.7 MB document, 4.5 MB of DOT.
    # export writes the DOT a block of states or edges at a time: about
    # 5.7 MiB in all, where a list of every line and its join take 22 MiB
    text = "".join(map(chr, np.random.default_rng(10).integers(0, 256, size=20_000)))
    a = build_k_level(text, 2)
    doc, out = tmp_path / "a.json", tmp_path / "a.dot"
    doc.write_text(serialize(a))
    code, peak = traced_peak(lambda: main(["export", "--file", str(doc), "--out", str(out)]))
    assert code == 0 and out.read_text() == export_dot(a)
    assert peak <= 8 * 2**20, peak


def product_mutants(a: Automaton, texts, rng) -> list[tuple[Automaton, list]]:
    """``certificate_mutants`` over product states: (automaton, texts) pairs
    with one edit each, where there is room for it: a transition redirected
    to another forward state, a transition dropped, one added to a forward
    state, one state's default moved to another forward state (or added)
    and removed, and a text position replaced by a symbol outside the
    alphabet. Only the edits that ``validate`` accepts are kept."""
    coords = _decode_ids(np.arange(a.state_count), state_dims(a.meta))

    def forward(s):  # the states an edge out of s may lead to
        return np.flatnonzero((coords >= coords[s]).all(axis=1) & (coords.sum(axis=1) > coords[s].sum()))

    out = []
    sources = np.repeat(np.arange(a.state_count), np.diff(a.offsets))
    if len(a.syms):
        j = int(rng.integers(len(a.syms)))
        others = np.setdiff1d(forward(sources[j]), a.targets[j])
        if others.size:
            targets = a.targets.copy()
            targets[j] = rng.choice(others)
            out.append(Automaton(a.alphabet, a.offsets, a.syms, targets, a.defaults, a.meta))
        out.append(delete_transition(a, j))
    s = int(rng.integers(a.state_count))
    lo, hi = a.offsets[s], a.offsets[s + 1]
    missing = np.setdiff1d(np.arange(len(a.alphabet)), a.syms[lo:hi])
    ahead = forward(s)
    if missing.size and ahead.size:
        c = int(rng.choice(missing))
        at = lo + int(np.searchsorted(a.syms[lo:hi], c))
        offsets = a.offsets.copy()
        offsets[s + 1 :] += 1
        syms, targets = np.insert(a.syms, at, c), np.insert(a.targets, at, rng.choice(ahead))
        out.append(Automaton(a.alphabet, offsets, syms, targets, a.defaults, a.meta))
    for choices in (np.setdiff1d(ahead, a.defaults[s]), [-1] if a.defaults[s] >= 0 else []):
        if len(choices):
            defaults = a.defaults.copy()
            defaults[s] = rng.choice(choices)
            out.append(Automaton(a.alphabet, a.offsets, a.syms, a.targets, defaults, a.meta))
    out = [(b, texts) for b in out if validate(b).ok]
    i = int(rng.integers(len(texts)))
    if texts[i]:
        p = int(rng.integers(len(texts[i])))
        out.append((a, [*texts[:i], texts[i][:p] + "z" + texts[i][p + 1 :], *texts[i + 1 :]]))
    return out


def oracle_cells(b: Automaton, texts, mode):
    """The product oracle's table and ``b``'s resolved table, both over
    ``b``'s alphabet and then the texts' other characters, which ``b``
    rejects everywhere."""
    chars = [*b.alphabet.symbols, *sorted(set("".join(texts)) - set(b.alphabet.symbols))]
    resolved = np.full((b.state_count, len(chars)), -1, dtype=np.int64)
    resolved[:, : len(b.alphabet)] = reference_resolved_tables(b)[0]
    oracle = (AnySubsequenceOracle if mode == "any" else CommonSubsequenceOracle)(texts)
    return oracle.transition_table(chars), resolved, chars


def test_product_certificate_decides_like_the_resolved_table_over_every_state():
    # common-level, any-level and naive-common builds and their mutants: the
    # certificate passes exactly when every state, reachable or not, resolves
    # every symbol as the product oracle steps; a failure names a state and a
    # symbol that the state resolves wrongly when the states past it do not
    rng = np.random.default_rng(32)
    cases, verdicts = 0, set()
    for _ in range(60):
        sigma = int(rng.integers(1, 5))
        for name in ("common-level", "any-level", "naive-common"):
            v = VARIANTS[name]
            count = 2 if name == "naive-common" else int(rng.integers(2, 4))
            texts = random_texts(rng, count, "abcd"[:sigma], 6 if count == 2 else 4)
            a = v.build(texts, None, None, 10**6)
            for b, t in [(a, texts), *product_mutants(a, texts, rng)]:
                want, resolved, chars = oracle_cells(b, t, v.mode)
                found = certify(b, *t)
                case = (name, texts, t, found)
                assert (found is None) == np.array_equal(resolved, want), case
                if found is not None:
                    s, j = found[0], chars.index(found[1])
                    lo, hi = b.offsets[s], b.offsets[s + 1]
                    explicit = dict(zip(b.syms[lo:hi].tolist(), b.targets[lo:hi].tolist()))
                    d = b.defaults[s]
                    local = explicit[j] if j in explicit else want[d, j] if d >= 0 else -1
                    assert local != want[s, j], case
                cases += 1
                verdicts.add(found is None)
    assert cases >= 700 and verdicts == {True, False}


def test_product_certificate_fails_a_wrong_cell_no_pattern_reaches():
    # no pattern leads to state (1, 1) of the common-level pair, id 1: the
    # only wrong cell, its "a" edge sent to (1, 2) instead of (4, 2), passes
    # the complete pair walk (every pattern of every length) and fails the
    # certificate, which names the state and the symbol
    pair = ["abcab", "bacba"]
    a = build_common_level(pair)
    b = redirect_transition(a, 1, "a", 2)
    assert validate(b).ok
    assert np.count_nonzero(reference_resolved_tables(b)[0] != reference_resolved_tables(a)[0]) == 1
    report = equivalence_check(b, CommonSubsequenceOracle(pair), default_check_alphabet(pair), 5 + 5 + 1)
    assert report.ok and report.trace_counterexample is None
    assert certify(a, *pair) is None
    assert certify(b, *pair) == (1, "a")


def test_certificate_refuses_other_texts_naming_both_sides():
    a = build_any_level(["ab", "ba"])
    for texts, built in [(["ab", "baa"], [2, 2]), (["ab", "ba", "ab"], [2, 2]), (["abba"], [2, 2])]:
        message = f"texts of lengths {[len(t) for t in texts]}, automaton built from lengths {built}"
        with pytest.raises(ValueError, match=re.escape(message)):
            certify(a, *texts)
    with pytest.raises(ValueError, match=re.escape("texts of lengths [2, 2], automaton built from lengths [6]")):
        certify(build_k_level("abadca", 2), "ab", "ba")


@pytest.mark.parametrize("build", [build_common_level, build_any_level], ids=["common-level", "any-level"])
def test_product_certificate_peaks_below_16_mib(build):
    # 700 x 700 at sigma=256: about 490 000 states, of which about 1.6 %
    # are reachable, and 2.3 M (common) or 4.5 M (any) transitions
    rng = np.random.default_rng(0)
    texts = ["".join(chr(0x100 + int(v)) for v in rng.integers(0, 256, size=700)) for _ in range(2)]
    a = build(texts)
    found, peak = traced_peak(lambda: certify(a, *texts))
    assert found is None
    assert peak <= 16 * 2**20


def test_product_certificate_holds_one_next_occurrence_table_per_text(monkeypatch):
    # one long text: its int32 table serves rule (b) and the oracle step's
    # int64 contributions are made from it, about 3 tables' bytes in all
    text = "".join(map(chr, np.random.default_rng(0).integers(0, 256, size=20_000)))
    texts = [text, "a"]
    a = build_common_level(texts)
    tables, next_occurrence_table = [], K.next_occurrence_table

    def spy(*args):
        tables.append(next_occurrence_table(*args))
        return tables[-1]

    monkeypatch.setattr(K, "next_occurrence_table", spy)
    found, peak = traced_peak(lambda: certify(a, *texts))
    assert found is None
    assert [t.shape[0] for t in tables] == [len(text) + 1, 2]
    assert peak < 3.5 * tables[0].nbytes


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
        # one cell per state and check symbol: each state is reached in 3 characters
        assert report.patterns_checked == 7 * 5 + 1
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

    @pytest.mark.parametrize(
        "chars,max_len",
        [(["a"], 10**12), (["a", "b"], 62), (["a", "b"], 63), (["a", "b", "c"], 10**12), (list("abcde"), 10)],
    )
    def test_bound_past_the_longest_path_is_complete(self, chars, max_len):
        # the walk ends with the last live pair, whatever the bound
        text = "abadca"
        a = build_sa(text)
        report = equivalence_check(a, GreedySubsequenceOracle(text), chars, max_len)
        full = equivalence_check(a, GreedySubsequenceOracle(text), chars, len(text) + 1)
        assert report.ok and report.trace_counterexample is None
        assert report.patterns_checked == full.patterns_checked <= a.state_count * len(chars) + 1

    def test_negative_max_len_refused(self):
        text = "abcabd"
        with pytest.raises(ValueError, match="max_len"):
            equivalence_check(build_k_level(text, 2), GreedySubsequenceOracle(text), default_check_alphabet([text]), -1)

    def test_vectorized_verdicts_match_per_pattern_runs(self):
        # the pair walk must agree with run() pattern by pattern, also on
        # deliberately broken automata: each flagged pattern disagrees, the
        # first disagreeing one comes first, and every other disagreeing
        # pattern ends in the states of a flagged one no longer than it
        text = "abacba"
        chars = default_check_alphabet([text])
        greedy = GreedySubsequenceOracle(text).transition_table(chars)

        def pair(p):
            out, ref = run(a, p), 0
            for ch in p:
                ref = int(greedy[ref, chars.index(ch)]) if ref >= 0 else -1
            return (out.consumed_targets[-1] if p else 0) if out.accepted else -1, ref

        for a in [build_level(text), delete_transition(build_level(text), 2)]:
            rep = equivalence_check(a, GreedySubsequenceOracle(text), chars, 4)
            flagged = {m.pattern: len(m.pattern) for m in rep.mismatches}
            shortest = {}
            for p in flagged:
                shortest[pair(p)] = min(shortest.get(pair(p), 5), len(p))
            disagreeing = []
            for l in range(5):
                for tup in itertools.product(chars, repeat=l):
                    p = "".join(tup)
                    disagrees = run(a, p).accepted != is_subsequence(p, text)
                    assert disagrees or p not in flagged, p
                    if disagrees:
                        disagreeing.append(p)
                        assert shortest.get(pair(p), 5) <= len(p), p
            assert [m.pattern for m in rep.mismatches[:1]] == disagreeing[:1]


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
        # the origin's 4 cells reach (1, 4), (2, 2) and (3, 3); theirs reach
        # (4, -1), (2, 5), (3, 6), (4, 4), (5, 5) and (6, 6), each stepped by 4 symbols
        assert check.patterns_checked == 1 + 4 + 3 * 4 + 6 * 4

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
        # a failing pair spells one pattern, however many differ
        spelled = []
        spell = oracles._spell

        def counting_spell(*args):
            spelled.append(args)
            return spell(*args)

        monkeypatch.setattr(oracles, "_spell", counting_spell)
        texts = ["abcabcab", "bcacbaab"]
        check = trace_equivalence(build_sa(texts[0]), build_sa(texts[1]), default_check_alphabet(texts), 4)
        assert check.counterexample == "a" and check.patterns_checked == 73
        assert len(spelled) == 1

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
        by_variant = {r["variant"]: r for r in rows}
        assert by_variant["sa"]["regular_transitions"] == 17
        assert by_variant["chain"]["size_total"] == 7 + 6 + 6
        assert by_variant["klevel"]["k"] == 2
        assert [r["variant"] for r in rows] == ["sa", "chain", "level", "klevel"]

    def test_delay_bound_column_non_increasing_in_k(self):
        rng = np.random.default_rng(3)
        text = "".join(chr(int(v)) for v in rng.integers(0, 64, 2000))
        rows = [r for r in tradeoff_table(text, [2, 4, 8, 64], sigma=64) if r["variant"] == "klevel"]
        delays = [r["delay"] for r in rows]
        assert delays == sorted(delays, reverse=True)
        for r in rows:
            assert r["delay"] <= r["delay_cap"]

    def test_chain_row_at_structural_cap(self):
        rows = tradeoff_table("abadca", [2, 4])
        for r in rows:
            cap = structural_delay_cap({key: r[key] for key in ("variant", "n", "k", "sigma")})
            assert r["delay"] <= cap == r["delay_cap"]

    def test_rows_match_direct_metrics(self):
        rows = tradeoff_table("abacbabcabad", [2, 3])
        builders = {
            "sa": lambda: build_sa("abacbabcabad"),
            "chain": lambda: __import__("subseq_automata").build_chain("abacbabcabad"),
            "level": lambda: build_level("abacbabcabad"),
        }
        for r in rows:
            if r["variant"] in builders:
                m = size_metrics(builders[r["variant"]]())
                assert (r["states"], r["regular_transitions"], r["default_transitions"], r["size_total"], r["delay"]) == (
                    m.states, m.regular_transitions, m.default_transitions, m.size_total, m.longest_default_chain)
