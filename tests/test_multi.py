"""Product-state builders: indexing, diagonals, hop arithmetic, and exhaustive
language checks against the common/any oracles."""

import hashlib
import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from subseq_automata import _kernels as K
from subseq_automata import (
    AnySubsequenceOracle,
    CommonSubsequenceOracle,
    ParameterError,
    StateBudgetError,
    build_any_level,
    build_common_level,
    build_naive_common,
    default_check_alphabet,
    equivalence_check,
    is_any_subsequence,
    is_common_subsequence,
    level_cap,
    run,
    size_metrics,
    trace_equivalence,
    validate,
)

from reference import TupleIndexer, bar_multi, diagonals, level_multi, levelled


def decoded_edges(a, indexer):
    return {
        indexer.decode(s): (
            {a.alphabet.char(c): indexer.decode(t) for c, t in a.transitions(s)},
            None if a.default(s) is None else indexer.decode(a.default(s)),
        )
        for s in range(a.state_count)
    }


def language(a, chars, max_len):
    out = set()
    for l in range(max_len + 1):
        for tup in itertools.product(chars, repeat=l):
            p = "".join(tup)
            if run(a, p).accepted:
                out.add(p)
    return out


class TestTupleIndexer:
    def test_round_trip(self):
        idx = TupleIndexer((3, 5, 2))
        assert idx.total_states == 31
        seen = set()
        for sid in range(idx.total_states):
            t = idx.decode(sid)
            assert idx.encode(t) == sid
            seen.add(t)
        assert len(seen) == 31

    def test_origin_is_zero(self):
        idx = TupleIndexer((4, 4))
        assert idx.encode((0, 0)) == 0
        assert idx.decode(0) == (0, 0)

    def test_rejects_mixed_and_out_of_range(self):
        idx = TupleIndexer((2, 2))
        with pytest.raises(ValueError):
            idx.encode((0, 1))
        with pytest.raises(ValueError):
            idx.encode((1, 3))
        with pytest.raises(ValueError):
            idx.encode((1,))


class TestLevelsAndDiagonals:
    def test_level_examples(self):
        assert level_multi((4, 7), 3) == 2
        assert level_multi((8, 12), 2) == 2
        assert level_multi((5, 3), 2) == 0
        with pytest.raises(ValueError):
            level_multi((0, 0), 2)

    def test_bar_examples(self):
        assert bar_multi((1, 1), 1, (2, 2)) == (2, 2)
        assert bar_multi((1, 2), 1, (2, 2)) is None
        assert bar_multi((6, 9), 3, (20, 20)) == (8, 11)
        assert 8 - 6 == 2 ** level_multi((6, 9), 3)

    def test_bar_matches_diagonal_scan(self):
        lengths = (9, 7, 11)
        cap = 3
        for base_like in itertools.product(range(1, 10), range(1, 8), range(1, 12)):
            t = base_like
            expected = None
            step = 1
            while all(x + step <= n for x, n in zip(t, lengths)):
                cand = tuple(x + step for x in t)
                if level_multi(cand, cap) > level_multi(t, cap):
                    expected = cand
                    break
                step += 1
            assert bar_multi(t, cap, lengths) == expected, t

    def test_displacement_identity(self):
        lengths = (16, 16)
        cap = 4
        for t in itertools.product(range(1, 17), repeat=2):
            if level_multi(t, cap) < cap:
                b = bar_multi(t, cap, lengths)
                if b is not None:
                    gap = b[0] - t[0]
                    assert all(bb - tt == gap for bb, tt in zip(b, t))
                    assert gap == 2 ** level_multi(t, cap)

    def test_diagonals_partition(self):
        for lengths in [(2, 2), (3, 5), (4, 3, 2)]:
            ds = diagonals(lengths)
            assert sum(d.length for d in ds) == int(np.prod(lengths))
            seen = set()
            for d in ds:
                for s in d.states():
                    assert s not in seen
                    seen.add(s)
                    assert min(s) - min(d.base) == s[0] - d.base[0]
            assert len(seen) == int(np.prod(lengths))


class TestNaiveCommon:
    def test_spec_example_ab_ba(self):
        a = build_naive_common("ab", "ba")
        idx = TupleIndexer((2, 2))
        table = decoded_edges(a, idx)
        assert table[(0, 0)] == ({"a": (1, 2), "b": (2, 1)}, (1, 1))
        assert language(a, "ab", 2) == {"", "a", "b"}

    def test_size_accounting(self):
        for s1, s2 in [("ab", "ba"), ("abc", "cab"), ("aabb", "ab")]:
            a = build_naive_common(s1, s2)
            n1, n2 = len(s1), len(s2)
            assert a.state_count == n1 * n2 + 1
            in_bounds = sum(
                1
                for sid in range(a.state_count)
                for (p1, p2) in [TupleIndexer((n1, n2)).decode(sid)]
                if p1 < n1 and p2 < n2
            )
            assert size_metrics(a).default_transitions == in_bounds

    def test_chain_is_min_length(self):
        a = build_naive_common("abcd", "ab")
        assert size_metrics(a).longest_default_chain == 2

    def test_empty_degrades_to_epsilon_language(self):
        a = build_naive_common("abc", "")
        assert a.state_count == 1
        assert run(a, "").accepted and not run(a, "a").accepted

    def test_rule_on_random_pairs(self):
        # the rule itself, on seeded pairs: one-step diagonal defaults while
        # both strings have a next character, transitions only on those next
        # characters, and the complete language and states of the oracle
        rng = np.random.default_rng(18)
        pairs = [("", ""), ("ab", ""), ("", "a"), ("aaa", "aa")]
        for _ in range(300):
            sigma = int(rng.integers(1, 6))
            pairs.append(tuple(
                "".join(chr(97 + int(v)) for v in rng.integers(0, sigma, int(rng.integers(0, 9))))
                for _ in range(2)
            ))
        for s1, s2 in pairs:
            a = build_naive_common(s1, s2)
            n1, n2 = len(s1), len(s2)
            idx = TupleIndexer((n1, n2))
            for sid in range(a.state_count):
                p1, p2 = idx.decode(sid)
                step = (p1 + 1, p2 + 1) if p1 < n1 and p2 < n2 else None
                default = a.default(sid)
                assert (None if default is None else idx.decode(default)) == step, (s1, s2, sid)
                offered = {a.alphabet.char(c) for c, _ in a.transitions(sid)}
                assert offered <= set(s1[p1 : p1 + 1] + s2[p2 : p2 + 1]), (s1, s2, sid)
            chars = default_check_alphabet([s1, s2])
            rep = equivalence_check(a, CommonSubsequenceOracle([s1, s2]), chars, n1 + n2 + 1)
            assert rep.ok and rep.trace_counterexample is None, (s1, s2)

    def test_budget_refusal(self):
        with pytest.raises(StateBudgetError) as e:
            build_naive_common("a" * 100, "b" * 100, state_budget=1000)
        assert e.value.states == 10001


class TestCommonLevel:
    def test_spec_example_ab_ba(self):
        a = build_common_level(["ab", "ba"])
        idx = TupleIndexer((2, 2))
        table = decoded_edges(a, idx)
        assert table[(1, 1)] == ({}, (2, 2))
        assert table[(1, 2)] == ({}, None)
        assert a.state_count == 5
        assert language(a, "ab", 2) == {"", "a", "b"}

    def test_identical_triple(self):
        a = build_common_level(["abc", "abc", "abc"])
        assert language(a, "abc", 3) == {"", "a", "b", "c", "ab", "ac", "bc", "abc"}

    def test_product_order_valid(self):
        for texts in [["ab", "ba"], ["abca", "bca"], ["ab", "ba", "aab"]]:
            assert validate(build_common_level(texts)).ok

    def test_defaults_increase_level(self):
        texts = ["abacba", "bacab"]
        a = build_common_level(texts)
        idx = TupleIndexer((6, 5))
        cap = level_cap(2, len(set("".join(texts))))
        for sid in range(1, a.state_count):
            d = a.default(sid)
            if d is not None:
                assert level_multi(idx.decode(d), cap) >= level_multi(idx.decode(sid), cap) + 1

    def test_needs_two_strings(self):
        with pytest.raises(ValueError):
            build_common_level(["ab"])


class TestAnyLevel:
    def test_spec_examples(self):
        a = build_any_level(["ab", "ba"])
        assert run(a, "ab").accepted and run(a, "ba").accepted
        assert not run(a, "aa").accepted
        b = build_any_level(["x", "y"])
        assert language(b, "xy", 2) == {"", "x", "y"}

    def test_state_space_includes_sentinels(self):
        a = build_any_level(["ab", "ba"])
        assert a.state_count == 1 + 3 * 3

    def test_chain_bound(self):
        texts = ["abacbab", "bacabca"]
        a = build_any_level(texts)
        cap = level_cap(2, 3)
        assert size_metrics(a).longest_default_chain <= cap + 1

    def test_empty_member(self):
        a = build_any_level(["ab", ""])
        assert run(a, "ab").accepted and not run(a, "ba").accepted


@pytest.fixture(scope="module")
def instances():
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(20):
        texts = [
            "".join(chr(97 + int(v)) for v in rng.integers(0, int(rng.integers(1, 5)), int(rng.integers(1, 8))))
            for _ in range(2)
        ]
        pairs.append(texts)
    triples = []
    for _ in range(6):
        texts = [
            "".join(chr(97 + int(v)) for v in rng.integers(0, 3, int(rng.integers(1, 5))))
            for _ in range(3)
        ]
        triples.append(texts)
    return pairs, triples


class TestOracleFunctions:
    def test_common_and_any_examples(self):
        assert is_common_subsequence("a", ["ab", "ba"])
        assert not is_common_subsequence("ab", ["ab", "ba"])
        assert is_any_subsequence("ab", ["ab", "ba"])
        assert is_common_subsequence("", ["ab", "ba"])
        assert is_any_subsequence("", ["ab", "ba"])


class TestOracleEquivalence:
    def test_common_variants(self, instances):
        pairs, triples = instances
        for texts in pairs + triples:
            chars = default_check_alphabet(texts)
            oracle = CommonSubsequenceOracle(texts)
            if len(texts) == 2:
                rep = equivalence_check(build_naive_common(*texts), oracle, chars, 4)
                assert rep.ok, (texts, rep.mismatches[:2])
                assert rep.trace_counterexample is None, texts
            rep = equivalence_check(build_common_level(texts), oracle, chars, 4)
            assert rep.ok, (texts, rep.mismatches[:2])
            assert rep.trace_counterexample is None, texts

    def test_any_variant(self, instances):
        pairs, triples = instances
        for texts in pairs + triples:
            chars = default_check_alphabet(texts)
            rep = equivalence_check(build_any_level(texts), AnySubsequenceOracle(texts), chars, 4)
            assert rep.ok, (texts, rep.mismatches[:2])
            assert rep.trace_counterexample is None, texts

    def test_trace_naive_vs_level(self, instances):
        pairs, _ = instances
        for texts in pairs:
            chars = default_check_alphabet(texts)
            check = trace_equivalence(build_naive_common(*texts), build_common_level(texts), chars, 4)
            assert check.equal, (texts, check.counterexample)

    def test_oracles_match_bruteforce(self, instances):
        pairs, _ = instances
        for texts in pairs[:6]:
            chars = default_check_alphabet(texts)
            for l in range(4):
                for tup in itertools.product(chars, repeat=l):
                    p = "".join(tup)
                    assert is_common_subsequence(p, texts) == all(
                        is_common_subsequence(p, [t]) for t in texts
                    )
                    assert is_any_subsequence(p, texts) == any(
                        is_any_subsequence(p, [t]) for t in texts
                    )


def _parity_instances():
    """About 200 seeded instances: N in 2..4, lengths 0..8, alphabets of 1..5
    symbols, plus ["", ""]."""
    rng = np.random.default_rng(2024)
    out = [["", ""]]
    for _ in range(199):
        n_texts = int(rng.integers(2, 5))
        sigma = int(rng.integers(1, 6))
        out.append([
            "".join(chr(97 + int(v)) for v in rng.integers(0, sigma, int(rng.integers(0, 9))))
            for _ in range(n_texts)
        ])
    return out


def test_product_builders_match_recorded_arrays():
    """One sha256 over the CSR and default arrays of every product builder on
    the seeded instances, pinned to the arrays of the earlier per-state
    construction."""
    h = hashlib.sha256()

    def feed(a):
        h.update(a.meta["variant"].encode())
        for arr, dtype in ((a.offsets, np.int64), (a.syms, np.int32), (a.targets, np.int32), (a.defaults, np.int32)):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
            h.update(b"|")

    for texts in _parity_instances():
        if len(texts) == 2:
            feed(build_naive_common(*texts))
        for sigma in (None, 6, 40):
            feed(build_common_level(texts, sigma=sigma))
            feed(build_any_level(texts, sigma=sigma))
    assert h.hexdigest() == "d1bd0489af3b5b47c8e50081f1a4b017ddd4fca1c884d005ff8d2b1787731c4e"


@lru_cache(maxsize=1)
def _wide_pair():
    """Two 200-character texts over 256 symbols: a 40 001-state product whose
    rows hold many symbols each."""
    rng = np.random.default_rng(16)
    return tuple("".join(chr(int(v)) for v in rng.integers(0, 256, 200)) for _ in range(2))


def _same_arrays(a, b):
    return a.meta == b.meta and all(
        np.array_equal(x, y) and x.dtype == y.dtype
        for x, y in ((a.offsets, b.offsets), (a.syms, b.syms), (a.targets, b.targets), (a.defaults, b.defaults))
    )


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_levelled_batches_match_symbol_by_symbol_reference(monkeypatch, chunk):
    """Batches of any size, down to one state, emit the reference's arrays."""
    monkeypatch.setattr(K, "_CHUNK", chunk)
    cases = [(texts, None) for texts in _parity_instances()] + [(["abcab", "bcaac", "cabbc"], 9)]
    if chunk == 64:  # at sigma = 256 each of these chunks makes one-state batches
        cases.append((list(_wide_pair()), None))
    for texts, sigma in cases:
        for dead, build in ((False, build_common_level), (True, build_any_level)):
            assert _same_arrays(build(texts, sigma=sigma), levelled(texts, sigma, dead=dead)), (texts, sigma, dead)


@pytest.mark.parametrize("dead", [False, True])
def test_levelled_peak_memory_per_state_and_transition(dead):
    """At the default chunk (256-state batches, the last one partial) the
    emitter's arrays match the reference, and its peak stays below 128 bytes
    per state plus transition; a dense states x sigma gather would take
    about 630."""
    texts = list(_wide_pair())
    build = build_any_level if dead else build_common_level
    build(texts)  # first-call allocations (imports, caches) stay out of the peak
    tracemalloc.start()
    try:
        a = build(texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (a.state_count + int(a.offsets[-1])) < 128
    assert _same_arrays(a, levelled(texts, dead=dead))


@pytest.mark.parametrize("build", [build_common_level, build_any_level])
def test_levelled_sigma_above_unicode_refused(build):
    build(["ab", "ba"], sigma=0x110000)
    with pytest.raises(ParameterError):
        build(["ab", "ba"], sigma=0x110001)
