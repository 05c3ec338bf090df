"""Single-string builders: constructions against hand-checked reference edge
tables, level/hop arithmetic against definitional scans, and the structural
invariants every variant must satisfy."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseq_automata import _kernels as K
from subseq_automata import (
    GreedySubsequenceOracle,
    ParameterError,
    build_chain,
    build_k_level,
    build_level,
    build_sa,
    default_check_alphabet,
    equivalence_check,
    is_subsequence,
    level_cap,
    run,
    serialize,
    size_metrics,
    trace_equivalence,
)

import reference
from reference import LevelParams, bar, level

REF_TEXT = "abacbabcabad"

# hand-checked edge tables: state -> ({char: target}, default)
REFERENCE_SA_ABADCA = {
    0: ({"a": 1, "b": 2, "c": 5, "d": 4}, None),
    1: ({"a": 3, "b": 2, "c": 5, "d": 4}, None),
    2: ({"a": 3, "c": 5, "d": 4}, None),
    3: ({"a": 6, "c": 5, "d": 4}, None),
    4: ({"a": 6, "c": 5}, None),
    5: ({"a": 6}, None),
    6: ({}, None),
}

REFERENCE_LEVEL = {
    0: ({"a": 1}, 1),
    1: ({"b": 2}, 2),
    2: ({"a": 3, "c": 4}, 4),
    3: ({"c": 4}, 4),
    4: ({"b": 5, "a": 6, "c": 8}, 8),
    5: ({"a": 6}, 6),
    6: ({"b": 7, "c": 8}, 8),
    7: ({"c": 8}, 8),
    8: ({"a": 9, "b": 10, "d": 12}, None),
    9: ({"b": 10}, 10),
    10: ({"a": 11, "d": 12}, 12),
    11: ({"d": 12}, 12),
    12: ({}, None),
}

REFERENCE_KLEVEL2 = dict(REFERENCE_LEVEL)
REFERENCE_KLEVEL2[4] = ({"b": 5, "a": 6, "c": 8, "d": 12}, None)


def edge_table(a):
    return {
        s: (
            {a.alphabet.symbols[c]: t for c, t in a.transitions(s)},
            a.default(s),
        )
        for s in range(a.state_count)
    }


def scan_bar(s, p):
    """Definitional hop: first later state with a strictly higher level."""
    for t in range(s + 1, p.n + 1):
        if level(t, p) >= level(s, p) + 1:
            return t
    return None


class TestLevelAndBar:
    def test_level_examples(self):
        assert level(4, LevelParams(2, None, 100)) == 2
        assert level(8, LevelParams(2, 2, 100)) == 2
        assert level(9, LevelParams(3, None, 100)) == 2

    def test_bar_examples(self):
        p = LevelParams(2, None, 12)
        assert bar(6, p) == 8
        assert 8 - 6 == 2 ** level(6, p)
        assert bar(4, LevelParams(2, 2, 12)) is None
        p3 = LevelParams(3, None, 20)
        assert bar(3, p3) == 9
        assert 9 - 3 <= 3 ** (level(3, p3) + 1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            level(0, LevelParams(2, None, 5))
        with pytest.raises(ValueError):
            bar(0, LevelParams(2, None, 5))
        with pytest.raises(ValueError):
            bar(6, LevelParams(2, None, 5))
        with pytest.raises(ParameterError):
            LevelParams(1, None, 5)
        with pytest.raises(ParameterError):
            LevelParams(2, 0, 5)

    @given(
        s=st.integers(1, 4096),
        k=st.integers(2, 6),
        cap=st.one_of(st.none(), st.integers(1, 6)),
    )
    @settings(deadline=None, max_examples=200)
    def test_bar_matches_definitional_scan(self, s, k, cap):
        p = LevelParams(k, cap, 4096)
        assert bar(s, p) == scan_bar(s, p)

    @given(s=st.integers(1, 100_000))
    @settings(deadline=None, max_examples=200)
    def test_power_of_two_hop_distance(self, s):
        p = LevelParams(2, None, 100_000)
        b = bar(s, p)
        if b is not None:
            assert b - s == 2 ** level(s, p)

    @given(s=st.integers(1, 5000), k=st.integers(2, 7))
    @settings(deadline=None, max_examples=200)
    def test_hop_distance_bounded_by_next_power(self, s, k):
        p = LevelParams(k, None, 10_000)
        b = bar(s, p)
        if b is not None:
            assert b - s <= k ** (level(s, p) + 1)

    def test_level_census(self):
        n = 4096
        p = LevelParams(2, None, n)
        counts = {}
        for s in range(1, n + 1):
            counts[level(s, p)] = counts.get(level(s, p), 0) + 1
        for l, c in counts.items():
            assert c == n // 2**l - n // 2 ** (l + 1)


class TestBuilders:
    def test_sa_matches_reference_table(self):
        assert edge_table(build_sa("abadca")) == REFERENCE_SA_ABADCA

    def test_level_matches_reference_table(self):
        assert edge_table(build_level(REF_TEXT)) == REFERENCE_LEVEL

    def test_klevel2_matches_reference_table(self):
        a = build_k_level(REF_TEXT, 2)
        assert a.meta["sigma"] == 4 and level_cap(2, 4) == 2
        assert edge_table(a) == REFERENCE_KLEVEL2

    def test_sa_degenerate(self):
        a = build_sa("")
        assert a.state_count == 1 and a.transitions(0) == []
        a = build_sa("aaaa")
        for s in range(4):
            assert a.transitions(s) == [(0, s + 1)]

    def test_chain_structure(self):
        a = build_chain("abadca")
        assert a.transitions(2) == [(a.alphabet.index["a"], 3)]
        assert a.default(2) == 3
        m = size_metrics(a)
        assert m.regular_transitions == m.default_transitions == 6

    def test_single_state_automata(self):
        for build in [build_chain, build_level, lambda t: build_k_level(t, 2)]:
            a = build("")
            assert a.state_count == 1 and a.default(0) is None

    def test_one_character_text(self):
        for build in [build_sa, build_chain, build_level, lambda t: build_k_level(t, 2)]:
            a = build("x")
            assert a.state_count == 2
            assert dict(a.transitions(0)) == {a.alphabet.index["x"]: 1}

    def test_klevel_parameter_validation(self):
        with pytest.raises(ParameterError):
            build_k_level("abadca", 1)
        with pytest.raises(ParameterError):
            build_k_level("abadca", 5)  # sigma is 4
        build_k_level("a", 2)  # sigma < 2 still admits k = 2
        build_k_level("", 2)

    def test_sigma_override(self):
        a = build_k_level("ab", 2, sigma=8)
        assert a.meta["sigma"] == 8
        with pytest.raises(ParameterError):
            build_k_level("abadca", 2, sigma=3)

    def test_hierarchy_builders_allocate_no_table(self, monkeypatch):
        rng = np.random.default_rng(8)
        text = "".join(chr(97 + int(v)) for v in rng.integers(0, 20, 300))

        def refuse(*args):
            raise AssertionError("dense next-occurrence table path taken")

        monkeypatch.setattr(K, "next_occurrence_table", refuse)
        patterns = [text[::7], text[5:60:3], text[-40:], text[::-1][:12], "z", ""]
        patterns += ["".join(chr(97 + int(v)) for v in rng.integers(0, 21, 4)) for _ in range(40)]
        for a in [build_sa(text), build_level(text), build_k_level(text, 2), build_k_level(text, 16)]:
            for p in patterns:
                assert run(a, p).accepted == is_subsequence(p, text), (a.meta, p)

    def test_sa_build_peaks_below_three_times_its_arrays(self):
        n = 20_000
        text = np.random.default_rng(12).integers(0, 256, n, dtype=np.uint8).tobytes().decode("latin-1")
        tracemalloc.start()
        try:
            a = build_sa(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(a.alphabet) == 256
        arrays = a.offsets.nbytes + a.syms.nbytes + a.targets.nbytes + a.defaults.nbytes
        assert peak < 3 * arrays

    def test_klevel_build_peaks_below_one_table(self):
        n, sigma = 20_000, 256
        text = "".join(map(chr, np.random.default_rng(10).integers(0, sigma, n)))
        tracemalloc.start()
        try:
            a = build_k_level(text, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(a.alphabet) == sigma
        assert peak < (n + 1) * sigma * np.dtype(np.int32).itemsize

    @pytest.mark.parametrize("k", [2, 16])
    def test_klevel_build_peaks_below_four_times_its_arrays(self, k):
        n = 100_000
        text = np.random.default_rng(11).integers(0, 256, n, dtype=np.uint8).tobytes().decode("latin-1")
        tracemalloc.start()
        try:
            a = build_k_level(text, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(a.alphabet) == 256
        arrays = a.offsets.nbytes + a.syms.nbytes + a.targets.nbytes + a.defaults.nbytes
        assert peak <= 4 * arrays

    def test_klevel_at_sigma_accepts_same_language_as_sa(self):
        sa = build_sa("abadca")
        kl = build_k_level("abadca", 4)
        chars = default_check_alphabet(["abadca"])
        assert trace_equivalence(sa, kl, chars, 4).equal


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(5)
    texts = []
    for _ in range(25):
        n = int(rng.integers(0, 15))
        sigma = int(rng.integers(1, 6))
        texts.append("".join(chr(97 + int(v)) for v in rng.integers(0, sigma, n)))
    return texts


class TestStructuralInvariants:
    def variants(self, text):
        out = [build_sa(text), build_chain(text), build_level(text)]
        sigma = len(set(text))
        for k in range(2, max(2, sigma) + 1):
            out.append(build_k_level(text, k))
        return out

    def test_defaults_strictly_increase_level(self, corpus):
        for text in corpus:
            n = len(text)
            for a in self.variants(text):
                if a.meta["variant"] not in ("level", "klevel"):
                    continue
                cap = None if a.meta["variant"] == "level" else level_cap(a.meta["k"], a.meta["sigma"])
                p = LevelParams(a.meta["k"] or 2, cap, n)
                for s in range(1, n + 1):
                    d = a.default(s)
                    if d is not None:
                        assert level(d, p) >= level(s, p) + 1

    def test_chain_bounds(self, corpus):
        for text in corpus:
            n = len(text)
            for a in self.variants(text):
                chain = size_metrics(a).longest_default_chain
                v = a.meta["variant"]
                if v == "sa":
                    assert chain == 0
                elif v == "chain":
                    assert chain == n
                elif v == "level":
                    assert chain <= (n.bit_length() if n else 0)
                else:
                    assert chain <= level_cap(a.meta["k"], a.meta["sigma"]) + 1

    def test_outdegree_bounds(self, corpus):
        for text in corpus:
            n = len(text)
            sigma = len(set(text))
            lv = build_level(text)
            p = LevelParams(2, None, n)
            for s in range(1, n + 1):
                assert len(lv.transitions(s)) <= 2 ** level(s, p)
            for k in range(2, max(2, sigma) + 1):
                a = build_k_level(text, k)
                pk = LevelParams(k, level_cap(k, sigma), n)
                for s in range(1, n + 1):
                    b = bar(s, pk)
                    if b is not None:
                        assert len(a.transitions(s)) <= min(sigma, b - s)

    def test_oracle_equivalence_at_desk_scale(self, corpus):
        for text in corpus[:12]:
            oracle = GreedySubsequenceOracle(text)
            chars = default_check_alphabet([text])
            for a in self.variants(text):
                report = equivalence_check(a, oracle, chars, 4)
                assert report.ok, (text, a.meta, report.mismatches[:3])
                assert report.trace_counterexample is None, (text, a.meta)

    def test_trace_equivalence_across_variants(self, corpus):
        for text in corpus[:12]:
            chars = default_check_alphabet([text])
            ref = build_sa(text)
            for a in self.variants(text)[1:]:
                check = trace_equivalence(ref, a, chars, 4)
                assert check.equal, (text, a.meta, check.counterexample)


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 5, 6, 256])
def test_builders_match_the_builders_they_replaced(sigma):
    """The one hop-rule builder gives the four builders' CSR arrays, defaults,
    metadata and documents, and their refusals, on seeded texts of every
    length 0..40, for k in {2, 3, sigma} and sigma overrides."""
    rng = np.random.default_rng(sigma)
    for n in range(41):
        text = "".join(chr(97 + int(c)) for c in rng.integers(0, sigma, size=n))
        sig = len(set(text))
        pairs = [(build_sa(text), reference.build_sa(text)), (build_chain(text), reference.build_chain(text))]
        pairs.append((build_level(text), reference.build_level(text)))
        for override in (None, sig - 1, sig + 2, 0x110000, 0x110001):
            top = sig if override is None else override
            for k in sorted({2, 3, top, top + 1}):
                try:
                    want = reference.build_k_level(text, k, sigma=override)
                except ParameterError as e:
                    with pytest.raises(ParameterError) as got:
                        build_k_level(text, k, sigma=override)
                    assert str(got.value) == str(e)
                    continue
                pairs.append((build_k_level(text, k, sigma=override), want))
        for got, want in pairs:
            assert got.meta == want.meta, (text, want.meta)
            for x, y in zip((got.offsets, got.syms, got.targets, got.defaults), (want.offsets, want.syms, want.targets, want.defaults)):
                assert x.dtype == y.dtype and np.array_equal(x, y), (text, want.meta)
            assert serialize(got) == serialize(want)
