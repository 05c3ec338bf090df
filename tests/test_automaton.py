"""Core model: validation, running, metrics, documents, DOT."""

import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subseq_automata
from subseq_automata import automaton
from subseq_automata import (
    Alphabet,
    Automaton,
    DocumentError,
    build_any_level,
    build_chain,
    build_common_level,
    build_k_level,
    build_level,
    build_sa,
    default_check_alphabet,
    deserialize,
    equivalence_check,
    export_dot,
    is_subsequence,
    reachable_states,
    run,
    serialize,
    size_metrics,
    trace_equivalence,
    validate,
)
from subseq_automata.variants import VARIANTS

from reference import alphabet_index, code_point_table, reachable_by_sweep, validate_by_masks, variant_oracle


def tiny_automaton(trans_per_state, defaults, sigma=2, meta=None):
    """Hand-rolled automaton; trans_per_state = list of [(sym, target), ...]."""
    offsets = [0]
    syms, targets = [], []
    for row in trans_per_state:
        for c, t in row:
            syms.append(c)
            targets.append(t)
        offsets.append(len(syms))
    n_states = len(trans_per_state)
    return Automaton(
        Alphabet(tuple(chr(ord("a") + i) for i in range(sigma))),
        np.array(offsets, dtype=np.int64),
        np.array(syms, dtype=np.int32),
        np.array(targets, dtype=np.int32),
        np.array(defaults, dtype=np.int32),
        meta or {"variant": "sa", "n": n_states - 1, "k": None, "sigma": sigma},
    )


class TestAlphabet:
    def test_sorted_distinct(self):
        a = Alphabet.from_texts(["abadca"])
        assert a.symbols == ("a", "b", "c", "d")
        assert a.index == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Alphabet(("b", "a"))
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet(("ab",))

    def test_codes_mark_unknown(self):
        a = Alphabet.from_texts(["ab"])
        assert a.codes("abz").tolist() == [0, 1, -1]

    @pytest.mark.parametrize(
        "symbols",
        ["", "ab", "\x00", "\ud800", "\U0010ffff", "a\udfff\U0010fffe", "".join(map(chr, range(256)))],
    )
    def test_codes_match_per_character_lookup(self, symbols):
        a = Alphabet.from_texts([symbols])
        text = "ab\x00z\xff\u0100\ud800\udfff\U00010000\U0010fffe\U0010ffff" + symbols
        want = [a.index.get(c, -1) for c in text]
        for _ in range(2):  # the table made on the first call, then the kept one
            got = a.codes(text)
            assert got.dtype == np.int32 and got.tolist() == want
        assert a.codes("").tolist() == []

    def test_from_texts_union(self):
        assert Alphabet.from_texts(["ab", "bc"]).symbols == ("a", "b", "c")

    @pytest.mark.parametrize(
        "texts",
        [
            [""],
            [],
            ["", ""],
            ["abadca"],
            ["\ud800", "a\udfff\ud800"],
            ["\U0010ffff\x00", "\U0010fffe"],
            ["пример", "例子", "\U0001f600x"],
            ["".join(map(chr, range(256)))[::-1], "", "\xffĀ"],
        ],
    )
    def test_from_texts_matches_sorted_set(self, texts):
        want = tuple(sorted({c for t in texts for c in t}))
        assert Alphabet.from_texts(texts).symbols == want
        assert Alphabet.from_texts(iter(texts)).symbols == want
        for t in texts:
            assert Alphabet.from_texts([t]).symbols == tuple(sorted(set(t)))

    def test_from_text_marks_at_most_every_code_point(self):
        tracemalloc.start()
        try:
            alphabet = Alphabet.from_texts(["a\U0010ffff"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert alphabet.symbols == ("a", "\U0010ffff")
        # one byte per code point up to U+10FFFF, plus small change
        assert peak < 0x110000 + 64 * 1024


    @given(
        symbols=st.one_of(
            st.lists(
                st.one_of(
                    st.sampled_from([0, None, b"a", "", "ab", "a\udc00", "\ud800", "\udfff", "\U0010ffff", "a", "b"]),
                    st.characters(),
                    st.text(max_size=2),
                ),
                max_size=6,
            ),
            st.lists(st.characters() | st.sampled_from(["\ud800", "\udfff", "\U0010ffff"]), unique=True).map(sorted),
        ),
    )
    @settings(deadline=None, max_examples=400)
    def test_check_matches_per_symbol_reference(self, symbols):
        # the same index, or the same exception with the same message, as a
        # check one symbol at a time
        def outcome(index):
            try:
                return list(index(tuple(symbols)).items())
            except ValueError as e:
                return type(e), str(e)

        assert outcome(lambda s: Alphabet(s).index) == outcome(alphabet_index)

    @given(
        index=st.dictionaries(
            st.characters() | st.sampled_from(["\x00", "\ud800", "\udfff", "\U0010ffff"]),
            st.integers(-(2**31), 2**31 - 1),
            max_size=8,
        ),
        fill=st.integers(-3, 3),
    )
    @settings(deadline=None, max_examples=200)
    def test_code_point_table_matches_ord_reference(self, index, fill):
        got = automaton._code_point_table(index, fill)
        want = code_point_table(index, fill)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@functools.cache
def variant_builds():
    """Two seeded builds of every variant: texts over three and five symbols."""
    rng = np.random.default_rng(11)
    out = []
    for name, v in VARIANTS.items():
        for symbols, lengths in (("abc", (9, 7)), ("abcde", (12, 6, 4))):
            texts = ["".join(rng.choice(list(symbols), size=m)) for m in lengths]
            texts = texts[: min(v.max_texts or len(texts), len(texts))]
            out.append(v.build(texts, 2 if v.takes_k else None, None, 10**6))
    return out


def test_rows_ignore_the_parameters_they_do_not_take():
    # a k or a sigma override given to a row without it changes nothing
    for name, v in VARIANTS.items():
        texts = ["abcab", "bca"][: v.max_texts or 2]
        k = 2 if v.takes_k else None
        plain = serialize(v.build(texts, k, None, 10**6))
        assert serialize(v.build(texts, k or 9, None if v.hops.widens else 300, 10**6)) == plain, name


def test_csr_keys_are_made_on_first_walk_and_kept():
    # source * sigma + symbol per transition: no builder, reader, == or
    # serialize makes them; the first walk does, and the next reuses them
    for name, v in VARIANTS.items():
        texts = ["abacbabcabad"] if v.max_texts == 1 else ["abcab", "bacba"]
        a, b = (v.build(texts, 3 if v.takes_k else None, None, 10**6) for _ in range(2))
        loaded = deserialize(serialize(a))
        assert a._key is b._key is loaded._key is None, name
        assert a == loaded and a._key is loaded._key is None, name
        chars = default_check_alphabet(texts)
        assert equivalence_check(a, variant_oracle(v, texts), chars, 3).ok, name
        key = a._key
        sources = np.repeat(np.arange(a.state_count), np.diff(a.offsets))
        assert key.dtype == np.int32 and not key.flags.writeable, name
        assert key.tolist() == (sources * len(a.alphabet) + a.syms).tolist() and (np.diff(key) > 0).all(), name
        assert trace_equivalence(a, b, chars, 3).equal, name
        assert a.key is key and b._key is not None, name
        assert a == loaded and serialize(a) == serialize(loaded), name
    # past 2**31 (state, symbol) cells, the keys are int64
    sigma = 1 << 16
    offsets = np.zeros(2**15 + 2, dtype=np.int64)
    offsets[-1] = 1
    wide = Automaton(Alphabet(tuple(map(chr, range(sigma)))), offsets, [sigma - 1], [0], np.full(2**15 + 1, -1), {})
    assert wide.key.dtype == np.int64 and wide.key.tolist() == [2**15 * sigma + sigma - 1]


# edits of one automaton's arrays, each of one invariant
EDITS = ("symbol", "target", "default", "duplicate", "swap", "backward", "empty")


def edited(a, kinds, rng):
    """A copy of ``a`` with one edit of each of ``kinds``, at random places:
    a symbol, target or default set negative or out of range (int32
    extremes included), a label copied onto or swapped with the next entry,
    an edge or default sent back to or below its source, or a state's
    transitions dropped."""
    offsets, syms, targets, defaults = (x.copy() for x in (a.offsets, a.syms, a.targets, a.defaults))
    m = a.state_count
    for kind in kinds:
        count = syms.shape[0]
        j, s = int(rng.integers(max(count, 1))), int(rng.integers(m))
        source = int(np.searchsorted(offsets, j, side="right")) - 1
        huge = int(rng.integers(m, 2**31))
        if kind == "symbol" and count:
            syms[j] = rng.choice([-1, -(2**31), -huge, len(a.alphabet), huge, 2**31 - 1])
        elif kind == "target" and count:
            targets[j] = rng.choice([-1, -(2**31), -huge, m, huge, 2**31 - 1])
        elif kind == "default":
            defaults[s] = rng.choice([-2, -(2**31), m, huge, 2**31 - 1])
        elif kind in ("duplicate", "swap") and j + 1 < count:
            if kind == "duplicate":
                syms[j + 1] = syms[j]
            else:
                syms[j], syms[j + 1] = syms[j + 1], syms[j]
        elif kind == "backward":
            if count:
                targets[j] = rng.integers(0, source + 1)
            defaults[s] = rng.integers(0, s + 1)
        elif kind == "empty":
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            syms, targets = np.delete(syms, slice(lo, hi)), np.delete(targets, slice(lo, hi))
            offsets[s + 1 :] -= hi - lo
    return Automaton(a.alphabet, offsets, syms, targets, defaults, a.meta)


class TestValidate:
    def test_violations_match_mask_reference_on_edited_automata(self):
        # every violation class of every variant, alone and mixed, with
        # empty states between the edited ones: the same messages in the
        # same order as one boolean mask per condition
        rng = np.random.default_rng(12)
        seen = dict.fromkeys(EDITS, 0)
        for a in variant_builds():
            assert validate(a).violations == validate_by_masks(a).violations == []
            for kinds in [[kind] for kind in EDITS] * 3 + [list(rng.choice(EDITS, size=3)) for _ in range(12)]:
                b = edited(a, kinds, rng)
                want = validate_by_masks(b)
                assert validate(b) == want, (a.meta, kinds)
                for kind in kinds:
                    seen[kind] += not want.ok
        assert min(seen.values()) > 20, seen

    @pytest.mark.parametrize("edges", [1, 3])
    def test_violations_in_small_slices_match_mask_reference(self, monkeypatch, edges):
        # slices of a few transitions and states put seams between the
        # entries of a state and between a default and its neighbours
        rng = np.random.default_rng(edges)
        monkeypatch.setattr(automaton, "_EDGE_SLICE", edges)
        for a in variant_builds():
            for kinds in [list(rng.choice(EDITS, size=3)) for _ in range(4)]:
                b = edited(a, kinds, rng)
                assert validate(b) == validate_by_masks(b), (a.meta, kinds)

    def test_no_label_order_across_empty_states(self):
        # entries of different states never compare, whichever states lie
        # empty between them
        a = tiny_automaton([[(1, 1)], [], [(0, 3), (1, 3)], [], [], [(1, 6)], []], [-1] * 7)
        assert validate(a).violations == validate_by_masks(a).violations == []
        b = tiny_automaton([[(1, 1), (1, 2)], [], [(1, 3), (0, 3)], []], [-1] * 4)
        assert validate(b).violations == validate_by_masks(b).violations == [
            "state 0: duplicate label 'b'", "state 2: unsorted labels at entry 3",
        ]

    def test_sa_is_valid_under_numeric_order(self):
        report = validate(build_sa("abadca"))
        assert report.ok and report.violations == []

    def test_duplicate_label(self):
        a = tiny_automaton([[(0, 1), (0, 1)], []], [-1, -1])
        report = validate(a)
        assert not report.ok
        assert any("duplicate label" in v for v in report.violations)

    def test_non_forward_default(self):
        a = tiny_automaton([[], [], [], []], [-1, -1, -1, 2])
        report = validate(a)
        assert not report.ok
        assert any("non-forward default" in v for v in report.violations)

    def test_non_forward_transition_and_bad_target(self):
        a = tiny_automaton([[(0, 0)], [(1, 9)]], [-1, -1])
        report = validate(a)
        msgs = "\n".join(report.violations)
        assert "non-forward transition" in msgs
        assert "out of range" in msgs

    def test_default_below_minus_one_out_of_range(self):
        a = tiny_automaton([[(0, 1)], []], [-2, -1])
        assert validate(a).violations == ["state 0: default target -2 out of range"]

    def test_unsorted_labels_and_extreme_symbol_ids(self):
        # label order is compared directly, so ids at the int32 extremes
        # cannot wrap around into a false "unsorted" report
        a = tiny_automaton([[(1, 1), (0, 1)], [(-(2**31), 2), (2**31 - 1, 2)], []], [-1, -1, -1])
        msgs = validate(a).violations
        assert "state 0: unsorted labels at entry 1" in msgs
        assert not any("state 1: unsorted" in m for m in msgs)
        assert sum("outside alphabet" in m for m in msgs) == 2

    def test_peak_memory_per_transition(self):
        rng = np.random.default_rng(0)
        a = build_k_level("".join(chr(int(v)) for v in rng.integers(0, 256, 20_000)), 16)
        tracemalloc.start()
        try:
            assert validate(a).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / int(a.offsets[-1]) < 16

    @pytest.mark.parametrize("variant", ["common-level", "any-level"])
    def test_product_order_matches_per_edge_reference(self, variant):
        def coords(i, dims):
            if i == 0:
                return (0,) * len(dims)
            rem, out = i - 1, []
            for d in reversed(dims):
                rem, x = divmod(rem, d)
                out.append(x + 1)
            return tuple(reversed(out))

        def forward(s, t, dims):
            cs, ct = coords(s, dims), coords(t, dims)
            return all(y >= x for x, y in zip(cs, ct)) and sum(ct) > sum(cs)

        rng = np.random.default_rng(7)
        build = {"common-level": build_common_level, "any-level": build_any_level}[variant]
        for texts in (["abcabcab", "bcaacbab"], ["abca", "bcab", "cabb"]):
            a = build(texts)
            dims = automaton.state_dims(a.meta)
            m = a.state_count
            # redirect a third of the edges anywhere, the origin included, and
            # every tenth to its own source
            targets = a.targets.copy()
            moved = rng.random(len(targets)) < 0.3
            targets[moved] = rng.integers(0, m, size=int(moved.sum()))
            targets[::10] = np.repeat(np.arange(m), np.diff(a.offsets))[::10]
            defaults = np.where(rng.random(m) < 0.3, rng.integers(-1, m, size=m), a.defaults).astype(np.int32)
            b = Automaton(a.alphabet, a.offsets, a.syms, targets, defaults, a.meta)
            want = []
            for s in range(m):
                for j in range(int(a.offsets[s]), int(a.offsets[s + 1])):
                    if not forward(s, int(targets[j]), dims):
                        label = repr(a.alphabet.symbols[int(a.syms[j])])
                        want.append(f"state {s}: non-forward transition to {targets[j]} (label {label})")
            want += [f"state {s}: non-forward default to {d}" for s, d in enumerate(defaults.tolist())
                     if d >= 0 and not forward(s, d, dims)]
            assert len(want) > 10
            assert validate(b).violations == want

    @pytest.mark.parametrize("edges", [1, 7])
    def test_product_order_in_small_edge_slices(self, monkeypatch, edges):
        # slices of a few edges, seams everywhere, give one slice's verdicts
        rng = np.random.default_rng(edges)
        a = build_any_level(["abcab", "bcaac", "cab"])
        m = a.state_count
        targets = rng.integers(0, m, size=len(a.targets)).astype(np.int32)
        defaults = rng.integers(-1, m, size=m).astype(np.int32)
        b = Automaton(a.alphabet, a.offsets, a.syms, targets, defaults, a.meta)
        want = validate(b).violations
        assert len(want) > 10
        monkeypatch.setattr(automaton, "_EDGE_SLICE", edges)
        assert validate(b).violations == want

    def test_product_order_peak_memory(self):
        rng = np.random.default_rng(3)
        a = build_any_level(["".join(map(chr, rng.integers(0, 256, size=200))) for _ in range(2)])
        assert int(a.offsets[-1]) == 349_265
        tracemalloc.start()
        try:
            assert validate(a).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_assemble_raises_under_optimize(self):
        # the builders' invariant check must survive ``python -O``, which
        # strips assert statements
        script = (
            "import numpy as np\n"
            "from subseq_automata.automaton import Alphabet, assemble\n"
            "try:\n"
            "    assemble(Alphabet(('a',)), np.zeros(3, np.int64), [], [], [-1, 0], {'n': 1})\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        src = str(Path(subseq_automata.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "state 1: non-forward default to 0" in proc.stdout


class TestRun:
    def test_sa_bda_trace_matches_greedy_oracle(self):
        # greedy leftmost occurrences of b,d,a in "abadca": positions 2, 4, 6
        a = build_sa("abadca")
        out = run(a, "bda")
        assert out.accepted
        assert out.consumed_targets == [2, 4, 6]
        assert out.defaults_per_char == [0, 0, 0]
        assert is_subsequence("bda", "abadca")

    def test_empty_pattern_accepted_everywhere(self):
        for a in [build_sa("abadca"), build_chain("ab"), build_level(""), build_k_level("ab", 2)]:
            out = run(a, "")
            assert out.accepted and out.consumed_targets == [] and out.reject_position is None

    def test_level_rejects_aab_at_index_2(self):
        # no 'b' after the second greedy 'a' (position 3) in "abadca"
        a = build_level("abadca")
        out = run(a, "aab")
        assert not out.accepted
        assert out.reject_position == 2
        assert not is_subsequence("aab", "abadca")

    def test_unknown_character_rejects_at_its_index(self):
        a = build_level("abadca")
        out = run(a, "bZ")
        assert not out.accepted and out.reject_position == 1
        assert out.consumed_targets == [2]

    def test_chain_ca_defaults(self):
        out = run(build_chain("abadca"), "ca")
        assert out.accepted
        assert out.defaults_per_char == [4, 0]

    def test_defaults_bounded_by_chain_and_targets_increase(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 13))
            text = "".join(chr(97 + int(v)) for v in rng.integers(0, 4, n))
            a = build_level(text)
            chain = size_metrics(a).longest_default_chain
            for _ in range(10):
                p = "".join(chr(97 + int(v)) for v in rng.integers(0, 5, int(rng.integers(0, 7))))
                out = run(a, p)
                assert all(d <= chain for d in out.defaults_per_char)
                assert all(x < y for x, y in zip(out.consumed_targets, out.consumed_targets[1:]))

    def test_acceptance_monotone_in_prefixes(self):
        a = build_k_level("abacbabcabad", 3)
        p = "abcbd"
        assert run(a, p).accepted
        for i in range(len(p)):
            assert run(a, p[:i]).accepted


class TestSizeMetrics:
    def test_sa_counts_match_suffix_alphabet_sum(self):
        text = "abadca"
        m = size_metrics(build_sa(text))
        expected_regular = sum(len(set(text[s:])) for s in range(len(text) + 1))
        assert (m.states, m.regular_transitions, m.default_transitions) == (7, expected_regular, 0)
        assert expected_regular == 17
        assert m.size_total == 7 + 17

    def test_chain_counts(self):
        m = size_metrics(build_chain("abadca"))
        assert (m.states, m.regular_transitions, m.default_transitions) == (7, 6, 6)
        assert m.longest_default_chain == 6

    def test_level_longest_chain_matches_recursive_reference(self):
        a = build_level("abacbabcabad")

        def chain_from(s):
            d = a.default(s)
            return 0 if d is None else 1 + chain_from(d)

        expected = max(chain_from(s) for s in range(a.state_count))
        m = size_metrics(a)
        assert m.longest_default_chain == expected == 4
        # the witness chain 0 -> 1 -> 2 -> 4 -> 8 exists
        assert a.default(0) == 1 and a.default(1) == 2 and a.default(2) == 4 and a.default(4) == 8

    def test_reachable_states_match_the_sweep(self):
        # seeded builds of every variant, and the same automata with one or
        # more of their i -> i + 1 edges dropped: the count the per-state
        # sweep gives
        rng = np.random.default_rng(14)
        dropped = 0
        for a in variant_builds():
            assert reachable_states(a) == reachable_by_sweep(a)
            sources = np.repeat(np.arange(a.state_count), np.diff(a.offsets))
            steps = np.flatnonzero(a.targets == sources + 1)
            for size in (1, 2, len(steps)):
                drop = rng.choice(steps, size=min(size, len(steps)), replace=False)
                keep = np.setdiff1d(np.arange(len(a.syms)), drop)
                offsets = np.concatenate([[0], np.cumsum(np.bincount(sources[keep], minlength=a.state_count))])
                b = Automaton(a.alphabet, offsets, a.syms[keep], a.targets[keep], a.defaults, a.meta)
                assert validate(b).ok
                assert reachable_states(b) == reachable_by_sweep(b), (a.meta, drop)
                dropped += reachable_by_sweep(b) < b.state_count
        assert dropped > 5

    def test_reachable_states(self):
        assert reachable_states(build_sa("abadca")) == 7
        # off-diagonal states (1,2)/(2,1) of this product automaton have no
        # incoming edges
        from subseq_automata import build_naive_common

        a = build_naive_common("aa", "aa")
        assert a.state_count == 5
        assert reachable_states(a) == 3


@functools.cache
def big_klevel():
    """klevel k=2 over a random sigma=256 text of 10**5 characters: an 8.4 MiB
    document."""
    rng = np.random.default_rng(0)
    return build_k_level("".join(chr(int(v)) for v in rng.integers(0, 256, 100_000)), 2)


# Canonical documents the edits start from: every variant, the empty text,
# products with transition-less states, ids of several digits and non-ASCII
# alphabets (escaped in the document, so it stays ASCII).
EDITED_BUILDS = [
    ("sa", [""], None),
    ("sa", ["abadca"], None),
    ("chain", ["h\xe9llo \u65e5\U0001f600"], None),
    ("level", ["abacbabcabad"], None),
    ("klevel", ["abacbabcabad" * 2], 2),
    ("klevel", ["\xe9t\xe9 \xe0 \u65e5\u672c"], 3),
    ("naive-common", ["abc", "ca"], None),
    ("common-level", ["abca", "bac", "cab"], None),
    ("any-level", ["abc", "", "ca"], None),
]


def _state_sites(pattern):
    """Edits that replace the first, a middle and the last match of
    ``pattern`` in the state lines, one at a time, by ``replace(match)``."""

    def edit(replace):
        def apply(doc):
            found = list(re.compile(pattern).finditer(doc, doc.index('  "states": [\n')))
            for i in sorted({0, len(found) // 2, len(found) - 1}) if found else []:
                m = found[i]
                yield doc[: m.start()] + replace(m) + doc[m.end() :]

        return apply

    return edit


def _swap_header_lines(doc):
    lines = doc.split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith('  "k":'))
    lines[k], lines[k + 1] = lines[k + 1], lines[k]
    yield "\n".join(lines)


_NUMBER = r"(?<=[:\[,])\d+(?=[,\]])"
DOCUMENT_EDITS = {
    "change-digit": _state_sites(r"\d")(lambda m: str((int(m.group()) + 1) % 10)),
    "drop-pair": _state_sites(r",?\[\d+,\d+\]")(lambda m: ""),
    "duplicate-pair": _state_sites(r"\[\d+,\d+\]")(lambda m: m.group() + "," + m.group()),
    "swap-pairs": _state_sites(r"(\[\d+,\d+\]),(\[\d+,\d+\])")(lambda m: m.group(2) + "," + m.group(1)),
    "null-to-id": _state_sites(r'(?<="default":)null')(lambda m: "1"),
    "id-to-null": _state_sites(r'(?<="default":)\d+')(lambda m: "null"),
    "leading-zero": _state_sites(_NUMBER)(lambda m: "0" + m.group()),
    "minus": _state_sites(_NUMBER)(lambda m: "-" + m.group()),
    "eleven-digits": _state_sites(_NUMBER)(lambda m: "10000000001"),
    "int32-wraparound": _state_sites(_NUMBER)(lambda m: str(2**32 + int(m.group()))),
    "int64-wraparound": _state_sites(_NUMBER)(lambda m: str(2**63 + int(m.group()))),
    "empty-slot": _state_sites(_NUMBER)(lambda m: ""),
    "number-out-of-slot": _state_sites(r"\[(\d+),")(lambda m: m.group(1) + "[,"),
    "true": _state_sites(_NUMBER)(lambda m: "true"),
    "crlf": lambda doc: [doc.replace("\n", "\r\n")],
    "trailing-space": lambda doc: [doc + " ", doc.replace("}\n", "} \n", 1)],
    "drop-final-newline": lambda doc: [doc[:-1]],
    "reorder-header": _swap_header_lines,
}


class TestDocuments:
    def test_round_trip_identity(self):
        for a in [
            build_sa("abadca"),
            build_chain(""),
            build_level("abacbabcabad"),
            build_k_level("abadca", 3),
        ]:
            assert deserialize(serialize(a)) == a

    def test_unknown_version_rejected(self):
        doc = serialize(build_sa("ab")).replace('"version": 1', '"version": 99')
        with pytest.raises(DocumentError, match="version"):
            deserialize(doc)

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_version_must_be_the_integer_one(self, version):
        # True == 1.0 == 1 in Python; only the JSON integer 1 is version 1
        doc = serialize(build_chain("ab")).replace('"version": 1', '"version": ' + version, 1)
        with pytest.raises(DocumentError, match=r"^unsupported document version: "):
            deserialize(doc)

    def test_deeply_nested_document_is_a_document_error(self):
        with pytest.raises(DocumentError, match="^not valid JSON: nested too deeply to parse$"):
            deserialize("[" * 100_000)

    def test_out_of_range_target_rejected(self):
        import json

        doc = json.loads(serialize(build_sa("ab")))
        doc["states"][0]["trans"][0][1] = 7
        with pytest.raises(DocumentError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["states"][0].update(default=2**40), "default id 1099511627776 does not fit in int32"),
            (lambda d: d["states"][0]["trans"].append([0, 2**32 + 1]), "target id 4294967297 does not fit"),
            (lambda d: d["states"][1]["trans"][0].__setitem__(0, -(2**31) - 1), "symbol id -2147483649"),
            (lambda d: d["states"][0].update(default=-7), "state 0: 'default' must be a state id or null"),
            (lambda d: d["states"][1].update(default=-1), "state 1: 'default' must be a state id or null"),
        ],
        ids=["huge-default", "huge-target", "low-symbol", "negative-default", "minus-one-default"],
    )
    def test_hostile_ids_refused(self, edit, message):
        import json

        doc = json.loads(serialize(build_chain("ab")))
        edit(doc)
        with pytest.raises(DocumentError, match=message):
            deserialize(json.dumps(doc))

    def test_sigma_above_unicode_refused_by_both_readers(self):
        a = build_k_level("abca", 2)
        for sigma, refused in ((0x110000, False), (0x110001, True), (2**63, True)):
            doc = serialize(a).replace('"sigma": 3,', f'"sigma": {sigma},')
            reformatted = json.dumps(json.loads(doc))  # for the general reader only
            assert (automaton._read_canonical(doc) is None) == refused
            assert automaton._read_canonical(reformatted) is None
            for text in (doc, reformatted):
                if refused:
                    with pytest.raises(DocumentError, match=f"^'sigma' {sigma} exceeds 1114112, "):
                        deserialize(text)
                    with pytest.raises(DocumentError, match="1114112"):
                        automaton._deserialize_json(text)
                else:
                    assert deserialize(text).meta["sigma"] == sigma

    @pytest.mark.parametrize(
        "document, edit, message",
        [
            (lambda: build_k_level("abcab", 2), ('"k": 2', '"k": null'),
             "^variant 'klevel' requires an integer k >= 2, got None$"),
            (lambda: build_sa("abcab"), ('"k": null', '"k": 2'), "^variant 'sa' takes no k$"),
            (lambda: build_k_level("abcab", 2), ('"k": 2', '"k": 4'), r"^k must lie in \[2, 3\] for sigma=3, got 4$"),
            (lambda: build_k_level("ab", 2), ('"k": 2', '"k": 3'), r"^k must lie in \[2, 2\] for sigma=2, got 3$"),
        ],
        ids=["klevel-k-null", "sa-k-2", "klevel-k-above-sigma", "klevel-k-above-2"],
    )
    def test_metadata_the_registry_refuses_is_a_document_error(self, document, edit, message):
        # the reader checks the metadata against the variant registry, so the
        # library loads no document that size_report or verify would refuse
        doc = serialize(document())
        assert doc.count(edit[0]) == 1
        edited = doc.replace(*edit)
        for text in (edited, json.dumps(json.loads(edited))):  # the writer's layout, then the general reader's
            with pytest.raises(DocumentError, match=message):
                deserialize(text)

    @pytest.mark.parametrize(
        "document, edit, message",
        [
            (lambda: build_sa("abca"), ('"n": 4,', '"lengths": [4],'), "^a 'sa' document must carry 'n'$"),
            (lambda: build_k_level("abca", 2), ('"n": 4,', '"lengths": [4],'),
             "^a 'klevel' document must carry 'n'$"),
            (lambda: build_sa("abca"), ('"n": 4,', '"n": 4,\n  "lengths": [4],'),
             "^document must carry 'n' or 'lengths', not both$"),
            (lambda: build_common_level(["ab", "ba"]), ('"lengths": [2, 2],', '"n": 2,\n  "lengths": [2, 2],'),
             "^document must carry 'n' or 'lengths', not both$"),
        ],
        ids=["sa-lengths", "klevel-lengths", "sa-both", "common-level-both"],
    )
    def test_text_length_key_follows_the_variant_arity(self, document, edit, message):
        # one text declares "n", more texts "lengths", never both: a
        # single-string document with "lengths" would read as a product
        doc = serialize(document())
        assert doc.count(edit[0]) == 1
        edited = doc.replace(*edit)
        assert automaton._read_canonical(edited) is None
        for text in (edited, json.dumps(json.loads(edited))):  # the writer's layout, then the general reader's
            with pytest.raises(DocumentError, match=message):
                deserialize(text)

    def test_not_json(self):
        with pytest.raises(DocumentError, match="JSON"):
            deserialize("not json at all")

    def test_state_count_mismatch(self):
        import json

        doc = json.loads(serialize(build_sa("ab")))
        doc["n"] = 5
        with pytest.raises(DocumentError, match="states"):
            deserialize(json.dumps(doc))

    def test_multi_round_trip(self):
        from subseq_automata import build_any_level, build_naive_common

        for a in [build_naive_common("ab", "ba"), build_any_level(["ab", "ba"])]:
            assert deserialize(serialize(a)) == a

    @pytest.mark.parametrize(
        "name,texts,k",
        [
            ("sa", [""], None),
            ("sa", ["abadca"], None),
            ("chain", [""], None),
            ("chain", ["abadca"], None),
            ("level", ["abacbabcabad"], None),
            ("klevel", ["abacbabcabad"], 2),
            ("klevel", ["abadca"], 4),
            ("naive-common", ["abc", "ca"], None),
            ("naive-common", ["", "ab"], None),
            ("common-level", ["abca", "bac", "cab"], None),
            ("any-level", ["ab", "ba"], None),
            ("any-level", ["abc", "", "ca"], None),
        ],
    )
    def test_serialize_matches_per_state_json_reference(self, name, texts, k):
        from subseq_automata.variants import VARIANTS

        a = VARIANTS[name].build(texts, k, None, 10**6)
        assert states_part(serialize(a)) == per_state_reference(a)
        assert any(a.default(s) is None for s in range(a.state_count))
        assert any(not a.transitions(s) for s in range(a.state_count))

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_blocks_of_any_size_match_per_state_reference(self, block, monkeypatch):
        from subseq_automata.variants import VARIANTS

        builds = [
            VARIANTS[name].build(texts, k, None, 10**6)
            for name, texts, k in [
                ("sa", ["abadcaxyz"], None),
                ("chain", ["abadca"], None),
                ("level", ["abacbabcabad"], None),
                ("klevel", ["abacbabcabad"], 3),
                ("naive-common", ["abc", "ca"], None),
                ("common-level", ["abca", "bac"], None),
                ("any-level", ["abc", "", "ca"], None),
            ]
        ]
        # state ids crossing 9/10, 99/100 and 9999/10000
        builds.append(build_chain("ab" * 5000 + "c"))
        builds.append(build_sa(""))
        assert builds[-1].state_count == 1
        counts = np.diff(builds[4].offsets)
        assert not counts[1:-1].all()  # transition-less states inside the product document
        # values of 1, 2 and 10 digits on one line, and negative symbols and
        # targets, which validate rejects and which print with their sign
        widths = tiny_automaton(
            [[(0, 9), (9, 10), (10, 2**31 - 1)], [(-1, 0), (2**31 - 1, -(2**31))], [], [(5, -7)], []],
            [2**31 - 1, -1, 0, 10, -1],
        )
        assert not validate(widths).ok
        builds.append(widths)
        monkeypatch.setattr(automaton, "_BLOCK", block)
        for a in builds:
            doc = serialize(a)
            assert states_part(doc) == per_state_reference(a)
            assert doc == "".join(automaton._document_blocks(a))

    def test_serialize_peak_memory_per_document_byte(self):
        a = big_klevel()
        tracemalloc.start()
        try:
            doc = serialize(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the finished document plus the blocks it is joined from, and one
        # block's skeleton, digits and slot ends: 2.00x here, 8.3x for a
        # writer that formats state by state
        assert peak <= 3 * len(doc)

    @given(text=st.text(alphabet="abcd", max_size=16), k=st.integers(2, 4))
    @settings(deadline=None, max_examples=60)
    def test_round_trip_over_random_builds(self, text, k):
        builds = [build_sa(text), build_chain(text), build_level(text)]
        if k <= max(2, len(set(text))):
            builds.append(build_k_level(text, k))
        for a in builds:
            assert deserialize(serialize(a)) == a

    @given(
        texts=st.lists(st.text(alphabet="ab\xe9\u65e5", max_size=8), min_size=1, max_size=3),
        k=st.integers(2, 4),
    )
    @settings(deadline=None, max_examples=60)
    def test_canonical_reader_takes_every_written_document(self, texts, k):
        from subseq_automata.variants import VARIANTS

        for name, v in VARIANTS.items():
            if not v.min_texts <= len(texts) <= (v.max_texts or len(texts)):
                continue
            if name == "klevel" and k > max(2, len(set(texts[0]))):
                continue
            a = v.build(texts, k if name == "klevel" else None, None, 10**6)
            doc = serialize(a)
            fast = automaton._read_canonical(doc)
            assert fast is not None, name
            assert fast == a == automaton._deserialize_json(doc)

    def test_deserialize_peak_memory_per_document_byte(self):
        doc = serialize(big_klevel())
        tracemalloc.start()
        try:
            a = deserialize(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a == big_klevel()
        # the automaton's arrays (0.6x the document here), one block's bytes
        # and temporaries, and validate's: about 1.05x; 12.6x through
        # json.loads and a per-state loop
        assert peak <= 3 * len(doc)

    @pytest.mark.parametrize("edit", sorted(DOCUMENT_EDITS))
    def test_canonical_reader_agrees_with_json_path(self, edit):
        """On single edits to canonical documents the canonical reader either
        returns the automaton whose document is exactly the edited text, or
        leaves it to the JSON path: ``deserialize`` gives the same automaton
        or the same error message as the JSON path alone."""
        from subseq_automata.variants import VARIANTS

        def outcome(read, doc):
            try:
                return read(doc)
            except DocumentError as e:
                return str(e)

        edited = 0
        for name, texts, k in EDITED_BUILDS:
            a = VARIANTS[name].build(texts, k, None, 10**6)
            original = serialize(a)
            assert automaton._read_canonical(original) == a
            for doc in DOCUMENT_EDITS[edit](original):
                assert doc != original
                edited += 1
                fast = automaton._read_canonical(doc)
                if fast is not None:
                    assert serialize(fast) == doc
                assert outcome(deserialize, doc) == outcome(automaton._deserialize_json, doc), (name, texts, doc)
        assert edited >= len(EDITED_BUILDS)

    def test_bytes_read_as_their_strict_utf8_text(self):
        """A document's bytes give what decoding them as UTF-8, strictly, and
        reading the text gives: the same automaton, or the same one-line
        refusal. Bytes that are not UTF-8 are refused with the decoder's
        message; the others that are not canonical go to the general path."""
        from subseq_automata.variants import VARIANTS

        def outcome(data):
            try:
                return deserialize(data)
            except DocumentError as e:
                assert "\n" not in str(e)
                return str(e)

        def as_text(data):  # decoded first, as a text file is read
            try:
                return outcome(data.decode("utf-8"))
            except UnicodeDecodeError as e:
                return str(e)

        variants = set()
        for name, texts, k in EDITED_BUILDS:
            a = VARIANTS[name].build(texts, k, None, 10**6)
            variants.add(name)
            doc = serialize(a)
            reindented = json.dumps(json.loads(doc), indent=1)
            assert deserialize(doc.encode()) == deserialize(doc) == deserialize(reindented.encode()) == a
            data = doc.encode()
            at = data.index(b'"trans"')
            hostile = {
                "invalid-utf8": data[:at] + b"\xff" + data[at:],
                "lone-surrogate": data[:at] + "\ud800".encode("utf-8", "surrogatepass") + data[at:],
                "utf8-bom": b"\xef\xbb\xbf" + data,
                **{codec: doc.encode(codec) for codec in ("utf-16", "utf-16-le", "utf-16-be", "utf-32", "utf-32-le")},
                "nul-in-header": data.replace(b'"k"', b'"k\x00"', 1),
                "nul-in-states": data[:at] + b"\x00" + data[at:],
                "crlf": data.replace(b"\n", b"\r\n"),
                "trailing-space": data + b" ",
                "trailing-newline": data + b"\n",
                "trailing-byte": data + b"x",
            }
            for edit, edited in hostile.items():
                assert automaton._read_canonical(edited) is None, (name, edit)
                got = outcome(edited)
                assert got == as_text(edited), (name, edit)
                if edit in ("crlf", "trailing-space", "trailing-newline"):
                    assert got == a, (name, edit)
                else:
                    assert isinstance(got, str), (name, edit)
        assert variants == set(VARIANTS)

    def test_digit_runs_of_every_width_match_the_writer(self):
        # 1 to 10 digits, 2**31 - 1 included: the values the writer puts in
        # the slots are the values the reader takes out, 8 digits at a time
        values = [0, 9, 10, 99, 123, 4567, 89012, 345678, 9012345, 67890123, 456789012, 1000000000, 2**31 - 1]
        pairs = list(zip(values, reversed(values)))
        a = tiny_automaton([pairs[:5], [], pairs[5:]], [2**31 - 1, -1, 99999999])
        doc = serialize(a).encode()
        lines = doc[doc.index(b"[\n") + 2 : len(doc) - len(automaton._DOCUMENT_CLOSE)]
        counts, has_default, syms, targets, defaults = automaton._read_state_lines(lines, {}, True)
        assert counts.tolist() == [5, 0, len(pairs) - 5] and has_default.tolist() == [True, False, True]
        assert syms.tolist() == values and targets.tolist() == values[::-1]
        assert defaults.tolist() == [2**31 - 1, 99999999]
        for too_big in (b"2147483648", b"9999999999"):
            assert automaton._read_state_lines(lines.replace(b"2147483647", too_big), {}, True) is None


def states_part(doc: str) -> str:
    return doc.split('  "states": [\n')[1]


def per_state_reference(a) -> str:
    """The state lines as the document writer wrote them before it formatted
    from array views: one ``json.dumps`` per state."""
    import json

    lines = []
    for s in range(a.state_count):
        lo, hi = int(a.offsets[s]), int(a.offsets[s + 1])
        trans = [[int(a.syms[j]), int(a.targets[j])] for j in range(lo, hi)]
        lines.append("    " + json.dumps({"default": a.default(s), "trans": trans}, separators=(",", ":")))
    return ",\n".join(lines) + "\n  ]\n}\n"


class TestDot:
    def test_chain_ab_counts(self):
        dot = export_dot(build_chain("ab"))
        assert dot.count("doublecircle") == 3
        assert dot.count("label=\"a\"") + dot.count("label=\"b\"") == 2
        assert dot.count("style=dashed") == 2

    def test_deterministic(self):
        a = build_level("abacbabcabad")
        assert export_dot(a) == export_dot(a)

    def test_sa_contains_known_edge(self):
        assert '0 -> 2 [label="b"];' in export_dot(build_sa("abadca"))

    def test_multi_labels_are_tuples(self):
        from subseq_automata import build_naive_common

        dot = export_dot(build_naive_common("ab", "ba"))
        assert 'label="(0,0)"' in dot and 'label="(2,2)"' in dot

    def test_non_printable_labels_escaped(self):
        dot = export_dot(build_sa(chr(3) + chr(200)))
        assert "\\\\x03" in dot and "\\\\xc8" in dot
