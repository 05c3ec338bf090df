"""Core model: validation, running, metrics, documents, DOT."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subseq_automata
from subseq_automata import (
    Alphabet,
    Automaton,
    DocumentError,
    build_chain,
    build_k_level,
    build_level,
    build_sa,
    deserialize,
    export_dot,
    is_subsequence,
    reachable_states,
    run,
    serialize,
    size_metrics,
    validate,
)


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
        np.ones(n_states, dtype=bool),
        meta or {"variant": "sa", "n": n_states - 1, "k": None, "sigma": sigma},
    )


class TestAlphabet:
    def test_sorted_distinct(self):
        a = Alphabet.from_text("abadca")
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
        a = Alphabet.from_text("ab")
        assert a.codes("abz").tolist() == [0, 1, -1]

    def test_from_texts_union(self):
        assert Alphabet.from_texts(["ab", "bc"]).symbols == ("a", "b", "c")


class TestValidate:
    def test_sa_is_valid_under_numeric_order(self):
        report = validate(build_sa("abadca"), order="numeric")
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

    def test_callable_order(self):
        a = tiny_automaton([[(0, 1)], []], [-1, -1])
        assert validate(a, order=lambda u, v: v > u).ok
        assert not validate(a, order=lambda u, v: v < u).ok

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
            capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120,
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

    def test_reachable_states(self):
        assert reachable_states(build_sa("abadca")) == 7
        # off-diagonal states (1,2)/(2,1) of this product automaton have no
        # incoming edges
        from subseq_automata import build_naive_common

        a = build_naive_common("aa", "aa")
        assert a.state_count == 5
        assert reachable_states(a) == 3


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

    def test_out_of_range_target_rejected(self):
        import json

        doc = json.loads(serialize(build_sa("ab")))
        doc["states"][0]["trans"][0][1] = 7
        with pytest.raises(DocumentError):
            deserialize(json.dumps(doc))

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
        import json

        from subseq_automata.variants import VARIANTS

        a = VARIANTS[name].build(texts, k, None, 10**6)
        # the document writer before it formatted from tolist() views
        lines = []
        for s in range(a.state_count):
            lo, hi = int(a.offsets[s]), int(a.offsets[s + 1])
            trans = [[int(a.syms[j]), int(a.targets[j])] for j in range(lo, hi)]
            lines.append("    " + json.dumps({"default": a.default(s), "trans": trans}, separators=(",", ":")))
        expected = ",\n".join(lines) + "\n  ]\n}\n"
        _, states = serialize(a).split('  "states": [\n')
        assert states == expected
        assert any(a.default(s) is None for s in range(a.state_count))
        assert any(not a.transitions(s) for s in range(a.state_count))

    @given(text=st.text(alphabet="abcd", max_size=16), k=st.integers(2, 4))
    @settings(deadline=None, max_examples=60)
    def test_round_trip_over_random_builds(self, text, k):
        builds = [build_sa(text), build_chain(text), build_level(text)]
        if k <= max(2, len(set(text))):
            builds.append(build_k_level(text, k))
        for a in builds:
            assert deserialize(serialize(a)) == a


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
