"""CLI contract: exit codes, document pipelines, stats/bench formats."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subseq_automata
from subseq_automata import (
    Alphabet,
    Automaton,
    build_chain,
    build_k_level,
    build_level,
    build_sa,
    deserialize,
    run,
    serialize,
    size_metrics,
    structural_delay_cap,
)
from subseq_automata import cli
from subseq_automata.automaton import DocumentError
from subseq_automata.cli import main, reconstruct_text
from subseq_automata.variants import VARIANTS

from reference import reconstruct_text_by_sets

STATS_KEYS_SINGLE = [
    "version", "variant", "n", "sigma", "k", "states", "regular_transitions",
    "default_transitions", "size_total", "delay", "delay_cap", "reachable_states",
]


def test_build_document_carries_meta(tmp_path):
    doc = tmp_path / "k.json"
    assert main(["build", "--variant", "klevel", "--k", "2", "--text", "abadca", "--out", str(doc)]) == 0
    a = deserialize(doc.read_text())
    assert a.meta["variant"] == "klevel" and a.meta["k"] == 2


def test_build_match_accept_and_reject(tmp_path, capsys):
    doc = tmp_path / "a.json"
    assert main(["build", "--variant", "sa", "--text", "abadca", "--out", str(doc)]) == 0
    assert main(["match", "--file", str(doc), "--pattern", "bda"]) == 0
    assert capsys.readouterr().out.strip() == "accept"
    assert main(["match", "--file", str(doc), "--pattern", "aab"]) == 1
    assert capsys.readouterr().out.strip() == "reject"
    assert main(["match", "--file", str(doc), "--pattern", ""]) == 0


def test_match_trace_output(tmp_path, capsys):
    doc = tmp_path / "a.json"
    main(["build", "--variant", "sa", "--text", "abadca", "--out", str(doc)])
    assert main(["match", "--file", str(doc), "--pattern", "bda", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "targets: 2 4 6" in out
    assert "defaults: 0 0 0" in out


def test_match_agrees_with_library(tmp_path, capsys):
    doc = tmp_path / "a.json"
    main(["build", "--variant", "klevel", "--k", "2", "--text", "abacbabcabad", "--out", str(doc)])
    a = build_k_level("abacbabcabad", 2)
    for pattern in ["", "abc", "abadabc", "zzz", "dd", "aabbcc"]:
        code = main(["match", "--file", str(doc), "--pattern", pattern])
        capsys.readouterr()
        assert code == (0 if run(a, pattern).accepted else 1)


def test_bad_parameters_exit_2(tmp_path, capsys):
    assert main(["build", "--variant", "klevel", "--k", "1", "--text", "abadca"]) == 2
    assert main(["build", "--variant", "sa"]) == 2  # no input
    assert main(["build", "--variant", "sa", "--text", "a", "--texts", "a", "b"]) == 2
    assert main(["build", "--variant", "common-level", "--text", "ab"]) == 2
    assert main(["build", "--variant", "naive-common", "--text", "ab"]) == 2
    assert main(["build", "--variant", "naive-common", "--texts", "ab", "ba", "ab"]) == 2
    assert main(["build", "--variant", "nosuch", "--text", "ab"]) == 2
    assert main(["match", "--file", "/nonexistent/x.json", "--pattern", "a"]) == 2
    assert main(["verify", "--variant", "klevel", "--k", "2", "--text", "abcabd", "--max-len", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["build", "--variant", "naive", "--texts", "ab", "ba"],
    ["build", "--variant", "level", "--texts", "ab", "ba"],
    ["build", "--variant", "any-level", "--texts", "ab", "ba", "--mode", "any"],
    ["stats", "--variant", "common-level", "--texts", "ab", "ba", "--mode", "common"],
    ["verify", "--variant", "level", "--text", "ab", "--mode", "any"],
    ["export", "--file", "a.json", "--mode", "any"],
])
def test_only_registry_names_spell_a_variant(argv, capsys):
    # --variant takes the seven registry names, and no command has --mode:
    # "naive", "level" for two texts and --mode each exit 2 with one line
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    if argv[2] == "naive":
        assert "invalid choice: 'naive'" in err
    elif "--mode" in argv:
        assert err == "error: unrecognized arguments: --mode " + argv[-1] + "\n"
    else:
        assert err == "error: variant 'level' takes 1 text(s), got 2\n"


def test_variant_choices_are_the_registry():
    parsers = [a.choices for a in cli._build_parser()._actions if a.dest == "command"][0]
    for command, parser in parsers.items():
        options = {o: a for a in parser._actions for o in a.option_strings}
        assert "--mode" not in options, command
        if "--variant" in options:
            assert list(options["--variant"].choices) == list(VARIANTS), command


def test_malformed_document_exit_2(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text("{not json")
    assert main(["match", "--file", str(doc), "--pattern", "a"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err

    # JSON booleans are not integers anywhere in a document, and the
    # variant must be one the registry knows
    main(["build", "--variant", "klevel", "--k", "2", "--text", "ab", "--out", str(doc)])
    main(["build", "--variant", "common-level", "--texts", "ab", "ba", "--out", str(tmp_path / "m.json")])
    single = json.loads(doc.read_text())
    multi = json.loads((tmp_path / "m.json").read_text())
    assert single["states"][0]["default"] == 1 and single["states"][0]["trans"] == [[0, 1]]
    edits = [
        (single, lambda d: d["states"][0].update(default=True)),
        (single, lambda d: d["states"][0].update(trans=[[False, 1]])),
        (single, lambda d: d["states"][0].update(trans=[[0, True]])),
        (single, lambda d: d.update(n=True)),
        (single, lambda d: d.update(k=True)),
        (single, lambda d: d.update(sigma=True)),
        (multi, lambda d: d.update(lengths=[True, 2])),
        (single, lambda d: d.update(variant="foo")),
        (multi, lambda d: d.update(variant="foo")),
    ]
    for original, edit in edits:
        bad = json.loads(json.dumps(original))
        edit(bad)
        doc.write_text(json.dumps(bad))
        assert main(["match", "--file", str(doc), "--pattern", "a"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # an unknown name is refused before the state count it would imply
    main(["build", "--variant", "any-level", "--texts", "ab", "b", "--out", str(doc)])
    renamed = json.loads(doc.read_text())
    renamed["variant"] = "any1.0-level"
    doc.write_text(json.dumps(renamed))
    assert main(["match", "--file", str(doc), "--pattern", "a"]) == 2
    assert capsys.readouterr().err == "error: unknown variant 'any1.0-level'\n"


@pytest.mark.parametrize("encoding", ["invalid-utf8", "utf-8-sig", "utf-16", "utf-16-le", "utf-32", "utf-32-be"])
def test_document_not_in_utf8_exits_2_with_one_line(tmp_path, capsys, encoding):
    # the document commands read bytes, and refuse what is not UTF-8 text of
    # a document: a byte order mark, UTF-16 and UTF-32 included
    doc = tmp_path / "doc.json"
    assert main(["build", "--variant", "klevel", "--k", "2", "--text", "abadca", "--out", str(doc)]) == 0
    text = doc.read_text()
    doc.write_bytes(text.encode("utf-8") + b"\xff" if encoding == "invalid-utf8" else text.encode(encoding))
    for argv in (["match", "--pattern", "ab"], ["stats"], ["verify"], ["export"], ["export", "--format", "structured"]):
        assert main([*argv, "--file", str(doc)]) == 2, (encoding, argv)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_hostile_document_ids_exit_2(tmp_path, capsys):
    doc = tmp_path / "chain.json"
    main(["build", "--variant", "chain", "--text", "ab", "--out", str(doc)])
    original = json.loads(doc.read_text())
    edits = [
        lambda d: d["states"][0].update(default=1099511627776),
        lambda d: d["states"][0]["trans"].append([0, 4294967297]),
        lambda d: d["states"][0].update(default=-7),
    ]
    for edit in edits:
        bad = json.loads(json.dumps(original))
        edit(bad)
        doc.write_text(json.dumps(bad))
        assert main(["match", "--file", str(doc), "--pattern", "a"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_build_multi_variants_and_mode_resolution(tmp_path, capsys):
    # each product is built under its registry name, and its row's mode is
    # the one its name says
    doc = tmp_path / "m.json"
    assert main(["build", "--variant", "common-level", "--texts", "ab", "ba", "--out", str(doc)]) == 0
    a = deserialize(doc.read_text())
    assert a.state_count == 5 and a.meta["variant"] == "common-level"

    for name, mode in (("any-level", "any"), ("naive-common", "common"), ("common-level", "common")):
        assert main(["build", "--variant", name, "--texts", "ab", "ba", "--out", str(doc)]) == 0
        assert deserialize(doc.read_text()).meta["variant"] == name and VARIANTS[name].mode == mode
    capsys.readouterr()


def test_stats_text_and_structured(capsys):
    assert main(["stats", "--variant", "chain", "--text", "abadca"]) == 0
    out = capsys.readouterr().out
    assert "regular_transitions: 6" in out and "default_transitions: 6" in out and "states: 7" in out

    assert main(["stats", "--variant", "sa", "--text", "abadca", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc.keys()) == STATS_KEYS_SINGLE
    assert doc["regular_transitions"] == 17

    assert main(["stats", "--variant", "level", "--text", "abacbabcabad"]) == 0
    assert "delay: 4" in capsys.readouterr().out


def test_stats_on_document(tmp_path, capsys):
    doc = tmp_path / "a.json"
    main(["build", "--variant", "level", "--text", "abadca", "--out", str(doc)])
    capsys.readouterr()
    assert main(["stats", "--file", str(doc), "--format", "structured"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["variant"] == "level" and parsed["states"] == 7


def test_verify_single_pass(capsys):
    assert main(["verify", "--variant", "level", "--text", "abacbabcabad", "--max-len", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "certificate: pass (complete: 13 states, 19 transitions)",
        "delay-bound: pass (longest default chain 4 <= 4)",
        "result: pass",
    ]


def test_verify_multi_pass(capsys):
    assert main(["verify", "--variant", "common-level", "--texts", "ab", "ba", "--max-len", "3"]) == 0
    out = capsys.readouterr().out
    assert "certificate: pass (complete: 5 states, 2 transitions)" in out.splitlines()
    assert main(["verify", "--variant", "any-level", "--texts", "ab", "ba", "--max-len", "3"]) == 0
    capsys.readouterr()


def test_verify_mutated_document_fails(tmp_path, capsys):
    doc = tmp_path / "a.json"
    main(["build", "--variant", "klevel", "--k", "2", "--text", "abadca", "--out", str(doc)])
    parsed = json.loads(doc.read_text())
    # drop state 2's non-adjacent edge (label d -> state 4); text recovery
    # still works because every i-1 -> i edge survives
    trans = parsed["states"][2]["trans"]
    assert [3, 4] in trans
    trans.remove([3, 4])
    doc.write_text(json.dumps(parsed))
    assert main(["verify", "--file", str(doc), "--max-len", "4"]) == 3
    out = capsys.readouterr().out
    assert "certificate: FAIL" in out and "counterexample" in out


def test_verify_fails_alike_under_optimize(tmp_path):
    # no check of verify rests on ``assert``, which ``python -O`` strips: the
    # mutated klevel document of test_verify_mutated_document_fails fails
    # with the same report
    doc = tmp_path / "a.json"
    main(["build", "--variant", "klevel", "--k", "2", "--text", "abadca", "--out", str(doc)])
    parsed = json.loads(doc.read_text())
    parsed["states"][2]["trans"].remove([3, 4])
    doc.write_text(json.dumps(parsed))
    src = str(Path(subseq_automata.__file__).resolve().parents[1])
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "subseq_automata.cli", "verify", "--file", str(doc), "--max-len", "4"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [3, 3], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout
    assert "certificate: FAIL (complete: 7 states, 7 transitions; counterexample 'abd')" in runs[0].stdout


def test_verify_single_string_builds_no_oracle_table(monkeypatch, capsys):
    # the certificate reads the text and the automaton only
    def refuse(*args):
        raise AssertionError("dense next-occurrence table built")

    monkeypatch.setattr(subseq_automata._kernels, "next_occurrence_table", refuse)
    for argv in (["--variant", "sa", "--text", "abadca"], ["--variant", "klevel", "--k", "2", "--text", "abadca"]):
        assert main(["verify", *argv]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "result: pass"


def test_verify_refuses_negative_max_len_before_building(monkeypatch, capsys):
    # no variant reads the bound, which is still checked to be >= 0 for every variant
    def refuse(args):
        raise AssertionError("built")

    monkeypatch.setattr(cli, "_build", refuse)
    for inputs in (["--variant", "sa", "--text", "ab"], ["--variant", "common-level", "--texts", "ab", "ba"]):
        assert main(["verify", *inputs, "--max-len", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: --max-len must be >= 0, got -1\n")


def test_verify_any_level_redirected_edge_fails_trace(tmp_path, capsys):
    doc = tmp_path / "m.json"
    main(["build", "--variant", "any-level", "--texts", "ab", "ba", "--out", str(doc)])
    parsed = json.loads(doc.read_text())
    # the origin's "a" edge leads to (1, 2), id 2; (1, 1), id 1, is also forward
    trans = parsed["states"][0]["trans"]
    assert [0, 2] in trans
    trans[trans.index([0, 2])] = [0, 1]
    doc.write_text(json.dumps(parsed))
    capsys.readouterr()
    assert main(["verify", "--file", str(doc), "--texts", "ab", "ba", "--max-len", "1"]) == 3
    out = capsys.readouterr().out.splitlines()
    # the certificate names the origin by its match --trace label and the
    # symbol it resolves wrongly
    detail = "(complete: 10 states, 8 transitions; counterexample state (0,0), symbol 'a')"
    assert f"certificate: FAIL {detail}" in out


def test_reconstruct_text_recovers_every_single_string_build():
    rng = np.random.default_rng(5)
    for text in ["", "a", "abadca", *("".join(rng.choice(list("abcd"), size=30)) for _ in range(3))]:
        for a in (build_sa(text), build_chain(text), build_level(text), build_k_level(text, 2)):
            assert reconstruct_text(a) == text, (text, a.meta)


def test_reconstruct_text_matches_the_set_reference():
    # seeded documents of every single-string variant, over code points up to
    # U+10FFFF and lone surrogates, and the same automata with one or more
    # i -> i + 1 edges dropped: the same text, or the same error
    def outcome(a, reconstruct):
        try:
            return reconstruct(a)
        except DocumentError as e:
            return str(e)

    rng = np.random.default_rng(15)
    symbols = ["a", "b", "\xe9", "\u65e5", "\ud800", "\udfff", "\U0010ffff"]
    texts = ["", "a", "\ud800", *("".join(rng.choice(symbols, size=m)) for m in (5, 17, 60))]
    failed = 0
    for text in texts:
        for a in (build_sa(text), build_chain(text), build_level(text), build_k_level(text, 2)):
            a = deserialize(serialize(a))
            assert reconstruct_text(a) == reconstruct_text_by_sets(a) == text
            sources = np.repeat(np.arange(a.state_count), np.diff(a.offsets))
            steps = np.flatnonzero(a.targets == sources + 1)
            for size in (1, 3):
                drop = rng.choice(steps, size=min(size, len(steps)), replace=False)
                keep = np.setdiff1d(np.arange(len(a.syms)), drop)
                offsets = np.concatenate([[0], np.cumsum(np.bincount(sources[keep], minlength=a.state_count))])
                b = Automaton(a.alphabet, offsets, a.syms[keep], a.targets[keep], a.defaults, a.meta)
                got = outcome(b, reconstruct_text)
                assert got == outcome(b, reconstruct_text_by_sets), (text, a.meta, drop)
                failed += got != text
    assert failed >= 30


def test_verify_document_names_state_without_next_edge(tmp_path, capsys):
    doc = tmp_path / "a.json"
    main(["build", "--variant", "sa", "--text", "abadca", "--out", str(doc)])
    parsed = json.loads(doc.read_text())
    # state 2's "a" edge is the 2 -> 3 edge the text is recovered from
    trans = parsed["states"][2]["trans"]
    trans.remove([0, 3])
    doc.write_text(json.dumps(parsed))
    capsys.readouterr()
    assert main(["verify", "--file", str(doc), "--max-len", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: document carries no edge from state 2 to 3; cannot recover the text\n"


def test_document_mode_refuses_build_flags(tmp_path, capsys):
    doc = tmp_path / "d.json"
    main(["build", "--variant", "klevel", "--k", "2", "--text", "abadca", "--out", str(doc)])
    capsys.readouterr()
    for argv in (
        ["stats", "--file", str(doc), "--k", "7", "--sigma", "3"],
        ["verify", "--file", str(doc), "--k", "9", "--state-budget", "4"],
        ["export", "--file", str(doc), "--sigma", "4"],
        ["stats", "--file", str(doc), "--codepoints"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --") and err.count("\n") == 1, argv
        assert "--variant" in err


def test_verify_document_with_explicit_text(tmp_path, capsys):
    doc = tmp_path / "a.json"
    main(["build", "--variant", "sa", "--text", "abadca", "--out", str(doc)])
    assert main(["verify", "--file", str(doc), "--text", "abadca", "--max-len", "3"]) == 0
    capsys.readouterr()
    # a single-string document is checked against exactly one text
    assert main(["verify", "--file", str(doc), "--texts", "abadca", "zz", "--max-len", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_verify_document_refuses_one_string_texts_as_build_mode_does(tmp_path, capsys):
    # one text goes by --text: --texts takes two or more strings in either mode
    doc = tmp_path / "a.json"
    main(["build", "--variant", "sa", "--text", "abadca", "--out", str(doc)])
    capsys.readouterr()
    for argv in (["--file", str(doc)], ["--variant", "sa"]):
        assert main(["verify", *argv, "--texts", "abadca"]) == 2
        assert capsys.readouterr() == ("", "error: --texts needs at least two strings\n")


def test_verify_document_refuses_text_and_texts(tmp_path, capsys):
    doc = tmp_path / "a.json"
    main(["build", "--variant", "sa", "--text", "ab", "--out", str(doc)])
    capsys.readouterr()
    assert main(["verify", "--file", str(doc), "--text", "zz", "--texts", "ab", "--max-len", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_verify_multi_document_requires_texts(tmp_path, capsys):
    doc = tmp_path / "m.json"
    main(["build", "--variant", "common-level", "--texts", "ab", "ba", "--out", str(doc)])
    assert main(["verify", "--file", str(doc), "--max-len", "3"]) == 2
    assert main(["verify", "--file", str(doc), "--texts", "ab", "ba", "ab", "--max-len", "3"]) == 2
    assert main(["verify", "--file", str(doc), "--texts", "ab", "ba", "--max-len", "3"]) == 0
    capsys.readouterr()


def test_bench_text_format_echoes_seed(capsys):
    assert main(["bench", "--random", "300", "16", "7", "--ks", "2,4"]) == 0
    out = capsys.readouterr().out
    assert "seed=7" in out
    assert out.count("klevel") == 2


def test_bench_text_header_names_both_alphabet_sizes(capsys):
    # klevel rows take the given sigma, the other rows the text's own symbol count
    assert main(["bench", "--random", "100", "256", "1", "--ks", "2,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# random text: n=100 sigma=256 seed=1; 86 distinct symbols: klevel rows at sigma 256, the others at 86"
    assert [line.split()[2] for line in lines[2:]] == ["86", "86", "86", "256", "256"]
    assert main(["bench", "--text", "abacbabcabad", "--sigma", "8", "--ks", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# 4 distinct symbols: klevel rows at sigma 8, the others at 4"
    assert main(["bench", "--text", "abacbabcabad", "--sigma", "4", "--ks", "2"]) == 0
    assert capsys.readouterr().out.startswith("variant ")


def test_bench_structured_stable_keys_and_deterministic(capsys):
    argv = ["bench", "--random", "200", "8", "3", "--ks", "2,4", "--format", "structured"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["source"]["seed"] == 3
    assert [r["variant"] for r in doc["rows"]] == ["sa", "chain", "level", "klevel", "klevel"]
    for row in doc["rows"]:
        assert set(row) == {
            "variant", "n", "sigma", "k", "states", "regular_transitions",
            "default_transitions", "size_total", "delay", "delay_cap", "descriptor",
        }


def test_bench_bad_ks_exit_2(capsys):
    assert main(["bench", "--text", "abadca", "--ks", "2,x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["1000000000000", "1114113", "1"], ["1000000000000", "0", "1"], ["5", "4", "-1"], ["-1", "4", "1"]],
    ids=["sigma-above-unicode", "sigma-0", "negative-seed", "negative-n"],
)
def test_bench_random_arguments_refused_before_allocation(monkeypatch, capsys, argv):
    def refuse(*args):
        raise AssertionError("the text was generated")

    monkeypatch.setattr(cli, "_random_text", refuse)
    assert main(["bench", "--random", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: --random needs N >= 0, 1 <= SIGMA <= 1114112 and SEED >= 0, got {' '.join(argv)}\n")


@pytest.mark.parametrize(
    "n, sigma, seed",
    [(0, 1, 0), (1, 1, 3), (50, 2, 1), (300, 256, 7), (2000, 0xE000, 2), (2000, 0x110000, 5), (4000, 0x110000, 11)],
)
def test_random_text_is_one_chr_per_code_point(n, sigma, seed):
    # the same text as one chr() per drawn code point, lone surrogates included
    want = "".join(chr(int(v)) for v in np.random.default_rng(seed).integers(0, sigma, size=n))
    assert cli._random_text(n, sigma, seed) == want


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_stats_delay_is_the_longest_chain_built_and_loaded(tmp_path, capsys, variant):
    v = VARIANTS[variant]
    flags = ["--variant", variant, *(["--text", "abacbabcabad"] if v.max_texts == 1 else ["--texts", "abcab", "bacba"])]
    flags += ["--k", "3"] if v.takes_k else []
    doc = tmp_path / "a.json"
    assert main(["build", *flags, "--out", str(doc)]) == 0
    a = deserialize(doc.read_text())
    reports = []
    for source in (flags, ["--file", str(doc)]):
        assert main(["stats", *source, "--format", "structured"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    built, loaded = reports
    assert built == loaded
    assert built["delay"] == size_metrics(a).longest_default_chain
    assert built["delay"] <= built["delay_cap"] == structural_delay_cap(a.meta)


def test_bench_rows_are_stats_reports(capsys):
    # each row, structured and text, is the stats report of the same build
    assert main(["bench", "--text", "abacbabcabad", "--ks", "2,3", "--format", "structured"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert main(["bench", "--text", "abacbabcabad", "--ks", "2,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for row, line in zip(rows, lines[1:], strict=True):
        k = [] if row["k"] is None else ["--k", str(row["k"])]
        assert main(["stats", "--variant", row["variant"], *k, "--text", "abacbabcabad", "--format", "structured"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["version"], report["reachable_states"]
        descriptor = row.pop("descriptor")
        assert descriptor == VARIANTS[row["variant"]].descriptor
        assert list(row.items()) == list(report.items())
        assert lines[0].split() == [*report, "descriptor"]
        assert line.split(maxsplit=len(report)) == [*("-" if v is None else str(v) for v in report.values()), descriptor]


def test_export_dot_stable_and_structured_roundtrip(tmp_path, capsys):
    assert main(["export", "--variant", "chain", "--text", "ab", "--format", "dot"]) == 0
    d1 = capsys.readouterr().out
    assert main(["export", "--variant", "chain", "--text", "ab", "--format", "dot"]) == 0
    d2 = capsys.readouterr().out
    assert d1 == d2 and d1.count("style=dashed") == 2

    doc = tmp_path / "a.json"
    main(["build", "--variant", "sa", "--text", "abadca", "--out", str(doc)])
    capsys.readouterr()
    assert main(["export", "--file", str(doc), "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert out == serialize(deserialize(doc.read_text()))


@pytest.mark.parametrize("block", [3, 1 << 14])
def test_build_and_export_write_exactly_the_document(tmp_path, capsys, monkeypatch, block):
    from subseq_automata import automaton

    monkeypatch.setattr(automaton, "_BLOCK", block)
    text = "abacb\xe9bcab\"ad\\"
    want = serialize(build_k_level(text, 2))
    inputs = ["--variant", "klevel", "--k", "2", "--text", text]
    for command in (["build"], ["export", "--format", "structured"]):
        out = tmp_path / "out.json"
        assert main(command + inputs + ["--out", str(out)]) == 0
        assert out.read_bytes() == want.encode("utf-8")
        assert main(command + inputs) == 0
        assert capsys.readouterr().out == want


def test_file_inputs_byte_and_codepoint_modes(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes([0, 1, 1, 2, 0]))
    assert main(["stats", "--variant", "sa", "--file", str(raw), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] == 3 and doc["n"] == 5

    utf = tmp_path / "text.txt"
    utf.write_text("héllo", encoding="utf-8")
    assert main(["stats", "--variant", "sa", "--file", str(utf), "--codepoints", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 5  # code points, not bytes
    assert main(["stats", "--variant", "sa", "--file", str(utf), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 6  # latin-1 bytes


def test_stats_on_inconsistent_document_exit_2(tmp_path, capsys):
    doc = tmp_path / "k.json"
    main(["build", "--variant", "klevel", "--k", "2", "--text", "abadca", "--out", str(doc)])
    parsed = json.loads(doc.read_text())
    parsed["k"] = None
    doc.write_text(json.dumps(parsed))
    assert main(["stats", "--file", str(doc)]) == 2
    capsys.readouterr()

    # klevel needs an integer k in [2, max(2, sigma)] (sigma = 4 here); no
    # other variant carries a k
    for variant, k in [("klevel", 1), ("klevel", 0), ("klevel", 100), ("sa", 7), ("level", 2)]:
        doc.write_text(json.dumps({**parsed, "variant": variant, "k": k}))
        for argv in (["stats", "--file", str(doc)], ["match", "--file", str(doc), "--pattern", "a"],
                     ["export", "--file", str(doc)], ["verify", "--file", str(doc), "--max-len", "1"]):
            assert main(argv) == 2, (variant, k, argv)
            assert capsys.readouterr().err.startswith("error: ")


def test_state_budget_exit_2(capsys):
    assert main([
        "build", "--variant", "common-level", "--texts", "a" * 60, "b" * 60,
        "--state-budget", "100",
    ]) == 2
    err = capsys.readouterr().err
    assert "3601" in err and "budget" in err


@pytest.mark.parametrize("inputs", [
    ["--variant", "klevel", "--k", "2", "--text", "ab"],
    ["--variant", "common-level", "--texts", "ab", "ba"],
])
def test_build_sigma_above_unicode_exit_2(inputs, capsys):
    assert main(["build", *inputs, "--sigma", "99999999999999999999"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert "99999999999999999999" in err and "1114112" in err
    assert main(["build", *inputs, "--sigma", str(0x110000)]) == 0
    capsys.readouterr()


def test_single_string_document_with_lengths_exit_2(tmp_path, capsys):
    # "lengths" belongs to products: a single-string document that declares
    # it is refused, not read as a product of one text
    doc = tmp_path / "a.json"
    doc.write_text(serialize(build_sa("abca")).replace('"n": 4,', '"lengths": [4],'))
    for argv in (["stats", "--file", str(doc)], ["match", "--file", str(doc), "--pattern", "ac", "--trace"],
                 ["verify", "--file", str(doc)]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == "error: a 'sa' document must carry 'n'\n"


@pytest.mark.parametrize("sigma", [0x110001, 2**40])
def test_document_sigma_above_unicode_exit_2(tmp_path, capsys, sigma):
    # both readers refuse what the builders refuse: no alphabet of single
    # code points is larger than 1114112
    doc = tmp_path / "a.json"
    doc.write_text(serialize(build_k_level("abca", 2)).replace('"sigma": 3,', f'"sigma": {sigma},'))
    commands = [
        ["match", "--file", str(doc), "--pattern", "ab"],
        ["stats", "--file", str(doc)],
        ["verify", "--file", str(doc)],
        ["export", "--file", str(doc)],
    ]
    for argv in commands:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: 'sigma' {sigma} exceeds 1114112, the number of Unicode code points\n"


def test_product_verify_stays_near_the_automaton_in_memory():
    # a fresh wrapper interpreter runs one verify and reads its own children's
    # peak RSS, which other tests' children cannot raise; with a table over
    # every coordinate tuple this 300 x 300, sigma=256 check took about 700 MiB
    rng = np.random.default_rng(0)
    texts = ["".join(chr(0x100 + int(v)) for v in rng.integers(0, 256, size=300)) for _ in range(2)]
    argv = ["verify", "--variant", "common-level", "--texts", *texts, "--max-len", "2"]
    wrapper = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'subseq_automata.cli', *sys.argv[1:]], capture_output=True)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(subseq_automata.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    code, max_rss_kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert max_rss_kib <= 120 * 1024


@pytest.mark.parametrize(
    "argv,size",
    [
        (["--variant", "sa", "--text", "abcdefgh", "--max-len", "9"], "9 states, 36 transitions"),
        (["--variant", "klevel", "--k", "2", "--text", "ab", "--max-len", "30"], "3 states, 2 transitions"),
        (["--variant", "sa", "--text", "abc", "--max-len", "20000"], "4 states, 6 transitions"),
        (["--variant", "sa", "--text", "abc", "--max-len", str(10**12)], "4 states, 6 transitions"),
    ],
    ids=["sa-abcdefgh-9", "klevel-ab-30", "sa-abc-20000", "sa-abc-1000000000000"],
)
def test_verify_bound_past_the_longest_path_is_complete(capsys, argv, size):
    # a single string is certified for every pattern, whatever the bound
    # (tests/test_oracles.py pins the pair walk on these cases)
    t0 = time.perf_counter()
    assert main(["verify", *argv]) == 0
    assert time.perf_counter() - t0 < 1
    out = capsys.readouterr().out.splitlines()
    assert f"certificate: pass (complete: {size})" in out
    assert out[-1] == "result: pass"


def test_memory_error_exits_2_with_one_line(monkeypatch, capsys):
    # numpy's allocation failure, its message folded onto the line, and a bare MemoryError
    cases = [
        (MemoryError("Unable to allocate 7.28 TiB for an array with\nshape (1000000000000,)"),
         "error: out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n"),
        (MemoryError(), "error: out of memory\n"),
    ]
    for error, line in cases:
        def refuse(n, sigma, seed, error=error):
            raise error

        monkeypatch.setattr(cli, "_random_text", refuse)
        assert main(["bench", "--random", "1000000000000", "256", "1"]) == 2
        assert capsys.readouterr() == ("", line)


def test_repeated_main_calls_behave_as_fresh(tmp_path, capsys):
    doc = tmp_path / "k.json"
    calls = [
        ["build", "--variant", "nosuch", "--text", "ab"],  # an argparse error
        ["build", "--variant", "klevel", "--k", "2", "--text", "abacbabcabad", "--out", str(doc)],
        ["verify", "--file", str(doc), "--max-len", "3"],
        ["match", "--file", str(doc)],
        ["--help"],
    ]

    def run_calls(fresh_parser):
        doc.unlink(missing_ok=True)
        results = []
        for argv in calls:
            if fresh_parser:
                cli._build_parser.cache_clear()
            code = main(argv)
            out, err = capsys.readouterr()
            results.append((code, out, err, doc.read_text() if doc.exists() else None))
        return results

    fresh = run_calls(fresh_parser=True)
    cli._build_parser.cache_clear()
    reused = run_calls(fresh_parser=False)
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [r[0] for r in reused] == [2, 0, 0, 2, 0]
    assert "invalid choice: 'nosuch'" in reused[0][2]
    assert "result: pass" in reused[2][1]
    assert "the following arguments are required: --pattern" in reused[3][2]
    assert reused[4][1].startswith("usage: subseqa ")


def huge_n_document() -> str:
    """A document in the writer's layout whose header claims n = 10**12 over
    a one-line body."""
    doc = serialize(build_chain(""))
    assert '"n": 0,' in doc
    return doc.replace('"n": 0,', f'"n": {10**12},')


def non_forward_document() -> str:
    """The writer's document of an automaton whose state 1 defaults back to 0."""
    a = Automaton(Alphabet(("a",)), [0, 1, 1], [0], [1], [-1, 0], {"variant": "chain", "n": 1, "k": None, "sigma": 1})
    return serialize(a)


def test_match_on_document_claiming_huge_n_exits_2_at_once(tmp_path, capsys):
    doc = tmp_path / "huge.json"
    doc.write_text(huge_n_document())
    t0 = time.perf_counter()
    assert main(["match", "--file", str(doc), "--pattern", "a"]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err == "error: variant 'chain' with these dimensions needs 1000000000001 states, document has 1\n"


@pytest.mark.parametrize(
    "document, message",
    [
        (huge_n_document, "needs 1000000000001 states, document has 1"),
        (non_forward_document, "document violates automaton invariants: state 1: non-forward default to 0"),
    ],
    ids=["huge-n", "non-forward-default"],
)
def test_document_refused_under_optimize(tmp_path, document, message):
    # the readers' checks must survive ``python -O``, which strips assert
    # statements
    doc = tmp_path / "doc.json"
    doc.write_text(document())
    src = str(Path(subseq_automata.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "subseq_automata.cli", "match", "--file", str(doc), "--pattern", "a"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
def test_match_on_document_with_non_integer_version_exits_2(tmp_path, capsys, version):
    doc = tmp_path / "a.json"
    doc.write_text(serialize(build_chain("ab")).replace('"version": 1', '"version": ' + version, 1))
    assert main(["match", "--file", str(doc), "--pattern", "a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported document version: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", [["match", "--pattern", "a"], ["stats"]], ids=["match", "stats"])
def test_deeply_nested_document_exits_2_with_one_line(tmp_path, capsys, command):
    doc = tmp_path / "nested.json"
    doc.write_text("[" * 100_000)
    assert main([command[0], "--file", str(doc), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not valid JSON: nested too deeply to parse\n"


HOSTILE_TOKENS = ["null", "true", "1.0", "-1", str(2**31), '"\\ud800"']
JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|\w+|\s+|.')
MULTI_TEXTS, SINGLE_TEXT = ["abca", "cab"], "abcab"


def _canonical_documents():
    """One document per variant, with the ``verify`` flags naming its texts."""
    out = []
    for name, v in VARIANTS.items():
        texts = [SINGLE_TEXT] if v.max_texts == 1 else MULTI_TEXTS
        a = v.build(texts, 2 if v.takes_k else None, None, 10**6)
        out.append((serialize(a), [] if v.max_texts == 1 else ["--texts", *texts]))
    return out


CANONICAL_DOCUMENTS = _canonical_documents()


@st.composite
def hostile_documents(draw):
    """A canonical document after one to three edits, each at the character
    level (delete or splice a run, insert a hostile token, replace a code
    point) or on one JSON value other than a key (drop an array item with its
    comma, copy another value over it, insert a hostile item before it, or
    replace it by a hostile value)."""
    text, texts_args = draw(st.sampled_from(CANONICAL_DOCUMENTS))
    for _ in range(draw(st.integers(1, 3))):
        hostile = draw(st.sampled_from(HOSTILE_TOKENS))
        edit = draw(st.sampled_from(["delete", "splice", "insert", "replace"]))
        tokens = JSON_TOKEN.findall(text)
        stack, inside = [], []  # the bracket each token sits in
        for t in tokens:
            inside.append(stack[-1] if stack else None)
            if t in ("[", "{"):
                stack.append(t)
            elif t in ("]", "}") and stack:
                stack.pop()
        values = [i for i, t in enumerate(tokens) if t[0] in '"-0123456789tfn' and tokens[i + 1 : i + 2] != [":"]]
        if edit in ("delete", "insert"):  # only array items keep the syntax
            values = [i for i in values if inside[i] == "["]
        if draw(st.integers(0, 2)) and values:  # two edits in three on a value
            i, j = (draw(st.sampled_from(values)) for _ in range(2))
            if edit == "delete":
                tokens[i : i + 1 + (tokens[i + 1 : i + 2] == [","])] = []
            elif edit == "splice":
                tokens[i] = tokens[j]
            elif edit == "insert":
                tokens[i:i] = [hostile, ","]
            else:
                tokens[i] = hostile
        else:
            tokens = list(text)
            i, j, k = sorted(draw(st.integers(0, len(tokens))) for _ in range(3))
            if edit == "delete":
                tokens[i:j] = []
            elif edit == "splice":
                tokens[k:k] = tokens[i:j]
            elif edit == "insert":
                tokens[k:k] = [hostile]
            elif tokens:
                tokens[min(k, len(tokens) - 1)] = chr(draw(st.integers(0, 0x10FFFF)))
        text = "".join(tokens)
    return text.encode("utf-8", "surrogatepass"), texts_args


@settings(derandomize=True, max_examples=400, deadline=None)
@given(document=hostile_documents(), export_format=st.sampled_from(["dot", "structured"]))
def test_hostile_documents_end_in_an_exit_code(tmp_path_factory, document, export_format):
    # whatever the edits, every document command ends in one of its exit
    # codes, and an error is one line on stderr
    data, texts_args = document
    doc = tmp_path_factory.mktemp("hostile") / "doc.json"
    doc.write_bytes(data)
    commands = [
        ["match", "--file", str(doc), "--pattern", "abc"],
        ["stats", "--file", str(doc)],
        ["export", "--file", str(doc), "--format", export_format],
        ["verify", "--file", str(doc), "--max-len", "3", *texts_args],
    ]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv[0], data)
        if code == 2:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv[0], err.getvalue())


# integers as the argument parser hands them over: small, at the edges the
# commands check, and huge of either sign
ARG_INTS = st.one_of(
    st.integers(-3, 70),
    st.sampled_from([0x10FFFF, 0x110000, 0x110001, 2**31 - 1, 2**31, 2**63, -(2**63)]),
    st.integers(-(2**80), 2**80),
)
# texts without "-", so no text reads as an option
ARG_TEXT = st.one_of(st.text("abcd", max_size=64), st.text(st.characters(blacklist_characters="-"), max_size=16))
# the numeric flags each row takes, beside --state-budget (which the
# single-string rows refuse; it is drawn for every row)
OWN_FLAGS = {"klevel": ["--k", "--sigma"], "level": ["--sigma"], "common-level": ["--sigma"], "any-level": ["--sigma"]}


@st.composite
def numeric_arguments(draw):
    """One ``build``, ``stats``, ``verify`` or ``bench`` call: the inputs its
    variant takes (one text, two or three texts of at most 64 symbols
    together, or ``--random`` with N at most 64), now and then the wrong
    ones, and numeric flags, mostly those the call takes."""
    command = draw(st.sampled_from(["build", "stats", "verify", "bench"]))
    variant = None if command == "bench" else draw(st.sampled_from(list(VARIANTS)))
    argv = [command] + ([] if variant is None else ["--variant", variant])
    count = 1 if variant is None else VARIANTS[variant].max_texts or 3
    if not draw(st.integers(0, 7)):  # the wrong number of texts
        count = 1 if count > 1 else 2
    if variant is None and draw(st.booleans()):
        n = draw(st.one_of(st.integers(0, 64), st.integers(0, 64), st.integers(-(2**80), 64)))
        sigma = draw(st.one_of(st.integers(1, 300), ARG_INTS))
        seed = draw(st.one_of(st.integers(0, 2**80), ARG_INTS))
        argv += ["--random", str(n), str(sigma), str(seed)]
    elif count == 1:
        argv.append(f"--text={draw(ARG_TEXT)}")
    else:
        texts = draw(st.lists(ARG_TEXT, min_size=2, max_size=count))
        while sum(map(len, texts)) > 64:
            texts = [t[: len(t) // 2] for t in texts]
        argv += ["--texts", *texts]
    own = ["--state-budget", *OWN_FLAGS.get(variant, [])]
    own += {"verify": ["--max-len"], "bench": ["--sigma", "--ks"]}.get(command, [])
    flags = [f for f in own if draw(st.booleans())]
    if not draw(st.integers(0, 7)):  # a flag its parser takes and its variant does not
        flags.append(draw(st.sampled_from(["--k", "--sigma"])))
    for flag in dict.fromkeys(flags):
        mostly_valid = st.one_of(st.integers(2, 300), ARG_INTS)
        if flag == "--ks":
            value = ",".join(str(k) for k in draw(st.lists(mostly_valid, min_size=1, max_size=4)))
        elif flag in ("--k", "--sigma"):
            value = str(draw(mostly_valid))
        else:
            value = str(draw(ARG_INTS))
        argv.append(f"{flag}={value}")
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=numeric_arguments())
def test_numeric_arguments_end_in_an_exit_code(tmp_path_factory, argv):
    # whatever the numbers, each call exits 0, 1 or 2, and an error is one
    # line on stderr without a traceback
    if argv[0] == "build":
        argv = [*argv, "--out", str(tmp_path_factory.mktemp("args") / "a.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, out.getvalue()[-300:])
    if code == 2:
        message = err.getvalue()
        assert message.count("\n") == 1 and message.endswith("\n"), (argv, message)
        assert message.startswith("error: ") and "Traceback" not in message, (argv, message)


# a call of each command that parses and succeeds; match's document is
# written by the tests that use it
VALID_CALLS = {
    "build": ["--variant", "sa", "--text", "ab"],
    "match": ["--file", "{doc}", "--pattern", "ab"],
    "stats": ["--variant", "klevel", "--k", "2", "--text", "abcab"],
    "verify": ["--variant", "common-level", "--texts", "ab", "ba", "--max-len", "2"],
    "bench": ["--text", "abcab", "--ks", "2,3"],
    "export": ["--variant", "chain", "--text", "ab", "--format", "structured"],
}


def _command_flags():
    """Each command's parser: its flags with whether each takes a value,
    its int flags and its choices."""
    (commands,) = [a.choices for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    out = {}
    for name, parser in commands.items():
        actions = [a for a in parser._actions if a.option_strings and a.option_strings[0] != "-h"]
        out[name] = {
            "flags": {a.option_strings[0]: a.nargs != 0 for a in actions},
            "ints": [a.option_strings[0] for a in actions if a.type is int],
            "choices": {a.option_strings[0]: list(a.choices) for a in actions if a.choices},
        }
    return out


COMMAND_FLAGS = _command_flags()


def _not_int(value: str) -> bool:
    try:
        int(value)
    except ValueError:
        return True
    return False


@st.composite
def malformed_arguments(draw):
    """A valid call with one fault added right after the command or at its
    end: an unknown flag, another command's flag, a strict prefix of a flag,
    a value outside a flag's choices, a non-integer for an integer flag or a
    flag without its value; or no valid command at all."""
    command = draw(st.sampled_from(sorted(VALID_CALLS)))
    own = COMMAND_FLAGS[command]
    word = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12).filter(lambda w: not w.startswith("-"))
    faults = ["unknown", "other", "prefix", "missing", "command"]
    faults += (["choice"] if own["choices"] else []) + (["int"] if own["ints"] else [])  # match has neither
    fault = draw(st.sampled_from(faults))
    if fault == "command":
        return draw(st.sampled_from([[], ["--text", "ab"], [draw(word.filter(lambda w: w not in VALID_CALLS))]]))
    if fault == "unknown":
        flag = "--" + draw(word.filter(lambda w: "--" + w not in own["flags"]))
        extra = [flag, draw(word)]
    elif fault == "other":
        others = sorted({f for c in COMMAND_FLAGS.values() for f in c["flags"]} - set(own["flags"]))
        extra = [draw(st.sampled_from(others)), draw(word)]
    elif fault == "prefix":
        prefixes = sorted({f[:i] for f in own["flags"] for i in range(3, len(f))} - set(own["flags"]))
        extra = [draw(st.sampled_from(prefixes)), draw(word)]
    elif fault == "choice":
        flag = draw(st.sampled_from(sorted(own["choices"])))
        extra = [flag, draw(word.filter(lambda w: w not in own["choices"][flag]))]
    elif fault == "int":
        flag = draw(st.sampled_from(own["ints"]))
        value = draw(st.one_of(st.sampled_from(["x", "2.5", "1e6", "0x10", "", "2,3"]), word).filter(_not_int))
        extra = [flag, *(["1", "2", value] if flag == "--random" else [value])]
    else:
        flag = draw(st.sampled_from([f for f, takes_value in own["flags"].items() if takes_value]))
        extra = [flag, *(["1", "2"] if flag == "--random" else [])]
    call = VALID_CALLS[command]
    return [command, *(call + extra if fault == "missing" or draw(st.booleans()) else extra + call)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argv=malformed_arguments())
def test_malformed_arguments_exit_2_with_one_line(tmp_path_factory, argv):
    # every parser error is one "error: " line with exit 2, no usage block,
    # and the command never runs
    doc = tmp_path_factory.getbasetemp() / "malformed.json"
    if not doc.exists():
        doc.write_text(serialize(build_k_level("abcab", 2)))
    argv = [str(doc) if a == "{doc}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code == 2 and out.getvalue() == "", (argv, message)
    assert message.startswith("error: ") and message.count("\n") == 1 and message.endswith("\n"), (argv, message)
    assert "usage:" not in message, (argv, message)


def test_valid_calls_and_help_exit_0(tmp_path, capsys):
    # the calls the malformed-argument test spoils are valid as they stand,
    # and --help of every command prints its usage and exits 0
    doc = tmp_path / "a.json"
    doc.write_text(serialize(build_k_level("abcab", 2)))
    for command, call in VALID_CALLS.items():
        assert main([command, *(str(doc) if a == "{doc}" else a for a in call)]) == 0, command
        assert capsys.readouterr().err == ""
    for argv in (["--help"], *([command, "--help"] for command in VALID_CALLS)):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: subseqa") and err == "", argv
    assert len(COMMAND_FLAGS["bench"]["flags"]) == 8


def _accepted_and_unread_calls(doc, multi_doc, text_file):
    """(argv, flags the refusal must name): each a flag the call gives and
    cannot use."""
    rows = []
    for command in ("stats", "verify", "export"):
        for flags in (["--state-budget", "3"], ["--codepoints"], ["--k", "2"], ["--sigma", "9"]):
            rows.append(([command, "--file", doc, *flags], [flags[0]]))
    for command in ("stats", "export"):
        rows.append(([command, "--file", doc, "--text", "zzz"], ["--text"]))
        rows.append(([command, "--file", multi_doc, "--texts", "abca", "cab"], ["--texts"]))
    rows.append((["stats", "--file", doc, "--text", "zzz", "--state-budget", "3", "--codepoints"],
                 ["--text", "--state-budget", "--codepoints"]))
    rows.append((["export", "--file", doc, "--texts", "a", "b"], ["--texts"]))
    for command in ("build", "stats", "verify", "export"):
        rows.append(([command, "--variant", "sa", "--text", "ab", "--codepoints"], ["--codepoints"]))
        rows.append(([command, "--variant", "naive-common", "--texts", "ab", "ba", "--codepoints"], ["--codepoints"]))
        for variant in ("sa", "chain", "level", "klevel"):
            k = ["--k", "2"] if variant == "klevel" else []
            call = [command, "--variant", variant, *k, "--text", "abc", "--state-budget", "1"]
            rows.append((call, ["--state-budget"]))
    rows.append((["bench", "--text", "ab", "--codepoints"], ["--codepoints"]))
    for flags in (["--k", "5"], ["--texts", "a", "b"], ["--variant", "sa"], ["--max-len", "2"], ["--state-budget", "3"]):
        rows.append((["bench", "--text", "abcab", *flags], [flags[0]]))
    for flags in (["--text", "ab"], ["--file", text_file], ["--codepoints"], ["--sigma", "9"]):
        rows.append((["bench", "--random", "5", "4", "0", *flags], [flags[0]]))
    rows.append((["match", "--file", doc, "--pattern", "a", "--state-budget", "3"], ["--state-budget"]))
    rows.append((["stats", "--var", "klevel", "--sig", "9", "--form", "structured", "--text", "ab"], ["--var"]))
    return rows


def test_flags_accepted_and_unread_exit_2_and_are_named(tmp_path, capsys):
    # no subseqa flag is ignored: a call that gives one it cannot use exits 2
    # with one line naming it (verify --max-len on one text aside)
    doc, multi_doc, text_file = tmp_path / "k.json", tmp_path / "m.json", tmp_path / "t.txt"
    doc.write_text(serialize(build_k_level("abcab", 2)))
    assert main(["build", "--variant", "common-level", "--texts", "abca", "cab", "--out", str(multi_doc)]) == 0
    text_file.write_text("abcab")
    for argv, named in _accepted_and_unread_calls(str(doc), str(multi_doc), str(text_file)):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert all(flag in err for flag in named), (argv, err)


def test_state_budget_unset_is_a_million_and_zero_refuses(capsys):
    assert main(["build", "--variant", "common-level", "--texts", "a" * 1000, "b" * 1000]) == 2
    assert capsys.readouterr().err == "error: construction needs 1000001 states, budget is 1000000\n"
    assert main(["build", "--variant", "any-level", "--texts", "", "", "--state-budget", "0"]) == 2
    assert capsys.readouterr().err == "error: construction needs 2 states, budget is 0\n"
    assert main(["build", "--variant", "any-level", "--texts", "", "", "--state-budget", "2"]) == 0
    capsys.readouterr()
