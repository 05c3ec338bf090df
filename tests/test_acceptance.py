"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import itertools
import json
import time
from functools import lru_cache

import numpy as np
import pytest

from subseq_automata import (
    AnySubsequenceOracle,
    CommonSubsequenceOracle,
    GreedySubsequenceOracle,
    build_any_level,
    build_chain,
    build_common_level,
    build_k_level,
    build_level,
    build_naive_common,
    build_sa,
    deserialize,
    equivalence_check,
    export_dot,
    level_cap,
    run,
    serialize,
    size_metrics,
    trace_equivalence,
    tradeoff_table,
)
from subseq_automata import _kernels as K
from subseq_automata.cli import main as cli_main

from reference import LevelParams, bar, bar_multi, diagonals, level, level_multi, ruler_levels

CORPUS_SEED = 20260810


def report(num, name, ok, elapsed, limit=None, detail=""):
    status = "PASS" if ok and (limit is None or elapsed < limit) else "FAIL"
    extra = f", {detail}" if detail else ""
    bound = f" / limit {limit:.0f}s" if limit is not None else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s{bound}{extra})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} ({name}) took {elapsed:.2f}s, limit {limit}s"


@pytest.fixture(scope="module")
def corpus_single():
    """200 seeded random strings, n in 1..14, declared sigma in {2,3,4,5}."""
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for _ in range(200):
        sigma = int(rng.integers(2, 6))
        n = int(rng.integers(1, 15))
        text = "".join(chr(97 + int(v)) for v in rng.integers(0, sigma, n))
        out.append((text, sigma))
    return out


@pytest.fixture(scope="module")
def corpus_multi():
    """100 seeded pairs (n_i <= 8) and 30 triples (n_i <= 5), sigma <= 4."""
    rng = np.random.default_rng(CORPUS_SEED + 1)
    pairs, triples = [], []
    for _ in range(100):
        sigma = int(rng.integers(2, 5))
        texts = [
            "".join(chr(97 + int(v)) for v in rng.integers(0, sigma, int(rng.integers(1, 9))))
            for _ in range(2)
        ]
        pairs.append((texts, sigma))
    for _ in range(30):
        sigma = int(rng.integers(2, 5))
        texts = [
            "".join(chr(97 + int(v)) for v in rng.integers(0, sigma, int(rng.integers(1, 6))))
            for _ in range(3)
        ]
        triples.append((texts, sigma))
    return pairs, triples


def declared_chars(sigma):
    return [chr(97 + i) for i in range(sigma)] + [chr(97 + sigma)]


def single_variants(text, sigma):
    """All single-string builds for one corpus entry: sa, chain, level, and
    klevel for every valid k against the declared alphabet size."""
    out = [build_sa(text), build_chain(text), build_level(text)]
    for k in range(2, sigma + 1):
        out.append(build_k_level(text, k, sigma=sigma))
    return out


REFERENCE_SA = {
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
        s: ({a.alphabet.symbols[c]: t for c, t in a.transitions(s)}, a.default(s))
        for s in range(a.state_count)
    }


def test_criterion_01_reference_tables():
    t0 = time.perf_counter()
    sa = build_sa("abadca")
    ok = edge_table(sa) == REFERENCE_SA and sa.state_count == 7
    ok &= dict(sa.transitions(0))[sa.alphabet.index["b"]] == 2
    ok &= dict(sa.transitions(2))[sa.alphabet.index["d"]] == 4
    ok &= dict(sa.transitions(5))[sa.alphabet.index["a"]] == 6
    lv = build_level("abacbabcabad")
    ok &= edge_table(lv) == REFERENCE_LEVEL
    kl = build_k_level("abacbabcabad", 2)
    ok &= edge_table(kl) == REFERENCE_KLEVEL2
    report(1, "reference-tables", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_power_of_two_hop_identity():
    t0 = time.perf_counter()
    n = 100_000
    levels = ruler_levels(n, 2, -1)
    bars = K.bar_targets(n, 2, -1)
    s = np.arange(n + 1)
    has = bars >= 0
    violations = int(np.count_nonzero(has[1:] & (bars[1:] - s[1:] != 2 ** levels[1:].astype(np.int64))))
    # cross-check the scalar reference on a seeded sample
    p = LevelParams(2, None, n)
    rng = np.random.default_rng(CORPUS_SEED)
    for x in rng.integers(1, n + 1, size=2000):
        b = bar(int(x), p)
        assert (b is None) == (bars[x] < 0)
        if b is not None:
            violations += b - int(x) != 2 ** level(int(x), p)
    report(2, "hop-distance-identity", violations == 0, time.perf_counter() - t0, 1.0,
           f"{n} states, {violations} violations")


def test_criterion_03_single_oracle_equivalence(corpus_single):
    t0 = time.perf_counter()
    mismatches = 0
    counterexamples = 0
    patterns = 0
    for text, sigma in corpus_single:
        oracle = GreedySubsequenceOracle(text)
        chars = declared_chars(sigma)
        for a in single_variants(text, sigma):
            # a bound past the longest path: a complete check
            rep = equivalence_check(a, oracle, chars, len(text) + 1)
            mismatches += len(rep.mismatches)
            counterexamples += rep.trace_counterexample is not None
            patterns += rep.patterns_checked
    ok = mismatches == 0 and counterexamples == 0
    report(3, "single-oracle-equivalence", ok, time.perf_counter() - t0, 60.0,
           f"{patterns} pattern checks, {mismatches} mismatches, {counterexamples} trace counterexamples")


def test_criterion_04_single_trace_equivalence(corpus_single):
    t0 = time.perf_counter()
    counterexamples = 0
    for text, sigma in corpus_single:
        chars = declared_chars(sigma)
        variants = single_variants(text, sigma)
        ref = variants[0]
        for a in variants[1:]:
            check = trace_equivalence(ref, a, chars, len(text) + 1)
            counterexamples += 0 if check.equal else 1
    report(4, "single-trace-equivalence", counterexamples == 0, time.perf_counter() - t0,
           detail=f"{counterexamples} counterexamples")


@lru_cache(maxsize=1)
def bench_sweep():
    rng = np.random.default_rng(7)
    text = "".join(chr(int(v)) for v in rng.integers(0, 256, 10_000))
    return tradeoff_table(text, [2, 4, 16, 256], sigma=256), text


def test_criterion_05_delay_bounds(corpus_single):
    t0 = time.perf_counter()
    violations = []
    for text, sigma in corpus_single:
        for k in range(2, sigma + 1):
            a = build_k_level(text, k, sigma=sigma)
            chain = size_metrics(a).longest_default_chain
            if chain > level_cap(k, sigma) + 1:
                violations.append((text, k, chain))
    rows, _ = bench_sweep()
    for r in rows:
        chain = r["delay"]
        if r["variant"] == "klevel" and chain > level_cap(r["k"], 256) + 1:
            violations.append(("sweep", r["k"], chain))
        if r["variant"] == "level" and chain > (10_000).bit_length():
            violations.append(("sweep-level", None, chain))
        if r["variant"] == "chain" and chain != 10_000:
            violations.append(("sweep-chain", None, chain))
    report(5, "delay-bounds", not violations, time.perf_counter() - t0, 30.0,
           f"{len(violations)} violations")


def test_criterion_06_size_bounds():
    t0 = time.perf_counter()
    rows, text = bench_sweep()
    n = len(text)
    ok = True
    detail = []
    for r in rows:
        total = r["size_total"]
        if r["variant"] == "klevel":
            bound = 4 * n * r["k"] * max(1, level_cap(r["k"], 256))
            ok &= total <= bound
            detail.append(f"k={r['k']}: {total}<={bound}")
        elif r["variant"] == "level":
            bound = 4 * n * n.bit_length()
            ok &= total <= bound
        elif r["variant"] == "sa":
            # independent suffix-distinct-count accumulation from the raw text
            seen = set()
            suffix_sum = 0
            for ch in reversed(text):
                seen.add(ch)
                suffix_sum += len(seen)
            ok &= total == (n + 1) + suffix_sum
            ok &= r["regular_transitions"] == suffix_sum
    report(6, "size-bounds", ok, time.perf_counter() - t0, 30.0, "; ".join(detail))


def test_criterion_07_level_census():
    t0 = time.perf_counter()
    n = 10_000
    levels = ruler_levels(n, 2, -1)
    counts = np.bincount(levels[1:])
    ok = True
    for l in range(counts.size + 2):
        expected = n // 2**l - n // 2 ** (l + 1)
        got = int(counts[l]) if l < counts.size else 0
        ok &= got == expected
    report(7, "level-census", ok, time.perf_counter() - t0, 1.0)


def test_criterion_08_multi_oracle_and_trace(corpus_multi):
    t0 = time.perf_counter()
    pairs, triples = corpus_multi
    mismatches = 0
    counterexamples = 0
    patterns = 0
    for texts, sigma in pairs + triples:
        chars = declared_chars(sigma)
        complete = sum(map(len, texts)) + 1  # past the longest path
        common = CommonSubsequenceOracle(texts)
        cl = build_common_level(texts, sigma=sigma)
        rep = equivalence_check(cl, common, chars, complete)
        mismatches += len(rep.mismatches)
        counterexamples += rep.trace_counterexample is not None
        patterns += rep.patterns_checked
        al = build_any_level(texts, sigma=sigma)
        rep = equivalence_check(al, AnySubsequenceOracle(texts), chars, complete)
        mismatches += len(rep.mismatches)
        counterexamples += rep.trace_counterexample is not None
        patterns += rep.patterns_checked
        if len(texts) == 2:
            nc = build_naive_common(*texts)
            rep = equivalence_check(nc, common, chars, complete)
            mismatches += len(rep.mismatches)
            counterexamples += rep.trace_counterexample is not None
            patterns += rep.patterns_checked
            check = trace_equivalence(nc, cl, chars, complete)
            counterexamples += 0 if check.equal else 1
    ok = mismatches == 0 and counterexamples == 0
    report(8, "multi-oracle-and-trace", ok, time.perf_counter() - t0, 120.0,
           f"{patterns} pattern checks, {mismatches} mismatches, {counterexamples} trace counterexamples")


def test_criterion_09_multi_structure(corpus_multi):
    t0 = time.perf_counter()
    pairs, triples = corpus_multi
    violations = 0
    for texts, sigma in pairs + triples:
        lengths = tuple(len(t) for t in texts)
        cap = level_cap(2, sigma)
        for t in itertools.product(*(range(1, n + 1) for n in lengths)):
            lv = level_multi(t, cap)
            if lv < cap:
                b = bar_multi(t, cap, lengths)
                if b is not None:
                    if any(bb - tt != 2**lv for bb, tt in zip(b, t)):
                        violations += 1
        if sum(d.length for d in diagonals(lengths)) != int(np.prod(lengths)):
            violations += 1
        chain = size_metrics(build_common_level(texts, sigma=sigma)).longest_default_chain
        if chain > level_cap(2, sigma) + 1:
            violations += 1
    report(9, "multi-structure", violations == 0, time.perf_counter() - t0,
           detail=f"{violations} violations")


def test_criterion_10_cli_contract(corpus_single, tmp_path, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(CORPUS_SEED + 2)
    ok = True
    doc_path = tmp_path / "a.json"
    variant_cycle = ["sa", "chain", "level", "klevel"]
    for i, (text, sigma) in enumerate(corpus_single):
        variant = variant_cycle[i % 4]
        argv = ["build", "--variant", variant, "--text", text, "--out", str(doc_path)]
        if variant == "klevel":
            argv += ["--k", "2", "--sigma", str(sigma)]
        ok &= cli_main(argv) == 0
        a = deserialize(doc_path.read_text())
        ok &= deserialize(serialize(a)) == a
        chars = declared_chars(sigma)
        pats = ["", text]
        for _ in range(4):
            m = int(rng.integers(0, 6))
            pats.append("".join(chars[int(v)] for v in rng.integers(0, len(chars), m)))
        keep = [bool(b) for b in rng.integers(0, 2, len(text))]
        pats.append("".join(c for c, kp in zip(text, keep) if kp))
        for p in pats:
            code = cli_main(["match", "--file", str(doc_path), "--pattern", p])
            capsys.readouterr()
            expected = 0 if run(a, p).accepted else 1
            ok &= code == expected
        if i < 5:
            ok &= export_dot(a) == export_dot(a)
            ok &= cli_main(["export", "--file", str(doc_path), "--format", "dot"]) == 0
            d1 = capsys.readouterr().out
            ok &= cli_main(["export", "--file", str(doc_path), "--format", "dot"]) == 0
            d2 = capsys.readouterr().out
            ok &= d1 == d2

    # exit codes: parameter error and verification failure
    ok &= cli_main(["build", "--variant", "klevel", "--k", "1", "--text", "ab"]) == 2
    capsys.readouterr()
    docm = tmp_path / "m.json"
    ok &= cli_main(["build", "--variant", "klevel", "--k", "2", "--text", "abadca", "--out", str(docm)]) == 0
    parsed = json.loads(docm.read_text())
    parsed["states"][2]["trans"].remove([3, 4])
    docm.write_text(json.dumps(parsed))
    ok &= cli_main(["verify", "--file", str(docm), "--max-len", "4"]) == 3
    capsys.readouterr()
    report(10, "cli-contract", ok, time.perf_counter() - t0)
