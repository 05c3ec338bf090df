"""Reference-implementation checks for the array kernels."""

import numpy as np
import pytest

from subseq_automata import _kernels as K
from subseq_automata import Alphabet, build_chain, build_level
from subseq_automata.single import level_cap

from reference import LevelParams, _level_windows, bar, csr_from_table, level, ruler_levels


def random_codes(rng, n, sigma):
    return rng.integers(0, sigma, size=n).astype(np.int32)


def reference_next_table(codes, sigma):
    n = len(codes)
    table = np.full((n + 1, sigma), n + 1, dtype=np.int32)  # n + 1: no occurrence
    for i in range(n + 1):
        for a in range(sigma):
            for j in range(i, n):
                if codes[j] == a:
                    table[i, a] = j + 1
                    break
    return table


def test_next_table_matches_reference():
    rng = np.random.default_rng(1)
    for n, sigma in [(0, 1), (1, 1), (7, 3), (23, 5)]:
        codes = random_codes(rng, n, sigma)
        got = K.next_occurrence_table(codes, sigma)
        assert np.array_equal(got, reference_next_table(codes, sigma))


@pytest.mark.parametrize("k,cap", [(2, -1), (2, 3), (3, -1), (5, 2), (7, 1)])
def test_ruler_levels_definitional(k, cap):
    n = 300
    levels = ruler_levels(n, k, cap)
    assert levels[0] == -1
    for i in range(1, n + 1):
        x = 0
        m = i
        while m % k == 0:
            m //= k
            x += 1
        if cap >= 0:
            x = min(x, cap)
        assert levels[i] == x


@pytest.mark.parametrize("k,cap", [(2, -1), (2, 2), (3, -1), (4, 1), (5, 3)])
def test_bar_targets_scan_oracle(k, cap):
    n = 400
    levels = ruler_levels(n, k, cap)
    bars = K.bar_targets(n, k, cap)
    for s in range(1, n + 1):
        expected = -1
        for t in range(s + 1, n + 1):
            if levels[t] >= levels[s] + 1:
                expected = t
                break
        assert bars[s] == expected, (s, k, cap)


def test_csr_from_table():
    rng = np.random.default_rng(3)
    codes = random_codes(rng, 40, 4)
    table = K.next_occurrence_table(codes, 4)
    window = rng.integers(0, 41, size=41).astype(np.int32)
    offsets, syms, targets = csr_from_table(table, window)
    assert offsets[0] == 0 and offsets[-1] == len(syms) == len(targets)
    for s in range(41):
        row = [(int(a), int(table[s, a])) for a in range(4) if 0 <= table[s, a] <= window[s]]
        got = list(zip(syms[offsets[s]:offsets[s + 1]].tolist(), targets[offsets[s]:offsets[s + 1]].tolist()))
        assert got == row


def assert_same_csr(codes, sigma, window):
    want = csr_from_table(K.next_occurrence_table(codes, sigma), window)
    got = K.csr_from_windows(codes, sigma, window)
    for w, g in zip(want, got):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def hierarchy_windows(n, sigma, override):
    """Window ends of build_level and of build_k_level for every k in
    {2, 3, 16, sigma} the builder accepts."""
    sig = sigma if override is None else override
    yield _level_windows(n, 2, None, sigma, full_at_sigma=False)[1]
    for k in sorted({2, 3, 16, sig}):
        if 2 <= k <= max(2, sig):
            yield _level_windows(n, k, level_cap(k, sig), sig, full_at_sigma=True)[1]


@pytest.mark.parametrize("override", [None, 300])
@pytest.mark.parametrize("sigma", [1, 2, 4, 256])
@pytest.mark.parametrize("n", [0, 1, 12, 400])
def test_csr_from_windows_matches_table(n, sigma, override):
    codes = random_codes(np.random.default_rng(n + sigma), n, sigma)
    for window in hierarchy_windows(n, sigma, override):
        assert_same_csr(codes, sigma, window)


def test_csr_from_windows_arbitrary_windows():
    rng = np.random.default_rng(5)
    for n, sigma in [(0, 1), (1, 2), (40, 4), (300, 7)]:
        codes = random_codes(rng, n, sigma)
        assert_same_csr(codes, sigma, np.full(n + 1, n, dtype=np.int32))
        for _ in range(5):
            assert_same_csr(codes, sigma, rng.integers(-1, n + 3, size=n + 1).astype(np.int32))


def test_csr_from_windows_across_chunks():
    n, sigma, k = 20_000, 256, 16
    codes = random_codes(np.random.default_rng(6), n, sigma)
    window = _level_windows(n, k, level_cap(k, sigma), sigma, full_at_sigma=True)[1]
    span = window.astype(np.int64) - np.arange(n + 1)
    assert span[span < sigma].sum() > 3 * K._CHUNK
    assert_same_csr(codes, sigma, window)
    # sa's full-suffix rows, every one wide but the last sigma - 1
    assert_same_csr(codes, sigma, np.full(n + 1, n, dtype=np.int32))


def test_next_after_rows_matches_the_table():
    # seeded texts over sigma 1..300, so previous_occurrences sorts uint8 and
    # wider codes; ascending rows: one row alone, row n, a run of adjacent
    # rows, and random sets with repeats; `at` anywhere from the last row to
    # n, its row carried from the table
    rng = np.random.default_rng(30)
    for trial in range(400):
        sigma = int(rng.choice([1, 2, 256, 257, 300])) if trial % 5 == 0 else int(rng.integers(1, 301))
        n = int(rng.integers(0, 120))
        codes = random_codes(rng, n, sigma)
        table = K.next_occurrence_table(codes, sigma)
        lo = int(rng.integers(0, n + 1))
        rows = [
            [lo],
            [n],
            list(range(lo, min(n, lo + int(rng.integers(1, 6))) + 1)),
            [*sorted(rng.integers(0, n + 1, size=int(rng.integers(1, 12))).tolist()), *[n] * int(rng.integers(2))],
        ][trial % 4]
        rows = np.array(rows, dtype=np.int64)
        at = int(rng.integers(rows[-1], n + 1))
        got = K.next_after_rows(rows, at, table[at].copy(), K.previous_occurrences(codes, sigma), codes)
        assert got.dtype == np.int32
        assert np.array_equal(got, table[rows]), (sigma, n, rows.tolist(), at)


def test_longest_chain_lengths():
    defaults = np.array([1, 2, 4, -1, 5, -1, 7, -1], dtype=np.int32)

    def ref(s):
        return 0 if defaults[s] < 0 else 1 + ref(defaults[s])

    chains = K.longest_chain_lengths(defaults)
    assert chains.tolist() == [ref(s) for s in range(len(defaults))]


def reference_chains(defaults):
    def ref(s):
        return 0 if defaults[s] < 0 else 1 + ref(defaults[s])

    return [ref(s) for s in range(len(defaults))]


def test_longest_chain_lengths_on_random_forward_defaults():
    rng = np.random.default_rng(11)
    for m in [1, 2, 3, 17, 64, 300]:
        for _ in range(6):
            # a mix of one-step, long-jump and missing defaults
            step = np.where(rng.random(m) < 0.5, np.arange(1, m + 1), rng.integers(np.arange(1, m + 1), m + 1))
            defaults = np.where((rng.random(m) < rng.random()) & (step < m), step, -1).astype(np.int32)
            chains = K.longest_chain_lengths(defaults)
            assert chains.dtype == np.int32
            assert chains.tolist() == reference_chains(defaults)


def test_longest_chain_lengths_on_a_long_chain_and_no_states():
    n = 19_999
    chains = K.longest_chain_lengths(build_chain("ab" * (n // 2) + "a").defaults)
    assert chains.dtype == np.int32 and np.array_equal(chains, np.arange(n, -1, -1))
    empty = K.longest_chain_lengths(np.zeros(0, dtype=np.int32))
    assert empty.dtype == np.int32 and empty.shape == (0,)


def text_codes(rng, n, sigma):
    """Codes of a random n-character text whose alphabet is sigma code points
    from U+0100 up (surrogates skipped), so that sigma > 256 needs symbols
    outside Latin-1. Ids 0 and sigma - 1 both occur (n >= 2)."""
    points = [p for p in range(0x100, 0x100 + sigma + 0x800) if not 0xD800 <= p < 0xE000][:sigma]
    alphabet = Alphabet(tuple(map(chr, points)))
    ids = rng.integers(0, sigma, n)
    ids[:2] = [0, sigma - 1]
    codes = alphabet.codes("".join(alphabet.symbols[i] for i in rng.permutation(ids)))
    assert len(alphabet) == sigma and codes.dtype == np.int32
    return codes


# csr_from_windows sorts the codes as uint8 up to sigma = 256 and packs its
# keys into int32 up to 1024; its key fields widen by a bit past 65536 too
@pytest.mark.parametrize("sigma", [256, 257, 1024, 1025, 65536, 65537])
def test_csr_from_windows_on_both_sides_of_each_width_switch(sigma):
    rng = np.random.default_rng(sigma)
    # wider than sigma, so that full-suffix rows occur, where the table stays small
    n = 2 * sigma + 40 if sigma <= 1025 else 40
    codes = text_codes(rng, n, sigma)
    windows = [*hierarchy_windows(n, sigma, None), np.full(n + 1, n, dtype=np.int32)]
    windows.append(rng.integers(-1, n + 3, size=n + 1).astype(np.int32))
    for window in windows:
        assert_same_csr(codes, sigma, window)


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_csr_from_windows_in_small_batches(monkeypatch, chunk):
    # batches of a few states split runs of narrow windows beside full-suffix
    # rows; sa's full-suffix windows carry the wide row across every seam,
    # batches of wide rows only included
    monkeypatch.setattr(K, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for n, sigma in [(0, 1), (1, 2), (60, 4), (200, 7), (300, 40)]:
        codes = random_codes(rng, n, sigma)
        for window in [*hierarchy_windows(n, sigma, None), np.full(n + 1, n, dtype=np.int32)]:
            assert_same_csr(codes, sigma, window)
        assert_same_csr(codes, sigma, rng.integers(-1, n + 3, size=n + 1).astype(np.int32))


def test_csr_from_windows_with_window_ends_outside_the_text():
    rng = np.random.default_rng(12)
    for n, sigma in [(0, 1), (0, 5), (1, 1), (9, 2), (80, 4), (80, 300)]:
        codes = random_codes(rng, n, sigma)
        for end in (-1, 0, n + 1, n + 9, 2**31 - 1):
            assert_same_csr(codes, sigma, np.full(n + 1, end, dtype=np.int32))
        mixed = rng.choice([-1, 0, n, n + 1, 2**31 - 1], size=n + 1).astype(np.int32)
        assert_same_csr(codes, sigma, mixed)


@pytest.mark.parametrize("k", [2, 3, 16, 256])
def test_ruler_and_bars_at_powers_of_k_and_below_k(k):
    # n = k**x exactly puts the top level on state n; n < k leaves every state at level 0
    for n in sorted({0, 1, k - 1, k, k + 1, k**2, k**3 if k <= 16 else 2}):
        for cap in (-1, 1, 2, 3):
            p = LevelParams(k, None if cap < 0 else cap, n)
            levels = ruler_levels(n, k, cap)
            assert levels.dtype == np.int32
            assert levels.tolist() == [-1] + [level(i, p) for i in range(1, n + 1)]
            bars = K.bar_targets(n, k, cap)
            assert bars.dtype == np.int32
            assert bars.tolist() == [-1] + [-1 if bar(s, p) is None else bar(s, p) for s in range(1, n + 1)]


def test_run_codes_against_stepwise_reference():
    a = build_level("abacbabcabad")
    rng = np.random.default_rng(4)
    for _ in range(50):
        pcodes = rng.integers(-1, len(a.alphabet), size=rng.integers(0, 9)).astype(np.int32)
        consumed, dcounts, reject = K.run_codes(a.offsets, a.syms, a.targets, a.defaults, pcodes)

        # direct simulation with dict lookups
        state, out, hops_out, expect_reject = 0, [], [], -1
        for i, c in enumerate(pcodes.tolist()):
            if c < 0:
                expect_reject = i
                break
            hops = 0
            while True:
                row = dict(a.transitions(state))
                if c in row:
                    state = row[c]
                    out.append(state)
                    hops_out.append(hops)
                    break
                if a.default(state) is None:
                    expect_reject = i
                    break
                state = a.default(state)
                hops += 1
            if expect_reject >= 0:
                break
        assert int(reject) == expect_reject
        m = len(out)
        assert consumed[:m].tolist() == out
        assert dcounts[:m].tolist() == hops_out


def test_warmup_calls_every_kernel(monkeypatch):
    kernels = [
        name
        for name, f in vars(K).items()
        if callable(f) and not name.startswith("_") and getattr(f, "__module__", None) == K.__name__
    ]
    kernels.remove("warmup")
    calls = []
    for name in kernels:
        def spy(*args, _name=name, _kernel=getattr(K, name)):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(K, name, spy)
    K.warmup()
    assert set(calls) == set(kernels)
    # once, from warmup itself: no other kernel calls it
    assert calls.count("longest_chain_lengths") == 1
