"""Reference-implementation checks for the array kernels."""

import numpy as np
import pytest

from subseq_automata import _kernels as K
from subseq_automata import build_k_level, build_level, build_sa


def random_codes(rng, n, sigma):
    return rng.integers(0, sigma, size=n).astype(np.int32)


def reference_next_table(codes, sigma):
    n = len(codes)
    table = np.full((n + 1, sigma), -1, dtype=np.int32)
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
    levels = K.ruler_levels(n, k, cap)
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
    levels = K.ruler_levels(n, k, cap)
    bars = K.bar_targets(levels, n, k, cap)
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
    offsets, syms, targets = K.csr_from_table(table, window)
    assert offsets[0] == 0 and offsets[-1] == len(syms) == len(targets)
    for s in range(41):
        row = [(int(a), int(table[s, a])) for a in range(4) if 0 <= table[s, a] <= window[s]]
        got = list(zip(syms[offsets[s]:offsets[s + 1]].tolist(), targets[offsets[s]:offsets[s + 1]].tolist()))
        assert got == row


def test_longest_chain_lengths():
    defaults = np.array([1, 2, 4, -1, 5, -1, 7, -1], dtype=np.int32)

    def ref(s):
        return 0 if defaults[s] < 0 else 1 + ref(defaults[s])

    chains = K.longest_chain_lengths(defaults)
    assert chains.tolist() == [ref(s) for s in range(len(defaults))]


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


def test_resolved_tables_against_default_walk():
    for a in [build_sa("abadca"), build_level("abacbabcabad"), build_k_level("abacbabcabad", 2)]:
        table, hops = K.resolved_tables(a.offsets, a.syms, a.targets, a.defaults, len(a.alphabet))
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
