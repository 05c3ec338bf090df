"""The package namespace: every exported name resolves, listed in order."""

import subseq_automata


def test_all_names_resolve_and_are_sorted():
    missing = [name for name in subseq_automata.__all__ if not hasattr(subseq_automata, name)]
    assert missing == []
    assert subseq_automata.__all__ == sorted(subseq_automata.__all__)
    assert len(set(subseq_automata.__all__)) == len(subseq_automata.__all__)
