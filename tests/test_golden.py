"""Byte-identical CLI output: sha256 of documents, stats, bench, verify
reports, DOT exports and match traces on a small fixed corpus, pinned for
every variant, the klevel bases 2, 3 and sigma (with and without --sigma), the
multi-string aliases, and multi-string edge cases: empty members, four texts,
and a wide --sigma."""

import hashlib

import pytest

from subseq_automata.cli import main

TEXT = "abacbabcabad"
PAIR = ["abcab", "bacba"]
TRIPLE = ["abc", "bca", "cab"]
QUAD = ["abca", "bca", "cab", "acb"]


def build(*args):
    return ["build", *args]


GOLDEN = {
    "sa": (
        build("--variant", "sa", "--text", TEXT),
        "cafbc790c3ff5fd55d3f9381ebd9fa91432ce0189b73a96f3f8e3639347197ba",
    ),
    "chain": (
        build("--variant", "chain", "--text", TEXT),
        "0eeb9eb7d8c19e1340e741e3fc9a247d507fe22244ded8209aa1f45bfd92e8df",
    ),
    "level": (
        build("--variant", "level", "--text", TEXT),
        "808606cbde41ecd7367b85534bf5f6c6b993787108744597e93c7f961d1d6ec9",
    ),
    "klevel-k2": (
        build("--variant", "klevel", "--k", "2", "--text", TEXT),
        "8905bccf1e0bab6ebc43bbd7167b938cc9aee2853f26785497a9e4f1fec34bb0",
    ),
    "klevel-k3": (
        build("--variant", "klevel", "--k", "3", "--text", TEXT),
        "d6310146aec571d9b7de2960d7d512fb209642fbb9ee6ea29bbf120dbbc154cf",
    ),
    "klevel-k4": (
        build("--variant", "klevel", "--k", "4", "--text", TEXT),
        "37785a71e67fe442fc4e349b5a977d6d38cf133dcb3ba0dad01b3a1a972d2376",
    ),
    "klevel-k2-sigma8": (
        build("--variant", "klevel", "--k", "2", "--sigma", "8", "--text", TEXT),
        "a500131ffc325e8970fff105c2811cc462f0b4a932ca9fc1bfcaa6eb5a9a2921",
    ),
    "klevel-k3-sigma8": (
        build("--variant", "klevel", "--k", "3", "--sigma", "8", "--text", TEXT),
        "2e9787dc1f876334f8e56dedaa82ea921cb34be4dda378088cd8f999c319f28d",
    ),
    "klevel-k8-sigma8": (
        build("--variant", "klevel", "--k", "8", "--sigma", "8", "--text", TEXT),
        "c40cae12c17d2c1f7e41a332dce98bd56b3356bb003d517aca7405e3c59a6edc",
    ),
    "naive-common": (
        build("--variant", "naive-common", "--texts", *PAIR),
        "11d8b4c13202317a460fc0c9041ed3d31abed87c41610e9ac5baece6803935c7",
    ),
    "common-level": (
        build("--variant", "common-level", "--texts", *PAIR),
        "1f5d8669f55a8456494a36e508cc68f85d8ec693510228f3ae99f518d37a995b",
    ),
    "common-level-sigma6": (
        build("--variant", "common-level", "--sigma", "6", "--texts", *PAIR),
        "74518626deb6cdd87f2bee05a76c5f147f735f407ae431842b162b2a3e09a89b",
    ),
    "common-level-triple": (
        build("--variant", "common-level", "--texts", *TRIPLE),
        "a047565e7aa5eb2d938c08b33a85962126fadeef410193daeebed121e14bad58",
    ),
    "any-level": (
        build("--variant", "any-level", "--texts", *PAIR),
        "c7283d35f19037e71f2ba29a4fcebb07776c5520e940ac08b19a67346e6dbd6d",
    ),
    "any-level-sigma6": (
        build("--variant", "any-level", "--sigma", "6", "--texts", *PAIR),
        "4ee4a3075d94dff8ddf61dce94e3d8db98b45faec513e7d02b752c08c61c9c98",
    ),
    "any-level-triple": (
        build("--variant", "any-level", "--texts", *TRIPLE),
        "db21d7ff6b0ee33f7e3ccdd866d9534563d9bdf719e2c524a98706c0ad4276a7",
    ),
    "common-level-empty-pair": (
        build("--variant", "common-level", "--texts", "", ""),
        "0f0b97f68f7898335be2c2c8005aa909671a48594b215acca3adfd2af2eeee34",
    ),
    "any-level-empty-member": (
        build("--variant", "any-level", "--texts", "ab", ""),
        "b94e55114a1d9d01788e7389e2c11917f06ef9a01efff939dd4e08ebac4791ab",
    ),
    "naive-common-empty-member": (
        build("--variant", "naive-common", "--texts", "abc", ""),
        "6c39fc1758a5b2b972107902f241e0d678dc4f5d93752dff07fef0098775c280",
    ),
    "common-level-quad": (
        build("--variant", "common-level", "--texts", *QUAD),
        "4d556cb785c94cdc92353b104c3d0f010860c70f319b4d4d67e0a52c945bed68",
    ),
    "any-level-quad": (
        build("--variant", "any-level", "--texts", *QUAD),
        "d3410a5dc409d3aeba2e16674b72450899493639940b94f92216ba6f8359c4dd",
    ),
    "common-level-sigma40": (
        build("--variant", "common-level", "--sigma", "40", "--texts", *PAIR),
        "ade5c57ab51b03b38225c05db8558c8dd6730452e602befc1d8b4441832693e5",
    ),
    "any-level-sigma40": (
        build("--variant", "any-level", "--sigma", "40", "--texts", *PAIR),
        "628093f732ffde21a726e03ade10f82d22bab17b0cce025a0bc43253ccb238bc",
    ),
    "alias-naive": (
        build("--variant", "naive", "--texts", *PAIR),
        "11d8b4c13202317a460fc0c9041ed3d31abed87c41610e9ac5baece6803935c7",
    ),
    "alias-level": (
        build("--variant", "level", "--texts", *PAIR),
        "1f5d8669f55a8456494a36e508cc68f85d8ec693510228f3ae99f518d37a995b",
    ),
    "alias-level-common": (
        build("--variant", "level", "--texts", *PAIR, "--mode", "common"),
        "1f5d8669f55a8456494a36e508cc68f85d8ec693510228f3ae99f518d37a995b",
    ),
    "alias-level-any": (
        build("--variant", "level", "--texts", *PAIR, "--mode", "any"),
        "c7283d35f19037e71f2ba29a4fcebb07776c5520e940ac08b19a67346e6dbd6d",
    ),
    "stats": (
        ["stats", "--variant", "klevel", "--k", "2", "--text", TEXT, "--format", "structured"],
        "4af84752440b93a090a69814fcbba0d3b16c127320690bfb490438cb87194678",
    ),
    "bench": (
        ["bench", "--text", TEXT, "--ks", "2,4", "--format", "structured"],
        "c66bc98cab144dcb061982c506de59f7466491f0cf2c8eefc80aece055682dab",
    ),
    "verify-klevel": (
        ["verify", "--variant", "klevel", "--k", "2", "--text", TEXT, "--max-len", "3"],
        "e48f3a560e6bab7a8372a947243cd1432ef0ccb0b5fa8c23d5a067d78ed4ccaa",
    ),
    "verify-common-level-triple": (
        ["verify", "--variant", "common-level", "--texts", *TRIPLE, "--max-len", "3"],
        "651bdf149dbbce427212dc002f857b8f39a034817cde51c82b711bf1d580a7b9",
    ),
    "verify-sa": (
        ["verify", "--variant", "sa", "--text", TEXT, "--max-len", "3"],
        "6005049b5f8ba2fe0671497e9045cce3ea15d2869c7f79021c8af1d78d38441b",
    ),
    "verify-naive-common": (
        ["verify", "--variant", "naive-common", "--texts", *PAIR, "--max-len", "3"],
        "0f49c7209537f0bf63082dae92c1fb61189841fc64f949fe67bc1997c7333706",
    ),
    "verify-common-level": (
        ["verify", "--variant", "common-level", "--texts", *PAIR, "--max-len", "3"],
        "4b9bcd7cedf03e449225e0eb147d9d9c0d598cca45cc589a5a63c09075cb230d",
    ),
    "verify-any-level": (
        ["verify", "--variant", "level", "--mode", "any", "--texts", *PAIR, "--max-len", "3"],
        "4b9bcd7cedf03e449225e0eb147d9d9c0d598cca45cc589a5a63c09075cb230d",
    ),
    "export-dot-sa": (
        ["export", "--format", "dot", "--variant", "sa", "--text", TEXT],
        "8735858fe7014c239ee9f0d6e9a306be2e39ae3779f44bd7d27d20e0887e03da",
    ),
    "export-dot-any-level": (
        ["export", "--format", "dot", "--variant", "any-level", "--texts", *PAIR],
        "835655153ad36cb9077c66a19c40d44f26dde3a7de3b027879a1493ec4981042",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_output_is_byte_identical(case, capsys):
    argv, digest = GOLDEN[case]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# (pattern, exit code, digest of ``match --trace`` on the any-level PAIR document)
MATCH_TRACE = {
    "accepted-after-defaults": ("cab", 0, "bed4457d4fdb629cc67bc7188124fe35511f7c1f66e42e3e558fe5133327dede"),
    "rejected": ("cbab", 1, "5b11d1a8043c3a2494c00db5e761717baf876e66ac29c8ddbc470790e8e5c1be"),
}


@pytest.mark.parametrize("case", list(MATCH_TRACE))
def test_match_trace_is_byte_identical(case, tmp_path, capsys):
    pattern, code, digest = MATCH_TRACE[case]
    doc = tmp_path / "any.json"
    assert main(["build", "--variant", "any-level", "--texts", *PAIR, "--out", str(doc)]) == 0
    assert main(["match", "--file", str(doc), "--pattern", pattern, "--trace"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
