"""Command-line front end: build, match, stats, verify, bench, export.

Exit codes: 0 success (or: pattern accepted), 1 pattern rejected (match only),
2 usage/IO/parameter error or memory exhausted, 3 verification failure.

Text inputs are byte sequences by default (files are read as latin-1, one
symbol per byte); ``--codepoints`` switches file decoding to UTF-8. For
``stats``/``verify``/``export``, passing ``--variant`` selects build-parameter
mode (``--file`` is then a text file); without it ``--file`` names a
serialized automaton document, as it always does for ``match``. Each command
takes only the flags it reads, under one name each, and refuses by name a
flag that a call gives but cannot use, except ``verify --max-len``: verify
runs ``oracles.certify``, complete over every pattern whatever the bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .automaton import (
    Automaton,
    DocumentError,
    ParameterError,
    _code_points,
    _document_blocks,
    _successor_edges,
    deserialize,
    export_dot,
    reachable_states,
    run,
    size_metrics,
    state_labels,
)
from .oracles import certify
from .variants import NAMES, VARIANTS, resolve, size_report, tradeoff_table

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_ERROR = 2
EXIT_VERIFY_FAILED = 3


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # --help; the parser reports every error as a ParameterError
        return EXIT_OK
    except (ValueError, OSError) as e:  # ParameterError and DocumentError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as e:
        detail = " ".join(str(e).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises each usage error as a one-line ParameterError."""

    def error(self, message):
        raise ParameterError(" ".join(message.split()))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused: parsing
    leaves it unchanged, and building it costs about a millisecond."""
    parser = _Parser(prog="subseqa", description="Subsequence automata with default transitions.", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p, *, one_text=False):
        p.add_argument("--text", help="inline input text")
        p.add_argument("--file", help="input text file" if one_text else
                       "input text file; for stats/verify/export without --variant, a document")
        p.add_argument("--codepoints", action="store_true", default=None, help="decode --file as UTF-8, not latin-1")
        p.add_argument("--sigma", type=int, help="override the alphabet size upward")
        if not one_text:
            p.add_argument("--texts", nargs="+", help="two or more inline texts (multi-string variants)")
            p.add_argument("--variant", choices=NAMES)
            p.add_argument("--k", type=int, help="base for the klevel variant")
            p.add_argument("--mode", choices=["common", "any"], help="multi-string acceptance mode")
            p.add_argument("--state-budget", type=int, help="product variants' state limit (default 10**6)")

    p = sub.add_parser("build", help="build an automaton and write its document", allow_abbrev=False)
    add_inputs(p)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("match", help="run a pattern against an automaton document", allow_abbrev=False)
    p.add_argument("--file", required=True, help="automaton document")
    p.add_argument("--pattern", required=True)
    p.add_argument("--trace", action="store_true", help="print consumed targets and defaults per character")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("stats", help="size and delay measurements", allow_abbrev=False)
    add_inputs(p)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="oracle equivalence, trace equivalence, and invariants", allow_abbrev=False)
    add_inputs(p)
    p.add_argument(
        "--max-len", type=int, default=4,
        help="accepted and checked to be >= 0, not read: every check is complete, over every pattern of every length",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="size/delay trade-off table across variants", allow_abbrev=False)
    add_inputs(p, one_text=True)
    p.add_argument("--ks", default="2", help="comma-separated bases, e.g. 2,4,16,256")
    p.add_argument("--random", nargs=3, type=int, metavar=("N", "SIGMA", "SEED"), help="synthesize a uniform random text")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export", help="export DOT or the serialized document", allow_abbrev=False)
    add_inputs(p)
    p.add_argument("--format", choices=["dot", "structured"], default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    return parser


# ---------------------------------------------------------------------------
# input handling


def _read_text_file(path: str, codepoints: bool) -> str:
    data = Path(path).read_bytes()
    return data.decode("utf-8") if codepoints else data.decode("latin-1")


def _refuse(args, dests, reason: str):
    """Refuse, naming them, the flags among ``dests`` that this call gives (not None)."""
    given = [f"--{d.replace('_', '-')}" for d in dests if getattr(args, d, None) is not None]
    if given:
        raise ParameterError(f"{', '.join(given)}: {reason}")


def _input_texts(args) -> list[str]:
    flags = [f for f in ("text", "file", "texts") if f in args]  # bench takes no --texts
    if sum(getattr(args, f) is not None for f in flags) != 1:
        raise ParameterError(f"provide exactly one of {', '.join('--' + f for f in flags)}")
    if args.file is not None:
        return [_read_text_file(args.file, args.codepoints)]
    _refuse(args, ["codepoints"], "decodes --file only")
    return _inline_texts(args)


def _inline_texts(args) -> list[str] | None:
    """The text ``--text`` gives, or the two or more ``--texts`` gives; None for neither."""
    texts = getattr(args, "texts", None)  # bench takes no --texts
    if texts is not None and (args.text is not None or len(texts) < 2):
        raise ParameterError("provide at most one of --text and --texts" if args.text is not None
                             else "--texts needs at least two strings")
    return texts if args.text is None else [args.text]


def _build(args):
    """The requested variant, its input texts, and the automaton built from them."""
    texts = _input_texts(args)
    variant = resolve(args.variant, len(texts), args.mode, args.k, args.sigma, args.state_budget)
    return variant, texts, variant.build(texts, args.k, args.sigma, args.state_budget)


def _load_document(args, *also) -> Automaton:
    """The document ``--file`` names; refuses the build inputs, and those of
    ``also``, that the call gives: a document carries its own."""
    _refuse(args, ["codepoints", "k", "mode", "sigma", "state_budget", *also],
            "build inputs need --variant; a document carries its own")
    return deserialize(Path(args.file).read_text(encoding="utf-8"))


def _load_or_build(args) -> Automaton:
    if args.variant is not None:
        return _build(args)[2]
    if args.file is None:
        raise ParameterError("provide --variant with inputs, or --file with an automaton document")
    return _load_document(args, "text", "texts")


def _write_output(parts, out: str | None):
    """Write the strings ``parts`` in order to the file ``out``, or to stdout;
    each part is written as soon as it is made."""
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def reconstruct_text(a: Automaton) -> str:
    """Source text of a single-string automaton: character i is the label of
    the first edge from state i-1 to state i, which every variant carries."""
    n = a.meta.get("n")
    if n is None:
        raise ParameterError(
            "cannot reconstruct the source texts of a multi-string document; pass --texts"
        )
    states, edges = _successor_edges(a)
    present = np.zeros(max(n, a.state_count), dtype=bool)
    present[states] = True
    if not present[:n].all():
        s = int(present[:n].argmin())
        raise DocumentError(f"document carries no edge from state {s} to {s + 1}; cannot recover the text")
    # states 0..n-1 come first, in order; their labels' code points are the text
    points = _code_points("".join(a.alphabet.symbols))
    return points[a.syms[edges[:n]]].tobytes().decode("utf-32-le", "surrogatepass")


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    _write_output(_document_blocks(_build(args)[2]), args.out)
    return EXIT_OK


def cmd_match(args) -> int:
    a = _load_document(args)
    outcome = run(a, args.pattern)
    print("accept" if outcome.accepted else "reject")
    if args.trace:
        print(f"targets: {' '.join(state_labels(a, outcome.consumed_targets))}")
        print(f"defaults: {' '.join(str(d) for d in outcome.defaults_per_char)}")
        if outcome.reject_position is not None:
            print(f"rejected at: {outcome.reject_position}")
    return EXIT_OK if outcome.accepted else EXIT_REJECT


def cmd_stats(args) -> int:
    a = _load_or_build(args)
    doc = {"version": 1, **size_report(a), "reachable_states": reachable_states(a)}
    if args.format == "structured":
        out = json.dumps(doc, indent=2) + "\n"
    else:
        out = "".join(f"{k}: {v}\n" for k, v in doc.items())
    _write_output([out], args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_len < 0:
        raise ParameterError(f"--max-len must be >= 0, got {args.max_len}")
    if args.variant is not None:
        variant, texts, a = _build(args)
    else:
        if args.file is None:
            raise ParameterError("verify needs build parameters or --file with a document")
        a = _load_document(args)
        variant = VARIANTS[a.meta["variant"]]  # deserialize has checked the metadata against it
        texts = _inline_texts(args) or [reconstruct_text(a)]

    found = certify(a, *texts)  # a pattern, or a product state (by its match --trace label) and a symbol
    detail = f"complete: {a.state_count} states, {int(a.offsets[-1])} transitions" + ("" if found is None else (
        f"; counterexample {found!r}" if isinstance(found, str) else
        f"; counterexample state {state_labels(a, found[:1])[0]}, symbol {found[1]!r}"))
    chain, cap = size_metrics(a).longest_default_chain, variant.hops.delay_cap(a.meta)
    results = [
        ("validate", True, ""),  # assemble and deserialize raise on an invalid automaton
        *((name, found is None, detail) for name in ("oracle-equivalence", "trace-equivalence")),
        ("delay-bound", chain <= cap, f"longest default chain {chain} <= {cap}"),
    ]
    ok = True
    for name, passed, detail in results:
        ok &= passed
        print(f"{name}: {'pass' if passed else 'FAIL'}" + (f" ({detail})" if detail else ""))
    print("result: " + ("pass" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _random_text(n: int, sigma: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    # the code points as UTF-32, lone surrogates included: one decode, not n chr() calls
    return rng.integers(0, sigma, size=n).astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")


def cmd_bench(args) -> int:
    if args.random:
        n, sigma, seed = args.random
        _refuse(args, ["text", "file", "codepoints", "sigma"], "--random makes its own text over SIGMA symbols")
        if n < 0 or not 1 <= sigma <= 0x110000 or seed < 0:  # checked before anything is allocated
            raise ParameterError(f"--random needs N >= 0, 1 <= SIGMA <= 1114112 and SEED >= 0, got {n} {sigma} {seed}")
        text = _random_text(n, sigma, seed)
        sigma_override: int | None = sigma
        source = {"random": True, "n": n, "sigma": sigma, "seed": seed}
    else:
        (text,) = _input_texts(args)
        sigma_override = args.sigma
        source = {"random": False, "n": len(text), "seed": None}

    try:
        ks = [int(x) for x in args.ks.split(",") if x.strip() != ""]
    except ValueError:
        raise ParameterError(f"--ks must be a comma-separated integer list, got {args.ks!r}") from None
    if not ks:
        raise ParameterError("--ks must name at least one base")

    rows = [{**r, "descriptor": VARIANTS[r["variant"]].descriptor}
            for r in tradeoff_table(text, ks, sigma=sigma_override)]
    if args.format == "structured":
        out = json.dumps({"version": 1, "source": source, "rows": rows}, indent=2) + "\n"
    else:
        heads = []
        if source["random"]:
            heads.append(f"random text: n={source['n']} sigma={source['sigma']} seed={source['seed']}")
        own, given = rows[0]["sigma"], rows[-1]["sigma"]  # sa's is the text's symbol count, klevel's the given one
        if given != own:
            heads.append(f"{own} distinct symbols: klevel rows at sigma {given}, the others at {own}")
        lines = ["# " + "; ".join(heads)] if heads else []
        # a column per field, as wide as its widest cell; text aligns left, numbers right
        cells = [[*rows[0]], *(["-" if v is None else str(v) for v in r.values()] for r in rows)]
        widths = [max(map(len, column)) for column in zip(*cells)]
        align = ["<" if isinstance(v, str) else ">" for v in rows[0].values()]
        lines += [" ".join(f"{c:{a}{w}}" for c, a, w in zip(row, align, widths)).rstrip() for row in cells]
        out = "\n".join(lines) + "\n"
    _write_output([out], args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    a = _load_or_build(args)
    _write_output([export_dot(a)] if args.format == "dot" else _document_blocks(a), args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
