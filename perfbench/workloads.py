"""The benchmark's four workloads.

Each workload makes its inputs from the seed in ``setup``, runs one round of
timed calls into the package's public entry points in ``round``, and checks
the outputs in ``finish``, after the last round, so that no check is timed.
``round`` returns the seconds of each timed operation, keyed
``<phase>/<operation>``; every round runs the same operations. Package
functions are looked up on the package at call time, so wrappers the tracer
installs are seen.

Every timed call counts as one attempted operation; it fails when it raises
or when its output fails a check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time

import numpy as np

perf = time.perf_counter

SIZES = {
    # The sizes the benchmark measures.
    # Every timed operation takes well under 0.1 s, so that a run holds
    # dozens of samples of each and some fall outside the host's slow phases
    # (see ``best_round``).
    "full": {
        "build_n": 10_000,
        "serve_n": 10_000,
        "serve_patterns": 800,
        "verify_n": 500,
        "pair_n": 60,
        "triple_n": 12,
        "check_patterns": 60,
        "chain_reach": 3000,
    },
    # Small enough for the smoke test.
    "tiny": {
        "build_n": 3000,
        "serve_n": 2000,
        "serve_patterns": 60,
        "verify_n": 400,
        "pair_n": 12,
        "triple_n": 5,
        "check_patterns": 12,
        "chain_reach": 500,
    },
}

BYTES = [chr(i) for i in range(256)]
DNA = list("acgt")
# Outside every alphabet used here, so a pattern holding it is rejected there.
FOREIGN = "Ā"
MULTI_MAX_LEN = 5


def byte_text(rng, n: int) -> str:
    """Uniform random latin-1 text: sigma = 256, one symbol per byte."""
    return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes().decode("latin-1")


def random_string(rng, symbols, n: int) -> str:
    return "".join(rng.choice(symbols, size=n).tolist())


def window_subsequence(rng, text: str, length: int, window: int, reach: int | None = None) -> str:
    """``length`` characters of ``text``, in order, from a window of ``window``
    positions that starts at or before ``reach``."""
    last = len(text) - window
    if reach is not None:
        last = min(last, reach)
    start = int(rng.integers(0, last + 1))
    idx = np.sort(rng.choice(window, size=length, replace=False)) + start
    return "".join(text[i] for i in idx.tolist())


def check_patterns(rng, texts, symbols, count, reach=None, random_len=(1, 12)) -> list[str]:
    """A seeded verdict sample: subsequences of short windows of the texts, the
    same with a foreign symbol inserted, and random strings over ``symbols``."""
    out = []
    for i in range(count):
        text = texts[i % len(texts)]
        if i % 3 == 2:
            out.append(random_string(rng, symbols, int(rng.integers(random_len[0], random_len[1] + 1))))
            continue
        length = int(rng.integers(1, min(16, len(text)) + 1))
        p = window_subsequence(rng, text, length, min(len(text), 4 * length), reach)
        if i % 3 == 1:
            at = int(rng.integers(0, length + 1))
            p = p[:at] + FOREIGN + p[at:]
        out.append(p)
    return out


def serve_stream(rng, text: str, count: int) -> list[tuple[str, str]]:
    """The serve mix: 45 % local and 45 % spread subsequences of 8-64
    characters, 10 % uniform random patterns of 200-800 characters."""
    n = len(text)
    stream = []
    for _ in range(count):
        u = rng.random()
        if u < 0.9:
            length = int(rng.integers(8, 65))
            if u < 0.45:
                stream.append(("local", window_subsequence(rng, text, length, min(n, 4 * length))))
            else:
                idx = np.sort(rng.choice(n, size=length, replace=False))
                stream.append(("spread", "".join(text[i] for i in idx.tolist())))
        else:
            stream.append(("random", byte_text(rng, int(rng.integers(200, 801)))))
    return stream


def automaton_fingerprint(a) -> str:
    h = hashlib.sha256()
    for arr in (a.offsets, a.syms, a.targets, a.defaults):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def text_fingerprint(s: str) -> str:
    return hashlib.sha256(s.encode("utf-8")).hexdigest()


def automaton_problems(sa, a, patterns, oracle) -> list[str]:
    """What is wrong with a built automaton: invariants, the default-chain
    bound, and verdicts that differ from the oracle on ``patterns``."""
    problems = []
    report = sa.validate(a)
    if not report.ok:
        problems.append("validate: " + "; ".join(report.violations[:3]))
    chain = sa.size_metrics(a).longest_default_chain
    cap = sa.structural_delay_cap(a.meta)
    if chain > cap:
        problems.append(f"longest default chain {chain} exceeds the cap {cap}")
    wrong = [p for p in patterns if sa.run(a, p).accepted != oracle(p)]
    if wrong:
        problems.append(f"{len(wrong)} of {len(patterns)} sampled verdicts differ from the oracle, e.g. {wrong[0][:24]!r}")
    return problems


def median(values) -> float:
    return float(np.median(values))


def best_round(rounds: list[dict]) -> float:
    """The sum over a round's operations of each one's fastest time in
    ``rounds``. On a shared host other processes only ever add time, so the
    minimum over many samples is the steadiest estimate of the program's own
    cost (the rule ``timeit`` follows)."""
    return sum(min(ops[label] for ops in rounds) for label in rounds[0])


def phases(ops: dict) -> list[str]:
    return list(dict.fromkeys(label.split("/")[0] for label in ops))


def phase_sum(ops: dict, phase: str) -> float:
    return sum(t for label, t in ops.items() if label.startswith(phase + "/"))


class Workload:
    name = ""

    def __init__(self, sa, sizes: dict, seed: int, workdir):
        self.sa = sa
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict = {}  # per-layer counts taken from the outputs
        self.fingerprints: dict = {}
        self.files: list = []

    def rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def path(self, name: str):
        p = self.workdir / f"{self.name}-{self.seed}-{name}"
        if p not in self.files:
            self.files.append(p)
        return p

    def close(self) -> None:
        for p in self.files:
            p.unlink(missing_ok=True)

    def check_rounds(self, round_fps: list[dict], bad: set) -> None:
        """Fail each round's operation whose output differs from the last
        round's, or whose last-round output failed a check."""
        last = round_fps[-1]
        for r, fps in enumerate(round_fps):
            for label, fp in fps.items():
                if label in bad:
                    self.fail(f"round {r}: {label} failed its checks")
                elif fp != last[label]:
                    self.fail(f"round {r}: {label} differs from the last round's output")
        self.fingerprints.update(last)

    def report(self, rounds: list[dict]) -> dict:
        """Workload-specific end-to-end metrics as name -> (value, unit): the
        median over ``rounds`` (their operation timings) of each phase's sum."""
        return {phase: (median([phase_sum(ops, phase) for ops in rounds]), "s") for phase in phases(rounds[0])}

    def details(self, rounds: list[dict]) -> dict:
        """Further report entries, over ``rounds`` (their operation timings)."""
        return {}


SINGLE_BUILDS = (
    ("chain", lambda sa, text: sa.build_chain(text)),
    ("level", lambda sa, text: sa.build_level(text)),
    ("klevel2", lambda sa, text: sa.build_k_level(text, 2)),
    ("klevel16", lambda sa, text: sa.build_k_level(text, 16)),
)


class Build(Workload):
    """Single-string builds at sigma = 256, then the write side of documents."""

    name = "build"

    def setup(self):
        self.text = byte_text(self.rng(0), self.sizes["build_n"])
        self.doc_path = self.path("klevel2.json")
        self.round_fps = []
        self.autos = {}
        self.fingerprints = {"text": text_fingerprint(self.text)}

    def round(self) -> dict:
        sa = self.sa
        self.autos = {}
        ops = {}
        for label, build in SINGLE_BUILDS:
            self.attempted += 1
            t0 = perf()
            self.autos[label] = build(sa, self.text)
            ops[f"build_s/{label}"] = perf() - t0
        self.attempted += 1
        t0 = perf()
        doc = sa.serialize(self.autos["klevel2"])
        self.doc_path.write_text(doc, encoding="utf-8")
        ops["save_s/klevel2"] = perf() - t0
        fps = {label: automaton_fingerprint(a) for label, a in self.autos.items()}
        fps["klevel2.document"] = text_fingerprint(doc)
        self.round_fps.append(fps)
        return ops

    def finish(self):
        sa = self.sa
        rng = self.rng(1)
        bad = set()
        for label, a in self.autos.items():
            # the chain walks one state per text position, so its sample stays
            # near the start of the text
            chain = label == "chain"
            patterns = check_patterns(
                rng,
                [self.text],
                BYTES,
                self.sizes["check_patterns"],
                reach=self.sizes["chain_reach"] if chain else None,
                random_len=(1, 3) if chain else (200, 800),
            )
            problems = automaton_problems(sa, a, patterns, lambda p: sa.is_subsequence(p, self.text))
            if problems:
                bad.add(label)
                self.fail(f"{label}: " + "; ".join(problems))
        if sa.deserialize(self.doc_path.read_text(encoding="utf-8")) != self.autos["klevel2"]:
            bad.add("klevel2.document")
            self.fail("the klevel2 document does not load back to the automaton it was written from")
        self.check_rounds(self.round_fps, bad)


class Serve(Workload):
    """Load a klevel k=2 document, then answer a seeded pattern stream."""

    name = "serve"

    def setup(self):
        sa = self.sa
        rng = self.rng(0)
        self.text = byte_text(rng, self.sizes["serve_n"])
        self.reference = sa.build_k_level(self.text, 2)
        doc = sa.serialize(self.reference)
        self.doc_path = self.path("klevel2.json")
        self.doc_path.write_text(doc, encoding="utf-8")
        self.fingerprints = {"text": text_fingerprint(self.text), "document": text_fingerprint(doc)}
        self.stream = serve_stream(rng, self.text, self.sizes["serve_patterns"])
        self.loads_equal = []
        self.verdicts = []
        self.outcomes = []

    def round(self) -> dict:
        sa = self.sa
        self.attempted += 1
        t0 = perf()
        a = sa.deserialize(self.doc_path.read_text(encoding="utf-8"))
        ops = {"load_s/document": perf() - t0}
        self.loads_equal.append(a == self.reference)
        outcomes = []
        for i, (_, p) in enumerate(self.stream):
            self.attempted += 1
            t0 = perf()
            outcome = sa.run(a, p)
            ops[f"match_s/{i}"] = perf() - t0
            outcomes.append(outcome)
        self.verdicts.append([o.accepted for o in outcomes])
        self.outcomes = outcomes
        return ops

    def finish(self):
        sa = self.sa
        expected = [sa.is_subsequence(p, self.text) for _, p in self.stream]
        problems = automaton_problems(sa, self.reference, [], None)
        if problems:
            self.fail("served automaton: " + "; ".join(problems))
        for r, (equal, verdicts) in enumerate(zip(self.loads_equal, self.verdicts)):
            if not equal:
                self.fail(f"round {r}: the loaded document differs from the automaton it was written from")
            for i, (got, want) in enumerate(zip(verdicts, expected)):
                if got != want:
                    self.fail(f"round {r}: pattern {i} ({self.stream[i][0]}) verdict {got}, expected {want}")
        self.fingerprints["automaton"] = automaton_fingerprint(self.reference)

    def _latencies(self, rounds) -> np.ndarray:
        """Seconds per pattern, one row per round."""
        return np.asarray([[ops[f"match_s/{i}"] for i in range(len(self.stream))] for ops in rounds])

    def report(self, rounds):
        lat = self._latencies(rounds)
        # characters the runner looked at: up to and including a rejecting one
        chars = sum(
            len(p) if o.reject_position is None else o.reject_position + 1
            for (_, p), o in zip(self.stream, self.outcomes)
        )
        return {
            "load_s": (median([ops["load_s/document"] for ops in rounds]), "s"),
            "match_p50_us": (float(np.percentile(lat, 50)) * 1e6, "us"),
            "match_p99_us": (float(np.percentile(lat, 99)) * 1e6, "us"),
            "match_samples": (int(lat.size), "count"),
            "match_chars_per_s": (chars * len(rounds) / float(lat.sum()), "chars/s"),
        }

    def details(self, rounds):
        kinds = [k for k, _ in self.stream]
        lat = self._latencies(rounds)
        per_kind = {}
        for kind in sorted(set(kinds)):
            sel = lat[:, [i for i, k in enumerate(kinds) if k == kind]]
            accepted = sum(v for k, v in zip(kinds, self.verdicts[-1]) if k == kind)
            per_kind[kind] = {
                "patterns": int(sel.shape[1]),
                "accepted": int(accepted),
                "p50_us": float(np.median(sel)) * 1e6,
            }
        hops = [h for o in self.outcomes for h in o.defaults_per_char]
        histogram = np.bincount(np.asarray(hops, dtype=np.int64), minlength=1) if hops else np.zeros(1, np.int64)
        return {
            "per_kind": per_kind,
            "hops_per_char": {
                "histogram": histogram.tolist(),
                "mean": float(np.mean(hops)) if hops else 0.0,
                "max": int(histogram.size - 1),
                "chars": len(hops),
            },
        }


class Verify(Workload):
    """``subseqa verify`` in-process on a klevel k=2 build."""

    name = "verify"

    def setup(self):
        text = byte_text(self.rng(0), self.sizes["verify_n"])
        self.text_path = self.path("text.bin")
        self.text_path.write_bytes(text.encode("latin-1"))
        self.argv = ["verify", "--variant", "klevel", "--k", "2", "--sigma", "256",
                     "--file", str(self.text_path), "--max-len", "2"]
        self.round_fps = []
        self.fingerprints = {"text": text_fingerprint(text)}

    def round(self) -> dict:
        self.attempted += 1
        out = io.StringIO()
        t0 = perf()
        with contextlib.redirect_stdout(out):
            code = self.sa.cli.main(self.argv)
        ops = {"verify_s/cli": perf() - t0}
        printed = out.getvalue()
        if code != 0 or "result: pass" not in printed.splitlines():
            self.fail(f"verify exited {code}: {printed.strip().splitlines()[-1:]}")
        self.round_fps.append({"stdout": text_fingerprint(printed)})
        return ops

    def finish(self):
        self.check_rounds(self.round_fps, set())


class Multi(Workload):
    """Product builds for a pair and a triple of sigma = 4 texts, then their
    oracle and trace checks."""

    name = "multi"

    def setup(self):
        rng = self.rng(0)
        self.pair = [random_string(rng, DNA, self.sizes["pair_n"]) for _ in range(2)]
        self.triple = [random_string(rng, DNA, self.sizes["triple_n"]) for _ in range(3)]
        self.round_fps = []
        self.autos = {}
        self.fingerprints = {"texts": text_fingerprint("\n".join(self.pair + self.triple))}

    def _texts(self, label):
        return self.pair if label.startswith("pair") else self.triple

    def round(self) -> dict:
        sa = self.sa
        pair, triple = self.pair, self.triple
        builds = (
            ("pair.common-level", lambda: sa.build_common_level(pair)),
            ("pair.any-level", lambda: sa.build_any_level(pair)),
            ("pair.naive-common", lambda: sa.build_naive_common(*pair)),
            ("triple.common-level", lambda: sa.build_common_level(triple)),
            ("triple.any-level", lambda: sa.build_any_level(triple)),
        )
        self.autos = {}
        ops = {}
        for label, build in builds:
            self.attempted += 1
            t0 = perf()
            self.autos[label] = build()
            ops[f"build_s/{label}"] = perf() - t0

        def equivalent(label):
            texts = self._texts(label)
            oracle = sa.AnySubsequenceOracle if label.endswith("any-level") else sa.CommonSubsequenceOracle
            a = self.autos[label]
            return sa.equivalence_check(a, oracle(texts), sa.default_check_alphabet(texts), MULTI_MAX_LEN).ok

        checks = [(label, lambda label=label: equivalent(label)) for label, _ in builds]
        checks.append((
            "pair.trace",
            lambda: sa.trace_equivalence(
                self.autos["pair.common-level"],
                self.autos["pair.naive-common"],
                sa.default_check_alphabet(pair),
                MULTI_MAX_LEN,
            ).equal,
        ))
        for label, check in checks:
            self.attempted += 1
            t0 = perf()
            ok = check()
            ops[f"verify_s/{label}"] = perf() - t0
            if not ok:
                self.fail(f"{label}: check failed")
        self.round_fps.append({label: automaton_fingerprint(a) for label, a in self.autos.items()})
        return ops

    def finish(self):
        sa = self.sa
        rng = self.rng(1)
        bad = set()
        built = reachable = 0
        states = {}
        for label, a in self.autos.items():
            texts = self._texts(label)
            if label.endswith("any-level"):
                oracle = lambda p, texts=texts: sa.is_any_subsequence(p, texts)  # noqa: E731
            else:
                oracle = lambda p, texts=texts: sa.is_common_subsequence(p, texts)  # noqa: E731
            patterns = check_patterns(rng, texts, DNA, self.sizes["check_patterns"])
            problems = automaton_problems(sa, a, patterns, oracle)
            if problems:
                bad.add(label)
                self.fail(f"{label}: " + "; ".join(problems))
            r = sa.reachable_states(a)
            states[label] = {"built": a.state_count, "reachable": r}
            built += a.state_count
            reachable += r
        self.counts = {"multi.states_built": built, "multi.states_reachable": reachable}
        self.states = states
        self.check_rounds(self.round_fps, bad)

    def details(self, rounds):
        return {"states": self.states}


WORKLOADS = {w.name: w for w in (Build, Serve, Verify, Multi)}
