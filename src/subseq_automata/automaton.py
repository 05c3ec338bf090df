"""Deterministic automata with default transitions: model, runner, metrics, IO.

A state's regular transitions are labeled with alphabet symbols and consume
one pattern character. A state may additionally carry one unlabeled default
transition, taken only when no regular transition matches the current
character, and consuming nothing. Every edge must move strictly forward under
the automaton's state order, so runs terminate and the default-edge graph is
acyclic. Every state accepts: the languages modelled here are
subsequence-closed, so a pattern is accepted exactly when it is consumed.

The automaton is immutable after construction; concurrent read-only runs on a
shared instance are safe.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K


class ParameterError(ValueError):
    """Invalid construction parameter (e.g. k outside [2, sigma])."""


class DocumentError(ValueError):
    """Malformed, unsupported, or invariant-breaking automaton document."""


DOCUMENT_VERSION = 1


def _code_point_table(index: dict, fill: int) -> np.ndarray:
    """An int32 lookup over code points: each single-character key of
    ``index`` maps to its value, every other code point to ``fill``. Its last
    entry stands for every code point above the largest key's (see
    :func:`_look_up_code_points`)."""
    points = _code_points("".join(index))
    table = np.full(int(points.max()) + 2 if points.shape[0] else 1, fill, dtype=np.int32)
    table[points] = np.fromiter(index.values(), dtype=np.int32, count=len(index))
    return table


def _code_points(text: str) -> np.ndarray:
    """The code point of each character of ``text``, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _look_up_code_points(table: np.ndarray, text: str) -> np.ndarray:
    """``table``'s entry for each character of ``text``, lone surrogates included."""
    return table.take(_code_points(text), mode="clip")


@dataclass(frozen=True)
class Alphabet:
    """Sorted, distinct symbols with their dense ids.

    ``symbols[i]`` is the character for id ``i``; ``index`` maps back. Symbols
    are single code points, sorted ascending, so id order equals code-point
    order.
    """

    symbols: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)
    _table: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        # The entries are single characters iff they are the characters of
        # their concatenation, and then distinct and sorted iff its code
        # points strictly increase.
        symbols = self.symbols
        try:
            joined = "".join(symbols)
        except TypeError:  # an entry that is not a str
            joined = None
        if joined is None or len(joined) != len(symbols) or tuple(joined) != tuple(symbols):
            c = next(c for c in symbols if not isinstance(c, str) or len(c) != 1)
            raise ValueError(f"alphabet entries must be single characters, got {c!r}")
        points = _code_points(joined)
        if (points[1:] <= points[:-1]).any():
            raise ValueError("alphabet symbols must be distinct and sorted")
        object.__setattr__(self, "_index", dict(zip(symbols, range(len(symbols)))))

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        return cls.from_texts([text])

    @classmethod
    def from_texts(cls, texts) -> "Alphabet":
        """The symbols occurring in ``texts``: their code points (lone
        surrogates included, as :meth:`codes` reads them) are marked in one
        bool array up to the largest, at most 0x110000 entries (1.06 MiB)."""
        points = [_code_points(t) for t in texts]
        marks = np.zeros(max((int(p.max()) + 1 for p in points if p.shape[0]), default=0), dtype=bool)
        for p in points:
            marks[p] = True
        return cls(tuple(map(chr, marks.nonzero()[0].tolist())))

    @property
    def index(self) -> dict:
        return self._index

    def code(self, ch: str) -> int | None:
        return self._index.get(ch)

    def codes(self, text: str) -> np.ndarray:
        """Dense ids for ``text``, with -1 for characters outside the alphabet.

        Code points are looked up in an int32 table over [0, largest symbol's
        code point + 1], made on first use and kept: at most 0x110001 entries
        (4.25 MiB) when U+10FFFF is a symbol. Lone surrogates are code points
        like any other.
        """
        table = self._table
        if table is None:
            table = _code_point_table(self._index, -1)
            object.__setattr__(self, "_table", table)
        return _look_up_code_points(table, text)

    def char(self, i: int) -> str:
        return self.symbols[i]

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, ch) -> bool:
        return ch in self._index


@dataclass(frozen=True)
class SizeMetrics:
    states: int
    regular_transitions: int
    default_transitions: int
    size_total: int
    longest_default_chain: int


@dataclass
class RunOutcome:
    """Result of running one pattern.

    ``consumed_targets`` has one entry per consumed character (the state
    reached by its consuming transition); ``defaults_per_char`` counts the
    default edges followed immediately before that character was consumed.
    ``reject_position`` is the index of the first pattern character that could
    not be consumed, or None.
    """

    accepted: bool
    consumed_targets: list[int]
    defaults_per_char: list[int]
    reject_position: int | None


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]


def state_dims(meta: dict) -> tuple[int, ...] | None:
    """Per-coordinate value range for product-state automata, else None.

    "any-level" automata extend every coordinate by one dead-sentinel value.
    """
    if "lengths" not in meta:
        return None
    lengths = tuple(int(x) for x in meta["lengths"])
    if meta.get("variant") == "any-level":
        return tuple(x + 1 for x in lengths)
    return lengths


def _digits(x: np.ndarray, dims: tuple[int, ...]):
    """The 1-based coordinates of 0-based mixed-radix numbers ``x`` over
    ``dims`` (no zero), last first: q = x // d, digit = x - q·d + 1. The
    origin's x = -1 yields d per coordinate; callers test ``x < 0`` for it."""
    for d in reversed(dims):
        q = x // d
        yield x - q * d + 1
        x = q


def _decode_ids(ids: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Vectorized mixed-radix decode; origin (id 0) maps to the all-zero row."""
    out = np.zeros((len(ids), len(dims)), dtype=np.int64)
    if 0 in dims:  # a zero-length coordinate leaves only the origin
        return out
    x = np.asarray(ids, dtype=np.int64) - 1
    for i, digit in zip(range(len(dims) - 1, -1, -1), _digits(x, dims)):
        out[:, i] = digit
    out[x < 0] = 0
    return out


def _encode_ids(coords, dims: tuple[int, ...]):
    """Inverse of :func:`_decode_ids` on non-origin states: ``coords`` holds
    one array per coordinate, the last running fastest."""
    ids = 0
    for x, d in zip(coords, dims):
        ids = ids * d + (x - 1)
    return ids + 1


class Automaton:
    """Dense-state automaton: CSR transitions, per-state optional default
    (-1 for none), every state accepting. ``meta`` carries the variant and
    the text dimensions, which fix the state order (see :func:`validate`).

    Construction does not validate; call :func:`validate` (the builders do).
    """

    initial = 0

    __slots__ = ("alphabet", "offsets", "syms", "targets", "defaults", "meta", "_key")

    def __init__(self, alphabet, offsets, syms, targets, defaults, meta):
        self.alphabet = alphabet
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.syms = np.asarray(syms, dtype=np.int32)
        self.targets = np.asarray(targets, dtype=np.int32)
        self.defaults = np.asarray(defaults, dtype=np.int32)
        self.meta = dict(meta)
        self._key = None

    @property
    def key(self) -> np.ndarray:
        """The CSR keys ``source * sigma + symbol`` of the transitions, in CSR
        order (strictly increasing once validated): int32 while
        ``state_count * sigma < 2**31``, read-only, made on first use and kept."""
        key = self._key
        if key is None:
            sigma, counts = len(self.alphabet), np.diff(self.offsets)
            dtype = np.int32 if self.state_count * sigma < 2**31 else np.int64
            key = np.arange(self.state_count, dtype=dtype).repeat(counts) * dtype(sigma) + self.syms
            key.flags.writeable = False
            self._key = key
        return key

    @property
    def state_count(self) -> int:
        return len(self.offsets) - 1

    def transitions(self, s: int) -> list[tuple[int, int]]:
        lo, hi = int(self.offsets[s]), int(self.offsets[s + 1])
        return list(zip(self.syms[lo:hi].tolist(), self.targets[lo:hi].tolist()))

    def default(self, s: int) -> int | None:
        d = int(self.defaults[s])
        return None if d < 0 else d

    def transition(self, s: int, sym_id: int) -> int | None:
        """Regular transition target for ``sym_id`` out of ``s``, if any."""
        lo, hi = int(self.offsets[s]), int(self.offsets[s + 1])
        j = lo + bisect_left(self.syms[lo:hi].tolist(), sym_id)
        if j < hi and self.syms[j] == sym_id:
            return int(self.targets[j])
        return None

    def run(self, pattern: str) -> RunOutcome:
        return run(self, pattern)

    def validate(self) -> ValidationReport:
        return validate(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automaton):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.meta == other.meta
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.syms, other.syms)
            and np.array_equal(self.targets, other.targets)
            and np.array_equal(self.defaults, other.defaults)
        )

    def __repr__(self) -> str:
        return (
            f"Automaton(variant={self.meta.get('variant')!r}, states={self.state_count}, "
            f"transitions={int(self.offsets[-1])}, defaults={int((self.defaults >= 0).sum())})"
        )


# ---------------------------------------------------------------------------
# validation


def validate(a: Automaton) -> ValidationReport:
    """Check structural invariants and the forward-order discipline.

    The order comes from the metadata: state ids increase along every edge of
    a single-text automaton; along every edge of a product-state automaton
    each coordinate is non-decreasing and their total strictly increases.
    Violations are reported as data, not raised.
    """
    v: list[str] = []
    n_states = a.state_count
    sigma = len(a.alphabet)

    if n_states < 1:
        return ValidationReport(False, ["automaton must have at least one state"])
    if len(a.offsets) != n_states + 1 or a.offsets[0] != 0:
        return ValidationReport(False, ["malformed transition offsets"])
    if np.any(np.diff(a.offsets) < 0) or a.offsets[-1] != len(a.syms) or len(a.syms) != len(a.targets):
        return ValidationReport(False, ["malformed transition arrays"])
    if len(a.defaults) != n_states:
        return ValidationReport(False, ["defaults array must have one entry per state"])

    # One pass over the transitions per violation class gives the indices its
    # messages are made from. Ids are int32, so their uint32 views test a
    # range [0, bound) in one compare; state ids fit int32 because targets do.
    syms, targets, defaults = a.syms, a.targets, a.defaults
    bad_syms = np.flatnonzero(syms.view(np.uint32) >= sigma)

    # determinism: per-state symbol lists must be strictly increasing. step[j]
    # compares entry j with entry j - 1, and is 1 at each state's first entry
    # (and past the last); symbols out of range may differ by more than int32
    step = np.empty(len(syms) + 1, dtype=np.int64 if bad_syms.shape[0] else np.int32)
    np.subtract(syms[1:], syms[:-1], out=step[1:-1], dtype=step.dtype)
    step[a.offsets] = 1
    bad = np.flatnonzero(step <= 0)
    order = step[bad]
    dup, unsorted = bad[order == 0], bad[order < 0]
    del step

    bad_targets = np.flatnonzero(targets.view(np.uint32) >= n_states)
    bad_defaults = np.flatnonzero(defaults.view(np.uint32) + np.uint32(1) > n_states)  # -1 wraps to 0

    # forward order, over the edges whose ends are in range
    sources = np.repeat(np.arange(n_states, dtype=np.int32), np.diff(a.offsets))
    dims = state_dims(a.meta)
    if dims is None:
        back = np.flatnonzero(targets <= sources)  # and the negative targets
        back = back[targets[back] >= 0]
        # the defaults in [0, s]: -1 and the other negatives wrap above every s
        dback = np.flatnonzero(defaults.view(np.uint32) <= np.arange(n_states, dtype=np.uint32))
    else:
        back = np.flatnonzero(~_product_forward(sources, targets, dims))
        back = back[targets[back].view(np.uint32) < n_states]
        dfwd = _product_forward(np.arange(n_states, dtype=np.int32), np.maximum(defaults, 0), dims)
        dback = np.flatnonzero(~dfwd)
        dback = dback[defaults[dback].view(np.uint32) < n_states]
    del sources

    def at(entries):  # each entry with the state it belongs to
        return zip(np.searchsorted(a.offsets, entries, side="right") - 1, entries) if entries.shape[0] else ()

    v += [f"state {s}: symbol id {syms[j]} outside alphabet of size {sigma}" for s, j in at(bad_syms)]
    v += [f"state {s}: duplicate label {_sym_repr(a, syms[j])}" for s, j in at(dup)]
    v += [f"state {s}: unsorted labels at entry {j}" for s, j in at(unsorted)]
    v += [f"state {s}: transition target {targets[j]} out of range" for s, j in at(bad_targets)]
    v += [f"state {s}: default target {defaults[s]} out of range" for s in bad_defaults]
    v += [
        f"state {s}: non-forward transition to {targets[j]} (label {_sym_repr(a, syms[j])})"
        for s, j in at(back)
    ]
    v += [f"state {s}: non-forward default to {defaults[s]}" for s in dback]
    return ValidationReport(not v, v)


# Edges _product_forward decodes per slice, at most; bounds its temporaries
# independently of the automaton's size.
_EDGE_SLICE = 1 << 16


def _product_forward(sources, targets, dims: tuple[int, ...]) -> np.ndarray:
    """Per edge ``sources[j] -> targets[j]`` between product states: every
    coordinate non-decreasing and their sum strictly increasing. Decodes both
    ends a coordinate at a time with :func:`_digits`, over slices of at most
    ``_EDGE_SLICE`` edges, so the temporaries stay a few arrays of a slice.
    The origin (all zeros) reaches every other state and no state reaches it."""
    fwd = np.zeros(len(sources), dtype=bool)
    if 0 in dims:  # every id decodes to the origin: no edge moves forward
        return fwd
    for lo in range(0, len(sources), _EDGE_SLICE):
        src, tgt = sources[lo : lo + _EDGE_SLICE] - 1, targets[lo : lo + _EDGE_SLICE] - 1
        ok = np.ones(len(src), dtype=bool)
        delta = np.zeros(len(src), dtype=src.dtype)
        for src_x, tgt_x in zip(_digits(src, dims), _digits(tgt, dims)):
            ok &= tgt_x >= src_x
            tgt_x -= src_x
            delta += tgt_x
        ok &= delta > 0
        ok |= src < 0
        ok &= tgt >= 0
        fwd[lo : lo + _EDGE_SLICE] = ok
    return fwd


def assemble(alphabet, offsets, syms, targets, defaults, meta) -> Automaton:
    """The automaton over these arrays, validated: raises ValueError naming
    the first violations instead of returning it."""
    a = Automaton(alphabet, offsets, syms, targets, defaults, meta)
    report = validate(a)
    if not report.ok:
        raise ValueError("built automaton violates its invariants: " + "; ".join(report.violations[:3]))
    return a


def _sym_repr(a: Automaton, sym_id: int) -> str:
    if 0 <= sym_id < len(a.alphabet):
        return repr(a.alphabet.char(int(sym_id)))
    return f"#{sym_id}"


# ---------------------------------------------------------------------------
# running patterns


def run(a: Automaton, pattern: str) -> RunOutcome:
    """Simulate ``pattern`` deterministically.

    At each character: take the matching regular transition if present;
    otherwise follow the default (consuming nothing) and retry; otherwise
    reject at the current pattern index. Characters outside the automaton's
    alphabet reject immediately. Every state accepts, so a pattern is
    accepted exactly when it is consumed.
    """
    pcodes = a.alphabet.codes(pattern)
    consumed, dcounts, reject = K.run_codes(a.offsets, a.syms, a.targets, a.defaults, pcodes)
    reject = int(reject)
    if reject >= 0:
        return RunOutcome(False, consumed[:reject].tolist(), dcounts[:reject].tolist(), reject)
    return RunOutcome(True, consumed.tolist(), dcounts.tolist(), None)


def size_metrics(a: Automaton) -> SizeMetrics:
    """Exact counts plus the longest chain of consecutive default edges."""
    states = a.state_count
    regular = int(a.offsets[-1])
    dcount = int((a.defaults >= 0).sum())
    chains = K.longest_chain_lengths(a.defaults)
    longest = int(chains.max()) if states else 0
    return SizeMetrics(states, regular, dcount, states + regular + dcount, longest)


def reachable_states(a: Automaton) -> int:
    """Number of states reachable from the initial state.

    A single-string automaton whose every state but the last has a transition
    to the next state reaches them all. Any other automaton is swept once in
    ascending order, which the forward-order invariant (edges only increase
    state ids) makes enough.
    """
    if state_dims(a.meta) is None and len(_successor_edges(a)[0]) == a.state_count - 1:
        return a.state_count
    reach = np.zeros(a.state_count, dtype=bool)
    reach[a.initial] = True
    for s in range(a.state_count):
        if not reach[s]:
            continue
        lo, hi = int(a.offsets[s]), int(a.offsets[s + 1])
        if hi > lo:
            reach[a.targets[lo:hi]] = True
        d = a.defaults[s]
        if d >= 0:
            reach[d] = True
    return int(reach.sum())


def _successor_edges(a: Automaton) -> tuple[np.ndarray, np.ndarray]:
    """The states with a transition to the next state, ascending, and the
    index of the first such transition of each: the transitions are in CSR
    order, so their sources ascend and each state's first one starts a run."""
    sources = np.repeat(np.arange(a.state_count, dtype=np.int32), np.diff(a.offsets))
    edges = np.flatnonzero(a.targets == sources + 1)
    sources = sources[edges]
    first = np.flatnonzero(np.diff(sources, prepend=-1))
    return sources[first], edges[first]


# ---------------------------------------------------------------------------
# document format (versioned JSON)


# States and transitions the document writer formats per block, at most;
# bounds its temporaries independently of the automaton's size.
_BLOCK = 1 << 14
# The line that opens the state lines, and the text that follows the last.
_STATES_OPEN = '  "states": [\n'
_DOCUMENT_CLOSE = "  ]\n}\n"
# A state line: _LINE_OPEN, the default or null, _TRANS_OPEN, the
# [symbol,target] pairs joined by commas, _LINE_CLOSE.
_LINE_OPEN = '    {"default":'
_TRANS_OPEN = ',"trans":['
_LINE_CLOSE = "]}"


def serialize(a: Automaton) -> str:
    """Versioned JSON document; ``deserialize`` restores an equal automaton.

    One line per state keeps large automata diffable and byte-deterministic.
    The document is the concatenation of :func:`_document_blocks`.
    """
    return "".join(_document_blocks(a))


def _document_blocks(a: Automaton):
    """The document of :func:`serialize` in pieces: the header, the state
    lines in blocks of at most ``_BLOCK`` states and ``_BLOCK`` transitions (a
    state with more transitions than that is a block of its own), the close.

    A block starts as its state lines with every value slot ``w`` NUL bytes
    wide, ``w`` the width of its widest value (:func:`_state_lines`, cached
    per width). The digits of its defaults, then of its symbols, then of its
    targets go into their slots right-aligned (:func:`_fill_digits`), at
    slot ends computed from the line lengths, and one ``translate`` deletes
    the NULs left in front of the narrower values.
    """
    yield _document_head(a.meta, a.alphabet, a.state_count)

    offsets, n_states = a.offsets, a.state_count
    templates: dict[int, dict[int, str]] = {}  # by slot width, then by line key
    s0 = 0
    while s0 < n_states:
        t0 = int(offsets[s0])
        s1 = int(np.searchsorted(offsets, t0 + _BLOCK, side="right")) - 1
        s1 = min(max(s1, s0 + 1), s0 + _BLOCK, n_states)
        t1 = int(offsets[s1])
        counts = np.diff(offsets[s0 : s1 + 1])
        defaults = a.defaults[s0:s1]
        has_default = defaults >= 0
        values = defaults[has_default], a.syms[t0:t1], a.targets[t0:t1]
        width = max(len(str(x)) for v in values for x in (v.max(initial=0), v.min(initial=0)))
        keys = (2 * counts + has_default).tolist()
        lines = _state_lines(templates.setdefault(width, {}), keys, "\0" * width, s1 == n_states)
        block = bytearray(lines, "ascii")

        # a line: the fixed text, its default's slot or null, its pairs and
        # the commas between them
        default_width = np.where(has_default, width, len("null"))
        pair_width = len("[,],") + 2 * width
        fixed = len(_LINE_OPEN + _TRANS_OPEN + _LINE_CLOSE + ",\n")
        lengths = fixed + default_width + pair_width * counts - (counts > 0)
        starts = np.cumsum(lengths) - lengths
        # where pair 0 of each line would start if its pairs were numbered
        # from the block's first transition
        pairs_at = starts + len(_LINE_OPEN + _TRANS_OPEN) + default_width
        pairs_at -= pair_width * (offsets[s0:s1] - t0)
        symbol_ends = np.repeat(pairs_at, counts) + pair_width * np.arange(t1 - t0) + len("[") + width
        ends = starts[has_default] + len(_LINE_OPEN) + width, symbol_ends, symbol_ends + len(",") + width
        buf = np.frombuffer(block, dtype=np.uint8)
        for slot_ends, slot_values in zip(ends, values):  # symbols take fewer passes
            _fill_digits(buf, slot_ends, slot_values)
        yield block.translate(None, b"\0").decode("ascii")
        s0 = s1
    yield _DOCUMENT_CLOSE


def _fill_digits(buf: np.ndarray, ends: np.ndarray, values: np.ndarray) -> None:
    """Write each of ``values`` in decimal into the NUL bytes of ``buf`` that
    end just before its entry of ``ends``, right-aligned: the last digits of
    all values in one pass, then the digits before them, and so on. Bytes in
    front of a value stay NUL, but for a negative value's minus sign."""
    negative = values < 0 if values.min(initial=0) < 0 else None
    if negative is not None:
        values = np.abs(values.astype(np.int64))
        signs = ends[negative] - 1 - np.searchsorted(10 ** np.arange(19), values[negative], side="right")
    columns = len(str(values.max(initial=0)))
    starts = ends - columns
    for j in range(columns):  # the j-th digit from the right
        rest = values // 10
        digit = (values - 10 * rest).astype(np.uint8)
        digit += ord("0")
        if j:
            digit *= values > 0
        buf[columns - 1 - j :][starts] = digit
        values = rest
    if negative is not None:
        buf[signs] = ord("-")


def _document_head(meta: dict, alphabet: Alphabet, state_count: int) -> str:
    """The document's text up to its first state line: one ``"key": value``
    line per metadata field, in a fixed order, then the states' opening."""
    head: dict = {"version": DOCUMENT_VERSION, "variant": meta.get("variant")}
    if "lengths" in meta:
        head["lengths"] = [int(x) for x in meta["lengths"]]
    else:
        head["n"] = int(meta.get("n", state_count - 1))
    k = meta.get("k")
    head["k"] = None if k is None else int(k)
    head["sigma"] = int(meta.get("sigma", len(alphabet)))
    head["alphabet"] = list(alphabet.symbols)
    fields = "".join(f"  {json.dumps(key)}: {json.dumps(value)},\n" for key, value in head.items())
    return "{\n" + fields + _STATES_OPEN


def _state_lines(templates: dict, keys: list, slot: str, last: bool) -> str:
    """The state lines of one block with ``slot`` where each value goes, one
    line per key ``2 * transition count + has-default``: the writer's
    skeleton for a slot of NUL bytes as wide as the block's widest value,
    the reader's for ``slot=""``. ``templates`` caches the lines by key
    across blocks, so it holds one slot's lines only."""
    for key in set(keys).difference(templates):
        count, default = divmod(key, 2)
        trans = ",".join([f"[{slot},{slot}]"] * count)
        templates[key] = _LINE_OPEN + (slot if default else "null") + _TRANS_OPEN + trans + _LINE_CLOSE
    return ",\n".join(map(templates.__getitem__, keys)) + ("\n" if last else ",\n")


def _is_int(x) -> bool:
    """A JSON integer; JSON booleans are Python ints but never valid here."""
    return isinstance(x, int) and not isinstance(x, bool)


def deserialize(text: str) -> Automaton:
    """The automaton of a document, validated; raises :class:`DocumentError`
    with one line naming what is wrong otherwise.

    A document byte-identical to :func:`serialize` of the automaton it
    decodes to is read by a canonical reader that works on blocks of lines
    with array operations. Every other document, hand-edited or hostile, is
    read by the general JSON path, which alone produces the error messages.
    Both give equal automata on the documents both accept.
    """
    a = _read_canonical(text)
    return _deserialize_json(text) if a is None else a


def _document_meta(doc: dict) -> tuple[dict, Alphabet]:
    """The metadata and alphabet a parsed document's header declares, after
    checking every header field; raises :class:`DocumentError`."""
    version = doc.get("version")
    if not _is_int(version) or version != DOCUMENT_VERSION:
        raise DocumentError(f"unsupported document version: {version!r}")

    if not isinstance(doc.get("variant"), str):
        raise DocumentError("missing or non-string 'variant'")
    meta: dict = {"variant": doc["variant"]}
    if "n" in doc and "lengths" in doc:
        raise DocumentError("document must carry 'n' or 'lengths', not both")
    if "lengths" in doc:
        lengths = doc["lengths"]
        if not isinstance(lengths, list) or not all(_is_int(x) and x >= 0 for x in lengths):
            raise DocumentError("'lengths' must be a list of non-negative integers")
        meta["lengths"] = lengths
    elif "n" in doc:
        if not _is_int(doc["n"]) or doc["n"] < 0:
            raise DocumentError("'n' must be a non-negative integer")
        meta["n"] = doc["n"]
    else:
        raise DocumentError("document must carry 'n' or 'lengths'")

    k = doc.get("k")
    if k is not None and not _is_int(k):
        raise DocumentError("'k' must be an integer or null")
    meta["k"] = k

    alphabet_field = doc.get("alphabet")
    if not isinstance(alphabet_field, list):
        raise DocumentError("missing 'alphabet' array")
    try:
        alphabet = Alphabet(tuple(alphabet_field))
    except ValueError as e:
        raise DocumentError(str(e)) from None

    sigma = doc.get("sigma", len(alphabet))
    if not _is_int(sigma) or sigma < len(alphabet):
        raise DocumentError("'sigma' must be an integer >= the alphabet size")
    if sigma > 0x110000:  # no alphabet of single code points is larger
        raise DocumentError(f"'sigma' {sigma} exceeds 1114112, the number of Unicode code points")
    meta["sigma"] = sigma
    from .variants import variant_of  # at call time: variants imports this module
    try:
        v = variant_of(meta)  # the variant, its text count and k, as the registry has them
    except ParameterError as e:
        raise DocumentError(str(e)) from None
    key = "n" if v.max_texts == 1 else "lengths"  # the one a document of the row's arity carries
    if key not in meta:
        raise DocumentError(f"a {v.name!r} document must carry {key!r}")
    return meta, alphabet


def _deserialize_json(text: str) -> Automaton:
    """The general reader: ``json.loads``, then one check per state."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    meta, alphabet = _document_meta(doc)
    variant = meta["variant"]

    states = doc.get("states")
    if not isinstance(states, list) or not states:
        raise DocumentError("'states' must be a non-empty array")

    expected = _expected_state_count(meta)
    if len(states) != expected:
        raise DocumentError(
            f"variant {variant!r} with these dimensions needs {expected} states, document has {len(states)}"
        )

    offsets = [0]
    syms: list[int] = []
    targets: list[int] = []
    defaults: list[int] = []
    for s, entry in enumerate(states):
        if not isinstance(entry, dict):
            raise DocumentError(f"state {s}: entry must be an object")
        d = entry.get("default")
        if d is not None and not (_is_int(d) and d >= 0):
            raise DocumentError(f"state {s}: 'default' must be a state id or null")
        defaults.append(-1 if d is None else d)
        trans = entry.get("trans")
        if not isinstance(trans, list):
            raise DocumentError(f"state {s}: missing 'trans' array")
        for pair in trans:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(_is_int(x) for x in pair)
            ):
                raise DocumentError(f"state {s}: transitions must be [symbol-index, target-id] pairs")
            syms.append(pair[0])
            targets.append(pair[1])
        offsets.append(len(syms))
    # refused before the int32 arrays are made, which would wrap or overflow
    for what, values in (("symbol", syms), ("target", targets), ("default", defaults)):
        for x in (min(values, default=0), max(values, default=0)):
            if not -(2**31) <= x < 2**31:
                raise DocumentError(f"{what} id {x} does not fit in int32")

    a = Automaton(
        alphabet,
        np.array(offsets, dtype=np.int64),
        np.array(syms, dtype=np.int32),
        np.array(targets, dtype=np.int32),
        np.array(defaults, dtype=np.int32),
        meta,
    )
    report = validate(a)
    if not report.ok:
        raise DocumentError("document violates automaton invariants: " + "; ".join(report.violations[:5]))
    return a


# Characters of state lines the canonical reader decodes per block, about;
# a block ends at a line end, so a longer line is a block of its own.
_READ_BLOCK = 1 << 18


def _read_canonical(text: str) -> Automaton | None:
    """The valid automaton whose :func:`serialize` is ``text``, or None.

    The header is parsed by ``json.loads`` and must equal the header the
    writer prints for the metadata it declares. The state lines are read
    from their ASCII bytes in blocks of whole lines (see
    :func:`_read_state_lines`), into arrays allocated once the line count
    matches the header's. Automata that fail :func:`validate` give None.
    """
    if not isinstance(text, str) or not text.isascii():
        return None
    lo = text.find("\n" + _STATES_OPEN) + 1
    if lo == 0 or text[lo - 2] != ",":
        return None
    try:
        doc = json.loads(text[: lo - 2] + "}")
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    try:
        meta, alphabet = _document_meta(doc)
    except DocumentError:
        return None
    n_states = _expected_state_count(meta)
    lo += len(_STATES_OPEN)
    hi = len(text) - len(_DOCUMENT_CLOSE)
    if text[:lo] != _document_head(meta, alphabet, n_states):
        return None
    if hi <= lo or not text.endswith("\n" + _DOCUMENT_CLOSE):
        return None
    if text.count("\n", lo, hi) != n_states:  # checked before anything of that size is made
        return None
    n_trans = text.count("[", lo, hi) - n_states
    if n_trans < 0:
        return None

    offsets = np.zeros(n_states + 1, dtype=np.int64)
    syms = np.empty(n_trans, dtype=np.int32)
    targets = np.empty(n_trans, dtype=np.int32)
    defaults = np.full(n_states, -1, dtype=np.int32)
    templates: dict[int, str] = {}
    s0 = t0 = 0
    while lo < hi:
        end = text.rfind("\n", lo, min(lo + _READ_BLOCK, hi)) + 1 or text.find("\n", lo, hi) + 1
        block = _read_state_lines(text[lo:end].encode("ascii"), templates, end == hi)
        if block is None:
            return None
        counts, has_default, pair_values, default_values = block
        s1, t1 = s0 + len(counts), t0 + len(pair_values) // 2
        np.cumsum(counts, out=offsets[s0 + 1 : s1 + 1])
        offsets[s0 + 1 : s1 + 1] += t0
        syms[t0:t1] = pair_values[0::2]
        targets[t0:t1] = pair_values[1::2]
        defaults[s0:s1][has_default] = default_values
        s0, t0, lo = s1, t1, end

    a = Automaton(alphabet, offsets, syms, targets, defaults, meta)
    return a if validate(a).ok else None


def _read_state_lines(block: bytes, templates: dict, last: bool):
    """Per-line transition counts and has-default flags, the symbol and
    target values interleaved in document order, and the defaults, of one
    block of whole state lines; None unless the block is exactly as the
    writer prints it.

    The counts come from the ``[`` per line, the flags from whether a line's
    default is ``null``. The bytes left when the digits are deleted must
    equal the writer's templates for those lines with the value slots empty,
    and every digit run must fill one slot: the slots are the only places
    where the bytes ``:`` ``,`` (a default), ``[`` ``,`` (a symbol) or ``,``
    ``]`` (a target) meet, and there must be as many runs as slots. A run
    with a leading zero, more than 10 digits or a value of 2**31 or more is
    refused.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    counts = np.diff(np.searchsorted(np.flatnonzero(buf == ord("[")), ends), prepend=0) - 1
    has_default = buf.take(starts + len(_LINE_OPEN), mode="clip") != ord("n")
    skeleton = _state_lines(templates, (2 * counts + has_default).tolist(), "", last)

    if block.translate(None, b"0123456789") != skeleton.encode("ascii"):
        return None
    digits = buf - ord("0")  # wraps around for every byte but a digit
    is_digit = digits < 10
    edges = np.flatnonzero(np.diff(is_digit, prepend=False))
    first, stop = edges[0::2], edges[1::2]  # the block ends in a newline, so every run stops
    if len(first) != 2 * int(counts.sum()) + int(has_default.sum()):
        return None
    before, after = buf.take(first - 1, mode="wrap"), buf[stop]
    is_default = (before == ord(":")) & (after == ord(","))
    in_slot = is_default | ((before == ord("[")) & (after == ord(",")))
    in_slot |= (before == ord(",")) & (after == ord("]"))
    width = stop - first
    max_width = int(width.max(initial=0))
    if not in_slot.all() or max_width > 10 or ((width > 1) & (buf[first] == ord("0"))).any():
        return None

    values = np.zeros(len(first), dtype=np.int64)
    for j in range(1, max_width + 1):  # the j-th digit from the right
        digit = digits.take(stop - j, mode="clip").astype(np.int64)
        digit[width < j] = 0
        values += digit * 10 ** (j - 1)
    if values.max(initial=0) >= 2**31:
        return None
    return counts, has_default, values[~is_default], values[is_default]


def _expected_state_count(meta: dict) -> int:
    dims = state_dims(meta)
    return meta["n"] + 1 if dims is None else math.prod(dims) + 1


# ---------------------------------------------------------------------------
# DOT export


def _dot_label_char(ch: str) -> str:
    o = ord(ch)
    if ch == '"':
        return '\\"'
    if ch == "\\":
        return "\\\\"
    if 32 <= o < 127:
        return ch
    return "\\\\x%02x" % o


def state_labels(a: Automaton, ids) -> list[str]:
    """Display labels of the states ``ids``: the id itself, or the coordinate
    tuple ``(x,y,...)`` of a product automaton's state."""
    dims = state_dims(a.meta)
    if dims is None:
        return [str(int(s)) for s in ids]
    coords = _decode_ids(np.asarray(ids, dtype=np.int64), dims)
    return ["(" + ",".join(map(str, row)) + ")" for row in coords.tolist()]


def export_dot(a: Automaton) -> str:
    """Deterministic graphviz rendering: one node line per state in id order
    (every state accepting, so drawn double), regular edges labeled, default
    edges dashed and unlabeled."""
    lines = ["digraph subsequence_automaton {", "  rankdir=LR;"]
    labels = state_labels(a, range(a.state_count))
    for s, label in enumerate(labels):
        lines.append(f'  {s} [shape=doublecircle label="{label}"];')
    for s in range(a.state_count):
        lo, hi = int(a.offsets[s]), int(a.offsets[s + 1])
        for j in range(lo, hi):
            ch = _dot_label_char(a.alphabet.char(int(a.syms[j])))
            lines.append(f'  {s} -> {int(a.targets[j])} [label="{ch}"];')
        d = a.default(s)
        if d is not None:
            lines.append(f"  {s} -> {d} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
