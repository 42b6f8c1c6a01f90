"""Trace samples, their text formats, and automaton persistence.

Two line-oriented trace formats are supported.  The classic format is

    [num_traces alphabet_size]      <- optional header
    label length sym1 sym2 ... symN

with label 1 for positive traces and 0 for negative ones, and symbols as
non-negative integers.  The extended format keeps the same line shape but
additionally allows "?" as a label (unlabeled trace) and annotated symbol
tokens ``sym:a1,a2,...,ak/t`` where the ``a_i`` are finite real-valued
attributes and ``t`` an optional finite real regression target; ``sym/t``
attaches a target without attributes.  Every classic file is a valid extended file.

A two-token first line is read as a data line when it forms a valid one
(that needs length 0, e.g. "1 0" is a positive empty trace) and as the
header otherwise.  When a header is present its trace count and alphabet
size are enforced.

This module also renders automata to Graphviz DOT and saves/loads them in a
line-oriented model format, see :func:`save_model`.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import isfinite, nan

from . import automaton
from .automaton import MAX_COUNT, Automaton, StateAggregate, StateId, Symbol, _record
from .errors import ModelFormatError, SampleFormatError

MODEL_HEADER = "flexautomata-model 1"

# A sample's alphabet gets one name per symbol up to the largest symbol seen,
# so a single huge symbol would cost memory in proportion to its value.
MAX_ALPHABET_SIZE = 2**16


class TraceLabel(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNLABELED = "unlabeled"


@_record
class SymbolInstance:
    """One occurrence of a symbol inside a trace, with optional annotations."""

    symbol: Symbol
    attributes: tuple[float, ...] = ()
    target: float | None = None


@_record
class Trace:
    label: TraceLabel
    symbols: tuple[SymbolInstance, ...]

    @property
    def word(self) -> tuple[Symbol, ...]:
        return tuple(s.symbol for s in self.symbols)


@dataclass(frozen=True)
class Sample:
    """A list of traces plus the alphabet name table they are indexed against.

    ``attribute_arity`` is the common attribute count of annotated symbols;
    0 when no symbol carries attributes.
    """

    traces: tuple[Trace, ...]
    alphabet: tuple[str, ...]
    attribute_arity: int = 0

    @property
    def positive_words(self) -> list[tuple[Symbol, ...]]:
        return [t.word for t in self.traces if t.label is TraceLabel.POSITIVE]

    @property
    def negative_words(self) -> list[tuple[Symbol, ...]]:
        return [t.word for t in self.traces if t.label is TraceLabel.NEGATIVE]


_PLAIN_LABELS = {"1": TraceLabel.POSITIVE, "0": TraceLabel.NEGATIVE}
_EXT_LABELS = {**_PLAIN_LABELS, "?": TraceLabel.UNLABELED}


def _finite(token: str) -> float:
    """A real number; ``nan`` and infinities raise ValueError like any non-number."""
    value = float(token)
    if not isfinite(value):
        raise ValueError(token)
    return value


def _symbol_part(part: str, token: str, extended: bool, line_no: int
                 ) -> tuple[Symbol, tuple[float, ...]]:
    """The symbol and attributes of ``token``, whose text before any ``/target`` is ``part``."""
    attrs: tuple[float, ...] = ()
    sym_part = part
    if extended and ":" in part:
        sym_part, _, attr_part = part.partition(":")
        if attr_part:
            try:
                attrs = tuple(_finite(x) for x in attr_part.split(","))
            except ValueError:
                raise SampleFormatError(f"bad attribute list {attr_part!r}", line_no) from None
    try:
        sym = int(sym_part)
    except ValueError:
        raise SampleFormatError(f"bad symbol token {token!r}", line_no) from None
    if sym < 0:
        raise SampleFormatError(f"negative symbol {sym}", line_no)
    if sym >= MAX_ALPHABET_SIZE:
        raise SampleFormatError(
            f"symbol {sym} exceeds the alphabet bound {MAX_ALPHABET_SIZE}", line_no
        )
    return sym, attrs


def _valid_data_first_line(tokens: list[str], labels: dict[str, TraceLabel]) -> bool:
    # Only a zero-length trace can fit in two tokens.
    return len(tokens) == 2 and tokens[0] in labels and tokens[1] == "0"


def _parse_sample(text: str, extended: bool) -> Sample:
    labels = _EXT_LABELS if extended else _PLAIN_LABELS
    declared_count = None
    declared_size = None
    traces: list[Trace] = []
    arity: int | None = None
    max_sym = -1
    # A token without a '/target' part always parses to the same immutable
    # instance, so each distinct one is parsed once per call and then shared.
    shared: dict[str, SymbolInstance] = {}
    # The symbol and attributes of each distinct part before a '/target',
    # parsed once per call.
    heads: dict[str, tuple[Symbol, tuple[float, ...]]] = {}
    # The (symbol, attributes) first made on the current line: only these
    # still need the per-sample checks below, since every earlier one passed.
    fresh: list[tuple[Symbol, tuple[float, ...]]] = []
    for no, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if not tokens:
            continue
        # With no trace and no header yet, this is the first non-blank line.
        if (len(tokens) == 2 and not traces and declared_size is None
                and not _valid_data_first_line(tokens, labels)):
            first = line.strip()
            try:
                declared_count, declared_size = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise SampleFormatError(f"unreadable header {first!r}", no) from None
            if declared_count < 0 or declared_size < 0:
                raise SampleFormatError(f"negative header field in {first!r}", no)
            if declared_size > MAX_ALPHABET_SIZE:
                raise SampleFormatError(
                    f"alphabet size {declared_size} exceeds the bound {MAX_ALPHABET_SIZE}", no
                )
            continue
        if len(tokens) < 2:
            raise SampleFormatError("expected 'label length sym...'", no)
        if tokens[0] not in labels:
            raise SampleFormatError(f"bad label {tokens[0]!r}", no)
        label = labels[tokens[0]]
        try:
            length = int(tokens[1])
        except ValueError:
            raise SampleFormatError(f"bad length {tokens[1]!r}", no) from None
        if length < 0:
            raise SampleFormatError(f"negative length {length}", no)
        if len(tokens) - 2 != length:
            raise SampleFormatError(
                f"declared length {length} but {len(tokens) - 2} symbols", no
            )
        symbols = []
        for token in tokens[2:]:
            inst = shared.get(token)
            if inst is None:
                head, slash, tail = token.rpartition("/")
                if slash and extended:
                    try:
                        target = float(tail)
                    except ValueError:
                        target = nan  # refused below, like a non-finite value
                    if not isfinite(target):
                        raise SampleFormatError(f"bad target value {tail!r}", no)
                    parts = heads.get(head)
                    if parts is None:
                        parts = heads[head] = _symbol_part(head, token, True, no)
                        fresh.append(parts)
                    inst = SymbolInstance(parts[0], parts[1], target)
                else:
                    parts = _symbol_part(token, token, extended, no)
                    fresh.append(parts)
                    inst = shared[token] = SymbolInstance(*parts)
            symbols.append(inst)
        if fresh:
            for sym, attrs in fresh:
                if attrs:
                    if arity is None:
                        arity = len(attrs)
                    elif len(attrs) != arity:
                        raise SampleFormatError(
                            f"attribute arity {len(attrs)} != {arity} seen earlier", no
                        )
                # Every symbol up to max_sym has passed this check already.
                if sym > max_sym:
                    if declared_size is not None and sym >= declared_size:
                        raise SampleFormatError(
                            f"symbol {sym} outside declared alphabet of size {declared_size}", no
                        )
                    max_sym = sym
            fresh.clear()
        traces.append(Trace(label, tuple(symbols)))

    if declared_count is not None and declared_count != len(traces):
        raise SampleFormatError(
            f"header declares {declared_count} traces but file has {len(traces)}"
        )
    size = declared_size if declared_size is not None else max_sym + 1
    alphabet = tuple(str(i) for i in range(size))
    return Sample(tuple(traces), alphabet, arity or 0)


def parse_abbadingo(text: str) -> Sample:
    """Parse the classic trace format (labels 0/1, bare integer symbols).

    One pass, linear in the text: one split per line and one dict lookup
    per token seen before.  Equal symbol tokens share one immutable
    :class:`SymbolInstance`, parsed and checked against the sample once per
    call.  Lines are split as they are reached, so the parse holds the
    text's lines and the sample, not every line's tokens.
    """
    return _parse_sample(text, extended=False)


def parse_augmented(text: str) -> Sample:
    """Parse the extended trace format (adds '?' labels, attributes, targets).

    One pass, linear in the text.  What a token costs: a token without a
    ``/target`` part, bare ``sym`` or ``sym:attrs``, is one dict lookup once
    it has been seen, since equal such tokens share one immutable
    :class:`SymbolInstance` parsed once per call.  A ``sym/target`` or
    ``sym:attrs/target`` token is one ``rpartition``, one lookup of its part
    before the ``/`` in a per-call table of parts already checked, one
    ``float`` with its finiteness check, and one record.  The checks that
    span the sample, attribute arity and alphabet size, run once per
    distinct bare token or part before a ``/``, when it is first made.
    """
    return _parse_sample(text, extended=True)


_LABEL_TOKENS = {
    TraceLabel.POSITIVE: "1",
    TraceLabel.NEGATIVE: "0",
    TraceLabel.UNLABELED: "?",
}


def _format_symbol(inst: SymbolInstance) -> str:
    token = str(inst.symbol)
    if inst.attributes:
        token += ":" + ",".join(repr(a) for a in inst.attributes)
    if inst.target is not None:
        token += "/" + repr(inst.target)
    return token


def _text_lines(n: int, size: int, rows: Iterable[tuple[TraceLabel, list[str]]]
                ) -> Iterator[str]:
    """The lines, newline included, of ``n`` traces over ``size`` symbols.

    First the header, skipped in the degenerate shapes where it would itself
    read as a valid data line; then per ``(label, symbol tokens)`` row its
    label token, its length and its tokens.
    """
    if not (size == 0 and n <= 1):
        yield f"{n} {size}\n"
    for label, tokens in rows:
        yield " ".join([_LABEL_TOKENS[label], str(len(tokens)), *tokens]) + "\n"


def write_sample(sample: Sample) -> str:
    """Render a sample back to trace-format text.

    Output is always readable by :func:`parse_augmented`, and by
    :func:`parse_abbadingo` when nothing extended is present.  Reals use
    shortest round-trip decimals.
    """
    rows = ((t.label, [_format_symbol(s) for s in t.symbols]) for t in sample.traces)
    return "".join(_text_lines(len(sample.traces), len(sample.alphabet), rows))


def positive_lines(words: Sequence[Sequence[Symbol]], size: int) -> Iterator[str]:
    """The lines of :func:`write_sample` for ``words`` as positive traces over ``size`` symbols.

    No record is built for a word, and no text for more than one line.
    """
    rows = ((TraceLabel.POSITIVE, [str(s) for s in word]) for word in words)
    return _text_lines(len(words), size, rows)


# ---------------------------------------------------------------------------
# DOT rendering


def write_dot(a: Automaton) -> str:
    """Render an automaton as a Graphviz digraph.

    Accepting states are double circles, rejecting states boxes.  Node labels
    carry occurrence counts in square brackets, and the state's mean target
    when it observed targets.  Edges are labeled with the symbol name and the
    occurrence count of the transition.  Label lines are joined by DOT's
    ``\\n``.  Only a symbol name can hold a character that needs escaping,
    so each name is escaped once; ids, counts and means are written as they
    are.
    """
    names = [name.replace("\\", "\\\\").replace('"', '\\"') for name in a.alphabet]
    lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    lines.append(f"  __start -> s{a.start};")
    for q in sorted(a.states):
        agg = a.states[q]
        if q in a.accepting:
            shape = "doublecircle"
        elif q in a.rejecting:
            shape = "box"
        else:
            shape = "circle"
        mean = f"\\n{agg.target_sum / agg.target_count:.4g}" if agg.target_count > 0 else ""
        lines.append(f'  s{q} [shape={shape}, label="{q}\\n[{agg.total_count}]{mean}"];')
    for (src, sym), dst in sorted(a.transitions.items()):
        name = names[sym] if 0 <= sym < len(names) else str(sym)
        count = a.states[src].out_counts.get(sym, 0)
        lines.append(f'  s{src} -> s{dst} [label="{name} [{count}]"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model persistence

_LABEL_OUT = {"accepting": "acc", "rejecting": "rej", "unlabeled": "unl"}


def save_model(a: Automaton) -> str:
    """Serialize an automaton to the versioned line format.

    Layout, in order: the format header, one ``alphabet`` line, one
    ``attributes`` line with the attribute arity, one ``state`` line per
    state (id, label, total count, target sum, target sum of squares,
    positive/negative end counts, target count, then the attribute sums),
    one ``trans`` line per transition with its occurrence count, and the
    ``start`` line.  States and transitions are emitted in sorted order and
    reals as shortest round-trip decimals, so equal automata serialize to
    identical bytes.
    """
    for name in a.alphabet:
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"alphabet name {name!r} is empty or contains whitespace")
    lines = [MODEL_HEADER]
    lines.append(" ".join(["alphabet", str(len(a.alphabet)), *a.alphabet]))
    lines.append(f"attributes {a.attribute_arity}")
    for q in sorted(a.states):
        agg = a.states[q]
        fields = [
            "state",
            str(q),
            _LABEL_OUT[a.label(q).value],
            str(agg.total_count),
            repr(float(agg.target_sum)),
            repr(float(agg.target_sumsq)),
            str(agg.end_pos_count),
            str(agg.end_neg_count),
            str(agg.target_count),
        ]
        fields.extend(repr(float(v)) for v in agg.attribute_sums)
        lines.append(" ".join(fields))
    for (src, sym), dst in sorted(a.transitions.items()):
        count = a.states[src].out_counts.get(sym, 0)
        lines.append(f"trans {src} {sym} {dst} {count}")
    lines.append(f"start {a.start}")
    return "\n".join(lines) + "\n"


def _line_int(tokens: list[str], what: str, line: int, *, only: bool = True) -> int:
    """The integer after a line's kind; a bare kind is a format error.

    With ``only`` the line must hold nothing after that token either.
    """
    if len(tokens) < 2:
        raise ModelFormatError(f"{tokens[0]} line without a value", line)
    if only and len(tokens) > 2:
        raise ModelFormatError(f"{tokens[0]} line has {len(tokens)} fields, expected 2", line)
    try:
        return int(tokens[1])
    except ValueError:
        raise ModelFormatError(f"bad {what} {tokens[1]!r}", line) from None


def _once(kind: str, seen: set[str], line: int) -> None:
    if kind in seen:
        raise ModelFormatError(f"second {kind} line", line)
    seen.add(kind)


_STATE_FIELDS = (
    (int, "count"), (float, "target sum"), (float, "target sumsq"),
    (int, "end count"), (int, "end count"), (int, "target count"),
)
_STATE_LABELS = frozenset(["acc", "rej", "unl"])
_TRANS_FIELDS = (
    (int, "source state"), (int, "symbol"), (int, "target state"), (int, "transition count"),
)


def _bad_field(tokens: list[str], fields, line: int) -> ModelFormatError:
    """The error for the first of ``tokens`` that its ``(convert, name)`` field refuses.

    Lines convert all their numbers at once; this walks them again, only
    after that failed, to name the field and token at fault.
    """
    for token, (convert, what) in zip(tokens, fields):
        try:
            convert(token)
        except ValueError:
            return ModelFormatError(f"bad {what} {token!r}", line)
    raise AssertionError("every field converts")


def _huge_count(tokens: list[str], line: int) -> ModelFormatError:
    """The error for the first count of a converted ``state`` line above :data:`MAX_COUNT`."""
    for token, (convert, what) in zip(tokens[3:], _STATE_FIELDS):
        if convert is int and int(token) > MAX_COUNT:
            return ModelFormatError(f"{what} {int(token)} exceeds the bound 2**53", line)
    raise AssertionError("some count exceeds the bound")


def load_model(text: str) -> Automaton:
    """Parse :func:`save_model` output back into an automaton, in one pass.

    The first non-blank line must be the format header.  Each later line is
    split once and dispatched on its kind, ``trans`` and ``state`` first
    since they are all but four lines of a model.  A ``state`` or ``trans``
    line converts its fixed fields at once; a token that does not convert
    fails the load with ``bad <field> <token>`` and the line, and a count
    above ``2**53`` fails it with ``<field> <count> exceeds the bound 2**53``.
    Each state's aggregate is built from its line, sharing the out-count
    map that the ``trans`` lines then fill.  Rejects unknown format
    versions, duplicate ``(state, symbol)`` transition lines (determinism
    violation), negative transition counts, an ``attributes`` line after a
    ``state`` line, and anything :func:`check_integrity` complains about
    after assembly (rules stated once, in ``automaton._violations``), naming
    the ``state``, ``trans`` or ``start`` line of the first violation.

    What a line costs: one ``split``; a ``trans`` line then four ``int``
    conversions, a duplicate check and two dict writes; a ``state`` line six
    conversions (plus one per attribute) and one aggregate.  The integrity
    check adds one pass over the transitions and one combined test per
    healthy state; only a failed load looks for a violation's line.
    """
    alphabet: tuple[str, ...] | None = None
    arity = 0
    states: dict[StateId, StateAggregate] = {}
    out_counts: dict[StateId, dict[Symbol, int]] = {}
    accepting: set[StateId] = set()
    rejecting: set[StateId] = set()
    transitions: dict[tuple[StateId, Symbol], StateId] = {}
    start: StateId | None = None

    lines = text.splitlines()
    first = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if first is None or lines[first].strip() != MODEL_HEADER:
        no = None if first is None else first + 1
        raise ModelFormatError(f"expected header {MODEL_HEADER!r}", no)

    seen: set[str] = set()  # the kinds that may appear only once
    for no, ln in enumerate(lines[first + 1:], first + 2):
        tokens = ln.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "trans":
            if len(tokens) != 5:
                raise ModelFormatError(f"trans line has {len(tokens)} fields, expected 5", no)
            _, src, sym, dst, count = tokens
            try:
                src, sym, dst, count = int(src), int(sym), int(dst), int(count)
            except ValueError:
                raise _bad_field(tokens[1:], _TRANS_FIELDS, no) from None
            key = (src, sym)
            if key in transitions:
                raise ModelFormatError(
                    f"duplicate transition on ({src}, {sym}); model not deterministic", no
                )
            if count < 0:
                raise ModelFormatError(f"negative transition count {count}", no)
            if count > MAX_COUNT:
                raise ModelFormatError(f"transition count {count} exceeds the bound 2**53", no)
            transitions[key] = dst
            if count:
                counts = out_counts.get(src)
                if counts is None:
                    counts = out_counts[src] = {}
                counts[sym] = count
        elif kind == "state":
            if len(tokens) != 9 + arity:
                raise ModelFormatError(
                    f"state line has {len(tokens)} fields, expected {9 + arity}", no
                )
            _, q, label, total, target_sum, target_sumsq, end_pos, end_neg, target_count = (
                tokens[:9] if arity else tokens)
            try:
                q = int(q)
            except ValueError:
                raise ModelFormatError(f"bad state id {q!r}", no) from None
            if q in states:
                raise ModelFormatError(f"duplicate state {q}", no)
            if label not in _STATE_LABELS:
                raise ModelFormatError(f"bad state label {label!r}", no)
            try:
                total, target_sum, target_sumsq = int(total), float(target_sum), float(target_sumsq)
                end_pos, end_neg, target_count = int(end_pos), int(end_neg), int(target_count)
                attribute_sums = tuple(map(float, tokens[9:])) if arity else ()
            except ValueError:
                fields = _STATE_FIELDS + ((float, "attribute sum"),) * arity
                raise _bad_field(tokens[3:], fields, no) from None
            if (total > MAX_COUNT or end_pos > MAX_COUNT or end_neg > MAX_COUNT
                    or target_count > MAX_COUNT):
                raise _huge_count(tokens, no)
            counts = out_counts.get(q)
            if counts is None:
                counts = out_counts[q] = {}
            states[q] = StateAggregate(total, end_pos, end_neg, counts, target_count,
                                       target_sum, target_sumsq, attribute_sums)
            if label == "acc":
                accepting.add(q)
            elif label == "rej":
                rejecting.add(q)
        elif kind == "alphabet":
            _once(kind, seen, no)
            size = _line_int(tokens, "alphabet size", no, only=False)
            names = tokens[2:]
            if len(names) != size:
                raise ModelFormatError(f"alphabet declares {size} names, found {len(names)}", no)
            if size > MAX_ALPHABET_SIZE:
                raise ModelFormatError(
                    f"alphabet size {size} exceeds the bound {MAX_ALPHABET_SIZE}", no
                )
            alphabet = tuple(names)
        elif kind == "attributes":
            _once(kind, seen, no)
            arity = _line_int(tokens, "attribute arity", no)
            if arity < 0:
                raise ModelFormatError(f"negative attribute arity {arity}", no)
            if states:  # the state lines before it were read with the old arity
                raise ModelFormatError("attributes line after a state line", no)
        elif kind == "start":
            _once(kind, seen, no)
            start = _line_int(tokens, "start state", no)
        else:
            raise ModelFormatError(f"unknown line kind {kind!r}", no)

    if alphabet is None:
        raise ModelFormatError("missing alphabet line")
    if start is None:
        raise ModelFormatError("missing start line")
    a = Automaton(
        alphabet=alphabet,
        states=states,
        accepting=frozenset(accepting),
        rejecting=frozenset(rejecting),
        transitions=transitions,
        start=start,
        next_id=max(states, default=-1) + 1,
        attribute_arity=arity,
    )
    # Called through its module, where tracers and tests can hook it.
    violations = automaton.check_integrity(a)
    if violations:
        # The line the load read the first violation's subject from: ``("start",)``,
        # ``("state", q)`` or ``("trans", src, sym)``.  Its ids convert, and it is unique.
        kind, *ids = automaton._violations(a)[0][0]
        no = next(no for no, ln in enumerate(lines, 1) if (tokens := ln.split())[:1] == [kind]
                  and [int(t) for t in tokens[1:1 + len(ids)]] == ids)
        raise ModelFormatError("; ".join(violations), no)
    return a
