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
import math
from dataclasses import dataclass, field

from .automaton import Automaton, StateAggregate, StateId, Symbol
from .errors import ModelFormatError, SampleFormatError

MODEL_HEADER = "flexautomata-model 1"

# A sample's alphabet gets one name per symbol up to the largest symbol seen,
# so a single huge symbol would cost memory in proportion to its value.
MAX_ALPHABET_SIZE = 2**16


class TraceLabel(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    UNLABELED = "unlabeled"


@dataclass(frozen=True)
class SymbolInstance:
    """One occurrence of a symbol inside a trace, with optional annotations."""

    symbol: Symbol
    attributes: tuple[float, ...] = ()
    target: float | None = None


@dataclass(frozen=True)
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
    if not math.isfinite(value):
        raise ValueError(token)
    return value


def _parse_symbol_token(token: str, extended: bool, line_no: int) -> SymbolInstance:
    attrs: tuple[float, ...] = ()
    target = None
    sym_part = token
    if extended:
        if "/" in token:
            sym_part, _, tgt_part = token.rpartition("/")
            try:
                target = _finite(tgt_part)
            except ValueError:
                raise SampleFormatError(f"bad target value {tgt_part!r}", line_no) from None
        if ":" in sym_part:
            sym_part, _, attr_part = sym_part.partition(":")
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
    return SymbolInstance(sym, attrs, target)


def _valid_data_first_line(tokens: list[str], labels: dict[str, TraceLabel]) -> bool:
    # Only a zero-length trace can fit in two tokens.
    return len(tokens) == 2 and tokens[0] in labels and tokens[1] == "0"


def _parse_sample(text: str, extended: bool) -> Sample:
    labels = _EXT_LABELS if extended else _PLAIN_LABELS
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    declared_count = None
    declared_size = None
    if lines:
        no, first = lines[0]
        tokens = first.split()
        if len(tokens) == 2 and not _valid_data_first_line(tokens, labels):
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
            lines = lines[1:]

    traces: list[Trace] = []
    arity: int | None = None
    max_sym = -1
    for no, ln in lines:
        tokens = ln.split()
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
        symbols = tuple(_parse_symbol_token(t, extended, no) for t in tokens[2:])
        for inst in symbols:
            if inst.attributes:
                if arity is None:
                    arity = len(inst.attributes)
                elif len(inst.attributes) != arity:
                    raise SampleFormatError(
                        f"attribute arity {len(inst.attributes)} != {arity} seen earlier", no
                    )
            if declared_size is not None and inst.symbol >= declared_size:
                raise SampleFormatError(
                    f"symbol {inst.symbol} outside declared alphabet of size {declared_size}", no
                )
            max_sym = max(max_sym, inst.symbol)
        traces.append(Trace(label, symbols))

    if declared_count is not None and declared_count != len(traces):
        raise SampleFormatError(
            f"header declares {declared_count} traces but file has {len(traces)}"
        )
    size = declared_size if declared_size is not None else max_sym + 1
    alphabet = tuple(str(i) for i in range(size))
    return Sample(tuple(traces), alphabet, arity or 0)


def parse_abbadingo(text: str) -> Sample:
    """Parse the classic trace format (labels 0/1, bare integer symbols)."""
    return _parse_sample(text, extended=False)


def parse_augmented(text: str) -> Sample:
    """Parse the extended trace format (adds '?' labels, attributes, targets)."""
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


def write_sample(sample: Sample) -> str:
    """Render a sample back to trace-format text.

    Output is always readable by :func:`parse_augmented`, and by
    :func:`parse_abbadingo` when nothing extended is present.  Reals use
    shortest round-trip decimals.  The header is skipped in the degenerate
    shapes where it would itself read as a valid data line.
    """
    lines = []
    n, size = len(sample.traces), len(sample.alphabet)
    if not (size == 0 and n <= 1):
        lines.append(f"{n} {size}")
    for trace in sample.traces:
        tokens = [_LABEL_TOKENS[trace.label], str(len(trace.symbols))]
        tokens.extend(_format_symbol(s) for s in trace.symbols)
        lines.append(" ".join(tokens))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# DOT rendering


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(
    a: Automaton,
    *,
    graph_name: str = "automaton",
    show_counts: bool = True,
    show_means: bool | None = None,
) -> str:
    """Render an automaton as a Graphviz digraph.

    Accepting states are double circles, rejecting states boxes.  Node labels
    carry occurrence counts in square brackets, and the state's mean target
    when targets were observed (``show_means=None`` enables that
    automatically).  Edges are labeled with the symbol name and the
    occurrence count of the transition.
    """
    if show_means is None:
        show_means = any(s.target_count > 0 for s in a.states.values())
    lines = [f"digraph {graph_name} {{", "  rankdir=LR;", '  __start [shape=point, label=""];']
    lines.append(f"  __start -> s{a.start};")
    for q in sorted(a.states):
        agg = a.states[q]
        if q in a.accepting:
            shape = "doublecircle"
        elif q in a.rejecting:
            shape = "box"
        else:
            shape = "circle"
        parts = [str(q)]
        if show_counts:
            parts.append(f"[{agg.total_count}]")
        if show_means and agg.target_count > 0:
            parts.append(f"{agg.target_sum / agg.target_count:.4g}")
        label = _dot_quote("\\n".join(parts))
        lines.append(f"  s{q} [shape={shape}, label={label}];")
    for (src, sym), dst in sorted(a.transitions.items()):
        name = a.alphabet[sym] if 0 <= sym < len(a.alphabet) else str(sym)
        text = name
        if show_counts:
            text += f" [{a.states[src].out_counts.get(sym, 0)}]"
        lines.append(f"  s{src} -> s{dst} [label={_dot_quote(text)}];")
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


def _value(tokens: list[str], line: int, *, only: bool = True) -> str:
    """The token after a line's kind; a bare kind is a format error.

    With ``only`` the line must hold nothing after that token either.
    """
    if len(tokens) < 2:
        raise ModelFormatError(f"{tokens[0]} line without a value", line)
    if only and len(tokens) > 2:
        raise ModelFormatError(f"{tokens[0]} line has {len(tokens)} fields, expected 2", line)
    return tokens[1]


def _once(kind: str, seen: set[str], line: int) -> None:
    if kind in seen:
        raise ModelFormatError(f"second {kind} line", line)
    seen.add(kind)


def _model_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelFormatError(f"bad {what} {token!r}", line) from None


def _model_float(token: str, what: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ModelFormatError(f"bad {what} {token!r}", line) from None


def load_model(text: str) -> Automaton:
    """Parse :func:`save_model` output back into an automaton.

    Rejects unknown format versions, duplicate ``(state, symbol)`` transition
    lines (determinism violation), and anything :func:`check_integrity`
    complains about after assembly.
    """
    from .automaton import check_integrity

    alphabet: tuple[str, ...] | None = None
    arity = 0
    label_in = {"acc": "accepting", "rej": "rejecting", "unl": "unlabeled"}
    # A state's aggregate needs its out_counts from the trans lines, so each
    # state line's fields wait here and every aggregate is built once at the end.
    state_fields: dict[StateId, tuple] = {}
    out_counts: dict[StateId, dict[Symbol, int]] = {}
    accepting: set[StateId] = set()
    rejecting: set[StateId] = set()
    transitions: dict[tuple[StateId, Symbol], StateId] = {}
    start: StateId | None = None

    lines = ((no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln and not ln.isspace())
    no, first = next(lines, (None, ""))
    if first.strip() != MODEL_HEADER:
        raise ModelFormatError(f"expected header {MODEL_HEADER!r}", no)

    seen: set[str] = set()  # the kinds that may appear only once
    for no, ln in lines:
        tokens = ln.split()
        kind = tokens[0]
        if kind == "alphabet":
            _once(kind, seen, no)
            size = _model_int(_value(tokens, no, only=False), "alphabet size", no)
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
            arity = _model_int(_value(tokens, no), "attribute arity", no)
            if arity < 0:
                raise ModelFormatError(f"negative attribute arity {arity}", no)
        elif kind == "state":
            if len(tokens) != 9 + arity:
                raise ModelFormatError(
                    f"state line has {len(tokens)} fields, expected {9 + arity}", no
                )
            q = _model_int(tokens[1], "state id", no)
            if q in state_fields:
                raise ModelFormatError(f"duplicate state {q}", no)
            if tokens[2] not in label_in:
                raise ModelFormatError(f"bad state label {tokens[2]!r}", no)
            if tokens[2] == "acc":
                accepting.add(q)
            elif tokens[2] == "rej":
                rejecting.add(q)
            state_fields[q] = (
                _model_int(tokens[3], "count", no),
                _model_float(tokens[4], "target sum", no),
                _model_float(tokens[5], "target sumsq", no),
                _model_int(tokens[6], "end count", no),
                _model_int(tokens[7], "end count", no),
                _model_int(tokens[8], "target count", no),
                tuple(_model_float(t, "attribute sum", no) for t in tokens[9:]),
            )
        elif kind == "trans":
            if len(tokens) != 5:
                raise ModelFormatError(f"trans line has {len(tokens)} fields, expected 5", no)
            src = _model_int(tokens[1], "source state", no)
            sym = _model_int(tokens[2], "symbol", no)
            dst = _model_int(tokens[3], "target state", no)
            count = _model_int(tokens[4], "transition count", no)
            if (src, sym) in transitions:
                raise ModelFormatError(
                    f"duplicate transition on ({src}, {sym}); model not deterministic", no
                )
            transitions[(src, sym)] = dst
            if count > 0:
                out_counts.setdefault(src, {})[sym] = count
        elif kind == "start":
            _once(kind, seen, no)
            start = _model_int(_value(tokens, no), "start state", no)
        else:
            raise ModelFormatError(f"unknown line kind {kind!r}", no)

    if alphabet is None:
        raise ModelFormatError("missing alphabet line")
    if start is None:
        raise ModelFormatError("missing start line")
    states = {
        q: StateAggregate(
            total_count=total,
            end_pos_count=end_pos,
            end_neg_count=end_neg,
            out_counts=out_counts.get(q, {}),
            target_count=target_count,
            target_sum=target_sum,
            target_sumsq=target_sumsq,
            attribute_sums=attribute_sums,
        )
        for q, (total, target_sum, target_sumsq, end_pos, end_neg, target_count,
                attribute_sums) in state_fields.items()
    }
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
    violations = check_integrity(a)
    if violations:
        raise ModelFormatError("; ".join(violations))
    return a
