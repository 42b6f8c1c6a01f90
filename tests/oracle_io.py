"""Reference copies of the package's earlier, slower text readers.

``parse_sample``, ``parse_symbol_token``, ``load_model`` and
``check_integrity`` are the trace parser, model loader and integrity check
as they were before the parser shared one instance per distinct bare symbol
token and the loader converted each line's numbers in one go.  Their bodies
are kept verbatim; only the names lost their leading underscore, and
``load_model`` calls this module's ``check_integrity``.  ``test_sample_io``
checks that the package's readers return equal values, or raise the same
exception with the same message, on the same inputs.
"""

from __future__ import annotations

import math

from flexautomata import Automaton, Sample, StateAggregate, SymbolInstance, Trace, TraceLabel
from flexautomata.automaton import StateId, Symbol
from flexautomata.errors import ModelFormatError, SampleFormatError
from flexautomata.sample_io import MAX_ALPHABET_SIZE, MODEL_HEADER


_PLAIN_LABELS = {"1": TraceLabel.POSITIVE, "0": TraceLabel.NEGATIVE}
_EXT_LABELS = {**_PLAIN_LABELS, "?": TraceLabel.UNLABELED}


def _finite(token: str) -> float:
    """A real number; ``nan`` and infinities raise ValueError like any non-number."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


def parse_symbol_token(token: str, extended: bool, line_no: int) -> SymbolInstance:
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


def parse_sample(text: str, extended: bool) -> Sample:
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
        symbols = tuple(parse_symbol_token(t, extended, no) for t in tokens[2:])
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


def check_integrity(a: Automaton) -> list[str]:
    """Structural and aggregate sanity violations, as plain strings.

    Returns an empty list for a healthy automaton.  Violations are data, not
    exceptions, so loaders and tests can report all of them at once.
    """
    out: list[str] = []
    if a.start not in a.states:
        out.append(f"start state {a.start} not in state set")
    both = set(a.accepting) & set(a.rejecting)
    for q in sorted(both):
        out.append(f"state {q} is both accepting and rejecting")
    for q in sorted(set(a.accepting) - set(a.states)):
        out.append(f"accepting state {q} not in state set")
    for q in sorted(set(a.rejecting) - set(a.states)):
        out.append(f"rejecting state {q} not in state set")
    size = len(a.alphabet)
    for (src, sym), dst in sorted(a.transitions.items()):
        if src not in a.states:
            out.append(f"transition source {src} not in state set")
        if dst not in a.states:
            out.append(f"transition target {dst} not in state set")
        if not 0 <= sym < size:
            out.append(f"transition ({src},{sym}) uses symbol outside alphabet")
    for q in sorted(a.states):
        agg = a.states[q]
        if q >= a.next_id:
            out.append(f"state {q} not below next_id {a.next_id}")
        if min(agg.total_count, agg.end_pos_count, agg.end_neg_count, agg.target_count) < 0:
            out.append(f"state {q} has a negative count")
        if sum(agg.out_counts.values()) > agg.total_count:
            out.append(f"state {q} out_counts exceed total_count")
        if agg.target_count > agg.total_count:
            out.append(f"state {q} target_count exceeds total_count")
        for sym, c in sorted(agg.out_counts.items()):
            if c < 0:
                out.append(f"state {q} negative out count on symbol {sym}")
            if c > 0 and (q, sym) not in a.transitions:
                out.append(f"state {q} counts symbol {sym} but has no such transition")
        for v in (agg.target_sum, agg.target_sumsq, *agg.attribute_sums):
            if not math.isfinite(v):
                out.append(f"state {q} has a non-finite aggregate value")
                break
        if len(agg.attribute_sums) not in (0, a.attribute_arity):
            out.append(f"state {q} attribute arity {len(agg.attribute_sums)} != {a.attribute_arity}")
    return out
