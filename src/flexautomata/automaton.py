"""Core automaton values and the operations every other layer builds on.

An automaton here is a deterministic finite-state machine whose states carry
three-way labels (accepting / rejecting / unlabeled) plus per-state occurrence
aggregates collected from the training sample.  Values are treated as
immutable once constructed: the merge engine and the learner always produce
fresh automata instead of editing one in place, so concurrent readers never
need locks.

Exposed API: :class:`StateLabel`, :class:`StateAggregate`, :class:`Automaton`,
:class:`ComputationResult`, :class:`Outcome`, :func:`compute`,
:func:`check_integrity`.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from math import inf, isfinite
from typing import Iterator, Mapping

Symbol = int
StateId = int
Word = tuple[Symbol, ...]

# A count is a number of traces.  A float holds every integer up to 2**53
# exactly, so within this bound every weight, mean and rate taken from counts
# is exact or finite; the model loader refuses larger counts.
MAX_COUNT = 2**53


class StateLabel(enum.Enum):
    ACCEPTING = "accepting"
    REJECTING = "rejecting"
    UNLABELED = "unlabeled"


class Outcome(enum.Enum):
    """How a computation over a word ended."""

    ACCEPT = "accept"
    REJECT_BY_LABEL = "reject_by_label"
    REJECT_NO_TRANSITION = "reject_no_transition"


# Bound once: reading a member off its enum class costs about ten times a
# global read on CPython 3.11, which every computation would pay.
_ACCEPTING, _REJECTING, _UNLABELED = (
    StateLabel.ACCEPTING, StateLabel.REJECTING, StateLabel.UNLABELED)
_ACCEPT, _REJECT_BY_LABEL, _REJECT_NO_TRANSITION = (
    Outcome.ACCEPT, Outcome.REJECT_BY_LABEL, Outcome.REJECT_NO_TRANSITION)


class _Factory:
    """The default that stands for a field's default factory in a record's ``__init__``."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def _record(cls):
    """Make ``cls`` a slotted frozen dataclass whose ``__init__`` writes its slots directly.

    The ``__init__`` that :func:`dataclasses.dataclass` generates for a frozen
    class stores each field with ``object.__setattr__``, which looks the name
    up through the type on every call before it reaches the slot's member
    descriptor.  This one takes the same parameters, defaults and default
    factories, and calls each slot descriptor's ``__set__``, bound once here:
    the same store, which the frozen ``__setattr__`` does not see either,
    without the lookup.  A record then costs about two thirds as much to
    build.  Like ``dataclasses``, it is generated from the field list, so the
    fields are declared once; a record has no ``__post_init__`` and no
    keyword-only or ``init=False`` field.  Nothing else changes: ``fields``,
    ``replace``, equality, hashing, ``repr``, pickling and the frozen
    ``__setattr__`` are the dataclass's own.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    namespace: dict[str, object] = {"_FACTORY": _FACTORY}
    params, body = [], []
    for f in fields(cls):
        name = f.name
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
        value = name
        if f.default_factory is not MISSING:
            namespace[f"_make_{name}"] = f.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_make_{name}() if {name} is _FACTORY else {name}"
        elif f.default is not MISSING:
            namespace[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"    _set_{name}(self, {value})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


@_record
class StateAggregate:
    """Occurrence statistics accumulated at one state.

    ``total_count`` counts every trace whose computation visits the state.
    ``end_pos_count`` / ``end_neg_count`` count labeled traces that end there.
    ``out_counts`` counts, per symbol, the traces that leave the state along
    that symbol; a trace that visits but does not leave ended here, so the
    number of trace ends at the state is ``total_count - sum(out_counts)``.
    Regression targets and symbol attributes are credited to the state the
    annotated symbol leads to.
    """

    total_count: int = 0
    end_pos_count: int = 0
    end_neg_count: int = 0
    out_counts: Mapping[Symbol, int] = field(default_factory=dict)
    target_count: int = 0
    target_sum: float = 0.0
    target_sumsq: float = 0.0
    attribute_sums: tuple[float, ...] = ()

    @property
    def end_count(self) -> int:
        return self.total_count - sum(self.out_counts.values())

    def sse(self) -> float:
        """Within-state sum of squared target residuals (0 when no targets)."""
        return squared_error(self.target_count, self.target_sum, self.target_sumsq)


def squared_error(count: int, total: float, sumsq: float) -> float:
    """Sum of squared residuals around the mean of ``count`` values.

    ``total`` and ``sumsq`` are the values' sum and sum of squares; no
    values means no error.
    """
    if count == 0:
        return 0.0
    return sumsq - total * total / count


@dataclass(frozen=True)
class Automaton:
    """A deterministic labeled automaton with per-state aggregates.

    ``transitions`` is keyed by ``(state, symbol)`` so nondeterminism is
    unrepresentable.  ``accepting`` and ``rejecting`` are kept as separate
    sets; they must be disjoint, which :func:`check_integrity` verifies.
    ``next_id`` is the lowest id never handed out, so merged states can take
    fresh ids without colliding with anything that ever existed in this run.

    :attr:`target_totals`, and the successor table that every replay steps
    through (state -> ``{symbol: target}``, one entry per transition), are
    computed on first use and then kept.  That is sound only because an
    automaton, its ``states`` and its ``transitions`` are never edited after
    construction; :func:`dataclasses.replace` makes a new object with its own
    totals and table.  A step of :func:`compute`, a prediction, an
    evaluation or a sampled word then looks up the state's row and the
    symbol in it, both keyed by ints, instead of building and hashing a
    ``(state, symbol)`` key.
    """

    alphabet: tuple[str, ...]
    states: Mapping[StateId, StateAggregate]
    accepting: frozenset[StateId]
    rejecting: frozenset[StateId]
    transitions: Mapping[tuple[StateId, Symbol], StateId]
    start: StateId
    next_id: int
    attribute_arity: int = 0

    def label(self, q: StateId) -> StateLabel:
        if q in self.accepting:
            return _ACCEPTING
        if q in self.rejecting:
            return _REJECTING
        return _UNLABELED

    def out_edges(self, q: StateId) -> Iterator[tuple[Symbol, StateId]]:
        """Outgoing edges of ``q`` on alphabet symbols, in ascending symbol order.

        Reads only ``q``'s own entries in the successor table, so it costs the
        state's out-degree, not the alphabet size.
        """
        size = len(self.alphabet)
        for sym, dst in sorted(self._successors.get(q, {}).items()):
            if 0 <= sym < size:
                yield sym, dst

    @property
    def state_count(self) -> int:
        return len(self.states)

    @cached_property
    def target_totals(self) -> tuple[int, float]:
        """Target count and target sum pooled over every state, in ``states`` order.

        The sum is a plain left-to-right ``+=``: the built-in ``sum()`` of
        floats compensates its rounding since CPython 3.12, which would make
        the global mean, and so the bytes of ``predict``, depend on the version.
        """
        count, total = 0, 0
        for s in self.states.values():
            count += s.target_count
            total += s.target_sum
        return count, total

    @cached_property
    def _successors(self) -> dict[StateId, dict[Symbol, StateId]]:
        """State -> ``{symbol: target}``, from one pass over ``transitions``.

        Every state a walk can stand on has a row: each source, each target
        and the start state, whether or not it is in ``states``.  So a step
        ``table[q].get(sym)`` equals ``transitions.get((q, sym))`` on any
        automaton, including one that fails :func:`check_integrity`.
        """
        table: dict[StateId, dict[Symbol, StateId]] = {self.start: {}}
        for (src, sym), dst in self.transitions.items():
            row = table.get(src)
            if row is None:
                row = table[src] = {}
            row[sym] = dst
            if dst not in table:
                table[dst] = {}
        return table


@_record
class ComputationResult:
    """Outcome of running one word through an automaton.

    ``path`` holds the visited states, one more entry than consumed symbols.
    ``missing_at`` is the 0-based position of the symbol that had no
    transition (only for REJECT_NO_TRANSITION).  ``end_label`` is the label of
    the final state when the whole word was consumed, distinguishing a
    rejecting end state from a merely unlabeled one.
    """

    path: tuple[StateId, ...]
    outcome: Outcome
    missing_at: int | None = None
    end_label: StateLabel | None = None

    @property
    def accepted(self) -> bool:
        return self.outcome is _ACCEPT


def walk(a: Automaton, word: Word) -> tuple[list[StateId], bool]:
    """Follow ``word`` from the start state as far as the transitions allow.

    Returns the states visited and whether the whole word was consumed.  A
    symbol outside the alphabet is a missing transition like any other.
    Each step reads the model's successor table: the state's row, then the
    symbol in it.
    """
    table = a._successors
    cur = a.start
    path = [cur]
    for sym in word:
        cur = table[cur].get(sym)
        if cur is None:
            return path, False
        path.append(cur)
    return path, True


def compute(a: Automaton, word: Word) -> ComputationResult:
    """Run ``word`` through ``a`` from the start state.

    Accepts iff the whole word is consumed and the end state is accepting.
    A symbol outside the alphabet range raises ValueError; a merely missing
    transition is a normal rejection, not an error.  Only the symbol that
    stopped the walk is range-checked: in an automaton that passes
    :func:`check_integrity` no transition uses a symbol outside the alphabet.
    The walk is :func:`walk`'s, the end label :meth:`Automaton.label`'s, and
    the only object built besides the path is the result record.
    """
    path, complete = walk(a, word)
    if not complete:
        i = len(path) - 1
        sym, size = word[i], len(a.alphabet)
        if not 0 <= sym < size:
            raise ValueError(f"symbol {sym} at position {i} outside alphabet of size {size}")
        return ComputationResult(tuple(path), _REJECT_NO_TRANSITION, i)
    end = a.label(path[-1])
    return ComputationResult(tuple(path), _ACCEPT if end is _ACCEPTING else _REJECT_BY_LABEL,
                             None, end)


# The slack of the squared-error check in check_integrity.  The exact sums
# S and Q of n targets obey Q - S*S/n >= 0 (Cauchy-Schwarz), but the stored
# sums s and q are float sums of the same values, pooled in some order.
# With unit roundoff u = eps/2, each is off by at most about n*u times the
# sum of its terms' magnitudes: |q - Q| <= n*u*Q and, since
# (sum |x|)**2 <= n*Q, |s - S| <= n*u*sqrt(n*Q).  Then s*s/n <= Q*(1 + n*u)**2,
# so to first order q - s*s/n >= -3*n*u*Q = -1.5*n*eps*Q, plus a few u of
# Q for the product, division and difference; 4*n*eps*q bounds that with
# room.  A square that falls into the subnormal range has no relative
# bound; it is off by at most half a subnormal ulp (2**-1075), which the
# smallest normal float per value, n*float_info.min, covers.  The mean is
# formed as s * (s / n) so that a valid state, whose s*s/n <= q is finite,
# cannot overflow.  Counts above MAX_COUNT are skipped: past the float range
# they would not convert at all, and the model loader refuses them.
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def check_integrity(a: Automaton) -> list[str]:
    """Structural and aggregate sanity violations, as plain strings.

    Returns an empty list for a healthy automaton.  Violations are data, not
    exceptions, so loaders and tests can report all of them at once.  The
    order is fixed: the start state, the label sets, then the transitions
    by ``(source, symbol)`` and the states by id.  :func:`_violations` states the rules once.

    Cost: one unsorted pass over the transitions and one over the states.
    A healthy state costs one combined test on its fields, plus one lookup
    per out-count; only a state that fails that test gets the exact checks
    that build its messages, and only offenders are sorted.
    """
    return [message for _, message in _violations(a)]


def _violations(a: Automaton, per_state: bool = True) -> list[tuple[tuple, str]]:
    """Each violation of :func:`check_integrity`, in its order, with its subject.

    A subject is ``("start",)``, ``("state", q)`` or ``("trans", src, sym)``.  With
    ``per_state`` false, only the start, label-set and transition rules are checked.
    """
    out: list[tuple[tuple, str]] = []
    size = len(a.alphabet)
    states, transitions = a.states, a.transitions
    if a.start not in states:
        out.append((("start",), f"start state {a.start} not in state set"))
    for q in sorted(set(a.accepting).intersection(a.rejecting)):
        out.append((("state", q), f"state {q} is both accepting and rejecting"))
    for kind, labeled in (("accepting", a.accepting), ("rejecting", a.rejecting)):
        for q in sorted(q for q in labeled if q not in states):
            out.append((("state", q), f"{kind} state {q} not in state set"))
    bad_transitions = [
        (src, sym, dst)
        for (src, sym), dst in transitions.items()
        if src not in states or dst not in states or not 0 <= sym < size
    ]
    for src, sym, dst in sorted(bad_transitions):
        subject = ("trans", src, sym)
        if src not in states:
            out.append((subject, f"transition source {src} not in state set"))
        if dst not in states:
            out.append((subject, f"transition target {dst} not in state set"))
        if not 0 <= sym < size:
            out.append((subject, f"transition ({src},{sym}) uses symbol outside alphabet"))
    if not per_state:
        return out
    next_id, arity = a.next_id, a.attribute_arity
    by_state: dict[StateId, list[str]] = {}
    for q, agg in states.items():
        total, pos, neg, outs = (
            agg.total_count, agg.end_pos_count, agg.end_neg_count, agg.out_counts)
        count, tsum, tsumsq, attrs = (
            agg.target_count, agg.target_sum, agg.target_sumsq, agg.attribute_sums)
        # One test that every healthy state passes.  It may also fail a state
        # with no violation (a zero out-count, finite sums whose total
        # overflows); the exact checks below then find nothing to report.
        ends = total
        for sym, c in outs.items():
            ends -= c
            if c <= 0 or (q, sym) not in transitions:
                break
        else:
            if (q < next_id and pos >= 0 and neg >= 0 and pos + neg <= ends
                    and 0 <= count <= total and tsumsq >= 0.0 and -inf < tsum + tsumsq < inf
                    and (tsumsq - tsum * (tsum / count) >= -count * (4 * _EPS * tsumsq + _TINY)
                         if 0 < count <= MAX_COUNT else count or tsum == tsumsq == 0.0)
                    and (not attrs or len(attrs) == arity and -inf < sum(attrs) < inf)):
                continue
        found: list[str] = []
        if q >= next_id:
            found.append(f"state {q} not below next_id {next_id}")
        if min(total, pos, neg, count) < 0:
            found.append(f"state {q} has a negative count")
        ends = total - sum(outs.values())
        if ends < 0:
            found.append(f"state {q} out_counts exceed total_count")
        if pos + neg > ends:
            found.append(f"state {q} labeled end counts exceed its trace ends")
        if count > total:
            found.append(f"state {q} target_count exceeds total_count")
        bad_counts = []
        for sym, c in outs.items():
            if c < 0 or (c > 0 and (q, sym) not in transitions):
                bad_counts.append((sym, c))
        for sym, c in sorted(bad_counts):
            if c < 0:
                found.append(f"state {q} negative out count on symbol {sym}")
            else:
                found.append(f"state {q} counts symbol {sym} but has no such transition")
        for v in (tsum, tsumsq, *attrs):
            if not isfinite(v):
                found.append(f"state {q} has a non-finite aggregate value")
                break
        else:  # finite target sums: the values they were summed from must exist
            if tsumsq < 0.0:
                found.append(f"state {q} has a negative target sum of squares")
            elif 0 < count <= MAX_COUNT and tsumsq - tsum * (tsum / count) < -count * (
                    4 * _EPS * tsumsq + _TINY):
                found.append(f"state {q} has target sums with a negative squared error")
            if count == 0 and (tsum != 0.0 or tsumsq != 0.0):
                found.append(f"state {q} has target sums but no targets")
        if len(attrs) not in (0, arity):
            found.append(f"state {q} attribute arity {len(attrs)} != {arity}")
        if found:
            by_state[q] = found
    for q in sorted(by_state):
        out.extend((("state", q), message) for message in by_state[q])
    return out
