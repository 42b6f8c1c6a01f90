"""A naive red-blue learner, used as a test oracle only.

Written apart from :func:`flexautomata.learn`: each iteration recomputes the
blue frontier from the transitions and scores every red × blue pair afresh
with the pure :func:`~flexautomata.merge` and a reference scorer
(:func:`oracle_merge.reference_score` by default).  There is no score cache,
no arena and no rollback.  The rules are the documented ones:

* the first blue state, in ascending order, none of whose scores passes
  (every one failed or fell below ``min_evidence``) is promoted to red;
* otherwise the merge of highest value is taken, ties going to the smallest
  (red, blue) pair;
* merged pair ``i`` forms the fresh class ``a.next_id + i``, so each red
  state is renamed along the chain of fresh classes that absorbed it.
"""

from __future__ import annotations

from flexautomata import LearnLog, build_apta, merge
from oracle_merge import reference_score


def _blue(a, red):
    """The non-red targets of transitions leaving red states, ascending."""
    return sorted({dst for (src, _sym), dst in a.transitions.items() if src in red} - red)


def _renamed(pairs, first_id, state):
    """The class that ``state`` ends up in after the merged ``pairs``."""
    for i, (x, y) in enumerate(pairs):
        if state in (x, y):
            state = first_id + i
    return state


def oracle_learn(sample, heuristic, min_evidence=0.0, score=reference_score):
    """The (model, log) that :func:`flexautomata.learn` should return.

    ``score(a, merged_pairs, heuristic)`` scores one merge of ``a``, with
    ``merged_pairs`` None when the merge hit a label conflict.
    """
    a = build_apta(sample)
    log = LearnLog(initial_states=len(a.states))
    red = {a.start}
    while blue := _blue(a, red):
        outcomes, passing = {}, {}
        for r in sorted(red):
            for b in blue:
                out = outcomes[(r, b)] = merge(a, r, b)
                s = score(a, None if out.failed else out.merged_pairs, heuristic)
                if not s.failed and s.value >= min_evidence:
                    passing[(r, b)] = s.value
        takers = {b for _r, b in passing}
        lonely = [b for b in blue if b not in takers]
        if lonely:
            red.add(lonely[0])
            log.events.append(("PROMOTE", lonely[0]))
            continue
        r, b = min(passing, key=lambda rb: (-passing[rb], rb))
        out = outcomes[(r, b)]
        red = {_renamed(out.merged_pairs, a.next_id, q) for q in red}
        log.events.append(("MERGE", r, b, passing[(r, b)]))
        a = out.result
    log.final_states = len(a.states)
    return a, log
