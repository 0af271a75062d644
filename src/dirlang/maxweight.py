"""Maximum-weight ideal extraction over normalized ideal automata.

A normalized reduced ideal automaton is acyclic apart from an epsilon
self-loop on its unique final state, carries at most one edge per state
pair, and numbers its states in topological order with the final state
last.  With m states, every accepted representation has fewer than m atoms,
and atoms are weighed by mu_m.  One reverse pass over the states then gives,
for every state, the maximum weight of any path to the final state, and a
forward walk along maximizing edges reads off the canonical representation.
Both are linear in the number of edges and iterative, so long automata do
not meet the recursion limit.  Weights are arbitrary-precision integers;
"minus infinity" is an explicit None, never a sentinel number.

The paper computes the same maxima as the m-th max-plus power of the
edge-weight matrix; that formulation serves its AC^1 upper bound for NFAs
and is not used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from dirlang import automata
from dirlang.ideals import Atom, IdealRep, atom_weight, format_atom


def label_weight(label, k: int) -> int:
    """mu_k of an edge label; epsilon weighs nothing."""
    return 0 if label is None else atom_weight(label, k)


@dataclass(frozen=True)
class NormalizedIdealNfa:
    """Reduced ideal automaton in topological shape.

    State 0 is initial, state m-1 the unique final one; states are in
    topological order, so every edge except the final epsilon self-loop goes
    from a lower to a higher index; ``edges`` maps (i, j) to the single
    surviving label; ``merged_away`` lists (i, j, atom) for parallel edges
    dropped during normalization (they matter when counting, not when
    maximizing).
    """

    m: int
    edges: dict
    merged_away: tuple
    names: tuple

    @property
    def initial(self) -> int:
        return 0

    @property
    def final(self) -> int:
        return self.m - 1

    @cached_property
    def out_edges(self) -> tuple:
        """Per state, its (successor, label) pairs by ascending successor."""
        out = [[] for _ in range(self.m)]
        for (i, j), x in sorted(self.edges.items()):
            out[i].append((j, x))
        return tuple(tuple(o) for o in out)


def normalize(n: automata.Nfa) -> NormalizedIdealNfa:
    """Unique final state, epsilon self-loop there, one edge per state pair.

    Parallel edges are merged keeping the maximum-weight atom (ties go to
    the lexicographically least serialized form); an already-normalized
    input comes back unchanged up to state renaming.  Any cycle, a
    self-loop included, other than the final epsilon self-loop of an
    already-normalized input is rejected.
    """
    n = automata.trim(n)
    already = False
    if len(n.finals) == 1:
        (f,) = n.finals
        out_edges = [(p, x, q) for (p, x, q) in n.transitions if p == f]
        already = out_edges == [(f, None, f)]
    if already:
        work_trans = list(n.transitions)
        work_states = n.n_states
        final = next(iter(n.finals))
        names = list(n.names) if n.names is not None else [n.state_name(q) for q in range(n.n_states)]
    else:
        final = n.n_states
        work_states = n.n_states + 1
        work_trans = list(n.transitions)
        for f in sorted(n.finals):
            work_trans.append((f, None, final))
        work_trans.append((final, None, final))
        names = [n.state_name(q) for q in range(n.n_states)] + ["fin"]

    final_loop = (final, None, final)
    helper = automata.Nfa(tuple(n.alphabet), work_states, n.initial,
                          frozenset((final,)),
                          tuple(t for t in work_trans if t != final_loop))
    try:
        order = automata.topological_order(helper, ignore_self_loops=False)
    except ValueError:
        raise ValueError("normalize needs an acyclic ideal automaton") from None
    order.remove(final)
    order.append(final)  # the final state is the unique sink; force it last
    if order[0] != n.initial:
        raise AssertionError("initial state not first in topological order")
    pos = {q: i for i, q in enumerate(order)}

    m = work_states
    grouped: dict[tuple, list] = {}
    for (p, x, q) in work_trans:
        grouped.setdefault((pos[p], pos[q]), []).append(x)
    edges = {}
    merged = []
    for (i, j), labels in sorted(grouped.items()):
        labels.sort(key=lambda x: (-label_weight(x, m),
                                   "" if x is None else format_atom(x)))
        edges[(i, j)] = labels[0]
        merged.extend((i, j, x) for x in labels[1:])
    return NormalizedIdealNfa(m, edges, tuple(merged),
                              tuple(names[q] for q in order))


def suffix_maxima(norm: NormalizedIdealNfa) -> tuple:
    """For every state s the maximum mu_m path weight from s to the final
    state, with m = the state count; None where the final state is out of
    reach.

    One pass in reverse topological order: every successor of a state has a
    higher index, so its maximum is known when the state is reached.  The
    final state's epsilon self-loop is never relaxed.
    """
    m = norm.m
    out = norm.out_edges
    best = [None] * m
    best[norm.final] = 0
    for s in range(m - 2, -1, -1):
        got = None
        for (j, x) in out[s]:
            rest = best[j]
            if rest is not None:
                w = label_weight(x, m) + rest
                if got is None or w > got:
                    got = w
        best[s] = got
    return tuple(best)


def extract_canonical_path(norm: NormalizedIdealNfa, maxima) -> IdealRep:
    """The canonical maximum-weight representation.

    Deterministic walk from the initial state: move to the successor
    maximizing edge weight plus suffix maximum, breaking ties by the
    smallest state index; emit non-epsilon labels.  Errors when the
    automaton accepts nothing.
    """
    if maxima[norm.initial] is None:
        raise ValueError("automaton accepts no representation (empty language)")
    out = norm.out_edges
    rep = []
    i = norm.initial
    guard = 0
    while i != norm.final:
        best = None
        best_j = None
        best_label = None
        for (j, x) in out[i]:
            if maxima[j] is None:
                continue
            cand = label_weight(x, norm.m) + maxima[j]
            if best is None or cand > best:
                best, best_j, best_label = cand, j, x
        if best_j is None:
            raise AssertionError("dead end on a path with finite suffix maximum")
        if best != maxima[i]:
            raise AssertionError("suffix maxima inconsistent with edge relaxation")
        if best_label is not None:
            rep.append(best_label)
        i = best_j
        guard += 1
        if guard > norm.m:
            raise AssertionError("canonical walk exceeded the state count")
    return tuple(rep)
