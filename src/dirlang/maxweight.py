"""Maximum-weight extraction: one pass shared by the automaton and grammar
routes.

The paper weighs atom words by mu_k (``ideals.weight``), with k the state
count for automata and 3 * 2^(2|N|) for grammars, values its complexity
bounds need.  Here an atom word weighs the histogram of its atom ranks
(epsilon 0, ``a?`` 1, ``D*`` 1 + |D|), heaviest rank first, compared
lexicographically.  mu_k is that histogram read as base-(k+1) digits, so
the two orders agree on words of at most k atoms, and every candidate is
one: an automaton path has fewer atoms than states, and a word of an
acyclic CNF grammar at most 2^(|N|-1) < 3 * 2^(2|N|).  The histogram thus
picks the ideal mu_k picks, ties included, with no parameter.

``max_weights`` is the pass: nodes children first, an ordered list of
``(atoms, refs)`` alternatives per node, and per node the best histogram
and the first alternative attaining it.  It is iterative, so long automata
and deep grammars do not meet the recursion limit.  The automaton route is
``normalize`` and ``canonical_path``; the grammar route is
``grammars.max_weight_slp``.  (The paper's max-plus matrix powers serve its
AC^1 bound for NFAs and are not used.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add

from dirlang import automata
from dirlang.ideals import IdealRep, Single, format_atom


def _rank(atom) -> int:
    """Rank of an edge label: epsilon (None) 0, ``a?`` 1, ``D*`` 1 + |D|."""
    if atom is None:
        return 0
    return 1 if isinstance(atom, Single) else 1 + len(atom.letters)


def max_weights(order, alternatives) -> tuple:
    """Best weight and first maximizing alternative of every node.

    ``order`` lists each node after the nodes its alternatives refer to.
    An alternative ``(atoms, refs)`` weighs the rank histogram of its atoms
    plus the best weights of ``refs``, and is infeasible when one of those
    has none.  Returns ``(best, choice)``: the maximum weight per node, and
    the index of the first alternative attaining it; both None where no
    alternative is feasible (the node derives nothing).  A weight is a
    tuple of counts per occurring rank, heaviest first; ranks occurring
    nowhere would count zero everywhere, so leaving them out keeps the
    order.
    """
    atoms_seen = {x for node in order for (atoms, _) in alternatives[node]
                  for x in atoms}
    ranks = sorted({_rank(x) for x in atoms_seen}, reverse=True)
    slot = {x: ranks.index(_rank(x)) for x in atoms_seen}
    zero = (0,) * len(ranks)
    best: dict = {}
    choice: dict = {}
    for node in order:
        top = pick = None
        for k, (atoms, refs) in enumerate(alternatives[node]):
            w = zero
            for r in refs:
                part = best[r]
                if part is None:
                    break
                w = part if w is zero else tuple(map(add, w, part))
            else:
                if atoms:
                    w = list(w)
                    for x in atoms:
                        w[slot[x]] += 1
                    w = tuple(w)
                if top is None or w > top:
                    top, pick = w, k
        best[node] = top
        choice[node] = pick
    return best, choice


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
    def alternatives(self) -> tuple:
        """Per state, its ``max_weights`` alternatives: one ``(atoms,
        (successor,))`` per out-edge by ascending successor, epsilon edges
        with no atom; the final state has only the empty path, since its
        epsilon self-loop is never taken."""
        out = [[] for _ in range(self.m)]
        for (i, j), x in sorted(self.edges.items()):
            out[i].append(((() if x is None else (x,)), (j,)))
        out[self.final] = [((), ())]
        return tuple(tuple(o) for o in out)


def normalize(n: automata.Nfa) -> NormalizedIdealNfa:
    """Unique final state, epsilon self-loop there, one edge per state pair.

    Parallel edges are merged keeping the heaviest atom, by rank (ties go to
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

    grouped: dict[tuple, list] = {}
    for (p, x, q) in work_trans:
        grouped.setdefault((pos[p], pos[q]), []).append(x)
    edges = {}
    merged = []
    for (i, j), labels in sorted(grouped.items()):
        labels.sort(key=lambda x: (-_rank(x), "" if x is None else format_atom(x)))
        edges[(i, j)] = labels[0]
        merged.extend((i, j, x) for x in labels[1:])
    return NormalizedIdealNfa(work_states, edges, tuple(merged),
                              tuple(names[q] for q in order))


def canonical_path(norm: NormalizedIdealNfa) -> IdealRep:
    """The canonical maximum-weight representation.

    Runs ``max_weights`` over the states in reverse topological order, then
    walks from the initial state along the chosen edges, which among equal
    weights lead to the smallest successor, emitting the non-epsilon
    labels.  Errors when the automaton accepts nothing.
    """
    alternatives = norm.alternatives
    best, choice = max_weights(range(norm.final, -1, -1), alternatives)
    if best[norm.initial] is None:
        raise ValueError("automaton accepts no representation (empty language)")
    rep = []
    i = norm.initial
    while i != norm.final:
        atoms, (i,) = alternatives[i][choice[i]]
        rep.extend(atoms)
    return tuple(rep)
