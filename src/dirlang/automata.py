"""Finite automata: SCC collapse, ideal automata, and verdict-preserving transforms.

States are dense integers; external names survive in an optional name table.
Transition labels are letters (str), atoms, or None for epsilon.  The same
type carries letter automata and atom ("ideal") automata; the alphabet tuple
tells them apart.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from dirlang.errors import ResourceCapExceeded
from dirlang.ideals import (
    AlphabetStar,
    IdealRep,
    Single,
    check_letter,
    format_atom,
    reduce_rep,
)

Label = object  # str letter | Atom | None


def label_key(x) -> tuple:
    """Deterministic sort key: epsilon first, then serialized label text."""
    if x is None:
        return (0, "")
    if isinstance(x, (Single, AlphabetStar)):
        return (1, format_atom(x))
    return (1, x)


def sym_key(x) -> str:
    return format_atom(x) if isinstance(x, (Single, AlphabetStar)) else x


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton with a single initial state."""

    alphabet: tuple
    n_states: int
    initial: int
    finals: frozenset
    transitions: tuple  # of (src, label, dst); label None is epsilon
    names: tuple = None

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("an automaton needs at least one state")
        if not (0 <= self.initial < self.n_states):
            raise ValueError(f"initial state {self.initial} out of range")
        for q in self.finals:
            if not (0 <= q < self.n_states):
                raise ValueError(f"final state {q} out of range")
        declared = set(self.alphabet)
        for (p, x, q) in self.transitions:
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise ValueError(f"transition ({p}, {x}, {q}) references unknown state")
            if x is not None and x not in declared:
                raise ValueError(f"transition label {x!r} not in the declared alphabet")
        if self.names is not None and len(self.names) != self.n_states:
            raise ValueError("name table length does not match state count")

    def state_name(self, q: int) -> str:
        return self.names[q] if self.names is not None else f"q{q}"

    def successors(self) -> dict:
        succ = {q: [] for q in range(self.n_states)}
        for (p, x, q) in self.transitions:
            succ[p].append((x, q))
        return succ


def make_nfa(alphabet, n_states, initial, finals, transitions, names=None) -> Nfa:
    """Normalize construction: sorted alphabet, deduplicated sorted transitions."""
    alpha = tuple(sorted(set(alphabet), key=sym_key))
    trans = {(p, x, q) for (p, x, q) in transitions}
    keys = {x: label_key(x) for x in {x for (_, x, _) in trans}}
    trans = tuple(sorted(trans, key=lambda t: (t[0], keys[t[1]], t[2])))
    return Nfa(alpha, n_states, initial, frozenset(finals), trans,
               tuple(names) if names is not None else None)


def validate(a: Nfa) -> Nfa:
    """Check well-formedness and prune unreachable states (with a warning)."""
    succ = a.successors()
    seen = {a.initial}
    todo = [a.initial]
    while todo:
        p = todo.pop()
        for (_, q) in succ[p]:
            if q not in seen:
                seen.add(q)
                todo.append(q)
    if len(seen) == a.n_states:
        # round-trip through make_nfa so callers always get the normalized
        # transition/alphabet order, however the automaton was constructed
        return make_nfa(a.alphabet, a.n_states, a.initial, a.finals,
                        a.transitions, names=a.names)
    warnings.warn(f"pruning {a.n_states - len(seen)} unreachable state(s)",
                  RuntimeWarning, stacklevel=2)
    old = sorted(seen)
    renum = {p: i for i, p in enumerate(old)}
    return make_nfa(
        a.alphabet, len(old), renum[a.initial],
        (renum[q] for q in a.finals if q in seen),
        ((renum[p], x, renum[q]) for (p, x, q) in a.transitions if p in seen and q in seen),
        names=[a.state_name(p) for p in old])


def reaches_final(a: Nfa) -> bool:
    """Is L(a) non-empty (some final reachable from the initial state)?"""
    succ = a.successors()
    seen = {a.initial}
    todo = [a.initial]
    while todo:
        p = todo.pop()
        if p in a.finals:
            return True
        for (_, q) in succ[p]:
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return False


def trim(a: Nfa) -> Nfa:
    """Keep the initial state plus all states on some accepting path."""
    succ = a.successors()
    fwd = {a.initial}
    todo = [a.initial]
    while todo:
        p = todo.pop()
        for (_, q) in succ[p]:
            if q not in fwd:
                fwd.add(q)
                todo.append(q)
    pred = {q: set() for q in range(a.n_states)}
    for (p, _, q) in a.transitions:
        pred[q].add(p)
    bwd = set(a.finals)
    todo = list(a.finals)
    while todo:
        q = todo.pop()
        for p in pred[q]:
            if p not in bwd:
                bwd.add(p)
                todo.append(p)
    keep = (fwd & bwd) | {a.initial}
    old = sorted(keep)
    renum = {p: i for i, p in enumerate(old)}
    return make_nfa(
        a.alphabet, len(old), renum[a.initial],
        (renum[q] for q in a.finals if q in keep),
        ((renum[p], x, renum[q]) for (p, x, q) in a.transitions
         if p in keep and q in keep),
        names=[a.state_name(p) for p in old])


def _sccs(a: Nfa) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan), deterministic order.

    Components are returned sorted by their smallest member state.
    """
    succ = {q: sorted(set(t for (_, t) in v)) for q, v in a.successors().items()}
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]
    for root in range(a.n_states):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def scc_collapse(a: Nfa) -> Nfa:
    """Collapse SCCs: the result is partially ordered and accepts the
    downward closure of L(a).

    Letters read inside a component become self-loops on the collapsed
    state; epsilon self-loops are dropped silently.
    """
    comps = _sccs(a)
    comp_of = {}
    for i, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = i
    trans = set()
    for (p, x, q) in a.transitions:
        cp, cq = comp_of[p], comp_of[q]
        if cp == cq and x is None:
            continue
        trans.add((cp, x, cq))
    names = ["+".join(a.state_name(q) for q in comp) for comp in comps]
    out = make_nfa(a.alphabet, len(comps), comp_of[a.initial],
                   {comp_of[q] for q in a.finals}, trans, names=names)
    assert is_partially_ordered(out)
    return out


def is_partially_ordered(a: Nfa) -> bool:
    """Only trivial cycles: the graph without self-loops is acyclic."""
    return _is_dag(a, ignore_self_loops=True)


def is_acyclic(a: Nfa) -> bool:
    return _is_dag(a, ignore_self_loops=False)


def _is_dag(a: Nfa, ignore_self_loops: bool) -> bool:
    succ = {q: set() for q in range(a.n_states)}
    for (p, _, q) in a.transitions:
        if ignore_self_loops and p == q:
            continue
        succ[p].add(q)
    color = {}
    for root in range(a.n_states):
        if color.get(root):
            continue
        todo = [(root, iter(sorted(succ[root])))]
        color[root] = 1
        while todo:
            node, it = todo[-1]
            for child in it:
                c = color.get(child)
                if c == 1:
                    return False
                if c is None:
                    color[child] = 1
                    todo.append((child, iter(sorted(succ[child]))))
                    break
            else:
                color[node] = 2
                todo.pop()
    return True


def topological_order(a: Nfa, ignore_self_loops: bool = True) -> list[int]:
    """Deterministic topological order (Kahn, smallest state id first)."""
    import heapq

    indeg = [0] * a.n_states
    succ = {q: set() for q in range(a.n_states)}
    for (p, _, q) in a.transitions:
        if ignore_self_loops and p == q:
            continue
        if q not in succ[p]:
            succ[p].add(q)
            indeg[q] += 1
    heap = [q for q in range(a.n_states) if indeg[q] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        q = heapq.heappop(heap)
        order.append(q)
        for r in sorted(succ[q]):
            indeg[r] -= 1
            if indeg[r] == 0:
                heapq.heappush(heap, r)
    if len(order) != a.n_states:
        raise ValueError("automaton is not acyclic")
    return order


def ideal_automaton(r: Nfa) -> Nfa:
    """Atom automaton accepting an ideal decomposition of L(r).

    ``r`` must be partially ordered.  Each state q is split into an entry
    state and an exit state q'; the self-loop letters of q become one
    alphabet-atom transition from entry to exit (an epsilon transition when
    q has no self-loops); a letter transition p -> q becomes a single-atom
    transition from p's exit to q's entry; epsilon transitions survive
    between exit and entry.  The ideals of accepted atom words cover exactly
    the downward closure of L(r) (which equals L(r) when r came out of
    scc_collapse).
    """
    if not is_partially_ordered(r):
        raise ValueError("ideal_automaton needs a partially ordered automaton")
    loops: dict[int, set] = {q: set() for q in range(r.n_states)}
    for (p, x, q) in r.transitions:
        if p == q and x is not None:
            loops[p].add(x)
    entry = lambda q: 2 * q
    exit_ = lambda q: 2 * q + 1
    trans = set()
    for q in range(r.n_states):
        if loops[q]:
            trans.add((entry(q), AlphabetStar(tuple(sorted(loops[q]))), exit_(q)))
        else:
            trans.add((entry(q), None, exit_(q)))
    for (p, x, q) in r.transitions:
        if p == q:
            continue
        if x is None:
            trans.add((exit_(p), None, entry(q)))
        else:
            trans.add((exit_(p), Single(x), entry(q)))
    atoms = sorted({x for (_, x, _) in trans if x is not None}, key=sym_key)
    names = []
    for q in range(r.n_states):
        names += [r.state_name(q), r.state_name(q) + "'"]
    out = make_nfa(atoms, 2 * r.n_states, entry(r.initial),
                   {exit_(q) for q in r.finals}, trans, names=names)
    assert is_acyclic(out)
    return out


ENUMERATE_DEFAULT_CAP = 1_000_000


def enumerate_path_ideals(n: Nfa, cap: int = ENUMERATE_DEFAULT_CAP) -> list[IdealRep]:
    """All ideals read along accepting paths of an acyclic atom automaton.

    Returns reduced representations, deduplicated and sorted.  Raises
    ResourceCapExceeded when more than ``cap`` paths would be walked.
    """
    reps = {reduce_rep(w) for w in _path_words(n, cap)}
    return sorted(reps, key=lambda rep: (len(rep), tuple(map(format_atom, rep))))


def enumerate_path_words(n: Nfa, cap: int = ENUMERATE_DEFAULT_CAP) -> list[tuple]:
    """All raw label words along accepting paths (no reduction, deduplicated)."""
    return sorted(_path_words(n, cap), key=lambda w: (len(w), tuple(map(sym_key, w))))


def _path_words(n: Nfa, cap: int) -> set[tuple]:
    """The label words of the accepting paths of an acyclic automaton.

    Depth-first with an explicit stack, so path length is not bounded by
    the recursion limit.  Raises ResourceCapExceeded when more than ``cap``
    accepting paths would be walked.
    """
    if not is_acyclic(n):
        raise ValueError("path enumeration needs an acyclic automaton")
    t = trim(n)
    if not t.finals:
        return set()
    succ = t.successors()
    for q in succ:
        succ[q].sort(key=lambda e: (label_key(e[0]), e[1]))
    paths = 0
    out: set[tuple] = set()
    word: list = []
    frames: list = []  # per path state: (its edges left, whether it read a label)

    def enter(q: int, x) -> None:
        nonlocal paths
        if x is not None:
            word.append(x)
        if q in t.finals:
            paths += 1
            if paths > cap:
                raise ResourceCapExceeded(f"more than {cap} accepting paths")
            out.add(tuple(word))
        frames.append((iter(succ[q]), x is not None))

    enter(t.initial, None)
    while frames:
        (edges, read) = frames[-1]
        edge = next(edges, None)
        if edge is not None:
            enter(edge[1], edge[0])
        else:
            frames.pop()
            if read:
                word.pop()
    return out


PAD_LETTER = "#"


def pad_epsilon(a: Nfa) -> Nfa:
    """Replace epsilon transitions by a fresh padding letter '#'.

    The padding letter gets a self-loop on every state, which keeps the
    directedness verdict of the language unchanged.  Errors when '#' is
    already a letter of the automaton.
    """
    if PAD_LETTER in a.alphabet:
        raise ValueError(f"padding letter {PAD_LETTER!r} already in the alphabet")
    trans = set()
    for (p, x, q) in a.transitions:
        trans.add((p, PAD_LETTER if x is None else x, q))
    for q in range(a.n_states):
        trans.add((q, PAD_LETTER, q))
    return make_nfa(tuple(a.alphabet) + (PAD_LETTER,), a.n_states, a.initial,
                    a.finals, trans, names=a.names)


def determinize_preserving(a: Nfa) -> Nfa:
    """Deterministic automaton with the same directedness verdict.

    Requires an epsilon-free input.  Transition number i (in transition
    order) gets a fresh selector letter b_i; the language becomes the union,
    over accepting paths, of {b_1..b_n}* b_i1 a_i1 ... {b_1..b_n}* b_ik a_ik.
    Reading a selector letter parks the automaton on the chosen transition;
    reading an input letter follows it if it matches.
    """
    for (_, x, _) in a.transitions:
        if x is None:
            raise ValueError("determinize_preserving needs an epsilon-free input "
                             "(apply pad_epsilon first)")
    trans_list = list(a.transitions)
    n = len(trans_list)
    prefix = "b"
    while any(f"{prefix}{i + 1}" in a.alphabet for i in range(n)):
        prefix = "_" + prefix
    selectors = [f"{prefix}{i + 1}" for i in range(n)]

    # states are (q, parked transition index or None), numbered by discovery
    ids: dict[tuple, int] = {}
    names = []

    def state_id(key) -> int:
        if key not in ids:
            ids[key] = len(ids)
            q, sel = key
            names.append(a.state_name(q) if sel is None
                         else f"{a.state_name(q)}@{sel + 1}")
        return ids[key]

    start = state_id((a.initial, None))
    out = set()
    todo = [(a.initial, None)]
    seen = {(a.initial, None)}
    while todo:
        key = todo.pop(0)
        q, sel = key
        src = state_id(key)
        for i in range(n):
            nxt = (q, i)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
            out.add((src, selectors[i], state_id(nxt)))
        if sel is not None:
            (p, x, r) = trans_list[sel]
            if p == q:
                nxt = (r, None)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
                out.add((src, x, state_id(nxt)))
    finals = {ids[(q, None)] for q in a.finals if (q, None) in ids}
    det = make_nfa(tuple(a.alphabet) + tuple(selectors), len(ids), start,
                   finals, out, names=names)
    per_pair = {}
    for (p, x, q) in det.transitions:
        if x is None or (p, x) in per_pair:
            raise AssertionError("determinization produced a nondeterministic result")
        per_pair[(p, x)] = q
    return det


def parse_nfa(text: str, parse_label=None) -> Nfa:
    """Read the automaton text format.

    ``alphabet:``, ``states:``, ``initial:`` and ``final:`` lines followed by
    one ``src label dst`` line per transition, ``eps`` for the empty label;
    ``#`` starts a comment.  ``parse_label`` maps declared label tokens to
    label values (atoms for ideal automata); the default reads letters.
    """
    if parse_label is None:
        parse_label = check_letter
    sections: dict = dict.fromkeys(("alphabet", "states", "initial", "final"))
    raw_trans = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, rest = line.partition(":")
        if colon and key.strip() in sections:
            key = key.strip()
            if sections[key] is not None:
                raise ValueError(f"line {lineno}: duplicate {key}: section")
            sections[key] = rest.split()
            continue
        toks = line.split()
        if len(toks) != 3:
            raise ValueError(f"line {lineno}: expected 'src label dst', got {raw!r}")
        raw_trans.append((lineno, toks))
    for key, value in sections.items():
        if value is None:
            raise ValueError(f"missing {key}: line")
    labels = {tok: parse_label(tok) for tok in sections["alphabet"]}
    names = sections["states"]
    if len(set(names)) != len(names):
        raise ValueError("duplicate state names")
    index = {name: i for i, name in enumerate(names)}
    if len(sections["initial"]) != 1:
        raise ValueError("exactly one initial state expected")

    def state(name: str, lineno=None) -> int:
        if name not in index:
            where = f"line {lineno}: " if lineno else ""
            raise ValueError(f"{where}unknown state {name!r}")
        return index[name]

    transitions = []
    for (lineno, (src, label, dst)) in raw_trans:
        if label != "eps" and label not in labels:
            raise ValueError(f"line {lineno}: undeclared label {label!r}")
        transitions.append((state(src, lineno),
                            None if label == "eps" else labels[label],
                            state(dst, lineno)))
    name_tuple = tuple(names)
    if name_tuple == tuple(f"q{i}" for i in range(len(names))):
        name_tuple = None  # default names; keep pure round-trips exact
    return make_nfa(labels.values(), len(names), state(sections["initial"][0]),
                    (state(s) for s in sections["final"]), transitions,
                    names=name_tuple)


def format_nfa(a: Nfa) -> str:
    def label_text(x) -> str:
        return "eps" if x is None else sym_key(x)

    lines = ["alphabet: " + " ".join(sym_key(x) for x in a.alphabet),
             "states: " + " ".join(a.state_name(q) for q in range(a.n_states)),
             "initial: " + a.state_name(a.initial),
             "final: " + " ".join(a.state_name(q) for q in sorted(a.finals))]
    lines += [f"{a.state_name(p)} {label_text(x)} {a.state_name(q)}"
              for (p, x, q) in a.transitions]
    return "\n".join(lines) + "\n"
