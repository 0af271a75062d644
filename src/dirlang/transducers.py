"""Reduction transducers over atom words and their application to NFAs/CFGs.

The left-reduction machine T_L copies its input atom word but erases every
atom absorbed by the most recent surviving alphabet atom; it is
input-deterministic, so it computes a function.  The right-reduction machine
T_R is T_L reversed.  Applying T_R and then T_L to an automaton or grammar
over atoms yields one that accepts exactly the reduced forms of the original
atom words (with the same ideals).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from dirlang import automata
from dirlang.ideals import (
    Absorption,
    AlphabetStar,
    Atom,
    Single,
    absorbs,
    format_atom,
)


@dataclass(frozen=True)
class Transducer:
    """Finite transducer over atoms.  Rules are (src, inp, out, dst);
    an input of None consumes nothing (all such rules also emit nothing)."""

    n_states: int
    initial: int
    finals: frozenset
    rules: tuple
    names: tuple = None

    def state_name(self, q: int) -> str:
        return self.names[q] if self.names is not None else f"t{q}"

    def indexed(self) -> tuple:
        """(by_input, eps): by_input[(p, x)] lists the (out, q) of the rules
        reading x from p, eps[p] the targets of p's consuming-nothing rules;
        both keep rule order."""
        by_input: dict = {}
        eps: dict = {}
        for (p, i, o, q) in self.rules:
            if i is None:
                if o is not None:
                    raise ValueError("consuming-nothing rules must emit nothing")
                eps.setdefault(p, []).append(q)
            else:
                by_input.setdefault((p, i), []).append((o, q))
        return by_input, eps

    def sources(self) -> dict:
        """sources[(x, q)]: the states with a rule reading x into q, x None
        for the consuming-nothing rules."""
        out: dict = {}
        for (p, i, _, q) in self.rules:
            out.setdefault((i, q), set()).add(p)
        return out


def build_TL(atoms) -> Transducer:
    """Left-reduction transducer over the atom alphabet ``atoms``.

    States: a start state, a "last output was a single atom" state, and one
    state per alphabet atom.  Every state copies an incoming atom and moves
    to the state of that atom, except that an alphabet-atom state erases any
    atom it absorbs.  Every state is final (so the empty word maps to
    itself; dropping it would lose the representation of {epsilon}).
    """
    gamma = sorted(set(atoms), key=format_atom)
    stars = [a for a in gamma if isinstance(a, AlphabetStar)]
    state_of = {a: 2 + i for i, a in enumerate(stars)}
    names = ["start", "single"] + [format_atom(a) for a in stars]

    def phi(a: Atom) -> int:
        return 1 if isinstance(a, Single) else state_of[a]

    rules = []
    for t in (0, 1):
        for a in gamma:
            rules.append((t, a, a, phi(a)))
    for star_atom, t in state_of.items():
        for a in gamma:
            if absorbs(star_atom, a) in (Absorption.LEFT, Absorption.BOTH):
                rules.append((t, a, None, t))
            else:
                rules.append((t, a, a, phi(a)))
    n = 2 + len(stars)
    return Transducer(n, 0, frozenset(range(n)), tuple(rules), tuple(names))


def reverse(t: Transducer) -> Transducer:
    """Reversal: runs of the result on w mirror runs of ``t`` on reversed w.

    Implemented with a fresh initial state linked by consuming-nothing,
    emitting-nothing rules to the old final states; the old initial state
    becomes the only final one.
    """
    fresh = t.n_states
    rules = [(q, i, o, p) for (p, i, o, q) in t.rules]
    for f in sorted(t.finals):
        rules.append((fresh, None, None, f))
    names = None
    if t.names is not None:
        names = t.names + ("rev-start",)
    return Transducer(t.n_states + 1, fresh, frozenset((t.initial,)),
                      tuple(rules), names)


def build_TR(atoms) -> Transducer:
    """Right-reduction transducer: the reversal of T_L."""
    return reverse(build_TL(atoms))


def apply_to_nfa(t: Transducer, n: automata.Nfa) -> automata.Nfa:
    """Image automaton: L(result) = t(L(n)).  Product construction; the
    result is trimmed and deterministically numbered.

    When ``t`` is co-deterministic (each state is entered on a given atom
    from one state only, as in T_R), a backward search from the final pairs
    first finds the live pairs, those from which a final pair is reachable,
    and the forward search creates only those.  The states, names,
    transitions and finals come out as without the search: a dead pair has
    only dead successors, so skipping the dead pairs keeps the discovery
    order of the live ones, which is the order ``trim`` numbers them in.
    The declared alphabet is the outputs of the explored transitions, so
    it no longer lists atoms output only into dead pairs.  For a transducer
    that is not co-deterministic (T_L, every state final) the backward
    search would be the larger side, and its forward product is nearly all
    live anyway.
    """
    by_input, eps_rules = t.indexed()
    sources = t.sources()
    live = None
    if all(len(ps) == 1 for ((x, _), ps) in sources.items() if x is not None):
        live = _live_pairs(t, n, sources)

    ids: dict[tuple, int] = {}
    names = []

    def state_id(key) -> int:
        if key not in ids:
            ids[key] = len(ids)
            s, p = key
            names.append(f"{n.state_name(s)}|{t.state_name(p)}")
        return ids[key]

    succ = n.successors()
    start = (n.initial, t.initial)
    state_id(start)
    todo = [start]
    trans = set()
    while todo:
        key = todo.pop()
        s, p = key
        src = ids[key]
        moves = []
        for (x, s2) in succ[s]:
            if x is None:
                moves.append((None, (s2, p)))
            else:
                for (o, p2) in by_input.get((p, x), ()):
                    moves.append((o, (s2, p2)))
        for tq in eps_rules.get(p, ()):
            moves.append((None, (s, tq)))
        for (o, key2) in moves:
            if live is not None and key2 not in live:
                continue
            if key2 not in ids:
                todo.append(key2)
            trans.add((src, o, state_id(key2)))
    finals = {i for (key, i) in ids.items()
              if key[0] in n.finals and key[1] in t.finals}
    atoms = sorted({x for (_, x, _) in trans if x is not None},
                   key=automata.sym_key)
    out = automata.make_nfa(atoms, len(ids), ids[start], finals, trans,
                            names=names)
    return automata.trim(out)


def _live_pairs(t: Transducer, n: automata.Nfa, sources: dict) -> set:
    """The product pairs (state of n, state of t) from which a pair of two
    final states is reachable: a backward search over n's predecessor edges
    and ``sources``, t's rule sources keyed by (input, target)."""
    pred = {s: [] for s in range(n.n_states)}
    for (s, x, s2) in n.transitions:
        pred[s2].append((x, s))
    live = {(s, p) for s in n.finals for p in t.finals}
    todo = list(live)
    while todo:
        s2, p2 = todo.pop()
        back = [(s2, p) for p in sources.get((None, p2), ())]
        for (x, s) in pred[s2]:
            if x is None:
                back.append((s, p2))
            else:
                back += [(s, p) for p in sources.get((x, p2), ())]
        for key in back:
            if key not in live:
                live.add(key)
                todo.append(key)
    return live


def transduce_word(t: Transducer, word) -> list[tuple]:
    """All outputs of ``t`` on a single atom word (sorted, deduplicated)."""
    word = tuple(word)
    n = len(word)
    chain = automata.make_nfa(
        sorted(set(word), key=automata.sym_key), n + 1, 0, {n},
        [(i, word[i], i + 1) for i in range(n)])
    image = apply_to_nfa(t, chain)
    return automata.enumerate_path_words(image)


def apply_to_cfg(t: Transducer, g: "grammars.Cfg") -> "grammars.Cfg":
    """Image grammar: L(result) = t(L(g)).  ``g`` must be in Chomsky
    normal form.

    One demand-driven product (``grammars.product_grammar``): ``A@p.q``
    derives the images of the words of A along runs from p to q, and only
    the state pairs reached from the start get productions.  The declared
    terminals are every output of every state on every unit-body terminal
    of ``g``, whether or not a kept production uses it.
    """
    from dirlang import grammars

    g.check_cnf()
    by_input, eps_succ = t.indexed()

    @functools.cache
    def eps_close(p: int) -> frozenset:
        """States reachable from p by consuming-nothing rules, p included."""
        seen = {p}
        todo = [p]
        while todo:
            for q in eps_succ.get(todo.pop(), ()):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        return frozenset(seen)

    @functools.cache
    def steps(p: int, a: Atom) -> list:
        """All (q, out) with a path p -> q consuming exactly the atom a."""
        return list({(q, o) for p1 in eps_close(p)
                     for (o, p2) in by_input.get((p1, a), ())
                     for q in eps_close(p2)})

    units = {body[0] for (_, body) in g.productions if len(body) == 1}
    terminals = {o for a in units for p in range(t.n_states)
                 for (_, o) in steps(p, a) if o is not None}
    return grammars.product_grammar(g, t.initial, sorted(t.finals), terminals,
                                    eps_close, steps)
