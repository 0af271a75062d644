"""Context-free grammars: normal form, ideal grammars, maximum-weight SLPs.

Terminals are letters (str) or atoms; nonterminals are referenced through
``Nt`` wrappers so a body is an unambiguous mixed tuple.  Productions live
in one flat, deterministically sorted tuple; "first production" below always
means first in that order.

The central construction turns a grammar in Chomsky normal form into an
acyclic grammar over atoms whose derived atom words form an ideal
decomposition of the downward closure.  Nonterminals that can reproduce
themselves twice in one sentential form close off to a full alphabet-star
atom; those that reproduce themselves exactly once do so along mutual
recursion classes, which contribute flanking alphabet-star atoms collected
from the left and right siblings of the recursion; everything else is copied
structurally.

``max_weight_slp`` picks one maximum-weight atom word as a straight-line
program.  Words weigh their atom-rank histogram, heaviest rank first, which
orders them as mu_k with k = 3 * 2^(2|N|) does, since an acyclic CNF
grammar derives at most 2^(|N|-1) atoms (see ``maxweight``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from dirlang import maxweight
from dirlang.ideals import (
    AlphabetStar,
    Atom,
    Single,
    format_atom,
)

_NAME_RE = re.compile(r"^[^\s|:{}]+$")


def check_name(x: str) -> str:
    if not isinstance(x, str) or not _NAME_RE.match(x) or x == "eps" or "->" in x:
        raise ValueError(f"bad nonterminal name {x!r}")
    if x.endswith("?") or x.endswith("*"):
        raise ValueError(f"nonterminal name {x!r} would be read back as an atom")
    return x


@dataclass(frozen=True)
class Nt:
    """Reference to a nonterminal inside a production body."""

    name: str

    def __post_init__(self):
        check_name(self.name)


def sym_text(s) -> str:
    """Serialized form of a body symbol (terminal, atom, or Nt)."""
    if isinstance(s, Nt):
        return s.name
    if isinstance(s, (Single, AlphabetStar)):
        return format_atom(s)
    return s


def _body_key(body) -> tuple:
    return tuple((1, s.name) if isinstance(s, Nt) else (0, sym_text(s))
                 for s in body)


@dataclass(frozen=True)
class Cfg:
    """Context-free grammar with a deterministic production order."""

    terminals: tuple
    start: str
    productions: tuple  # of (head: str, body: tuple of terminal | Nt)

    def __post_init__(self):
        check_name(self.start)
        declared = set(self.terminals)
        for t in declared:
            if isinstance(t, str):
                check_name(t)  # same token rules as nonterminal names
        for (head, body) in self.productions:
            check_name(head)
            if head in declared:
                raise ValueError(f"{head!r} is declared terminal but used as a head")
            for s in body:
                if isinstance(s, Nt):
                    if s.name in declared:
                        raise ValueError(f"{s.name!r} is both terminal and nonterminal")
                elif s not in declared:
                    raise ValueError(f"undeclared terminal {sym_text(s)!r}")
        if self.start in declared:
            raise ValueError("the start symbol cannot be a terminal")

    @cached_property
    def nonterminals(self) -> tuple:
        names = {self.start}
        for (head, body) in self.productions:
            names.add(head)
            names.update(s.name for s in body if isinstance(s, Nt))
        return tuple(sorted(names))

    def by_head(self) -> dict:
        out = {a: [] for a in self.nonterminals}
        for (head, body) in self.productions:
            out[head].append(body)
        return out

    def check_cnf(self):
        """Raise unless every production is A -> B C (B, C nonterminals,
        neither the start), A -> terminal, or start -> epsilon."""
        for (head, body) in self.productions:
            if len(body) == 2:
                if not (isinstance(body[0], Nt) and isinstance(body[1], Nt)):
                    raise ValueError(f"not CNF: mixed binary body in {head}")
                if self.start in (body[0].name, body[1].name):
                    raise ValueError("not CNF: start symbol on a right-hand side")
            elif len(body) == 1:
                if isinstance(body[0], Nt):
                    raise ValueError(f"not CNF: unit production {head} -> {body[0].name}")
            elif body == ():
                if head != self.start:
                    raise ValueError(f"not CNF: epsilon production for {head}")
            else:
                raise ValueError(f"not CNF: body of length {len(body)} in {head}")

    def cleaned(self) -> "Cfg":
        return cleaned(self)


def is_cnf(g: Cfg) -> bool:
    """Does ``g.check_cnf()`` pass?"""
    try:
        g.check_cnf()
    except ValueError:
        return False
    return True


def make_cfg(terminals, start, prods) -> Cfg:
    """Normalize construction: sorted terminals, deduplicated sorted productions."""
    terms = tuple(sorted(set(terminals), key=sym_text))
    uniq = sorted({(head, tuple(body)) for (head, body) in prods},
                  key=lambda p: (p[0], _body_key(p[1])))
    return Cfg(terms, start, tuple(uniq))


def fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def cleaned(g: Cfg) -> Cfg:
    """Drop productions of non-productive or unreachable nonterminals.

    The start symbol survives even when the language is empty.
    """
    productive: set = set()
    changed = True
    while changed:
        changed = False
        for (head, body) in g.productions:
            if head in productive:
                continue
            if all(s.name in productive for s in body if isinstance(s, Nt)):
                productive.add(head)
                changed = True
    reachable = {g.start}
    todo = [g.start]
    by_head = g.by_head()
    while todo:
        a = todo.pop()
        for body in by_head.get(a, ()):
            if any(isinstance(s, Nt) and s.name not in productive for s in body):
                continue
            for s in body:
                if isinstance(s, Nt) and s.name not in reachable:
                    reachable.add(s.name)
                    todo.append(s.name)
    keep = [(h, b) for (h, b) in g.productions
            if h in productive and h in reachable
            and all(s.name in productive for s in b if isinstance(s, Nt))]
    return make_cfg(g.terminals, g.start, keep)


def product_exits(g: Cfg, initial: int, eps_close, steps) -> dict:
    """Demand-driven product of a CNF grammar with an automaton.

    The automaton side is two callables: ``eps_close(p)``, the states
    reachable from p without reading, and ``steps(p, x)``, the ``(q,
    output)`` pairs of runs from p to q reading exactly the terminal x.
    Returns exits[(A, p)]: every state in which a run from p can end after
    reading some word derived from A.  Only pairs demanded from
    ``(g.start, initial)`` are evaluated (Bar-Hillel, Perles and Shamir
    1961, built top-down instead of over all state triples).
    """
    leaves: dict = {a: [] for a in g.nonterminals}
    binary: dict = {a: [] for a in g.nonterminals}
    for (head, body) in g.productions:
        (binary if len(body) == 2 else leaves)[head].append(body)
    exits: dict = {}
    deps: dict = {}
    dirty: list = []

    def demand(pair, by) -> set:
        got = exits.get(pair)
        if got is None:
            (a, p) = pair
            got = exits[pair] = set()
            for body in leaves[a]:
                got.update(eps_close(p) if body == ()
                           else (q for (q, _) in steps(p, body[0])))
            deps[pair] = set()
            dirty.append(pair)
        if by is not None:
            deps[pair].add(by)
        return got

    demand((g.start, initial), None)
    while dirty:
        pair = dirty.pop()
        (a, p) = pair
        new = set()
        for (b, c) in binary[a]:
            for q in demand((b.name, p), pair):
                new |= demand((c.name, q), pair)
        got = exits[pair]
        if not new <= got:
            got |= new
            dirty.extend(deps[pair])
    return exits


def product_grammar(g: Cfg, initial: int, finals, terminals,
                    eps_close, steps) -> Cfg:
    """Grammar of the outputs along the automaton runs over L(g).

    ``A@p.q`` derives the outputs of the runs from p to q that read a word
    derived from A (an output of None emits nothing); the start ``Z``
    derives those of the runs from ``initial`` to a final state.  Only the
    pairs and exits of ``product_exits`` get productions.  ``terminals``
    is declared as given, so unused outputs stay declared.
    """
    exits = product_exits(g, initial, eps_close, steps)
    by_head = g.by_head()
    prods = []
    for (a, p) in exits:
        for body in by_head[a]:
            if body == ():
                prods.extend((f"{a}@{p}.{q}", ()) for q in eps_close(p))
            elif len(body) == 1:
                prods.extend((f"{a}@{p}.{q}", () if o is None else (o,))
                             for (q, o) in steps(p, body[0]))
            else:
                b, c = body[0].name, body[1].name
                for r in exits[(b, p)]:
                    left = Nt(f"{b}@{p}.{r}")
                    prods.extend((f"{a}@{p}.{q}", (left, Nt(f"{c}@{r}.{q}")))
                                 for q in exits[(c, r)])
    reached = exits[(g.start, initial)]
    prods.extend(("Z", (Nt(f"{g.start}@{initial}.{f}"),))
                 for f in finals if f in reached)
    return make_cfg(terminals, "Z", prods).cleaned()


def to_cnf(g: Cfg) -> Cfg:
    """Chomsky normal form with the same language.

    Fresh start, terminal wrapping, body splitting, nullable elimination,
    unit elimination, then cleaning.  All fresh names are deterministic.
    Acyclic grammars stay acyclic.
    """
    taken = set(g.nonterminals) | {sym_text(t) for t in g.terminals}

    start = fresh_name("S0", taken)
    taken.add(start)
    prods = [(start, (Nt(g.start),))] + list(g.productions)

    # wrap terminals occurring in long bodies
    wrapped: dict = {}
    for t in sorted(g.terminals, key=sym_text):
        name = fresh_name("T", taken | set(wrapped.values()))
        wrapped[t] = name
    used_wrappers = set()
    step2 = []
    for (head, body) in prods:
        if len(body) >= 2:
            new = tuple(s if isinstance(s, Nt) else Nt(wrapped[s]) for s in body)
            used_wrappers.update(s for s in body if not isinstance(s, Nt))
            step2.append((head, new))
        else:
            step2.append((head, body))
    for t in sorted(used_wrappers, key=sym_text):
        step2.append((wrapped[t], (t,)))
        taken.add(wrapped[t])

    # split long bodies
    step3 = []
    counter = [0]

    def fresh_bin() -> str:
        counter[0] += 1
        name = fresh_name(f"B{counter[0]}", taken)
        taken.add(name)
        return name

    for (head, body) in step2:
        while len(body) > 2:
            n = fresh_bin()
            step3.append((head, (body[0], Nt(n))))
            head, body = n, body[1:]
        step3.append((head, body))

    # nullable elimination
    nullable: set = set()
    changed = True
    while changed:
        changed = False
        for (head, body) in step3:
            if head not in nullable and all(
                    isinstance(s, Nt) and s.name in nullable for s in body):
                nullable.add(head)
                changed = True
    step4 = set()
    for (head, body) in step3:
        options = [[]]
        for s in body:
            if isinstance(s, Nt) and s.name in nullable:
                options = [o + [s] for o in options] + [list(o) for o in options]
            else:
                options = [o + [s] for o in options]
        for o in options:
            if o or head == start:
                step4.add((head, tuple(o)))
    if start in nullable:
        step4.add((start, ()))

    # unit elimination
    by_head: dict = {}
    for (head, body) in step4:
        by_head.setdefault(head, []).append(body)
    heads = sorted(by_head)
    unit_reach = {}
    for a in heads:
        seen = {a}
        todo = [a]
        while todo:
            b = todo.pop()
            for body in by_head.get(b, ()):
                if len(body) == 1 and isinstance(body[0], Nt) and body[0].name not in seen:
                    seen.add(body[0].name)
                    todo.append(body[0].name)
        unit_reach[a] = seen
    final = []
    for a in heads:
        for b in sorted(unit_reach[a]):
            for body in by_head.get(b, ()):
                if len(body) == 1 and isinstance(body[0], Nt):
                    continue
                final.append((a, body))

    out = make_cfg(g.terminals, start, final).cleaned()
    out.check_cnf()
    return out


def children_first(g: Cfg) -> list:
    """Every nonterminal, each after all nonterminals its bodies mention.

    Iterative depth-first search from the nonterminals in sorted order;
    raises ValueError when a nonterminal can reappear in its own
    derivations.
    """
    succ = {a: set() for a in g.nonterminals}
    for (head, body) in g.productions:
        succ[head].update(s.name for s in body if isinstance(s, Nt))
    color: dict = {}
    order = []
    for root in g.nonterminals:
        if color.get(root):
            continue
        todo = [(root, iter(sorted(succ[root])))]
        color[root] = 1
        while todo:
            node, it = todo[-1]
            for child in it:
                c = color.get(child)
                if c == 1:
                    raise ValueError(f"cyclic grammar: {child} derives itself")
                if c is None:
                    color[child] = 1
                    todo.append((child, iter(sorted(succ[child]))))
                    break
            else:
                color[node] = 2
                order.append(node)
                todo.pop()
    return order


def is_acyclic(g: Cfg) -> bool:
    """No nonterminal can reappear in its own derivations."""
    try:
        children_first(g)
    except ValueError:
        return False
    return True


def occurrence_reach(g: Cfg) -> dict:
    """reach[A] = nonterminals occurring in sentential forms derivable from A
    (reflexive-transitive).  Exact on cleaned grammars."""
    succ = {a: set() for a in g.nonterminals}
    for (head, body) in g.productions:
        succ[head].update(s.name for s in body if isinstance(s, Nt))
    reach = {}
    for a in g.nonterminals:
        seen = {a}
        todo = [a]
        while todo:
            b = todo.pop()
            for c in succ[b]:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        reach[a] = seen
    return reach


def letters_of(g: Cfg) -> dict:
    """alph[A] = terminals derivable from A.  Exact on cleaned grammars."""
    reach = occurrence_reach(g)
    direct = {a: set() for a in g.nonterminals}
    for (head, body) in g.productions:
        direct[head].update(s for s in body if not isinstance(s, Nt))
    return {a: frozenset(t for b in reach[a] for t in direct[b])
            for a in g.nonterminals}


@dataclass(frozen=True)
class SelfProduction:
    """How the nonterminals of a cleaned CNF grammar reproduce themselves.

    ``twice`` holds every A deriving a sentential form with two copies of A;
    ``classes`` are the mutual recursion classes of those deriving exactly
    one copy (sorted tuples, sorted by first member); ``others`` never
    reproduce.  ``alph`` maps each nonterminal to its derivable letters, and
    ``flanks`` maps each class to the letter sets derivable strictly left
    and strictly right of the recursion, collected over the class-internal
    binary productions of all members.
    """

    twice: frozenset
    classes: tuple
    others: tuple
    alph: dict
    flanks: dict


def self_production_classes(g: Cfg) -> SelfProduction:
    reach = occurrence_reach(g)
    alph = letters_of(g)
    twice = set()
    for (head, body) in g.productions:
        if len(body) != 2:
            continue
        b, c = body[0].name, body[1].name
        for a in g.nonterminals:
            if head in reach[a] and a in reach[b] and a in reach[c]:
                twice.add(a)
    once = set()
    for a in g.nonterminals:
        if a in twice:
            continue
        # a strictly positive cycle back to a
        if any(a in reach[b] for b in
               (s.name for (h, body) in g.productions if h == a
                for s in body if isinstance(s, Nt))):
            once.add(a)
    classes = []
    assigned = set()
    for a in sorted(once):
        if a in assigned:
            continue
        cls = tuple(sorted(b for b in once if b in reach[a] and a in reach[b]))
        assigned.update(cls)
        classes.append(cls)
    flanks = {}
    for cls in classes:
        members = set(cls)
        left: set = set()
        right: set = set()
        for (head, body) in g.productions:
            if head in members and len(body) == 2:
                b, c = body[0].name, body[1].name
                if c in members:
                    left |= alph[b]
                if b in members:
                    right |= alph[c]
        flanks[cls] = (frozenset(left), frozenset(right))
    others = tuple(a for a in g.nonterminals if a not in twice and a not in assigned)
    return SelfProduction(frozenset(twice), tuple(classes), others, alph, flanks)


def ideal_grammar(g: Cfg) -> Cfg:
    """Acyclic atom grammar deriving an ideal decomposition of the downward
    closure of L(g).  ``g`` must be cleaned CNF.

    Twice-reproducing nonterminals close off to one alphabet-star atom over
    their derivable letters.  A mutual recursion class contributes flanking
    alphabet-star atoms over the letters of left and right siblings of its
    internal productions, wrapped around a shared core that carries the
    non-recursive exits of all class members.  Structural productions are
    copied with barred heads; every new nonterminal may also derive the
    empty atom word (the {epsilon} ideal, harmless in any decomposition).
    """
    g.check_cnf()
    if make_cfg(g.terminals, g.start, g.productions).cleaned() != g:
        raise ValueError("ideal_grammar needs a cleaned grammar")
    if not any(head == g.start for (head, _) in g.productions):
        # the empty language has the empty decomposition, which no grammar
        # with the unconditional epsilon step below could express
        raise ValueError("the grammar derives nothing; handle emptiness first")
    reach = occurrence_reach(g)
    sp = self_production_classes(g)
    twice, classes, alph = sp.twice, sp.classes, sp.alph
    class_of = {}
    for cls in classes:
        for a in cls:
            class_of[a] = cls

    taken = set(g.nonterminals)
    bar = {}
    for a in g.nonterminals:
        bar[a] = fresh_name(f"{a}^", taken)
        taken.add(bar[a])
    core = {}
    for cls in classes:
        core[cls] = fresh_name(f"{cls[0]}^^", taken)
        taken.add(core[cls])

    def exit_head(a: str) -> str:
        return core[class_of[a]] if a in class_of else bar[a]

    prods = []
    handled = set()

    for a in sorted(twice):
        prods.append((bar[a], (AlphabetStar(tuple(sorted(alph[a]))),)))

    for cls in classes:
        left, right = sp.flanks[cls]
        flank_l = (AlphabetStar(tuple(sorted(left))),) if left else ()
        flank_r = (AlphabetStar(tuple(sorted(right))),) if right else ()
        for a in cls:
            prods.append((bar[a], flank_l + (Nt(core[cls]),) + flank_r))

    for (head, body) in g.productions:
        if len(body) == 1:
            prods.append((exit_head(head), (Single(body[0]),)))
            handled.add((head, body))
        elif len(body) == 0:
            prods.append((exit_head(head), ()))
            handled.add((head, body))
        else:
            b, c = body[0].name, body[1].name
            if head not in reach[b] and head not in reach[c]:
                if head in twice:
                    continue  # subsumed by the alphabet-star closure
                prods.append((exit_head(head), (Nt(bar[b]), Nt(bar[c]))))
                handled.add((head, body))

    for (head, body) in g.productions:
        if (head, body) in handled:
            continue
        cls = class_of.get(head)
        internal = (len(body) == 2 and cls is not None
                    and (body[0].name in cls or body[1].name in cls))
        if not (head in twice or internal):
            raise AssertionError(f"production {head} -> {body} matched no step")

    new_names = sorted(set(bar.values()) | set(core.values()))
    for y in new_names:
        prods.append((y, ()))

    atoms = {s for (_, body) in prods for s in body if not isinstance(s, Nt)}
    out = make_cfg(sorted(atoms, key=format_atom), bar[g.start], prods).cleaned()
    if not is_acyclic(out):
        raise AssertionError("ideal grammar came out cyclic")
    return out


def reduced_ideal_grammar(g: Cfg) -> Cfg:
    """Acyclic CNF grammar over atoms deriving exactly the reduced forms of
    an ideal decomposition of the downward closure of L(g).

    Builds the ideal grammar of the Chomsky normal form, then runs the
    right- and left-reduction transducers over it (re-normalizing after
    each), so every derived atom word is syntactically reduced and the set
    of ideals is unchanged.  Raises for the empty language, which has the
    empty decomposition.
    """
    return reduced_ideal_grammar_of_cnf(to_cnf(g))


def reduced_ideal_grammar_of_cnf(h: Cfg) -> Cfg:
    """``reduced_ideal_grammar(g)`` from ``h = to_cnf(g)``, for callers that
    need the normal form themselves too."""
    from dirlang import transducers

    idl = to_cnf(ideal_grammar(h))
    atoms = tuple(idl.terminals)
    tl = transducers.build_TL(atoms)
    halfway = to_cnf(transducers.apply_to_cfg(transducers.reverse(tl), idl))
    out = to_cnf(transducers.apply_to_cfg(tl, halfway))
    if not is_acyclic(out):
        raise AssertionError("reduced ideal grammar came out cyclic")
    return out


def max_weight_slp(g: Cfg) -> Cfg:
    """Straight-line program deriving one maximum-weight atom word of g.

    ``g`` is an acyclic grammar over atoms.  One ``maxweight.max_weights``
    pass over its nonterminals, children first, with each nonterminal's
    productions in ``by_head`` order as its alternatives; the program keeps
    the first production attaining the maximum of each nonterminal reached
    from the start through kept productions.  Errors when g derives nothing
    or is cyclic.
    """
    by_head = g.by_head()
    alternatives = {a: [(tuple(s for s in body if not isinstance(s, Nt)),
                         tuple(s.name for s in body if isinstance(s, Nt)))
                        for body in bodies]
                    for a, bodies in by_head.items()}
    best, choice = maxweight.max_weights(children_first(g), alternatives)
    if best[g.start] is None:
        raise ValueError("the grammar derives no atom word")
    chosen = {}
    todo = [g.start]
    while todo:
        a = todo.pop()
        if a not in chosen:
            chosen[a] = by_head[a][choice[a]]
            todo.extend(s.name for s in chosen[a] if isinstance(s, Nt))
    return make_cfg(g.terminals, g.start, chosen.items())


def prefixed(g: Cfg, prefix: str) -> Cfg:
    """Rename every nonterminal with a prefix (for disjoint unions)."""
    def rn(s):
        return Nt(prefix + s.name) if isinstance(s, Nt) else s
    return make_cfg(g.terminals, prefix + g.start,
                    [(prefix + head, tuple(rn(s) for s in body))
                     for (head, body) in g.productions])


def parse_cfg(text: str, parse_terminal=None) -> Cfg:
    """Read the grammar text format.

    One ``terminals:`` line, one ``start:`` line, then ``head -> body | body``
    production lines; bodies are whitespace-separated symbols, ``eps`` the
    empty body.  ``#`` starts a comment.  A body symbol is a terminal iff it
    was declared, otherwise a nonterminal.  ``parse_terminal`` maps declared
    terminal tokens to terminal values (atoms, say); default keeps the token.
    """
    if parse_terminal is None:
        parse_terminal = lambda tok: tok
    terminals: dict | None = None
    start = None
    prods = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("terminals:"):
            if terminals is not None:
                raise ValueError("duplicate terminals: line")
            terminals = {tok: parse_terminal(tok)
                         for tok in line[len("terminals:"):].split()}
            continue
        if line.startswith("start:"):
            if start is not None:
                raise ValueError("duplicate start: line")
            start = line[len("start:"):].strip()
            continue
        head, arrow, rest = line.partition("->")
        head = head.strip()
        if not arrow or not _NAME_RE.match(head):
            raise ValueError(f"unrecognized grammar line {raw!r}")
        if terminals is None:
            raise ValueError("productions before the terminals: line")
        for alt in rest.split("|"):
            toks = alt.split()
            if toks == ["eps"]:
                prods.append((head, ()))
                continue
            if not toks:
                raise ValueError(f"empty alternative for {head!r}; write 'eps'")
            prods.append((head, tuple(terminals[t] if t in terminals else Nt(t)
                                      for t in toks)))
    if terminals is None or start is None:
        raise ValueError("grammar text needs terminals: and start: lines")
    return make_cfg(terminals.values(), start, prods)


def format_cfg(g: Cfg) -> str:
    lines = ["terminals: " + " ".join(sym_text(t) for t in g.terminals),
             "start: " + g.start]
    by_head = g.by_head()
    for a in g.nonterminals:
        if not by_head[a]:
            continue
        alts = [" ".join(sym_text(s) for s in body) if body else "eps"
                for body in by_head[a]]
        lines.append(f"{a} -> " + " | ".join(alts))
    return "\n".join(lines) + "\n"
