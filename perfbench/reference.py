"""Reference answers that do not come from the code under test.

Sources: the facts each generator guarantees by construction, the package's
brute-force ``oracle`` module (never timed as product), and this file's own
small procedures: a subword-closure simulation of an automaton, a greedy
atom embedding for ideal inclusion, a decomposition of an automaton's
closure into maximal ideals, and an SLP expander.

``check(lib, query, answer)`` returns a list of problems; an empty list
means the answer is right.  Atoms are handled as plain tuples,
``("?", x)`` and ``("*", letters)``.
"""

from __future__ import annotations

# Witness checks with oracle.ideal_member_dp run when the word length times
# the rep length stays under this; longer pairs are settled by construction.
DP_LIMIT = 400_000
# Decomposition answers on inputs of at most this many blocks are also
# compared with oracle.decompose_bruteforce.
BRUTE_BLOCKS = 12


# --------------------------------------------------------------- atoms


def plain(atom) -> tuple:
    """A library atom as a plain tuple."""
    if hasattr(atom, "letter"):
        return ("?", atom.letter)
    return ("*", tuple(atom.letters))


def plain_rep(rep) -> tuple:
    return tuple(plain(a) for a in rep)


def lib_rep(lib, rep) -> tuple:
    """Plain atoms back as library atoms, for the oracle."""
    return tuple(lib.ideals.Single(x) if kind == "?"
                 else lib.ideals.AlphabetStar(tuple(sorted(x)))
                 for kind, x in rep)


def rep_included(sub, sup) -> bool:
    """Idl(sub) inside Idl(sup): map the atoms of ``sub`` in order onto atoms
    of ``sup`` that contain them, where only an alphabet atom may take more
    than one; the leftmost greedy choice finds a map when one exists."""
    j, n = 0, len(sup)
    for atom in sub:
        kind, x = atom
        while j < n:
            skind, sx = sup[j]
            if skind == "?":
                if atom == sup[j]:
                    j += 1
                    break
            elif x in sx if kind == "?" else all(y in sx for y in x):
                break
            j += 1
        else:
            return False
    return True


def rep_equal(r1, r2) -> bool:
    return rep_included(r1, r2) and rep_included(r2, r1)


def char_word(rep, mult: int) -> tuple:
    """A long word of Idl(rep): each alphabet atom spelled ``mult`` times."""
    out = []
    for kind, x in rep:
        out.extend([x] if kind == "?" else list(x) * mult)
    return tuple(out)


# ---------------------------------------------------------------- automata


def parse_nfa_text(text: str) -> dict:
    """The generated automaton text, read without the package."""
    nfa = {"edges": []}
    for line in text.splitlines():
        key, colon, rest = line.partition(":")
        if colon:
            nfa[key] = rest.split()
        else:
            p, x, q = line.split()
            nfa["edges"].append((p, None if x == "eps" else x, q))
    return nfa


class ClosureNfa:
    """Subword-closure simulation: every letter edge may also be taken
    silently, so the automaton accepts exactly the downward closure."""

    def __init__(self, text: str):
        nfa = parse_nfa_text(text)
        self.initial = nfa["initial"][0]
        self.finals = set(nfa["final"])
        self.n_states = len(nfa["states"])
        self.silent: dict = {}  # every edge, taken without reading
        self.on: dict = {}  # (state, letter) -> targets
        self.eps: dict = {}
        self.letter_edges: dict = {}
        for (p, x, q) in nfa["edges"]:
            self.silent.setdefault(p, []).append(q)
            if x is None:
                self.eps.setdefault(p, []).append(q)
            else:
                self.on.setdefault((p, x), []).append(q)
                self.letter_edges.setdefault(p, []).append((x, q))

    def _close(self, states: set) -> set:
        todo = list(states)
        while todo:
            for q in self.silent.get(todo.pop(), ()):
                if q not in states:
                    states.add(q)
                    todo.append(q)
        return states

    def accepts(self, word) -> bool:
        states = self._close({self.initial})
        for x in word:
            states = self._close({q for p in states for q in self.on.get((p, x), ())})
            if not states:
                return False
        return bool(states & self.finals)

    def inside_ideal(self, rep) -> bool:
        """L inside Idl(rep): no accepted word makes the greedy atom cursor
        fall off the rep.  The cursor j is the first atom still usable; a
        letter goes into the first atom from j on that holds it, and only an
        alphabet atom stays usable after taking one."""
        def advance(j, x):
            for k in range(j, len(rep)):
                kind, letters = rep[k]
                if kind == "?" and letters == x:
                    return k + 1
                if kind == "*" and x in letters:
                    return k
            return None

        co_reach = set(self.finals)
        changed = True
        while changed:
            changed = False
            for p, targets in self.silent.items():
                if p not in co_reach and co_reach.intersection(targets):
                    co_reach.add(p)
                    changed = True
        start = (self.initial, 0)
        seen, todo = {start}, [start]
        while todo:
            p, j = todo.pop()
            moves = [(q, j) for q in self.eps.get(p, ())]
            for (x, q) in self.letter_edges.get(p, ()):
                k = advance(j, x)
                if k is None:
                    if q in co_reach:
                        return False
                    continue
                moves.append((q, k))
            for c in moves:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        return True

    def contains_ideal(self, rep) -> bool:
        """A necessary condition for Idl(rep) inside the closure: a long
        word of the ideal (alphabet atoms spelled n+1 times) is accepted."""
        return self.accepts(char_word(rep, self.n_states + 1))


# ---------------------------------------------------------------- grammars


def slp_atoms(program, cap: int = 1 << 20) -> tuple:
    """Expand an SLP over atoms (a package Cfg) without the package."""
    rule = {head: body for (head, body) in program.productions}
    out = []
    stack = [iter(rule[program.start])]
    while stack:
        s = next(stack[-1], None)
        if s is None:
            stack.pop()
        elif hasattr(s, "name") and s.name in rule:
            stack.append(iter(rule[s.name]))
        else:
            out.append(plain(s))
            if len(out) > cap:
                raise ValueError(f"SLP value longer than {cap} atoms")
    return tuple(out)


def slp_length(program) -> int:
    rule = {head: body for (head, body) in program.productions}
    length: dict = {}
    for head in _children_first(rule, program.start):
        length[head] = sum(length[s.name] if hasattr(s, "name") else 1
                           for s in rule[head])
    return length[program.start]


def _children_first(rule: dict, root: str) -> list:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        head, done = stack.pop()
        if done:
            order.append(head)
            continue
        if head in seen:
            continue
        seen.add(head)
        stack.append((head, True))
        stack.extend((s.name, False) for s in rule[head] if hasattr(s, "name"))
    return order


def pool_cnf(lib, pool):
    """A Chomsky normal form grammar for a finite set of non-empty words over
    a and b, built by hand for oracle.cyk_member: S -> Xa W1, W1 -> Xb W2,
    ..., the last two letters as Xx Xy, and Xx -> x."""
    nt = lib.grammars.Nt
    prods = [(f"X{x}", (x,)) for x in ("a", "b")]
    for k, word in enumerate(pool):
        if len(word) == 1:
            prods.append(("S", word))
            continue
        head = "S"
        for i in range(len(word) - 2):
            tail = f"W{k}_{i + 1}"
            prods.append((head, (nt(f"X{word[i]}"), nt(tail))))
            head = tail
        prods.append((head, (nt(f"X{word[-2]}"), nt(f"X{word[-1]}"))))
    return lib.grammars.make_cfg(("a", "b"), "S", prods)


# ------------------------------------------------------------------ checks


def _witness_problems(lib, witness, candidate, in_language) -> list:
    problems = []
    if not in_language(witness):
        problems.append(f"witness {''.join(witness)!r} is not in the (closure of "
                        "the) language")
    if len(witness) * max(1, len(candidate)) <= DP_LIMIT:
        if lib.oracle.ideal_member_dp(witness, lib_rep(lib, candidate)):
            problems.append("witness lies inside the candidate")
    return problems


def check(lib, q, answer) -> list:
    """Problems with ``answer`` for query ``q``; empty when it is right."""
    exp = q.expect
    family = exp["family"]
    if family in ("dag", "dag_directed"):
        return _check_dag(lib, q, answer.result)
    if family == "blocks":
        return _check_blocks(lib, q, answer.result)
    if family == "dce":
        got = answer.result
        if bool(got.equal) != exp["equal"] or got.probabilistic:
            return [f"dce answered {answer.lines}, expected equal"]
        return []
    verdict = answer.result
    cand = slp_atoms(verdict.candidate) if verdict.candidate is not None else None
    if family == "chain":
        n, a, b, c = exp["n"], exp["a"], exp["b"], exp["c"]
        ideal = (("?", a),) * n + (("?", b),)

        def in_language(w):
            return w == (c,) or (len(w) >= 1 and w[-1] == b and len(w) <= n + 1
                                 and all(x == a for x in w[:-1]))
        return _check_cfg(lib, verdict, cand, c is None, ideal, in_language)
    if family == "hardness":
        pool, word, comp = exp["pool"], exp["word"], exp["complement"]
        member = lib.oracle.cyk_member(pool_cnf(lib, pool), word)
        if member != (word in pool):
            return ["cyk_member disagrees with the pool"]
        comp_lib = lib_rep(lib, comp)

        def in_language(w):
            return (lib.oracle.cyk_member(pool_cnf(lib, pool), w)
                    or lib.oracle.ideal_member_dp(w, comp_lib))
        return _check_cfg(lib, verdict, cand, not member, comp, in_language)
    if family == "word":
        word = exp["base"] * 2 ** exp["k"]
        return _check_cfg(lib, verdict, cand, True,
                          tuple(("?", x) for x in word), None)
    if family == "union":
        words = [u * 2 ** exp["k"] for u in exp["bases"]]
        singles = [tuple(("?", x) for x in w) for w in words]
        problems = []
        if verdict.directed:
            problems.append("union of two distinct equal-length words "
                            "answered directed")
        if cand not in singles:
            problems.append("candidate is neither word of the union")
        elif verdict.witness is not None:
            # the closure of a word is the set of its subwords
            cand_word = words[singles.index(cand)]
            if not any(lib.oracle.is_subword(verdict.witness, w) for w in words):
                problems.append("witness is not in the closure of the language")
            if lib.oracle.is_subword(verdict.witness, cand_word):
                problems.append("witness lies inside the candidate")
        return problems
    raise ValueError(f"unknown family {family!r}")


def _check_cfg(lib, verdict, cand, directed, ideal, in_language) -> list:
    if verdict.directed != directed:
        return [f"answered directed={verdict.directed}, expected {directed}"]
    if cand is None:
        return ["no candidate"]
    if directed:
        return [] if rep_equal(cand, ideal) else ["candidate differs from the "
                                                  "constructed ideal"]
    problems = []
    if not rep_included(cand, ideal) and not in_language(char_word(cand, 1)):
        problems.append("candidate is not inside the closure")
    if verdict.witness is not None:
        problems += _witness_problems(lib, verdict.witness, cand, in_language)
    return problems


def _check_dag(lib, q, verdict) -> list:
    closure = ClosureNfa(q.texts[0])
    if verdict.empty:
        return [] if not closure.accepts(()) else ["non-empty language "
                                                   "answered empty"]
    cand = plain_rep(verdict.candidate)
    problems = []
    if not closure.contains_ideal(cand):
        problems.append("candidate is not inside the closure")
    if q.expect["family"] == "dag_directed":
        if not verdict.directed:
            problems.append("known-directed automaton answered not directed")
        elif not rep_equal(cand, q.expect["ideal"]):
            problems.append("candidate differs from the chain's ideal")
        return problems
    if verdict.directed:
        if not closure.inside_ideal(cand):
            problems.append("answered directed, but the language leaves the "
                            "candidate")
    elif verdict.witness is None:
        problems.append("not directed but no witness")
    else:
        problems += _witness_problems(lib, verdict.witness, cand, closure.accepts)
    return problems


def maximal_path_ideals(text: str) -> list:
    """The maximal ideals of the closure of an automaton, computed here: each
    strongly connected component with an inner edge reads (its letters)*,
    each edge between components reads x?, every component path from the
    initial state to a final state gives one ideal, and the ideals strictly
    included in another drop out.  One rep per ideal is returned."""
    nfa = parse_nfa_text(text)
    succ: dict = {p: [] for p in nfa["states"]}
    for (p, x, q) in nfa["edges"]:
        succ[p].append((x, q))
    comp = _components(nfa["states"], succ)
    inner: dict = {}
    out: dict = {}
    for (p, x, q) in nfa["edges"]:
        if comp[p] == comp[q]:
            if x is not None:
                inner.setdefault(comp[p], set()).add(x)
        else:
            out.setdefault(comp[p], set()).add((x, comp[q]))
    finals = {comp[q] for q in nfa["final"]}
    paths = set()
    stack = [(comp[nfa["initial"][0]], ())]
    while stack:
        c, atoms = stack.pop()
        if c in inner:
            atoms += (("*", tuple(sorted(inner[c]))),)
        if c in finals:
            paths.add(atoms)
        for (x, d) in out.get(c, ()):
            stack.append((d, atoms if x is None else atoms + (("?", x),)))
    reps = [(r, {y for _, x in r for y in x}) for r in paths]
    maximal = []
    for r, letters in reps:
        if any(letters <= others and rep_included(r, s) and not rep_included(s, r)
               for s, others in reps):
            continue
        if not any(rep_equal(r, m) for m in maximal):
            maximal.append(r)
    return maximal


def _components(states, succ) -> dict:
    """Strongly connected components (Kosaraju, iterative): state -> id."""
    order, seen = [], set()
    for root in states:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            p, edges = stack[-1]
            for (_, q) in edges:
                if q not in seen:
                    seen.add(q)
                    stack.append((q, iter(succ[q])))
                    break
            else:
                order.append(p)
                stack.pop()
    pred: dict = {p: [] for p in states}
    for p in states:
        for (_, q) in succ[p]:
            pred[q].append(p)
    comp: dict = {}
    for root in reversed(order):
        if root in comp:
            continue
        comp[root] = root
        todo = [root]
        while todo:
            for r in pred[todo.pop()]:
                if r not in comp:
                    comp[r] = root
                    todo.append(r)
    return comp


def _check_blocks(lib, q, result) -> list:
    """Every answer against this file's own decomposition; inputs of at
    most BRUTE_BLOCKS blocks also against oracle.decompose_bruteforce and,
    for decompositions, oracle.directed_bruteforce."""
    problems = []
    mine = maximal_path_ideals(q.texts[0])
    got = result if isinstance(result, int) else len(result)
    if got != len(mine):
        problems.append(f"{got} maximal ideals, expected {len(mine)}")
    elif not isinstance(result, int) and not all(
            any(rep_equal(plain_rep(r), m) for r in result) for m in mine):
        problems.append("maximal ideals differ from the expected ones")
    if q.expect["blocks"] <= BRUTE_BLOCKS:
        a = lib.automata.parse_nfa(q.texts[0])
        brute = lib.oracle.decompose_bruteforce(a)
        if got != len(brute):
            problems.append(f"{got} maximal ideals, brute force finds {len(brute)}")
        if not isinstance(result, int) and (
                (got <= 1) != lib.oracle.directed_bruteforce(a)):
            problems.append("directedness disagrees with directed_bruteforce")
    return problems
