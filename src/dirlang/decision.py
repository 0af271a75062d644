"""End-to-end decisions: directedness, ideal inclusion, downward-closure
equivalence, maximal-ideal counting, and convolution-based instances.

The regular pipeline condenses an automaton, reads off its ideal automaton,
reduces the atom words with the two reduction transducers, and extracts the
maximum-weight representation; directedness is then one inclusion check of
the language against that candidate, run on a product with the candidate's
embedding DFA.  The grammar pipeline mirrors this with an acyclic atom
grammar and a compressed candidate; inclusion expands the candidate when
its value is small and otherwise walks the compressed value with a memoized
cursor search that never materializes it.

Every grammar-times-automaton product here is the one demand-driven
product of ``grammars.product_exits``: the expanded inclusion check runs
it against the embedding DFA, and ``membership_grammar`` applies a
pair-letter automaton, read as a transducer, through
``transducers.apply_to_cfg``.
"""

from __future__ import annotations

import bisect
import functools
from collections import deque
from dataclasses import dataclass

from dirlang import automata, grammars, maxweight, slp, transducers
from dirlang.errors import ResourceCapExceeded
from dirlang.ideals import (
    AlphabetStar,
    IdealRep,
    Single,
    atom_contains,
    atom_letters,
    check_letter,
    make_alphabet,
    strict_includes,
)

# Candidate values at most this long are expanded for the inclusion check;
# longer ones go through the compressed cursor search.
CFG_EXPAND_CAP = 100_000
# Forward-scan steps allowed while matching atoms inside a compressed value.
SCAN_BUDGET = 1_000_000
# Witness reconstruction gives up beyond this many product triples.
WITNESS_TRIPLE_CAP = 200_000
# Witness words longer than this are not materialized.
WITNESS_WORD_CAP = 100_000


@dataclass(frozen=True)
class Verdict:
    """Outcome of a directedness query.

    When directed, ``candidate`` is an ideal representation (an SLP over
    atoms for grammar queries) denoting exactly the downward closure; the
    empty language is vacuously directed, flagged by ``empty``, and has no
    candidate.  When not directed, ``witness`` is a word of the downward
    closure outside the candidate ideal (None if the search was skipped or
    the word is too large to write down).
    """

    directed: bool
    candidate: object = None
    witness: tuple | None = None
    empty: bool = False


@dataclass(frozen=True)
class Inclusion:
    """Result of a language-in-ideal check; the witness, when present, lies
    in the language's downward closure but not in the ideal."""

    included: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class EmbeddingDfa:
    """Deterministic shortest-prefix cursor over a concrete ideal rep.

    State i in 0..n is the (1-based) index of the last atom used, 0 before
    anything matched; n+1 is an absorbing sink.  Reading letter x scans for
    the first atom that can still contribute x; the scan starts at i itself
    when atom i is reusable (an alphabet atom) and at i+1 otherwise.  A word
    avoids the sink exactly when it belongs to the ideal.
    """

    rep: IdealRep
    n: int
    sink: int
    occurrences: dict  # letter -> sorted tuple of 1-based atom positions

    def step(self, state: int, letter) -> int:
        if state == self.sink:
            return self.sink
        start = state if (state >= 1
                          and isinstance(self.rep[state - 1], AlphabetStar)) else state + 1
        occ = self.occurrences.get(letter)
        if occ is None:
            return self.sink
        k = bisect.bisect_left(occ, start)
        return occ[k] if k < len(occ) else self.sink

    def run(self, word) -> int:
        state = 0
        for x in word:
            state = self.step(state, x)
        return state

    def accepts(self, word) -> bool:
        return self.run(word) != self.sink


def build_embedding_dfa(v: IdealRep) -> EmbeddingDfa:
    v = tuple(v)
    occurrences: dict = {}
    for j, atom in enumerate(v, start=1):
        if not isinstance(atom, (Single, AlphabetStar)):
            raise ValueError(f"not an atom: {atom!r}")
        for x in atom_letters(atom):
            occurrences.setdefault(x, []).append(j)
    return EmbeddingDfa(v, len(v), len(v) + 1,
                        {x: tuple(js) for x, js in occurrences.items()})


# ---------------------------------------------------------------- automata


def nfa_reduced_automaton(a: automata.Nfa) -> automata.Nfa:
    """The reduced ideal automaton of ↓L(a): a trimmed acyclic NFA over
    atoms whose path labels are exactly the reduced representations of the
    ideals decomposing the downward closure."""
    r = automata.scc_collapse(automata.validate(a))
    idl = automata.ideal_automaton(r)
    atoms = tuple(idl.alphabet)
    halfway = transducers.apply_to_nfa(transducers.build_TR(atoms), idl)
    return transducers.apply_to_nfa(transducers.build_TL(atoms), halfway)


def nfa_candidate_ideal(a: automata.Nfa) -> IdealRep:
    """The maximum-weight ideal of the decomposition of ↓L(a): the unique
    candidate that contains ↓L(a) exactly when L(a) is directed."""
    red = nfa_reduced_automaton(a)
    if not automata.reaches_final(red):
        raise ValueError("the automaton accepts nothing; no candidate ideal")
    norm = maxweight.normalize(red)
    maxima = maxweight.suffix_maxima(norm)
    return maxweight.extract_canonical_path(norm, maxima)


def nfa_included_in_ideal(a: automata.Nfa, v: IdealRep,
                          want_witness: bool = True) -> Inclusion:
    """Is ↓L(a) (equivalently L(a)) inside Idl(v)?

    Runs the embedding DFA of v against the subword closure of a; a failure
    yields the shortest, then lexicographically least, word of ↓L(a)
    outside the ideal.
    """
    a = automata.validate(a)
    dfa = build_embedding_dfa(v)
    succ = a.successors()
    step = functools.cache(dfa.step)

    def is_goal(p: int, d: int) -> bool:
        return d == dfa.sink and p in a.finals

    # Forward reachability over (state, cursor) configurations.  Every edge
    # can be taken silently (epsilon, or deleting the letter: inclusion is
    # about the downward closure); letter edges also advance the cursor.
    start = (a.initial, 0)
    seen = {start}
    todo = [start]
    escaped = False
    while todo:
        (p, d) = todo.pop()
        if is_goal(p, d):
            escaped = True
            if not want_witness:
                break
        for (x, q) in succ[p]:
            nxt = [(q, d)]
            if x is not None:
                nxt.append((q, step(d, x)))
            for c in nxt:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
    if not escaped:
        return Inclusion(True)
    if not want_witness:
        return Inclusion(False, None)

    # Backward 0-1 BFS from the escaping configurations gives the letters
    # still needed; a greedy forward walk then picks the least witness.
    rev0: dict = {}
    rev1: dict = {}
    for (p, d) in seen:
        for (x, q) in succ[p]:
            rev0.setdefault((q, d), []).append((p, d))
            if x is not None:
                rev1.setdefault((q, step(d, x)), []).append((p, d))
    needed: dict = {}
    queue = deque()
    for c in seen:
        if is_goal(*c):
            needed[c] = 0
            queue.append(c)
    while queue:
        c = queue.popleft()
        k = needed[c]
        for b in rev0.get(c, ()):
            if b not in needed:
                needed[b] = k
                queue.appendleft(b)
        for b in rev1.get(c, ()):
            if b not in needed and b in seen:
                needed[b] = k + 1
                queue.append(b)
    total = needed[start]

    def closure(configs: set, rem: int) -> set:
        out = {c for c in configs if needed.get(c) == rem}
        todo = list(out)
        while todo:
            (p, d) = todo.pop()
            for (_, q) in succ[p]:
                c2 = (q, d)
                if needed.get(c2) == rem and c2 not in out:
                    out.add(c2)
                    todo.append(c2)
        return out

    word = []
    front = closure({start}, total)
    for rem in range(total, 0, -1):
        letters = sorted({x for (p, _) in front for (x, _) in succ[p]
                          if x is not None})
        for x in letters:
            landed = set()
            for (p, d) in front:
                for (y, q) in succ[p]:
                    if y == x:
                        c2 = (q, step(d, x))
                        if needed.get(c2) == rem - 1:
                            landed.add(c2)
            if landed:
                word.append(x)
                front = closure(landed, rem - 1)
                break
        else:
            raise AssertionError("witness reconstruction lost every path")
    return Inclusion(False, tuple(word))


def nfa_directed(a: automata.Nfa, want_witness: bool = True) -> Verdict:
    """Directedness of L(a), with the candidate ideal as evidence."""
    a = automata.validate(a)
    if not automata.reaches_final(a):
        return Verdict(True, empty=True)
    candidate = nfa_candidate_ideal(a)
    inc = nfa_included_in_ideal(a, candidate, want_witness=want_witness)
    return Verdict(inc.included, candidate=candidate, witness=inc.witness)


def maximal_ideals(a: automata.Nfa,
                   cap: int = automata.ENUMERATE_DEFAULT_CAP) -> list[IdealRep]:
    """The decomposition of ↓L(a) into maximal ideals, as sorted reduced
    reps: enumerate the reduced ideal automaton's path ideals and drop any
    strictly included in another."""
    red = nfa_reduced_automaton(a)
    reps = automata.enumerate_path_ideals(red, cap=cap)
    return [r for r in reps
            if not any(strict_includes(r, other) for other in reps if other != r)]


def count_maximal_ideals(a: automata.Nfa,
                         cap: int = automata.ENUMERATE_DEFAULT_CAP) -> int:
    return len(maximal_ideals(a, cap=cap))


def dce_directed_nfa(a1: automata.Nfa, a2: automata.Nfa,
                     assume_directed: bool = False) -> bool:
    """Do two directed languages have the same downward closure?

    Reduced representations are unique per ideal, so the candidates are
    compared syntactically.  Raises unless both inputs are directed (skipped
    under ``assume_directed``, where a wrong promise gives a meaningless
    answer, not an error).
    """
    return (_dce_candidate_nfa(a1, assume_directed)
            == _dce_candidate_nfa(a2, assume_directed))


def _dce_candidate_nfa(a: automata.Nfa, assume: bool):
    a = automata.validate(a)
    if not automata.reaches_final(a):
        return None  # the empty language; its closure is empty too
    if assume:
        return nfa_candidate_ideal(a)
    verdict = nfa_directed(a, want_witness=False)
    if not verdict.directed:
        raise ValueError("downward-closure equivalence needs directed inputs")
    return verdict.candidate


# ---------------------------------------------------------------- grammars


def _cfg_is_empty(g: grammars.Cfg) -> bool:
    return not any(head == g.start for (head, _) in grammars.cleaned(g).productions)


def cfg_candidate_ideal(g: grammars.Cfg, _reduced: grammars.Cfg = None) -> slp.Slp:
    """Compressed maximum-weight ideal of the decomposition of ↓L(g): an
    SLP over atoms whose value is a reduced representation contained in
    ↓L(g), and equal to it exactly when L(g) is directed."""
    red = grammars.reduced_ideal_grammar(g) if _reduced is None else _reduced
    m = 3 * 2 ** (2 * len(red.nonterminals))
    table = grammars.weight_table(red, m)
    return slp.check_slp(grammars.extract_max_slp(red, table, m))


def cfg_included_in_ideal(g: grammars.Cfg, i: slp.Slp,
                          want_witness: bool = True,
                          expand_cap: int = CFG_EXPAND_CAP,
                          scan_budget: int = SCAN_BUDGET,
                          _reduced: grammars.Cfg = None) -> Inclusion:
    """Is L(g) inside the ideal denoted by the compressed representation i?

    Small values are expanded and checked through a lazy product of the
    grammar with the embedding DFA; larger ones are walked in compressed
    form, one decomposition ideal of ↓L(g) at a time.
    """
    if slp.val_length(i) <= expand_cap:
        v = tuple(slp.iter_val(i))
        return _cfg_inclusion_expanded(grammars.to_cnf(g), v, want_witness)
    if _cfg_is_empty(g):
        return Inclusion(True)
    red = grammars.reduced_ideal_grammar(g) if _reduced is None else _reduced
    return _cfg_inclusion_compressed(red, i, want_witness, scan_budget)


def cfg_directed(g: grammars.Cfg, want_witness: bool = True,
                 expand_cap: int = CFG_EXPAND_CAP,
                 scan_budget: int = SCAN_BUDGET) -> Verdict:
    """Directedness of L(g), with the compressed candidate as evidence."""
    if _cfg_is_empty(g):
        return Verdict(True, empty=True)
    red = grammars.reduced_ideal_grammar(g)
    candidate = cfg_candidate_ideal(g, _reduced=red)
    inc = cfg_included_in_ideal(g, candidate, want_witness=want_witness,
                                expand_cap=expand_cap, scan_budget=scan_budget,
                                _reduced=red)
    return Verdict(inc.included, candidate=candidate, witness=inc.witness)


def _cfg_inclusion_expanded(h: grammars.Cfg, v: IdealRep,
                            want_witness: bool) -> Inclusion:
    """Product of a CNF grammar with the embedding DFA of v: the language
    escapes the ideal iff the sink is an exit of the start pair."""
    dfa = build_embedding_dfa(v)
    step = functools.cache(dfa.step)
    exits = grammars.product_exits(h, 0, lambda p: (p,),
                                   lambda p, x: ((step(p, x), None),))
    if dfa.sink not in exits[(h.start, 0)]:
        return Inclusion(True)
    if not want_witness:
        return Inclusion(False, None)
    return Inclusion(False, _expanded_witness(h, dfa, exits, step))


def _expanded_witness(h: grammars.Cfg, dfa: EmbeddingDfa, exits: dict, step):
    """Shortest, then lexicographically least, word of L(h) whose embedding
    run ends in the sink; None beyond the reconstruction effort cap."""
    triples = [(a, p, q) for ((a, p), qs) in sorted(exits.items()) for q in sorted(qs)]
    if len(triples) > WITNESS_TRIPLE_CAP:
        return None
    by_head = h.by_head()

    minlen: dict = {}
    changed = True
    while changed:
        changed = False
        for key in triples:
            (a, p, q) = key
            best = minlen.get(key)
            for body in by_head[a]:
                if body == ():
                    cand = 0 if p == q else None
                elif len(body) == 1:
                    cand = 1 if step(p, body[0]) == q else None
                else:
                    b, c = body[0].name, body[1].name
                    cand = None
                    for r in exits.get((b, p), ()):
                        lb = minlen.get((b, p, r))
                        lc = minlen.get((c, r, q))
                        if lb is not None and lc is not None:
                            if cand is None or lb + lc < cand:
                                cand = lb + lc
                if cand is not None and (best is None or cand < best):
                    best = cand
            if best is not None and best != minlen.get(key):
                minlen[key] = best
                changed = True

    target = (h.start, 0, dfa.sink)
    if target not in minlen:
        raise AssertionError("escape found but no deriving triple")
    word_memo: dict = {}

    def word_of(a: str, p: int, q: int) -> tuple:
        key = (a, p, q)
        if key in word_memo:
            return word_memo[key]
        need = minlen[key]
        best = None
        for body in by_head[a]:
            if body == ():
                if p == q and need == 0 and (best is None or () < best):
                    best = ()
            elif len(body) == 1:
                if need == 1 and step(p, body[0]) == q:
                    cand = (body[0],)
                    if best is None or cand < best:
                        best = cand
            else:
                b, c = body[0].name, body[1].name
                for r in exits.get((b, p), ()):
                    lb = minlen.get((b, p, r))
                    lc = minlen.get((c, r, q))
                    if lb is not None and lc is not None and lb + lc == need:
                        cand = word_of(b, p, r) + word_of(c, r, q)
                        if best is None or cand < best:
                            best = cand
        if best is None:
            raise AssertionError(f"minimum length of {key} is unattained")
        word_memo[key] = best
        return best

    return word_of(*target)


_SCAN_FAIL = object()  # cursor result: some atom cannot be matched any more


def _cfg_inclusion_compressed(red: grammars.Cfg, i: slp.Slp,
                              want_witness: bool, scan_budget: int) -> Inclusion:
    """Inclusion against a value too large to expand.

    Every atom word derivable from the reduced ideal grammar of the
    language denotes one decomposition ideal; it is inside the candidate
    ideal iff the greedy atom cursor over the compressed value survives it.
    Cursor maps are monotone, so per (nonterminal, cursor) pair only the
    maximal exit matters and failure anywhere settles the answer.  Cursor
    moves never walk the value; they descend the program with per-atom
    first-occurrence tables, so a move costs one root-to-leaf path.
    """
    rule = slp.rule_of(i)
    lengths = slp.val_lengths(i)
    n = lengths[i.start]

    order = []  # reachable nonterminals, children before parents
    state = {}
    stack = [i.start]
    while stack:
        a = stack[-1]
        if state.get(a) == 2:
            stack.pop()
            continue
        if state.get(a) == 1:
            state[a] = 2
            order.append(a)
            stack.pop()
            continue
        state[a] = 1
        stack.extend(s.name for s in rule[a]
                     if isinstance(s, grammars.Nt) and s.name not in state)

    budget = scan_budget

    def spend(amount: int) -> None:
        nonlocal budget
        budget -= amount
        if budget < 0:
            raise ResourceCapExceeded(
                f"compressed cursor exceeded its scan budget of {scan_budget}")

    atom_memo: dict = {}

    def atom_at(j: int):
        got = atom_memo.get(j)
        if got is None:
            got = slp.char_at(i, j)
            atom_memo[j] = got
        return got

    hits_memo: dict = {}

    def hit_table(alpha) -> dict:
        # per nonterminal: least position of an atom containing alpha
        tab = hits_memo.get(alpha)
        if tab is None:
            spend(len(order))
            tab = {}
            for name in order:
                off, pos = 0, None
                for s in rule[name]:
                    if isinstance(s, grammars.Nt):
                        sub = tab[s.name]
                        if sub is not None:
                            pos = off + sub
                            break
                        off += lengths[s.name]
                    elif atom_contains(alpha, s):
                        pos = off + 1
                        break
                    else:
                        off += 1
                tab[name] = pos
            hits_memo[alpha] = tab
        return tab

    def hit_from(name: str, rel: int, alpha, tab: dict):
        # least position >= rel in val(name) whose atom contains alpha
        spend(1)
        off = 0
        for s in rule[name]:
            length = lengths[s.name] if isinstance(s, grammars.Nt) else 1
            if rel <= off + length:
                if isinstance(s, grammars.Nt):
                    sub = (tab[s.name] if rel <= off + 1
                           else hit_from(s.name, rel - off, alpha, tab))
                    if sub is not None:
                        return off + sub
                elif atom_contains(alpha, s):
                    return off + 1
            off += length
        return None

    def advance(c: int, alpha):
        start = c if (c >= 1 and isinstance(atom_at(c), AlphabetStar)) else c + 1
        if start > n:
            return _SCAN_FAIL
        got = hit_from(i.start, start, alpha, hit_table(alpha))
        return got if got is not None else _SCAN_FAIL

    by_head = red.by_head()
    memo: dict = {}
    max_choice: dict = {}
    fail_choice: dict = {}

    def eval_pair(a: str, c: int):
        key = (a, c)
        if key in memo:
            return memo[key]
        best = None
        best_body = None
        for body in by_head[a]:
            if body == ():
                exit_at = c
            elif len(body) == 1:
                exit_at = advance(c, body[0])
                if exit_at is _SCAN_FAIL:
                    fail_choice[key] = ("atom", body, None)
            else:
                b1, b2 = body[0].name, body[1].name
                exit_at = eval_pair(b1, c)
                if exit_at is _SCAN_FAIL:
                    fail_choice[key] = ("left", body, None)
                else:
                    mid = exit_at
                    exit_at = eval_pair(b2, mid)
                    if exit_at is _SCAN_FAIL:
                        fail_choice[key] = ("right", body, mid)
            if exit_at is _SCAN_FAIL:
                memo[key] = _SCAN_FAIL
                return _SCAN_FAIL
            if best is None or exit_at > best:
                best, best_body = exit_at, body
        if best is None:
            raise AssertionError(f"{a} has no production")
        memo[key] = best
        max_choice[key] = best_body
        return best

    outcome = eval_pair(red.start, 0)
    if outcome is not _SCAN_FAIL:
        return Inclusion(True)
    if not want_witness:
        return Inclusion(False, None)
    return Inclusion(False, _compressed_witness(red, memo, max_choice, fail_choice))


def _compressed_witness(red: grammars.Cfg, memo: dict,
                        max_choice: dict, fail_choice: dict):
    """A concrete word witnessing the escape, if one of writable size exists.

    Rebuilds the failing atom word as an SLP from the recorded choices; a
    star-free failing word of moderate length turns into the word of its
    single atoms (which escapes the ideal outright), anything else is too
    large to write down and yields None.
    """
    prods: list = []
    ids: dict = {}

    def node(kind: str, a: str, c) -> str:
        key = (kind, a, c)
        if key in ids:
            return ids[key]
        name = f"W{len(ids)}"
        ids[key] = name
        if kind == "max":
            body = max_choice[(a, c)]
            if body == ():
                out = ()
            elif len(body) == 1:
                out = (body[0],)
            else:
                mid = memo[(body[0].name, c)]
                out = (grammars.Nt(node("max", body[0].name, c)),
                       grammars.Nt(node("max", body[1].name, mid)))
        else:
            stage, body, mid = fail_choice[(a, c)]
            if stage == "atom":
                out = (body[0],)
            elif stage == "left":
                out = (grammars.Nt(node("fail", body[0].name, c)),)
            else:
                out = (grammars.Nt(node("max", body[0].name, c)),
                       grammars.Nt(node("fail", body[1].name, mid)))
        prods.append((name, out))
        return name

    root = node("fail", red.start, 0)
    witness_slp = slp.check_slp(grammars.make_cfg(red.terminals, root, prods))
    if slp.val_length(witness_slp) > WITNESS_WORD_CAP:
        return None
    atoms = tuple(slp.iter_val(witness_slp))
    if all(isinstance(x, Single) for x in atoms):
        # the characteristic word of a star-free rep is just its letters,
        # independent of the pumping parameter
        return tuple(x.letter for x in atoms)
    return None


def dce_directed_cfg(g1: grammars.Cfg, g2: grammars.Cfg,
                     assume_directed: bool = False,
                     verify_cap: int = slp.SLP_EQUAL_VERIFY_CAP) -> slp.SlpEqual:
    """Do two directed context-free languages have the same downward
    closure?  Compares the candidate SLPs; the record is truthy on equality
    and carries the probabilistic flag of the value comparison."""
    c1 = _dce_candidate_cfg(g1, assume_directed)
    c2 = _dce_candidate_cfg(g2, assume_directed)
    if c1 is None or c2 is None:
        return slp.SlpEqual(c1 is None and c2 is None, False)
    return slp.slp_equal(c1, c2, verify_cap=verify_cap)


def _dce_candidate_cfg(g: grammars.Cfg, assume: bool):
    if _cfg_is_empty(g):
        return None
    if assume:
        return cfg_candidate_ideal(g)
    verdict = cfg_directed(g, want_witness=False)
    if not verdict.directed:
        raise ValueError("downward-closure equivalence needs directed inputs")
    return verdict.candidate


# ----------------------------------------------------- hardness instances


PAIR_SEPARATOR = "."


def convolution(u, v) -> tuple:
    """Zip two equal-length words into one word over pair letters x.y."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError(f"convolution needs equal lengths, got {len(u)} and {len(v)}")
    for x in (*u, *v):
        check_letter(x)
        if PAIR_SEPARATOR in x:
            raise ValueError(f"pair components must not contain '.': {x!r}")
    return tuple(f"{x}{PAIR_SEPARATOR}{y}" for (x, y) in zip(u, v))


def _split_pair(letter: str) -> tuple:
    first, sep, second = letter.partition(PAIR_SEPARATOR)
    if not sep or not first or not second or PAIR_SEPARATOR in second:
        raise ValueError(f"not a pair letter: {letter!r}")
    return first, second


def membership_grammar(r: automata.Nfa, a: slp.Slp) -> grammars.Cfg:
    """Grammar for the words w with val(a) ⊗ w accepted by r.

    r is read as a transducer from first to second components of its pair
    letters and applied to (a CNF grammar for) the single word val(a); the
    result declares every second component as a terminal.
    """
    r = automata.validate(r)
    pairs = {lab: _split_pair(lab) for lab in r.alphabet}
    rules = tuple((p, None, None, q) if lab is None else (p, *pairs[lab], q)
                  for (p, lab, q) in r.transitions)
    t = transducers.Transducer(r.n_states, r.initial, r.finals, rules)
    out = transducers.apply_to_cfg(t, grammars.to_cnf(a))
    return grammars.make_cfg({y for (_, y) in pairs.values()}, out.start,
                             out.productions)


def _word_lengths(h: grammars.Cfg, bound: int) -> set:
    """Lengths of the words of L(h) (CNF), anything above bound collapsed
    to bound + 1."""
    h.check_cnf()
    over = bound + 1
    table = {a: set() for a in h.nonterminals}
    changed = True
    while changed:
        changed = False
        for (head, body) in h.productions:
            if body == ():
                new = {0}
            elif len(body) == 1:
                new = {1}
            else:
                lb, lc = table[body[0].name], table[body[1].name]
                new = {min(x + y, over) for x in lb for y in lc}
            if not new <= table[head]:
                table[head] |= new
                changed = True
    return table[h.start]


def hardness_instance(g: grammars.Cfg, b: slp.Slp) -> grammars.Cfg:
    """Union grammar whose directedness encodes non-membership.

    For a grammar g whose words all have length exactly |val(b)|, the union
    of L(g) with the ideal missing exactly val(b) among length-n words is
    directed iff val(b) is not in L(g).
    """
    n = slp.val_length(b)
    sigma = make_alphabet(set(g.terminals) | set(b.terminals))
    lengths = _word_lengths(grammars.to_cnf(g), n)
    if not lengths <= {n}:
        raise ValueError(f"every word of the grammar must have length exactly {n}")
    ideal_cfg = slp.ideal_language_grammar(slp.complement_ideal(b, sigma))
    left = grammars.prefixed(g, "L.")
    right = grammars.prefixed(ideal_cfg, "R.")
    taken = set(left.nonterminals) | set(right.nonterminals)
    start = grammars.fresh_name("U", taken)
    prods = list(left.productions) + list(right.productions)
    prods.append((start, (grammars.Nt(left.start),)))
    prods.append((start, (grammars.Nt(right.start),)))
    return grammars.make_cfg(sigma, start, prods)
