import random

import pytest

from dirlang import grammars, ideals, oracle, slp
from dirlang.grammars import Nt

from conftest import nonempty, random_cfg

K1_TEXT = """\
terminals: a b c
start: S
S -> a b S a b | c
"""


def test_parse_format_round_trip():
    g = grammars.parse_cfg(K1_TEXT)
    assert g.terminals == ("a", "b", "c")
    assert g.start == "S"
    assert grammars.parse_cfg(grammars.format_cfg(g)) == g


def test_parse_cfg_eps_and_comments():
    g = grammars.parse_cfg("# leading comment\nterminals: a\nstart: S\n"
                           "S -> a S | eps  # trailing\n")
    assert ("S", ()) in g.productions
    assert ("S", ("a", Nt("S"))) in g.productions


def test_parse_cfg_errors():
    with pytest.raises(ValueError, match="duplicate"):
        grammars.parse_cfg("terminals: a\nterminals: b\nstart: S\nS -> a\n")
    with pytest.raises(ValueError, match="unrecognized"):
        grammars.parse_cfg("terminals: a\nstart: S\nS a\n")
    with pytest.raises(ValueError, match="start"):
        grammars.parse_cfg("terminals: a\nS -> a\n")
    # undeclared symbols read as nonterminals, not as an error
    g = grammars.parse_cfg("terminals: a\nstart: S\nS -> b\n")
    assert Nt("b") in g.productions[0][1]


def test_fresh_name():
    assert grammars.fresh_name("X", set()) == "X"
    assert grammars.fresh_name("X", {"X"}) == "X2"
    assert grammars.fresh_name("X", {"X", "X2"}) == "X3"


def test_cleaned_drops_useless():
    g = grammars.parse_cfg("terminals: a\nstart: S\nS -> a | U\nU -> U a\n"
                           "W -> a\n")
    c = grammars.cleaned(g)
    assert set(c.nonterminals) == {"S"}  # U never terminates, W unreachable


def test_to_cnf_preserves_words():
    rng = random.Random(800)
    for _ in range(60):
        g = random_cfg(rng)
        h = grammars.to_cnf(g)
        h.check_cnf()
        assert set(oracle.grammar_words(h, 5)) == {
            w for w in _words_direct(g, 5)}


def _words_direct(g, bound):
    # bottom-up fixpoint: exact derivable-word sets up to the length bound
    table = {a: set() for a in g.nonterminals}
    while True:
        grew = False
        for (head, body) in g.productions:
            parts = [()]
            for s in body:
                pool = table[s.name] if isinstance(s, Nt) else {(s,)}
                parts = [p + q for p in parts for q in pool
                         if len(p) + len(q) <= bound]
            for w in parts:
                if w not in table[head]:
                    table[head].add(w)
                    grew = True
        if not grew:
            return table[g.start]


def test_to_cnf_keeps_acyclic_acyclic():
    g = grammars.parse_cfg("terminals: a b\nstart: S\nS -> A A\nA -> a b | a\n")
    assert grammars.is_acyclic(g)
    assert grammars.is_acyclic(grammars.to_cnf(g))


def test_is_acyclic():
    assert not grammars.is_acyclic(grammars.parse_cfg(K1_TEXT))
    assert grammars.is_acyclic(
        grammars.parse_cfg("terminals: a\nstart: S\nS -> A a\nA -> a\n"))


def test_self_production_classes():
    # S reproduces itself once per step; A twice; B not at all
    g = grammars.parse_cfg("terminals: a b c\nstart: S\n"
                           "S -> a S b | A\nA -> A A | a\nB -> b\n")
    sp = grammars.self_production_classes(grammars.to_cnf(g))
    twice_letters = {a for a in sp.twice}
    assert any("A" in str(x) for x in twice_letters)


def test_ideal_grammar_on_k1():
    g = grammars.to_cnf(grammars.parse_cfg(K1_TEXT))
    idl = grammars.ideal_grammar(g)
    assert grammars.is_acyclic(idl)
    reps = {ideals.reduce_rep(w) for w in oracle.grammar_words(
        grammars.to_cnf(idl), 6)}
    want = ideals.parse_rep("{a,b}* c? {a,b}*")
    assert want in reps
    assert all(ideals.ideal_includes(r, want) for r in reps)


def test_ideal_grammar_rejects_empty():
    g = grammars.parse_cfg("terminals: a\nstart: S\nS -> a S\n")
    with pytest.raises(ValueError, match="derives nothing"):
        grammars.ideal_grammar(grammars.to_cnf(g))


def test_ideal_grammar_covers_language():
    # the ideal grammar is acyclic, so a generous bound enumerates every
    # rep it derives; together those ideals must cover the language sample
    rng = random.Random(801)
    covered = 0
    for _ in range(40):
        g = random_cfg(rng, letters=("a", "b"))
        if not nonempty(g):
            continue
        cnf = grammars.to_cnf(g)
        reps = {ideals.reduce_rep(w) for w in oracle.grammar_words(
            grammars.to_cnf(grammars.ideal_grammar(cnf)), 16)}
        for w in oracle.grammar_words(cnf, 6):
            assert any(ideals.ideal_member(w, rep) for rep in reps), (g, w)
            covered += 1
    assert covered > 50


def test_reduced_ideal_grammar_words_are_reduced():
    g = grammars.parse_cfg(K1_TEXT)
    red = grammars.reduced_ideal_grammar(g)
    red.check_cnf()
    assert grammars.is_acyclic(red)
    words = list(oracle.grammar_words(red, 5))
    assert words
    assert all(ideals.is_reduced(w) for w in words)
    assert ideals.parse_rep("{a,b}* c? {a,b}*") in words


def test_max_weight_slp_k1_start_value():
    red = grammars.reduced_ideal_grammar(grammars.parse_cfg(K1_TEXT))
    m = 3 * 2 ** (2 * len(red.nonterminals))
    value = tuple(slp.iter_val(slp.check_slp(grammars.max_weight_slp(red))))
    assert ideals.weight(value, m) == 2 * (m + 1) ** 2 + 1


def test_max_weight_slp_rejects_cyclic_grammar():
    a = ideals.parse_atom("a?")
    g = grammars.make_cfg([a], "S", [("S", (Nt("A"), Nt("A"))),
                                     ("A", (Nt("A"), Nt("A"))),
                                     ("A", (a,))])
    with pytest.raises(ValueError, match="cyclic"):
        grammars.max_weight_slp(g)


def test_max_weight_slp_matches_enumeration():
    red = grammars.reduced_ideal_grammar(grammars.parse_cfg(K1_TEXT))
    m = 3 * 2 ** (2 * len(red.nonterminals))
    program = grammars.max_weight_slp(red)
    got = tuple(slp.iter_val(slp.check_slp(program)))
    best = max(oracle.grammar_words(red, 6),
               key=lambda w: ideals.weight(w, m))
    assert ideals.weight(got, m) == ideals.weight(best, m)
    assert got == ideals.parse_rep("{a,b}* c? {a,b}*")


ATOM_POOL = tuple(ideals.parse_atom(t) for t in (
    "a?", "b?", "c?", "{a}*", "{b}*", "{a,b}*", "{a,c}*", "{a,b,c}*"))


def random_acyclic_atom_cnf(rng):
    """CNF over atoms: S, then N1..Nk, each body naming only later
    nonterminals, so the grammar is acyclic; a nonterminal without a leaf
    production may derive nothing."""
    k = rng.randint(1, 4)
    names = ["S"] + [f"N{i}" for i in range(1, k + 1)]
    prods = []
    for i, head in enumerate(names):
        later = names[i + 1:]
        for _ in range(rng.randint(0, 2)):
            prods.append((head, (rng.choice(ATOM_POOL),)))
        for _ in range(rng.randint(0, 3) if later else 0):
            prods.append((head, (Nt(rng.choice(later)), Nt(rng.choice(later)))))
    if rng.random() < 0.2:
        prods.append(("S", ()))
    return grammars.make_cfg(ATOM_POOL, "S", prods)


def productive(g) -> set:
    """Nonterminals deriving some word, by the textbook fixpoint."""
    done: set = set()
    while True:
        new = {head for (head, body) in g.productions
               if all(s.name in done for s in body if isinstance(s, Nt))}
        if new <= done:
            return done
        done |= new


def test_max_weight_slp_against_bruteforce():
    rng = random.Random(2024)
    empty = with_dead = 0
    for _ in range(300):
        g = random_acyclic_atom_cnf(rng)
        g.check_cnf()
        m = 3 * 2 ** (2 * len(g.nonterminals))
        words = oracle.grammar_words(g, 2 ** (len(g.nonterminals) - 1))
        with_dead += not productive(g) >= set(g.nonterminals)
        if not words:
            empty += 1
            with pytest.raises(ValueError, match="derives no atom word"):
                grammars.max_weight_slp(g)
            continue
        value = tuple(slp.iter_val(slp.check_slp(grammars.max_weight_slp(g))))
        assert value in words, grammars.format_cfg(g)
        assert ideals.weight(value, m) \
            == max(ideals.weight(w, m) for w in words), grammars.format_cfg(g)
    assert empty >= 10 and with_dead >= 50


def test_max_weight_slp_deep_grammar():
    # A0 -> Y A1 | Z, ..., A2999 -> Y A3000 | Z, A3000 -> Z: 3000 levels
    y, z = ideals.parse_atom("{a,b}*"), ideals.parse_atom("a?")
    depth = 3000
    prods = [("Y", (y,)), ("Z", (z,)), (f"A{depth}", (z,))]
    for i in range(depth):
        prods += [(f"A{i}", (Nt("Y"), Nt(f"A{i + 1}"))), (f"A{i}", (z,))]
    g = grammars.make_cfg([y, z], "A0", prods)
    program = slp.check_slp(grammars.max_weight_slp(g))
    assert slp.val_length(program) == depth + 1
    assert tuple(slp.iter_val(program)) == (y,) * depth + (z,)


def test_prefixed():
    g = grammars.parse_cfg(K1_TEXT)
    p = grammars.prefixed(g, "L.")
    assert p.start == "L.S"
    assert set(oracle.grammar_words(grammars.to_cnf(p), 5)) \
        == set(oracle.grammar_words(grammars.to_cnf(g), 5))


def test_check_cnf_rejections():
    with pytest.raises(ValueError, match="unit"):
        grammars.parse_cfg("terminals: a\nstart: S\nS -> A\nA -> a\n").check_cnf()
    with pytest.raises(ValueError, match="start symbol"):
        grammars.make_cfg(["a"], "S", [("S", (Nt("S"), Nt("S"))),
                                       ("S", ("a",))]).check_cnf()
