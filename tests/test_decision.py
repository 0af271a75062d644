import random

import pytest

from dirlang import automata, decision, grammars, ideals, maxweight, oracle, slp
from dirlang.errors import ResourceCapExceeded

from conftest import nonempty, random_cfg, random_nfa, random_reduced_rep

NFA_TEXT = """\
alphabet: a b c d e f
states: 0 1 2 3
initial: 0
final: 2 3
0 a 0
0 b 0
0 c 1
1 d 1
1 e 1
1 eps 2
2 a 2
2 c 2
2 f 2
0 c 3
3 b 3
0 a 1
"""

K1_TEXT = "terminals: a b c\nstart: S\nS -> a b S a b | c\n"
K2_TEXT = ("terminals: a b c\nstart: S\nS -> A | B\n"
           "A -> a A a | c\nB -> b B b | c\n")
K12_TEXT = ("terminals: a b c\nstart: S\nS -> a b S a b | A | B\n"
            "A -> a A a | c\nB -> b B b | c\n")

AB_LOOP = "alphabet: a b\nstates: 0\ninitial: 0\nfinal: 0\n0 a 0\n0 b 0\n"
DEAD = "alphabet: a\nstates: 0 1\ninitial: 0\nfinal: 1\n0 a 0\n"


def nfa(text):
    return automata.parse_nfa(text)


def ideal_prog(text):
    rep = ideals.parse_rep(text)
    return slp.slp_of_word(rep, terminals=rep)


def test_embedding_dfa_agrees_with_membership():
    rng = random.Random(900)
    for _ in range(300):
        rep = random_reduced_rep(rng, 5)
        dfa = decision.build_embedding_dfa(rep)
        w = tuple(rng.choice("abc") for _ in range(rng.randrange(7)))
        assert dfa.accepts(w) == ideals.ideal_member(w, rep), (rep, w)


def test_embedding_dfa_rejects_non_atoms():
    with pytest.raises(ValueError, match="not an atom"):
        decision.build_embedding_dfa(("a",))


def test_nfa_candidate_ideal_pinned():
    cand = decision.nfa_candidate_ideal(nfa(NFA_TEXT))
    assert ideals.format_rep(cand) == "{a,b}* c? {d,e}* {a,c,f}*"
    assert decision.nfa_candidate_ideal(nfa(AB_LOOP)) \
        == ideals.parse_rep("{a,b}*")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nfa_candidate_ideal_empty_language():
    with pytest.raises(ValueError, match="accepts nothing"):
        decision.nfa_candidate_ideal(nfa(DEAD))


def test_nfa_included_in_ideal_witness():
    inc = decision.nfa_included_in_ideal(nfa(AB_LOOP), ideals.parse_rep("a?"))
    assert not inc.included
    assert inc.witness == ("b",)
    assert decision.nfa_included_in_ideal(
        nfa(AB_LOOP), ideals.parse_rep("{a,b}*")).included


def test_nfa_witness_is_shortest_then_lex():
    a = nfa("alphabet: a b c\nstates: 0 1\ninitial: 0\nfinal: 1\n"
            "0 c 1\n0 b 1\n1 a 1\n")
    inc = decision.nfa_included_in_ideal(a, ideals.parse_rep("{a}*"))
    assert inc.witness == ("b",)  # both b and c work; b sorts first


def test_nfa_directed_verdicts():
    v = decision.nfa_directed(nfa(NFA_TEXT))
    assert not v.directed
    assert v.witness == ("c", "b")
    assert not ideals.ideal_member(v.witness, v.candidate)

    v = decision.nfa_directed(nfa(AB_LOOP))
    assert v.directed and v.witness is None
    assert v.candidate == ideals.parse_rep("{a,b}*")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nfa_directed_empty_and_epsilon():
    v = decision.nfa_directed(nfa(DEAD))
    assert v.directed and v.empty and v.candidate is None

    eps_only = nfa("alphabet: a\nstates: 0\ninitial: 0\nfinal: 0\n")
    v = decision.nfa_directed(eps_only)
    assert v.directed and not v.empty
    assert v.candidate == ()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nfa_directed_matches_bruteforce():
    rng = random.Random(901)
    for _ in range(150):
        a = random_nfa(rng, max_states=4, letters=("a", "b"))
        assert decision.nfa_directed(a).directed \
            == oracle.directed_bruteforce(a), automata.format_nfa(a)


DAG_LETTERS = ("a", "b", "c", "d", "e", "f")


def random_dag_nfa(rng, n, parts=3):
    """A partially ordered automaton of parts * n + 2 states: the initial
    state enters `parts` random pieces of n states, whose last states lead
    to the one final state.  Each piece has a local edge into nearly every
    state, 1.5n forward edges of any length and self-loops on about half
    of its states."""
    trans = set()
    final = parts * n + 1
    for i in range(parts):
        first = 1 + i * n
        for q in range(1, n):
            p = rng.randrange(max(0, q - 4), q)
            x = None if rng.random() < 0.05 else rng.choice(DAG_LETTERS)
            trans.add((first + p, x, first + q))
        for _ in range(3 * n // 2):
            p = rng.randrange(n - 1)
            trans.add((first + p, rng.choice(DAG_LETTERS),
                       first + rng.randrange(p + 1, n)))
        for q in range(n):
            if rng.random() < 0.5:
                for x in rng.sample(DAG_LETTERS, rng.randint(1, 3)):
                    trans.add((first + q, x, first + q))
        trans.add((0, rng.choice(DAG_LETTERS), first))
        trans.add((first + n - 1, rng.choice(DAG_LETTERS), final))
    return automata.make_nfa(DAG_LETTERS, final + 1, 0, [final], trans)


def chain_with_detours(rng, k, detours):
    """A chain 0 -x0-> 1 ... k with random self-loop letter sets, plus
    detours through fresh states that read only letters of one loop they
    bypass.  Every detour word embeds into that loop's star, so the
    language is directed and its closure is the chain's own ideal, which
    is returned reduced with the automaton."""
    loops = [tuple(sorted(rng.sample(DAG_LETTERS, rng.randint(1, 3))))
             if rng.random() < 0.7 else () for _ in range(k + 1)]
    chain = [rng.choice(DAG_LETTERS) for _ in range(k)]
    trans = {(i, chain[i], i + 1) for i in range(k)}
    for i, letters in enumerate(loops):
        trans.update((i, x, i) for x in letters)
    n = k + 1
    for _ in range(detours):
        m = rng.randrange(1, k)
        if not loops[m]:
            continue
        i = rng.randrange(0, m)
        j = rng.randrange(m + 1, min(k, m + 4) + 1)
        d = n
        n += 1
        trans.add((i, rng.choice(loops[m]), d))
        trans.add((d, rng.choice(loops[m]), j))
        trans.update((d, x, d) for x in
                     rng.sample(loops[m], rng.randint(0, len(loops[m]))))
    ideal = []
    for i in range(k + 1):
        if loops[i]:
            ideal.append(ideals.star(*loops[i]))
        if i < k:
            ideal.append(ideals.Single(chain[i]))
    return (automata.make_nfa(DAG_LETTERS, n, 0, [k], trans),
            ideals.reduce_rep(tuple(ideal)))


# (seed, states, candidate, witness) of random_dag_nfa(rng, 13..26).  They
# were recorded with the paper's max-plus matrix power, so they pin the
# reverse pass to the same maxima and tie-breaks, byte for byte.
NFA_DAG_GOLDEN = [
    (4000, 59, 'd? {b,c,e}* {a,e}* f? {d}* {a,e,f}* d? a? {e,f}* {a,b,d}* c? {e}*', 'adbf'),
    (4001, 59, '{a,c,d}* e? {a,b,f}* {a,e,f}* {d,e}* a? d? f? {a,b}* c? e?', 'baca'),
    (4002, 71, 'c? a? {b,d,e}* {f}* a? {c,d}* {b,d,e}* {a,d,e}* {b,d,f}* {a,b,f}* d? e? {a,d}* e?', 'fbc'),
    (4003, 71, 'c? d? {b,c,f}* {a,c,f}* b? {d,e}* b? {a,e,f}* b? {a,d,f}* c? e?', 'abca'),
    (4004, 62, 'b? {f}* b? b? {d,f}* a? {c,d,f}* {a,c,e}* {b,c}* a? {d}* c? b? {a,d,e}* b? e?', 'ef'),
    (4005, 74, 'b? {a,c,e}* {c,d,e}* {a,e,f}* c? c? {a,b,e}* d? {a,f}* b? b? {a,c,d}* b? a? {b,c,d}* e?', 'abcf'),
    (4006, 65, 'e? {b,c,f}* d? e? e? {c}* a? d? c? {d}* {a}* d? c? {b,e,f}* a? {c,d,e}* a?', 'abab'),
    (4007, 47, 'd? {f}* a? {c,d}* b? {a,c,f}* d? d? {c}* d? {b,e}* {b,c,d}* {b,c,f}* e? {a,c,d}*', 'aeab'),
    (4008, 65, 'b? f? {c}* a? a? e? e? {a,f}* {b,c}* e? {d}* b? b? {a,d,f}* c? c? {b,d}* a? {d,e}* b? {d,e}*', 'dcf'),
    (4009, 62, 'a? {b,c,e}* a? {d,f}* b? a? e? c? {a,b,e}* c? c? {e}* a? a? f? {a,c,e}* f? b?', 'aabd'),
    (4010, 74, '{e,f}* {c,d,e}* {a,d,f}* e? e? {b,c,f}* {b,c,d}* {b,e}* a? {c,e,f}* d? {c}* b? {a,c,d}* e? {b,d,f}* {a,d,e}* b?', 'abaabc'),
    (4011, 41, 'c? b? {d}* {e,f}* a? c? d? {b,e,f}* {c}* f? {b,c,d}*', 'aa'),
    (4012, 77, 'e? a? {e}* {c,d,f}* {a,e,f}* {a,d}* {a,c}* {c,d,e}* a? c? b? {a,d,f}* b? a?', 'bc'),
    (4013, 77, 'e? {a,c,d}* {c,e,f}* b? c? b? {a,c,e}* f? d? a? c? {b,f}* d? {a}* b?', 'bde'),
    (4014, 80, '{a,b,c}* e? {f}* e? {a}* c? {b,d,f}* {a}* {d}* {a}* c? {b,f}* {a,c,e}* f? {b,c}* {a,d,f}* c? f?', 'adcdb'),
    (4015, 68, 'e? b? {d,e,f}* b? b? e? {a,b,d}* e? d? {a,b,e}* f? {a,e}* f? b? a? d? d?', 'c'),
    (4016, 50, 'f? {b,c,d}* {d,f}* b? {e}* c? {f}* {e}* {a,b,c}* d? {b,e}* c? a? b?', 'abf'),
    (4017, 80, 'f? {e}* c? f? a? {b,c,f}* {b,e,f}* {b,c,d}* {c,e}* f? {c,e}* {f}* d? a? {b,d,e}* c?', 'aaa'),
    (4018, 59, '{a,d,f}* {b}* c? d? f? {b,d,e}* f? {a,c,d}* {e,f}* c? c?', 'bab'),
    (4019, 53, 'b? {d,f}* a? e? {b,d,f}* a? {e}* {a,b,c}* d? e? e?', 'cf'),
]


@pytest.mark.parametrize("seed,states,candidate,witness", NFA_DAG_GOLDEN,
                         ids=[str(g[0]) for g in NFA_DAG_GOLDEN])
def test_nfa_directed_golden_dags(seed, states, candidate, witness):
    rng = random.Random(seed)
    a = random_dag_nfa(rng, rng.randint(13, 26))
    assert a.n_states == states
    v = decision.nfa_directed(a)
    assert not v.directed
    assert ideals.format_rep(v.candidate) == candidate
    assert ideals.format_word(v.witness) == witness


def test_nfa_directed_long_chain():
    # a normalized automaton of thousands of states: the maximum-weight
    # pass and the canonical walk must be linear and iterative
    rng = random.Random(4200)
    a, ideal = chain_with_detours(rng, 600, 300)
    red = decision.nfa_reduced_automaton(a)
    assert maxweight.normalize(red).m >= 2000
    v = decision.nfa_directed(a)
    assert v.directed and v.witness is None
    assert v.candidate == ideal


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_maximal_ideals_pinned():
    mx = decision.maximal_ideals(nfa(NFA_TEXT))
    assert [ideals.format_rep(r) for r in mx] \
        == ["{a,b}* c? {b}*", "{a,b}* c? {d,e}* {a,c,f}*"]
    assert decision.count_maximal_ideals(nfa(NFA_TEXT)) == 2
    assert decision.count_maximal_ideals(nfa(AB_LOOP)) == 1
    assert decision.count_maximal_ideals(nfa(DEAD)) == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_maximal_ideals_match_bruteforce():
    rng = random.Random(902)
    for _ in range(120):
        a = random_nfa(rng, max_states=4, letters=("a", "b"))
        assert set(decision.maximal_ideals(a)) \
            == set(oracle.decompose_bruteforce(a, 4)), automata.format_nfa(a)


def test_dce_nfa():
    big = nfa(AB_LOOP)
    # accepts a(ba)^n; every word over {a,b} embeds into a long enough
    # alternating word, so the closures coincide
    small = nfa("alphabet: a b\nstates: 0 1\ninitial: 0\nfinal: 1\n"
                "0 a 1\n1 b 0\n")
    assert decision.dce_directed_nfa(big, small)
    assert decision.dce_directed_nfa(big, big)
    aonly = nfa("alphabet: a\nstates: 0\ninitial: 0\nfinal: 0\n0 a 0\n")
    assert not decision.dce_directed_nfa(big, aonly)


def test_dce_nfa_demands_directed():
    two = nfa("alphabet: a b\nstates: 0 1 2\ninitial: 0\nfinal: 1 2\n"
              "0 a 1\n0 b 2\n1 a 1\n2 b 2\n")
    assert not decision.nfa_directed(two, want_witness=False).directed
    with pytest.raises(ValueError, match="directed"):
        decision.dce_directed_nfa(two, two)
    # assume_directed skips the check and trusts the caller
    assert decision.dce_directed_nfa(two, two, assume_directed=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dce_nfa_empty_languages():
    dead = nfa(DEAD)
    loop = nfa("alphabet: a\nstates: 0\ninitial: 0\nfinal: 0\n0 a 0\n")
    assert decision.dce_directed_nfa(dead, dead)
    assert not decision.dce_directed_nfa(dead, loop)
    assert not decision.dce_directed_nfa(loop, dead)


def test_cfg_candidate_ideal_k1():
    g = grammars.parse_cfg(K1_TEXT)
    cand = decision.cfg_candidate_ideal(g)
    assert tuple(slp.iter_val(cand)) == ideals.parse_rep("{a,b}* c? {a,b}*")


def test_cfg_candidate_ideal_empty():
    g = grammars.parse_cfg("terminals: a\nstart: S\nS -> a S\n")
    with pytest.raises(ValueError):
        decision.cfg_candidate_ideal(g)


def test_cfg_inclusion_expanded_witness():
    g = grammars.parse_cfg(K1_TEXT)
    inc = decision.cfg_included_in_ideal(g, ideal_prog("c?"))
    assert not inc.included
    # the witness is a word of the language itself, not just of the closure
    assert inc.witness == ("a", "b", "c", "a", "b")
    assert decision.cfg_included_in_ideal(
        g, ideal_prog("{a,b}* c? {a,b}*")).included


def test_cfg_inclusion_routes_agree():
    rng = random.Random(903)
    checked = 0
    for _ in range(150):
        g = random_cfg(rng, letters=("a", "b"))
        if not nonempty(g):
            continue
        rep = random_reduced_rep(rng, 3, letters=("a", "b"))
        prog = slp.slp_of_word(rep, terminals=rep)
        wide = decision.cfg_included_in_ideal(g, prog, want_witness=False)
        tight = decision.cfg_included_in_ideal(g, prog, want_witness=False,
                                               expand_cap=0)
        assert wide.included == tight.included, (grammars.format_cfg(g), rep)
        checked += 1
    assert checked > 60


def test_cfg_inclusion_compressed_witness_is_none_for_stars():
    # forcing the compressed route on a star-bearing ideal: verdict exact,
    # witness omitted rather than expanded
    g = grammars.parse_cfg(K1_TEXT)
    inc = decision.cfg_included_in_ideal(g, ideal_prog("{a,c}*"),
                                         expand_cap=0)
    assert not inc.included
    assert inc.witness is None


def test_cfg_inclusion_scan_budget():
    g = grammars.parse_cfg(K1_TEXT)
    with pytest.raises(ResourceCapExceeded):
        decision.cfg_included_in_ideal(g, ideal_prog("c?"),
                                       expand_cap=0, scan_budget=1)
    # the same query answers fine on the compressed route with room to scan,
    # and its witness comes from the closure rather than the language
    inc = decision.cfg_included_in_ideal(g, ideal_prog("c?"), expand_cap=0)
    assert not inc.included and inc.witness == ("a",)


def test_cfg_directed_family():
    v1 = decision.cfg_directed(grammars.parse_cfg(K1_TEXT))
    assert v1.directed
    assert tuple(slp.iter_val(v1.candidate)) \
        == ideals.parse_rep("{a,b}* c? {a,b}*")

    v2 = decision.cfg_directed(grammars.parse_cfg(K2_TEXT))
    assert not v2.directed
    assert v2.witness == ("b", "c", "b")
    assert not ideals.ideal_member(v2.witness,
                                   tuple(slp.iter_val(v2.candidate)))

    v12 = decision.cfg_directed(grammars.parse_cfg(K12_TEXT))
    assert v12.directed


def test_cfg_directed_empty_and_epsilon():
    v = decision.cfg_directed(
        grammars.parse_cfg("terminals: a\nstart: S\nS -> a S\n"))
    assert v.directed and v.empty

    v = decision.cfg_directed(
        grammars.parse_cfg("terminals: a\nstart: S\nS -> eps\n"))
    assert v.directed and not v.empty
    assert tuple(slp.iter_val(v.candidate)) == ()


def test_cfg_directed_random_consistency():
    rng = random.Random(904)
    checked = 0
    for _ in range(120):
        g = random_cfg(rng, letters=("a", "b"))
        if not nonempty(g):
            continue
        words = set(oracle.grammar_words(grammars.to_cnf(g), 7))
        v = decision.cfg_directed(g)
        if not v.directed:
            cand = tuple(slp.iter_val(v.candidate))
            assert v.witness is not None
            assert not ideals.ideal_member(v.witness, cand)
            if len(v.witness) <= 7:
                assert v.witness in words
        checked += 1
    assert checked > 50


def mostly_forward_nfa(rng):
    n = rng.randint(2, 7)
    trans = []
    for _ in range(rng.randint(n - 1, 2 * n)):
        p = rng.randrange(n)
        q = (rng.randrange(p + 1, n) if p < n - 1 and rng.random() < 0.8
             else rng.randrange(n))
        trans.append((p, rng.choice(("a", "b", "c", None)), q))
    finals = [q for q in range(n) if rng.random() < 0.5] or [n - 1]
    return automata.make_nfa(("a", "b", "c"), n, 0, finals, trans)


def right_linear(a):
    """Q_p -> x Q_q per edge (Q_p -> Q_q for epsilon), Q_f -> eps per
    final state: a grammar for exactly L(a)."""
    prods = [(f"Q{p}", (grammars.Nt(f"Q{q}"),) if x is None
              else (x, grammars.Nt(f"Q{q}"))) for (p, x, q) in a.transitions]
    prods += [(f"Q{f}", ()) for f in a.finals]
    return grammars.make_cfg(a.alphabet, f"Q{a.initial}", prods)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cfg_route_agrees_with_nfa_route():
    # reduced representations are unique per ideal, so a directed language
    # has one candidate whichever route computes it
    rng = random.Random(906)
    seen = {True: 0, False: 0}
    for _ in range(200):
        a = mostly_forward_nfa(rng)
        want = decision.nfa_directed(a)
        got = decision.cfg_directed(right_linear(a))
        assert (got.directed, got.empty) == (want.directed, want.empty), \
            automata.format_nfa(a)
        if want.directed and not want.empty:
            assert tuple(slp.iter_val(got.candidate)) == want.candidate, \
                automata.format_nfa(a)
        seen[want.directed] += not want.empty
    assert seen[True] > 100 and seen[False] > 5


def test_dce_cfg():
    k1 = grammars.parse_cfg(K1_TEXT)
    k12 = grammars.parse_cfg(K12_TEXT)
    assert bool(decision.dce_directed_cfg(k1, k12))
    assert not bool(decision.dce_directed_cfg(
        k1, grammars.parse_cfg("terminals: a b c\nstart: S\nS -> c\n")))
    with pytest.raises(ValueError, match="directed"):
        decision.dce_directed_cfg(k1, grammars.parse_cfg(K2_TEXT))
    assert bool(decision.dce_directed_cfg(k1, k1, assume_directed=True))


def test_convolution_pinned():
    assert decision.convolution(("a", "b"), ("c", "d")) == ("a.c", "b.d")
    with pytest.raises(ValueError, match="equal lengths"):
        decision.convolution(("a", "b"), ("c",))
    with pytest.raises(ValueError, match="pair components"):
        decision.convolution(("a.b",), ("c",))


def test_membership_grammar_equal_components():
    # pair letters x.x only: the product keeps exactly the diagonal word
    r = automata.parse_nfa(
        "alphabet: a.a b.b\nstates: 0 1 2 3\ninitial: 0\nfinal: 3\n"
        "0 a.a 1\n1 b.b 2\n2 a.a 3\n")
    prod = decision.membership_grammar(r, slp.slp_of_word(("a", "b", "a")))
    assert set(oracle.grammar_words(grammars.to_cnf(prod), 5)) \
        == {("a", "b", "a")}


def test_membership_grammar_all_pairs():
    edges = "\n".join(f"0 {x}.{y} 0" for x in "ab" for y in "ab")
    r = automata.parse_nfa("alphabet: a.a a.b b.a b.b\n"
                           "states: 0\ninitial: 0\nfinal: 0\n" + edges + "\n")
    prod = decision.membership_grammar(r, slp.slp_of_word(("a", "b", "a")))
    words = set(oracle.grammar_words(grammars.to_cnf(prod), 4))
    # any second component of length 3 goes through
    assert len(words) == 8
    assert all(len(w) == 3 for w in words)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_membership_grammar_empty_product():
    r = automata.parse_nfa("alphabet: a.a\nstates: 0 1\ninitial: 0\nfinal: 1\n")
    prod = decision.membership_grammar(r, slp.slp_of_word(("a",)))
    assert not set(oracle.grammar_words(grammars.to_cnf(prod), 3))


def test_hardness_instance_pinned():
    g = grammars.to_cnf(
        grammars.parse_cfg("terminals: a b\nstart: S\nS -> a b | b b\n"))
    hit = decision.hardness_instance(g, slp.slp_of_word(("a", "b")))
    miss = decision.hardness_instance(g, slp.slp_of_word(("b", "a")))
    assert not decision.cfg_directed(hit, want_witness=False).directed
    assert decision.cfg_directed(miss, want_witness=False).directed


def test_hardness_instance_random_agreement():
    rng = random.Random(905)
    hits = 0
    for _ in range(60):
        n = rng.randrange(1, 4)
        pool = [tuple(rng.choice("ab") for _ in range(n))
                for _ in range(rng.randrange(1, 4))]
        g = grammars.to_cnf(grammars.make_cfg(
            ["a", "b"], "S", [("S", w) for w in set(pool)]))
        w = tuple(rng.choice("ab") for _ in range(n))
        inst = decision.hardness_instance(g, slp.slp_of_word(w))
        v = decision.cfg_directed(inst, want_witness=False)
        member = oracle.cyk_member(g, w)
        assert v.directed == (not member), (grammars.format_cfg(g), w)
        hits += member
    assert hits > 5


def test_hardness_instance_rejects_bad_lengths():
    g = grammars.to_cnf(grammars.parse_cfg("terminals: a\nstart: S\nS -> a\n"))
    with pytest.raises(ValueError, match="length exactly"):
        decision.hardness_instance(g, slp.slp_of_word(("a", "a")))
