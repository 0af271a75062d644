"""Byte-for-byte pins of the grammar route.

Each table was recorded from the eager products (every transducer state
triple built, then cleaned), so they hold the demand-driven product to the
same reduced grammars, terminal sets, candidates and witnesses.  Long texts
are pinned by the first 16 hex digits of their sha256.
"""

import hashlib
import random
import warnings

import pytest

from dirlang import automata, decision, grammars, ideals, slp, transducers
from dirlang.grammars import Nt

from conftest import nonempty, random_atom, random_cfg


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def chain_cfg(n, a, b, c=None):
    """N_i -> a N_{i+1} | b for i < n, N_n -> b; with c, also N_0 -> c."""
    prods = [(f"N{n}", (b,))]
    for i in range(n):
        prods += [(f"N{i}", (a, Nt(f"N{i + 1}"))), (f"N{i}", (b,))]
    if c:
        prods.append(("N0", (c,)))
    return grammars.make_cfg({a, b} | ({c} if c else set()), "N0", prods)


def doubling_prods(prefix, base, k):
    """P0 -> base, P_i -> P_{i-1} P_{i-1}: the value is base^(2^k)."""
    return [(f"{prefix}0", tuple(base))] + [
        (f"{prefix}{i}", (Nt(f"{prefix}{i - 1}"), Nt(f"{prefix}{i - 1}")))
        for i in range(1, k + 1)]


def golden_grammar(label: str) -> grammars.Cfg:
    kind, *args = label.split()
    if kind == "chain":
        return chain_cfg(int(args[0]), *args[1:])
    if kind == "double":
        base, k = args[0], int(args[1])
        return grammars.make_cfg(set(base), f"P{k}", doubling_prods("P", base, k))
    if kind == "union":
        u, v, k = args[0], args[1], int(args[2])
        prods = ([("S", (Nt(f"A{k}"),)), ("S", (Nt(f"B{k}"),))]
                 + doubling_prods("A", u, k) + doubling_prods("B", v, k))
        return grammars.make_cfg(set(u) | set(v), "S", prods)
    if kind == "hardness":
        pool, word = args[0].split("|"), args[1]
        g = grammars.to_cnf(grammars.make_cfg(
            ["a", "b"], "S", [("S", tuple(w)) for w in pool]))
        return decision.hardness_instance(g, slp.slp_of_word(tuple(word)))
    g = random_cfg(random.Random(int(args[0])), max_nts=4)
    assert nonempty(g)
    return g


def pinned(text: str | None) -> str | None:
    return text if text is None or len(text) <= 60 else "sha " + digest(text)


def candidate_text(candidate) -> str:
    """As the CLI prints it: a rep up to 100 atoms, else the program."""
    if slp.val_length(candidate) <= 100:
        return pinned(ideals.format_rep(tuple(slp.iter_val(candidate))))
    return pinned(slp.format_slp(candidate))


# (grammar, reduced ideal grammar digest, candidate, witness)
CFG_GOLDEN = [
    ('chain 3 a b', '6082f4929f07b52e', 'a? a? a? b?',
     None),
    ('chain 7 b a', 'b0c3bb35d1e3bab5', 'b? b? b? b? b? b? b? a?',
     None),
    ('chain 12 a c', 'c1db21f1f2a6d29b', 'a? a? a? a? a? a? a? a? a? a? a? a? c?',
     None),
    ('chain 4 a b c', '02b39cd88b0e7128', 'a? a? a? a? b?',
     'c'),
    ('chain 9 c a b', 'ee7bb2c149f4c016', 'c? c? c? c? c? c? c? c? c? a?',
     'b'),
    ('chain 15 b c a', '350ebdcab75146da', 'b? b? b? b? b? b? b? b? b? b? b? b? b? b? b? c?',
     'a'),
    ('double ab 3', 'a3a264c2ed47bf3f', 'a? b? a? b? a? b? a? b? a? b? a? b? a? b? a? b?',
     None),
    ('double ba 6', '062fe8b74231fee8', 'sha 929ac9d4099340fc',
     None),
    ('double a 4', 'f8dd47958ecbdb58', 'a? a? a? a? a? a? a? a? a? a? a? a? a? a? a? a?',
     None),
    ('double abb 5', '89ed27917a6e86bd', 'sha 91db3821df9b182a',
     None),
    ('union ab ba 3', '17f7a04ba7a4c962', 'a? b? a? b? a? b? a? b? a? b? a? b? a? b? a? b?',
     'babababababababa'),
    ('union ab ba 6', 'bc352c15cf63db61', 'sha 86e39f6cf6a1394e',
     'sha 58e927c808231da8'),
    ('hardness ab|bb ab', 'da778a850101cf3c', '{b}* {a}*',
     'ab'),
    ('hardness aab|bba|abb bab', 'c995e139c3a52e57', '{a}* {b}* {a}*',
     None),
    ('random 5000', '3bad551a9e556b8d', '{c}* {b}*',
     None),
    ('random 5001', 'f2323c37c71a8526', '{a}* c? a? {b}*',
     None),
    ('random 5003', '31f6c232937c0255', '{a,b,c}*',
     None),
    ('random 5008', '1a0c0c0e8b130e10', 'b? b? {c}*',
     'a'),
    ('random 5011', '0cc2a249fdcf0904', '{a,c}*',
     None),
    ('random 5013', 'a961c4525c323ee5', 'b? b? c?',
     'a'),
    ('random 5016', 'c2cd7f0a37218d2a', 'b? a?',
     'cb'),
    ('random 5020', '030408cd766f8075', 'c? b? a? a?',
     'ab'),
]


@pytest.mark.parametrize("label,reduced,candidate,witness", CFG_GOLDEN,
                         ids=[g[0] for g in CFG_GOLDEN])
def test_cfg_directed_golden(label, reduced, candidate, witness):
    g = golden_grammar(label)
    red = grammars.reduced_ideal_grammar(g)
    assert digest(grammars.format_cfg(red)) == reduced
    v = decision.cfg_directed(g)
    assert candidate_text(v.candidate) == candidate
    assert pinned(None if v.witness is None
                  else ideals.format_word(v.witness)) == witness


ATOM_LETTERS = ("a", "b", "c")


def random_atom_cnf(rng):
    """A small CNF grammar over atoms, possibly cyclic and with useless
    nonterminals."""
    nts = ["S", "A", "B", "C"][:rng.randint(2, 4)]
    prods = [("S", ())] if rng.random() < 0.3 else []
    for head in nts:
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                prods.append((head, (random_atom(rng, ATOM_LETTERS),)))
            else:
                prods.append((head, tuple(Nt(rng.choice(nts[1:])) for _ in range(2))))
    atoms = {s for (_, body) in prods for s in body if not isinstance(s, Nt)}
    atoms.add(random_atom(rng, ATOM_LETTERS))  # declared but unused
    return grammars.make_cfg(atoms, "S", prods)


# (seed, digest of the T_R image, digest of the T_L image)
APPLY_GOLDEN = [
    (6000, '86ab6424e19a027f', 'f96ec031f4f66b1f'),
    (6001, '603862c03a2b8b7b', '204e5a8ea4cc5d42'),
    (6002, '4d7673cce8b1f9c8', '27ce1accbb70f832'),
    (6003, 'f978c34e8bb19ef1', '3e313cdfae6ee69b'),
    (6004, 'd9885e0dc5cc3403', 'c909de10f523f0f8'),
    (6005, '3af8b6b7b5a137fe', '4840583de2049628'),
    (6006, '95ed099c2e4924d0', '86e98f6cf9e9fb26'),
    (6007, '0bc288ba3a5bdc41', '81e3762e56c2e876'),
    (6008, '94eeec4f579f4cca', '17fb062785365e7f'),
    (6009, '41569dece6aecb9a', 'b6b3a84909d18bc0'),
    (6010, '106885e6558dbff1', 'f2181ea3ba2d00f4'),
    (6011, '2594b9e621287e51', '3f87d7aa31602332'),
]


@pytest.mark.parametrize("seed,right,left", APPLY_GOLDEN,
                         ids=[str(g[0]) for g in APPLY_GOLDEN])
def test_apply_to_cfg_golden(seed, right, left):
    g = random_atom_cnf(random.Random(seed))
    g.check_cnf()
    atoms = tuple(g.terminals)
    got = [digest(grammars.format_cfg(transducers.apply_to_cfg(t, g)))
           for t in (transducers.build_TR(atoms), transducers.build_TL(atoms))]
    assert got == [right, left]


PAIRS = ("a.a", "a.b", "b.a", "b.b")


def pair_nfa(rng):
    n = rng.randint(1, 4)
    trans = [(rng.randrange(n), rng.choice(PAIRS + (None,)), rng.randrange(n))
             for _ in range(rng.randint(3, 10))]
    finals = [q for q in range(n) if rng.random() < 0.5] or [n - 1]
    return automata.make_nfa(PAIRS, n, 0, finals, trans)


# (seed, digest of the membership grammar)
MEMBERSHIP_GOLDEN = [
    (7000, '05338d684821ae29'),  # 0 productions
    (7001, '4f2f880146cc31d1'),  # 3 productions
    (7003, '2e696d1ff0d2b948'),  # 5 productions
    (7010, '4702951d3e057543'),  # 7 productions
    (7013, '06223a81991dafe8'),  # 8 productions
    (7014, '24997808e3162e30'),  # 4 productions
    (7016, '4af0de9eb2c1cb81'),  # 5 productions
    (7019, 'f52291cc9c17fbf0'),  # 6 productions
]


@pytest.mark.parametrize("seed,want", MEMBERSHIP_GOLDEN,
                         ids=[str(g[0]) for g in MEMBERSHIP_GOLDEN])
def test_membership_grammar_golden(seed, want):
    rng = random.Random(seed)
    r = pair_nfa(rng)
    k = rng.randint(0, 3)
    b = grammars.make_cfg(["a", "b"], f"P{k}",
                          doubling_prods("P", rng.choice(["a", "ab", "ba", "bba"]), k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = decision.membership_grammar(r, b)
    assert digest(grammars.format_cfg(got)) == want
