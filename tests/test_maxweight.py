import itertools
import random

import pytest

from dirlang import automata, ideals, maxweight

A = ideals.Single("a")
B = ideals.Single("b")
SA = ideals.star("a")
SAB = ideals.star("a", "b")


def atom_nfa(n, finals, trans):
    alphabet = sorted({x for (_, x, _) in trans if x is not None},
                      key=automata.sym_key)
    return automata.make_nfa(alphabet, n, 0, finals, trans)


def walk(norm, choice, s):
    """The rep read from state s along the pass's chosen edges."""
    rep = []
    while s != norm.final:
        atoms, (s,) = norm.alternatives[s][choice[s]]
        rep.extend(atoms)
    return tuple(rep)


def test_max_weights_orders_by_rank_histogram():
    # one star of rank 3 outweighs any number of singles and smaller stars
    alts = {"x": [((A,) * 5 + (SA,) * 5, ())], "y": [((SAB,), ())],
            "z": [((), ("x",)), ((), ("y",)), ((B,), ("y",))],
            "dead": [((A,), ("none",))], "none": []}
    best, choice = maxweight.max_weights(["x", "y", "none", "dead", "z"], alts)
    assert best["x"] == (0, 5, 5) and best["y"] == (1, 0, 0)
    assert best["z"] == (1, 0, 1) and choice["z"] == 2
    assert best["none"] is None and choice["none"] is None
    assert best["dead"] is None and choice["dead"] is None


def test_max_weights_first_of_equal_alternatives_wins():
    alts = {"x": [((A,), ())], "y": [((B,), ())],
            "z": [((), ("y",)), ((), ("x",)), ((B,), ())]}
    best, choice = maxweight.max_weights(["x", "y", "z"], alts)
    assert best["z"] == (1,) and choice["z"] == 0


def test_normalize_shape():
    a = atom_nfa(2, [1], [(0, A, 1), (0, SAB, 1)])
    norm = maxweight.normalize(a)
    assert norm.initial == 0
    assert norm.final == norm.m - 1
    # fresh final with an epsilon self-loop merged away or kept: the final
    # column must be reachable from every former final
    path = maxweight.canonical_path(norm)
    assert path == (SAB,)  # heavier of the two parallel edges


def test_normalize_merges_parallel_edges_keeping_heavier():
    a = atom_nfa(2, [1], [(0, A, 1), (0, SA, 1), (0, B, 1)])
    norm = maxweight.normalize(a)
    kept = [x for x in norm.edges.values() if x is not None]
    assert SA in kept
    assert {atom for (_, _, atom) in norm.merged_away} == {A, B}


def test_normalize_rejects_cycles():
    a = atom_nfa(2, [1], [(0, A, 1), (1, A, 0)])
    with pytest.raises(ValueError):
        maxweight.normalize(a)


def test_normalize_rejects_self_loop_beside_final_epsilon_loop():
    # the single final state already carries its epsilon self-loop, so the
    # fresh-final branch is skipped; the atom loop on state 1 must still fail
    a = automata.make_nfa([A], 3, 0, [2],
                          [(0, A, 1), (1, A, 1), (1, None, 2), (2, None, 2)])
    with pytest.raises(ValueError, match="acyclic ideal automaton"):
        maxweight.normalize(a)


def test_max_weights_and_extraction_known_dag():
    # diamond: the star path outweighs the two-singles path
    a = atom_nfa(4, [3], [(0, A, 1), (1, B, 3), (0, SAB, 2), (2, None, 3)])
    norm = maxweight.normalize(a)
    best, _ = maxweight.max_weights(range(norm.final, -1, -1), norm.alternatives)
    assert best[norm.initial] == (1, 0)
    assert best[norm.final] == (0, 0)
    assert maxweight.canonical_path(norm) == (SAB,)


def test_extraction_tie_breaks_deterministically():
    # two single-atom paths of equal weight: smallest successor index wins
    a = atom_nfa(4, [3], [(0, A, 1), (1, None, 3), (0, B, 2), (2, None, 3)])
    norm = maxweight.normalize(a)
    rep = maxweight.canonical_path(norm)
    assert rep in [(A,), (B,)]
    assert rep == maxweight.canonical_path(norm)


def test_extraction_empty_language():
    a = automata.make_nfa([A], 1, 0, [], [(0, A, 0)])
    with pytest.raises(ValueError):
        maxweight.normalize(automata.trim(a))


def test_max_weights_against_bruteforce_longest_path():
    rng = random.Random(700)
    atoms = (A, B, SA, SAB, None)
    for n_max, t_max in [(6, 10)] * 80 + [(30, 60)] * 40:
        n = rng.randint(2, n_max)
        trans = []
        for _ in range(rng.randint(1, t_max)):
            p = rng.randrange(n - 1)
            q = rng.randrange(p + 1, n)
            trans.append((p, rng.choice(atoms), q))
        a = atom_nfa(n, [n - 1], trans)
        if not automata.reaches_final(a):
            continue
        norm = maxweight.normalize(a)
        got, choice = maxweight.max_weights(range(norm.final, -1, -1),
                                            norm.alternatives)

        # brute force: max mu_m path weight from each state to the final,
        # walking states in reverse topological order
        best = {norm.final: 0}
        for s in range(norm.m - 2, -1, -1):
            top = None
            for ((p, q), x) in norm.edges.items():
                if p == s and q in best:
                    w = best[q] + (0 if x is None else ideals.weight((x,), norm.m))
                    if top is None or w > top:
                        top = w
            if top is not None:
                best[s] = top
        for s in range(norm.m):
            assert (got[s] is None) == (s not in best)
            if s in best:
                assert ideals.weight(walk(norm, choice, s), norm.m) == best[s]
        assert maxweight.canonical_path(norm) == walk(norm, choice, norm.initial)
