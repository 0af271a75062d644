"""Seeded input generators for the benchmark workloads.

Every generator is an endless stream of queries: input *text* in the
formats the ``dirlang`` CLI reads, plus the facts its construction
guarantees (``expect``), which the reference checks use.  Nothing here
imports ``dirlang``: the program under test sees only the generated text.
The same seed always gives the same queries.

Atoms in ``expect`` are plain tuples: ``("?", x)`` for ``x?`` and
``("*", letters)`` for ``{letters}*``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

LETTERS = ("a", "b", "c", "d", "e", "f")


@dataclass(frozen=True)
class Query:
    """One query: a CLI command's worth of work on generated input text.

    ``kind`` is one of ``nfa_directed``, ``nfa_decompose``, ``nfa_count``,
    ``cfg_directed`` and ``cfg_dce``.  ``expand_cap`` of None means the
    library default; 0 forces the compressed inclusion route.
    """

    qid: int
    kind: str
    texts: tuple
    expect: dict = field(default_factory=dict)
    expand_cap: int | None = None
    label: str = ""


def nfa_text(n: int, initial: int, finals, edges, alphabet) -> str:
    """Automaton text with states q0..q{n-1}; an edge label None is eps."""
    lines = ["alphabet: " + " ".join(alphabet),
             "states: " + " ".join(f"q{i}" for i in range(n)),
             f"initial: q{initial}",
             "final: " + " ".join(f"q{q}" for q in sorted(finals))]
    for (p, x, q) in sorted(edges, key=lambda e: (e[0], e[1] or "", e[2])):
        lines.append(f"q{p} {'eps' if x is None else x} q{q}")
    return "\n".join(lines) + "\n"


def cfg_text(terminals, start: str, rules) -> str:
    """Grammar text; ``rules`` maps a head to its list of bodies (lists of
    symbols, the empty list for eps), in output order."""
    lines = ["terminals: " + " ".join(terminals), f"start: {start}"]
    for head, bodies in rules:
        alts = [" ".join(body) if body else "eps" for body in bodies]
        lines.append(f"{head} -> " + " | ".join(alts))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ nfa_dag


def _dag_component(rng: random.Random, n: int, first: int, edges: set) -> None:
    """A random partially ordered piece on states first..first+n-1: nearly
    every state gets a local incoming edge, 1.5n more forward edges of any
    length make many paths of many lengths, half the states get
    self-loops."""
    for q in range(1, n):
        if rng.random() < 0.03:
            continue  # possibly unreachable: validate prunes it with a warning
        p = rng.randrange(max(0, q - 4), q)
        x = None if rng.random() < 0.05 else rng.choice(LETTERS)
        edges.add((first + p, x, first + q))
    for _ in range(3 * n // 2):
        p = rng.randrange(n - 1)
        edges.add((first + p, rng.choice(LETTERS), first + rng.randrange(p + 1, n)))
    for q in range(n):
        if rng.random() < 0.5:
            for x in rng.sample(LETTERS, rng.randint(1, 3)):
                edges.add((first + q, x, first + q))


# Random pieces per nfa_dag automaton: several pieces keep the cost of one
# query closer to the mean than one random DAG of the same size, whose
# cost varies about twice as much.
DAG_PARTS = 3


def random_dag_nfa(rng: random.Random, n: int) -> str:
    """A partially ordered automaton of DAG_PARTS * n + 2 states: the
    initial state enters DAG_PARTS random pieces of n states, whose last
    states lead to the one final state."""
    edges = set()
    final = DAG_PARTS * n + 1
    for i in range(DAG_PARTS):
        first = 1 + i * n
        _dag_component(rng, n, first, edges)
        edges.add((0, rng.choice(LETTERS), first))
        edges.add((first + n - 1, rng.choice(LETTERS), final))
    return nfa_text(final + 1, 0, {final}, edges, LETTERS)


def directed_chain_nfa(rng: random.Random, k: int, detours: int) -> tuple:
    """A chain c0 -x0-> c1 ... ck with self-loop sets L_i, plus detours that
    read only letters of some L_m between their ends.

    Every detour word embeds into L_m*, so the language stays inside the
    chain's ideal L_0* x0? L_1* ... L_k* and contains the chain's own
    words: it is directed, with exactly that ideal as its closure.
    Returns the text and the (unreduced) ideal.
    """
    loops = [tuple(sorted(rng.sample(LETTERS, rng.randint(1, 3))))
             if rng.random() < 0.7 else () for _ in range(k + 1)]
    chain = [rng.choice(LETTERS) for _ in range(k)]
    edges = {(i, chain[i], i + 1) for i in range(k)}
    for i, letters in enumerate(loops):
        edges.update((i, x, i) for x in letters)
    n = k + 1
    for _ in range(detours):
        m = rng.randrange(1, k)
        if not loops[m]:
            continue
        i = rng.randrange(0, m)
        j = rng.randrange(m + 1, min(k, m + 4) + 1)
        if rng.random() < 0.5:
            edges.add((i, rng.choice(loops[m]), j))
            continue
        d = n
        n += 1
        edges.add((i, rng.choice(loops[m]), d))
        edges.add((d, rng.choice(loops[m]), j))
        for x in rng.sample(loops[m], rng.randint(0, len(loops[m]))):
            edges.add((d, x, d))
    ideal = []
    for i in range(k + 1):
        if loops[i]:
            ideal.append(("*", loops[i]))
        if i < k:
            ideal.append(("?", chain[i]))
    return nfa_text(n, 0, {k}, edges, LETTERS), tuple(ideal)


def spread(qid: int, low: int, high: int) -> int:
    """Sizes low..high visited in a fixed scrambled order, so every stretch
    of the stream holds a near-uniform mix of sizes and the latency
    percentiles fall inside a smooth distribution, not between clusters."""
    span = high - low + 1
    step = next(s for s in (7, 5, 11, 13) if span % s)
    return low + (qid * step) % span


def nfa_dag(seed: int):
    """Random DAG automata of three pieces of 15-25 states (47-77 states);
    every fifth query is a known-directed chain of 45-75 links."""
    rng = random.Random(seed)
    for qid in itertools.count():
        n = spread(qid, 15, 25)
        if qid % 5 == 4:
            text, ideal = directed_chain_nfa(rng, 3 * n, 3 * n // 2)
            yield Query(qid, "nfa_directed", (text,),
                        {"family": "dag_directed", "ideal": ideal},
                        label=f"chain{3 * n}")
        else:
            yield Query(qid, "nfa_directed", (random_dag_nfa(rng, n),),
                        {"family": "dag"}, label=f"dag3x{n}")


# ------------------------------------------------------------ nfa_decompose


# Blocks of an nfa_decompose automaton with a second way in.
DECOMPOSE_FORKS = 6


def block_nfa(rng: random.Random, blocks: int) -> str:
    """A chain of strongly connected blocks of one or two states.

    A two-state block is a cycle p -x-> q -y-> p, a one-state block may
    carry self-loops.  Block b is entered from block b-1; at
    DECOMPOSE_FORKS blocks a second way in (a skip from block b-2 or a
    parallel edge with another letter) doubles the paths, so about
    2^DECOMPOSE_FORKS path ideals reach the maximality filter whatever the
    block count.
    """
    first = []  # first state of each block
    edges = set()
    n = 0
    for _ in range(blocks):
        first.append(n)
        if rng.random() < 0.5:
            edges.add((n, rng.choice(LETTERS), n + 1))
            edges.add((n + 1, rng.choice(LETTERS), n))
            n += 2
        else:
            for x in rng.sample(LETTERS, rng.randint(0, 2)):
                edges.add((n, x, n))
            n += 1

    def member(b: int) -> int:
        size = (first[b + 1] if b + 1 < blocks else n) - first[b]
        return first[b] + rng.randrange(size)

    forked = set(rng.sample(range(2, blocks), DECOMPOSE_FORKS))
    for b in range(1, blocks):
        x, y = rng.sample(LETTERS, 2)
        target = member(b)
        edges.add((member(b - 1), x, target))
        if b in forked:
            src = b - 2 if rng.random() < 0.5 else b - 1
            edges.add((member(src), y, target))
    return nfa_text(n, 0, {member(blocks - 1)}, edges, LETTERS)


def nfa_decompose(seed: int):
    """Block chains answered alternately as ``decompose`` (12-18 blocks)
    and ``count-ideals`` (12-15 blocks, small enough for a brute-force
    check of every count)."""
    rng = random.Random(seed)
    for qid in itertools.count():
        if qid % 2 == 0:
            kind, blocks = "nfa_decompose", spread(qid // 2, 12, 18)
        else:
            kind, blocks = "nfa_count", spread(qid // 2, 12, 15)
        yield Query(qid, kind, (block_nfa(rng, blocks),),
                    {"family": "blocks", "blocks": blocks},
                    label=f"blocks{blocks}")


# ---------------------------------------------------------------- cfg_chain


def chain_cfg(n: int, a: str, b: str, c: str | None) -> str:
    """N_i -> a N_{i+1} | b for i < n, N_n -> b; with c, also N_0 -> c."""
    terminals = sorted({a, b} | ({c} if c else set()))
    rules = []
    for i in range(n):
        bodies = [[a, f"N{i + 1}"], [b]]
        if i == 0 and c:
            bodies.append([c])
        rules.append((f"N{i}", bodies))
    rules.append((f"N{n}", [[b]]))
    return cfg_text(terminals, "N0", rules)


def complement_atoms(word, sigma) -> tuple:
    """The ideal whose length-|word| words are all but ``word``: each letter
    x becomes (sigma minus x)* x?, and the last x? is dropped."""
    atoms = []
    for x in word:
        atoms.append(("*", tuple(y for y in sigma if y != x)))
        atoms.append(("?", x))
    return tuple(atoms[:-1])


def hardness_cfg(pool, word, sigma=("a", "b")) -> tuple:
    """The membership-to-directedness instance: L(pool) united with the
    letter language of the complement ideal of ``word``.  It is directed
    exactly when ``word`` is not in the pool."""
    atoms = complement_atoms(word, sigma)
    names = {}
    extra = []
    for kind, x in atoms:
        key = (kind, x)
        if key in names:
            continue
        name = f"I{len(names)}"
        names[key] = name
        if kind == "?":
            extra.append((name, [[], [x]]))
        else:
            extra.append((name, [[]] + [[name, y] for y in x]))
    rules = [("U", [["L"], ["R"]]),
             ("L", [list(w) for w in sorted(pool)]),
             ("R", [[names[(kind, x)] for kind, x in atoms]])]
    return cfg_text(sigma, "U", rules + extra), atoms


# Chain lengths and hardness word lengths.  Bigger inputs allocate enough
# that their time swung with the machine's memory traffic (on a shared
# 2-core VM, over a minute: chain-32 varied by 12%, chain-22 and a hardness
# instance over words of length 5 by 12-13%, chain-12 by 5%, a DAG query by
# 3%), so both ranges stay small.
CHAIN_LOW, CHAIN_HIGH = 6, 14
HARDNESS_MAX_WORD = 4


def cfg_chain(seed: int):
    """Chain grammars of 6-14 links, directed, or not directed by one extra
    letter (slot 6 of every 8); slot 7 is a hardness instance over words of
    length 1-4."""
    rng = random.Random(seed)
    for qid in itertools.count():
        slot = qid % 8
        a, b, c = rng.sample(LETTERS, 3)
        n = spread(qid, CHAIN_LOW, CHAIN_HIGH)
        if slot < 6:
            yield Query(qid, "cfg_directed", (chain_cfg(n, a, b, None),),
                        {"family": "chain", "n": n, "a": a, "b": b,
                         "c": None}, label=f"chain{n}")
        elif slot == 6:
            yield Query(qid, "cfg_directed", (chain_cfg(n, a, b, c),),
                        {"family": "chain", "n": n, "a": a, "b": b,
                         "c": c}, label=f"chain{n}+c")
        else:
            n = rng.randrange(1, HARDNESS_MAX_WORD + 1)
            pool = sorted({tuple(rng.choice("ab") for _ in range(n))
                           for _ in range(rng.randrange(1, 5))})
            word = (rng.choice(pool) if rng.random() < 0.5
                    else tuple(rng.choice("ab") for _ in range(n)))
            text, atoms = hardness_cfg(pool, word)
            yield Query(qid, "cfg_directed", (text,),
                        {"family": "hardness", "pool": pool,
                         "word": word, "complement": atoms},
                        label=f"hardness{n}")


# ------------------------------------------------------------- cfg_doubling


def doubling_rules(prefix: str, base, k: int) -> list:
    """P0 -> base, P_i -> P_{i-1} P_{i-1}: the value is base^(2^k)."""
    rules = [(f"{prefix}{k}", [[f"{prefix}{k - 1}", f"{prefix}{k - 1}"]])
             ] if k else []
    for i in range(k - 1, 0, -1):
        rules.append((f"{prefix}{i}", [[f"{prefix}{i - 1}", f"{prefix}{i - 1}"]]))
    rules.append((f"{prefix}0", [list(base)]))
    return rules


def doubling_cfg(base, k: int) -> str:
    return cfg_text(sorted(set(base)), f"P{k}", doubling_rules("P", base, k))


def union_cfg(u, v, k: int) -> str:
    """S -> A | B over two doubling programs, base words u and v."""
    rules = ([("S", [[f"A{k}"], [f"B{k}"]])]
             + doubling_rules("A", u, k) + doubling_rules("B", v, k))
    return cfg_text(sorted(set(u) | set(v)), "S", rules)


def tripling_cfg(base, k: int) -> str:
    """A differently shaped program for base^(2^k): the top splits as
    P_{k-1} Q with Q -> P_{k-2} P_{k-2} (k >= 2)."""
    rules = [(f"P{k}", [[f"P{k - 1}", "Q"]]), ("Q", [[f"P{k - 2}", f"P{k - 2}"]])]
    rules += doubling_rules("P", base, k - 1)
    return cfg_text(sorted(set(base)), f"P{k}", rules)


# Every ten queries of cfg_doubling, in this order: (kind, k, forced onto
# the compressed route).  Each stretch of ten costs the same, so a short
# window of a run holds the same mix as the whole run.
DOUBLING_CYCLE = (("word", 8, False), ("word", 10, False), ("word", 11, False),
                  ("word", 12, False), ("word", 8, True), ("word", 10, True),
                  ("union", 10, False), ("union", 7, True), ("dce", 10, False),
                  ("dce", 12, False))
# Inputs that end in ResourceCapExceeded at the seed commit: the compressed
# route at k=14 and the default route at k=16 (2^17 atoms, above the expand
# cap).  They are run only in the traced run, as cap probes.
CAP_PROBES = ((14, 0), (16, None))


def _base(rng: random.Random) -> tuple:
    x, y = rng.sample(LETTERS[:3], 2)
    return (x, y)


def cfg_doubling(seed: int):
    """Doubling programs for one word (default and forced-compressed
    routes), unions of two such programs that are not directed (both
    routes), and DCE pairs of differently shaped programs for one word;
    the seed picks the letters."""
    rng = random.Random(seed)
    for qid in itertools.count():
        kind, k, compressed = DOUBLING_CYCLE[qid % len(DOUBLING_CYCLE)]
        base = _base(rng)
        cap = 0 if compressed else None
        route = "/compressed" if compressed else ""
        if kind == "word":
            yield Query(qid, "cfg_directed", (doubling_cfg(base, k),),
                        {"family": "word", "base": base, "k": k},
                        expand_cap=cap, label=f"word{k}{route}")
        elif kind == "union":
            u, v = base, base[::-1]
            yield Query(qid, "cfg_directed", (union_cfg(u, v, k),),
                        {"family": "union", "bases": (u, v), "k": k},
                        expand_cap=cap, label=f"union{k}{route}")
        else:
            yield Query(qid, "cfg_dce",
                        (doubling_cfg(base, k), tripling_cfg(base, k)),
                        {"family": "dce", "equal": True}, label=f"dce{k}")


# Depths at which the traced run times one word on both inclusion routes.
ROUTE_K = (8, 10, 12)


def route_pairs() -> list:
    """One-word doubling programs, each as (default route, forced
    compressed route)."""
    pairs = []
    for k in ROUTE_K:
        text = doubling_cfg(("a", "b"), k)
        expect = {"family": "word", "base": ("a", "b"), "k": k}
        pairs.append((Query(k, "cfg_directed", (text,), expect, label=f"word{k}"),
                      Query(k, "cfg_directed", (text,), expect, expand_cap=0,
                            label=f"word{k}/compressed")))
    return pairs


def cap_probes() -> list:
    return [Query(i, "cfg_directed", (doubling_cfg(("a", "b"), k),),
                  {"family": "word", "base": ("a", "b"), "k": k},
                  expand_cap=cap, label=f"word{k}/cap{cap}")
            for i, (k, cap) in enumerate(CAP_PROBES)]


GENERATORS = {
    "nfa_dag": nfa_dag,
    "nfa_decompose": nfa_decompose,
    "cfg_chain": cfg_chain,
    "cfg_doubling": cfg_doubling,
}
