"""Straight-line programs: grammars deriving exactly one word.

An SLP is a Cfg with exactly one production per nonterminal and an acyclic
reference graph, so its value can be exponentially longer than the grammar.
Everything here works on the compressed form; nothing below ever
materializes the value unless an explicit cap says it may.
"""

from __future__ import annotations

from dataclasses import dataclass

from dirlang import grammars
from dirlang.ideals import (
    AlphabetStar,
    Atom,
    IdealRep,
    Single,
    check_letter,
    make_alphabet,
    parse_atom,
)
from dirlang.errors import ResourceCapExceeded

Slp = grammars.Cfg  # structural alias; check_slp enforces the extra shape


def check_slp(g: Slp) -> Slp:
    by_head = g.by_head()
    for a in g.nonterminals:
        if len(by_head[a]) != 1:
            raise ValueError(f"not an SLP: {a} has {len(by_head[a])} productions")
    if not grammars.is_acyclic(g):
        reach = grammars.occurrence_reach(g)
        loop = next(a for a in g.nonterminals
                    if any(a in reach[s.name] for s in by_head[a][0]
                           if isinstance(s, grammars.Nt)))
        raise ValueError(f"not an SLP: {loop} derives itself")
    return g


def slp_of_word(word, terminals=None) -> Slp:
    """Trivial one-production SLP for an explicit word (letters or atoms)."""
    word = tuple(word)
    terms = set(word) if terminals is None else set(terminals) | set(word)
    taken = {grammars.sym_text(t) for t in terms}
    start = grammars.fresh_name("W", taken)
    return grammars.make_cfg(terms, start, [(start, word)])


def rule_of(g: Slp) -> dict:
    return {a: body for (a, body) in g.productions}


def val_lengths(g: Slp) -> dict:
    """Value length per nonterminal (big ints; never expands)."""
    check_slp(g)
    rule = rule_of(g)
    length: dict = {}

    def visit(a: str):
        stack = [a]
        while stack:
            b = stack[-1]
            if b in length:
                stack.pop()
                continue
            missing = [s.name for s in rule[b]
                       if isinstance(s, grammars.Nt) and s.name not in length]
            if missing:
                stack.extend(missing)
                continue
            length[b] = sum(length[s.name] if isinstance(s, grammars.Nt) else 1
                            for s in rule[b])
            stack.pop()

    visit(g.start)
    return length


def val_length(g: Slp) -> int:
    """Length of the value (a big int; never expands)."""
    return val_lengths(g)[g.start]


def char_at(g: Slp, i: int):
    """The i-th symbol (1-based) of the value, by descent along lengths."""
    return symbol_at(rule_of(g), val_lengths(g), g.start, i)


def symbol_at(rule: dict, length: dict, a: str, i: int):
    """The i-th symbol (1-based) of val(a), given a checked program's
    ``rule_of`` and ``val_lengths`` tables: one root-to-leaf descent."""
    if not 1 <= i <= length[a]:
        raise IndexError(f"index {i} out of range for value length {length[a]}")
    i -= 1
    while True:
        for s in rule[a]:
            n = length[s.name] if isinstance(s, grammars.Nt) else 1
            if i < n:
                if not isinstance(s, grammars.Nt):
                    return s
                a = s.name
                break
            i -= n


def iter_val(g: Slp):
    """Stream the value symbols left to right in O(depth) memory."""
    rule = rule_of(g)
    stack = [iter(rule[g.start])]
    while stack:
        try:
            s = next(stack[-1])
        except StopIteration:
            stack.pop()
            continue
        if isinstance(s, grammars.Nt):
            stack.append(iter(rule[s.name]))
        else:
            yield s


EXPAND_DEFAULT_CAP = 1_000_000


def expand(g: Slp, cap: int = EXPAND_DEFAULT_CAP) -> tuple:
    """The full value; refuses to build values longer than ``cap``."""
    n = val_length(g)
    if n > cap:
        raise ResourceCapExceeded(f"value length {n} exceeds the cap {cap}")
    return tuple(iter_val(g))


def drop_last(g: Slp) -> Slp:
    """SLP for the value minus its last symbol."""
    rule = rule_of(g)
    length = val_lengths(g)
    if length[g.start] == 0:
        raise ValueError("cannot drop from an empty value")
    taken = set(g.nonterminals) | {grammars.sym_text(t) for t in g.terminals}
    prods = list(g.productions)
    trimmed: dict = {}

    def trim(a: str) -> str:
        """Trimmed copy of a, recursing down the rightmost non-empty spine."""
        if a in trimmed:
            return trimmed[a]
        name = grammars.fresh_name(a + "'", taken)
        taken.add(name)
        trimmed[a] = name
        body = rule[a]
        idx = max(i for i, s in enumerate(body)
                  if (length[s.name] if isinstance(s, grammars.Nt) else 1) > 0)
        last = body[idx]
        tail = (grammars.Nt(trim(last.name)),) if isinstance(last, grammars.Nt) else ()
        prods.append((name, body[:idx] + tail))
        return name

    top = trim(g.start)
    return check_slp(grammars.make_cfg(g.terminals, top, prods).cleaned())


def complement_ideal(b: Slp, alphabet) -> Slp:
    """An ideal whose words of length n = |val(b)| are exactly the other
    words: val(b) itself is the one length-n word outside the ideal.

    Each letter x of the value becomes the two atoms (alphabet minus x)* x?,
    and the final x? is dropped.  Needs at least two letters and a word of
    length at least one, else no such ideal exists.
    """
    sigma = make_alphabet(alphabet)
    if len(sigma) < 2:
        raise ValueError("complement needs an alphabet of at least two letters")
    lengths = val_lengths(b)
    if lengths[b.start] == 0:
        raise ValueError("complement of the empty word is not an ideal")
    rule = rule_of(b)
    prods = []
    for (head, body) in rule.items():
        new = []
        for s in body:
            if isinstance(s, grammars.Nt):
                new.append(s)
            else:
                x = check_letter(s)
                if x not in sigma:
                    raise ValueError(f"letter {x!r} outside the given alphabet")
                rest = tuple(y for y in sigma if y != x)
                new.extend((AlphabetStar(rest), Single(x)))
        prods.append((head, tuple(new)))
    atoms = {s for (_, body) in prods for s in body if not isinstance(s, grammars.Nt)}
    widened = grammars.make_cfg(sorted(atoms, key=grammars.sym_text),
                                b.start, prods)
    return drop_last(check_slp(widened))


# fingerprint moduli: two fixed 61-bit primes (2**61 - 1 and 2**61 + 15)
_FP = ((2305843009213693951, 1000003),
       (2305843009213693967, 1000033))

SLP_EQUAL_VERIFY_CAP = 1_000_000


@dataclass(frozen=True)
class SlpEqual:
    equal: bool
    probabilistic: bool

    def __bool__(self) -> bool:
        return self.equal


def fingerprint(g: Slp, codes: dict, p: int, base: int) -> int:
    """Polynomial hash of the value under the given symbol codes."""
    rule = rule_of(g)
    length = val_lengths(g)
    shift = {a: pow(base, length[a], p) for a in length}
    hval: dict = {}
    order = []
    seen = set()

    def topo(a: str):
        stack = [(a, False)]
        while stack:
            b, done = stack.pop()
            if done:
                order.append(b)
                continue
            if b in seen:
                continue
            seen.add(b)
            stack.append((b, True))
            for s in rule[b]:
                if isinstance(s, grammars.Nt):
                    stack.append((s.name, False))

    topo(g.start)
    for a in order:
        h = 0
        for s in rule[a]:
            if isinstance(s, grammars.Nt):
                h = (h * shift[s.name] + hval[s.name]) % p
            else:
                h = (h * base + codes[s]) % p
        hval[a] = h
    return hval[g.start]


def slp_equal(a: Slp, b: Slp, verify_cap: int = SLP_EQUAL_VERIFY_CAP) -> SlpEqual:
    """Do two SLPs have the same value?

    Length check, then two independent fingerprints; values short enough
    (at most ``verify_cap`` symbols) are additionally compared symbol by
    symbol in a stream, making the answer exact.  A positive answer above
    the cap rests on the fingerprints alone and is flagged probabilistic.
    """
    check_slp(a)
    check_slp(b)
    la, lb = val_length(a), val_length(b)
    if la != lb:
        return SlpEqual(False, False)
    symbols = sorted(set(a.terminals) | set(b.terminals), key=grammars.sym_text)
    codes = {s: i + 1 for i, s in enumerate(symbols)}
    for (p, base) in _FP:
        if fingerprint(a, codes, p, base) != fingerprint(b, codes, p, base):
            return SlpEqual(False, False)
    if la <= verify_cap:
        for (x, y) in zip(iter_val(a), iter_val(b)):
            if x != y:
                return SlpEqual(False, False)
        return SlpEqual(True, False)
    return SlpEqual(True, True)


def ideal_language_grammar(rep_slp: Slp) -> grammars.Cfg:
    """Letter grammar for the ideal language of an atom-word SLP.

    Every atom occurrence becomes a nonterminal: x? turns into X -> eps | x
    and an alphabet atom into Y -> eps | Y x for each of its letters.
    """
    check_slp(rep_slp)
    taken = set(rep_slp.nonterminals)
    atom_nt: dict = {}
    extra = []
    letters = set()

    def nt_for(atom: Atom) -> grammars.Nt:
        if atom in atom_nt:
            return atom_nt[atom]
        if isinstance(atom, Single):
            name = grammars.fresh_name(f"I{len(atom_nt)}", taken)
            taken.add(name)
            extra.append((name, ()))
            extra.append((name, (atom.letter,)))
            letters.add(atom.letter)
        else:
            name = grammars.fresh_name(f"I{len(atom_nt)}", taken)
            taken.add(name)
            extra.append((name, ()))
            for x in atom.letters:
                extra.append((name, (grammars.Nt(name), x)))
                letters.add(x)
        atom_nt[atom] = grammars.Nt(name)
        return atom_nt[atom]

    prods = []
    for (head, body) in rep_slp.productions:
        prods.append((head, tuple(nt_for(s) if not isinstance(s, grammars.Nt) else s
                                  for s in body)))
    prods.extend(extra)
    return grammars.make_cfg(sorted(letters), rep_slp.start, prods)


def parse_slp(text: str) -> Slp:
    """SLP text format: the grammar format with atom or letter terminals."""
    def term(tok: str):
        try:
            return parse_atom(tok)
        except ValueError:
            return check_letter(tok)

    return check_slp(grammars.parse_cfg(text, parse_terminal=term))


def format_slp(g: Slp) -> str:
    return grammars.format_cfg(g)
