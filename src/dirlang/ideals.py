"""Atoms, ideal representations, reduction, inclusion and weights.

An *ideal* of the subword ordering over a finite alphabet is a non-empty,
downward-closed, directed set of words.  Every ideal is the concatenation of
finitely many *atoms*:

  - ``Single(a)``       denotes ``{a, epsilon}``            (written ``a?``)
  - ``AlphabetStar(D)``  denotes ``D*`` for non-empty ``D``  (written ``{a,b}*``)

An ideal representation is a tuple of atoms; the empty tuple denotes
``{epsilon}``.  A representation is *reduced* when no adjacent pair is
absorptive; reduced representations are unique per ideal, so syntactic
equality of reduced representations decides ideal equality.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

Letter = str
Word = tuple[Letter, ...]

# Characters that cannot appear in letters; they carry meaning in the text
# formats (atom syntax, grammar alternatives).
FORBIDDEN_IN_LETTERS = set("{}*?,|")

_LETTER_RE = re.compile(r"[^\s{}*?,|]+$")


def check_letter(x: Letter) -> Letter:
    """Validate a letter token; raise ValueError for malformed ones."""
    if not isinstance(x, str) or not _LETTER_RE.match(x):
        raise ValueError(f"bad letter {x!r}: letters are non-empty tokens "
                         f"without whitespace or any of {{ }} * ? , |")
    if x == "eps":
        raise ValueError("'eps' is reserved for the empty word and cannot be a letter")
    return x


def make_alphabet(letters) -> tuple[Letter, ...]:
    """Deduplicate, validate and sort letters (ascending lexicographic)."""
    return tuple(sorted({check_letter(x) for x in letters}))


@dataclass(frozen=True)
class Single:
    """Atom with ideal {letter, epsilon}; written ``letter?``."""

    letter: Letter

    def __post_init__(self):
        check_letter(self.letter)

    def __str__(self):
        return f"{self.letter}?"


@dataclass(frozen=True)
class AlphabetStar:
    """Atom with ideal ``letters*``; ``letters`` is a sorted non-empty tuple."""

    letters: tuple[Letter, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("AlphabetStar needs a non-empty letter set")
        if tuple(sorted(set(self.letters))) != self.letters:
            raise ValueError(f"AlphabetStar letters must be sorted and unique, got {self.letters!r}")
        for x in self.letters:
            check_letter(x)

    def __str__(self):
        return "{" + ",".join(self.letters) + "}*"


Atom = Single | AlphabetStar
IdealRep = tuple[Atom, ...]


def star(*letters: Letter) -> AlphabetStar:
    """Convenience constructor: ``star('b', 'a')`` == ``AlphabetStar(('a', 'b'))``."""
    return AlphabetStar(tuple(sorted(set(letters))))


def atom_letters(a: Atom) -> frozenset[Letter]:
    if isinstance(a, Single):
        return frozenset((a.letter,))
    return frozenset(a.letters)


def rep_letters(rep: IdealRep) -> frozenset[Letter]:
    out: set[Letter] = set()
    for a in rep:
        out |= atom_letters(a)
    return frozenset(out)


def atom_contains(sub: Atom, sup: Atom) -> bool:
    """Idl(sub) is a subset of Idl(sup)."""
    if isinstance(sub, Single):
        if isinstance(sup, Single):
            return sub.letter == sup.letter
        return sub.letter in sup.letters
    # An alphabet atom denotes an infinite set, a single atom a finite one.
    if isinstance(sup, Single):
        return False
    return set(sub.letters) <= set(sup.letters)


class Absorption(enum.Enum):
    """How two adjacent atoms interact under concatenation of their ideals."""

    NEITHER = "neither"
    LEFT = "left"      # Idl(left . right) == Idl(left)
    RIGHT = "right"    # Idl(left . right) == Idl(right)
    BOTH = "both"      # equal alphabet atoms


def absorbs(left: Atom, right: Atom) -> Absorption:
    """Classify the pair (left, right).  Two single atoms never absorb."""
    if isinstance(left, Single) and isinstance(right, Single):
        return Absorption.NEITHER
    if isinstance(left, AlphabetStar) and isinstance(right, AlphabetStar):
        l, r = set(left.letters), set(right.letters)
        if l == r:
            return Absorption.BOTH
        if r < l:
            return Absorption.LEFT
        if l < r:
            return Absorption.RIGHT
        return Absorption.NEITHER
    if isinstance(left, AlphabetStar):
        return Absorption.LEFT if right.letter in left.letters else Absorption.NEITHER
    return Absorption.RIGHT if left.letter in right.letters else Absorption.NEITHER


def reduce_rep(rep: IdealRep) -> IdealRep:
    """Canonical reduced representation of the same ideal.

    Left-to-right scan keeping a reduced prefix on a stack: an incoming atom
    absorbed by the stack top is dropped (on BOTH the left copy survives);
    an incoming atom that absorbs the top pops it and is re-examined against
    the new top.
    """
    out: list[Atom] = []
    for a in rep:
        dropped = False
        while out:
            rel = absorbs(out[-1], a)
            if rel in (Absorption.LEFT, Absorption.BOTH):
                dropped = True
                break
            if rel is Absorption.RIGHT:
                out.pop()
                continue
            break  # NEITHER: the pair is inert
        if not dropped:
            out.append(a)
    return tuple(out)


def is_reduced(rep: IdealRep) -> bool:
    return all(absorbs(rep[i], rep[i + 1]) is Absorption.NEITHER
               for i in range(len(rep) - 1))


def ideal_member(word, rep: IdealRep, alphabet=None) -> bool:
    """Greedy leftmost membership test: is ``word`` in Idl(rep)?

    A single atom consumes at most one occurrence of its letter; an alphabet
    atom consumes a maximal run of its letters.  Greedy leftmost assignment
    is complete for ideals.  When ``alphabet`` is given, every letter of the
    word and of the representation must belong to it.
    """
    word = tuple(word)
    if alphabet is not None:
        ambient = set(alphabet)
        stray = (set(word) | set(rep_letters(rep))) - ambient
        if stray:
            raise ValueError(f"letters outside the ambient alphabet: {sorted(stray)}")
    j = 0          # current atom index
    used = False   # has the current Single consumed its letter already
    n = len(rep)
    for x in word:
        while j < n:
            a = rep[j]
            if isinstance(a, AlphabetStar):
                if x in a.letters:
                    break
                j += 1
            else:
                if not used and x == a.letter:
                    used = True
                    break
                j += 1
                used = False
        else:
            return False
        if isinstance(rep[j], Single):
            j += 1
            used = False
    return True


def characteristic_word(rep: IdealRep, m: int) -> Word:
    """Word whose membership in an ``m``-atom ideal certifies inclusion.

    A single atom contributes its letter; an alphabet atom contributes its
    letters (in alphabet order) repeated ``m + 1`` times.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    out: list[Letter] = []
    for a in rep:
        if isinstance(a, Single):
            out.append(a.letter)
        else:
            out.extend(a.letters * (m + 1))
    return tuple(out)


def ideal_includes(sub: IdealRep, sup: IdealRep) -> bool:
    """Idl(sub) is a subset of Idl(sup), via the characteristic word."""
    return ideal_member(characteristic_word(sub, len(sup)), sup)


def strict_includes(sub: IdealRep, sup: IdealRep) -> bool:
    """Proper inclusion of ideals; both representations must be reduced."""
    if not is_reduced(sub) or not is_reduced(sup):
        raise ValueError("strict_includes requires reduced representations")
    return sub != sup and ideal_includes(sub, sup)


def embedding(sub: IdealRep, sup: IdealRep) -> tuple[int, ...] | None:
    """Monotone atom embedding f witnessing Idl(sub) <= Idl(sup), or None.

    ``f[i]`` (1-based values) is the length of the shortest prefix of ``sup``
    whose ideal contains the first ``i + 1`` characteristic chunks of ``sub``.
    Guarantees: f is monotone, sub[i] is contained in sup[f[i] - 1], and each
    single atom of ``sup`` is hit at most once.
    """
    m = len(sup)
    j = 0
    used = False
    f: list[int] = []
    for a in sub:
        chunk = (a.letter,) if isinstance(a, Single) else a.letters * (m + 1)
        for x in chunk:
            while j < m:
                b = sup[j]
                if isinstance(b, AlphabetStar):
                    if x in b.letters:
                        break
                    j += 1
                else:
                    if not used and x == b.letter:
                        used = True
                        break
                    j += 1
                    used = False
            else:
                return None
            landed = j
            if isinstance(sup[j], Single):
                j += 1
                used = False
        f.append(landed + 1)
    return tuple(f)


def weight(rep: IdealRep, k: int) -> int:
    """The paper's mu_k: a single atom weighs 1, an alphabet atom (k+1)^|D|.

    Strictly monotone on inclusion of reduced representations of length <= k
    (arbitrary-precision; never floats).  Ranking atoms ``a?`` 1 and ``D*``
    1 + |D|, mu_k is the rank histogram read as base-(k+1) digits, so on
    representations of at most k atoms it orders them as that histogram
    does, heaviest rank first and lexicographically; ``maxweight``
    maximizes that histogram, which needs no k.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    total = 0
    for a in rep:
        total += 1 if isinstance(a, Single) else (k + 1) ** len(a.letters)
    return total


CHAIN_FAMILY_CAP = 12


def chain_family(l: int, cap: int = CHAIN_FAMILY_CAP) -> list[IdealRep]:
    """Strictly increasing chain of 2**l ideals over letters a0..a<l>.

    C_0 = (a0?); C_i extends C_{i-1} with {a0..a<i-1>}* a<i>? I for each I in
    C_{i-1}.  Witnesses that exponentially long strict chains exist, which is
    what forces weights to be exponential.
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    if l > cap:
        raise ValueError(f"chain_family: l={l} exceeds cap {cap}")
    letters = [f"a{i}" for i in range(l + 1)]
    chain: list[IdealRep] = [(Single(letters[0]),)]
    for i in range(1, l + 1):
        prefix = (star(*letters[:i]), Single(letters[i]))
        chain = chain + [prefix + rep for rep in chain]
    return chain


# --- textual format -------------------------------------------------------

_ATOM_STAR_RE = re.compile(r"\{([^{}]*)\}\*$")


def parse_atom(tok: str) -> Atom:
    """Parse ``x?`` or ``{x,y}*``."""
    m = _ATOM_STAR_RE.match(tok)
    if m:
        parts = m.group(1).split(",")
        if parts == [""]:
            raise ValueError(f"empty alphabet atom {tok!r}")
        letters = tuple(check_letter(p) for p in parts)
        if tuple(sorted(set(letters))) != letters:
            raise ValueError(f"alphabet atom letters must be sorted and unique: {tok!r}")
        return AlphabetStar(letters)
    if tok.endswith("?"):
        return Single(check_letter(tok[:-1]))
    raise ValueError(f"bad atom {tok!r}: expected 'x?' or '{{x,y}}*'")


def format_atom(a: Atom) -> str:
    return str(a)


def parse_rep(text: str) -> IdealRep:
    """Parse a whitespace-separated atom sequence; ``eps`` is the empty rep."""
    toks = text.split()
    if toks == ["eps"]:
        return ()
    if not toks:
        raise ValueError("empty ideal representation text; write 'eps'")
    return tuple(parse_atom(t) for t in toks)


def format_rep(rep: IdealRep) -> str:
    if not rep:
        return "eps"
    return " ".join(str(a) for a in rep)


def format_word(word) -> str:
    """Render a word; single-character letters are joined, others spaced."""
    word = tuple(word)
    if not word:
        return "eps"
    if all(len(x) == 1 for x in word):
        return "".join(word)
    return " ".join(word)
