"""Exact-arithmetic words and polynomials over the two-letter alphabet {x, y}.

A word is a plain string over "xy"; the empty string is the multiplicative
unit.  A Poly is a finite linear combination of words with exact rational
coefficients in canonical form: an int when integral, else a Fraction, never
zero.  Both compare, hash and print alike; ints keep the mostly integral word
algebra off the slow Fraction path.  Compositions -- tuples of positive
integers -- give the exponent view of words ending in y through the bijection
(k1, ..., kl) <-> x^(k1-1) y x^(k2-1) y ... x^(kl-1) y.

A Poly is immutable after construction.
Word maps are extended to Polys by `linear` and `bilinear`, which sum into
one internal mutable term dict (`_add_into`) and wrap it as a Poly only when
the sum is complete; the Poly constructor and Poly's `+`, `-` and `*` use
the same accumulator, the only code that sums coefficients.  The memoized
word kernels build images from sub-results by `_between` (p relabelled as
a p b) and `_add_into`; words are validated once, where they enter, never sorted.
Term order is graded lexicographic with x < y, which fixes all printed and
serialized output.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterator, Mapping

X = "x"
Y = "y"

_SWAP_XY = str.maketrans("xy", "yx")
_WORD_RE = re.compile(r"^[xy]*$")
_ZWORD_RE = re.compile(r"^(?:\s*z\d+\s*)+$")
_COMP_RE = re.compile(r"^\(\s*(?:\d+\s*(?:,\s*\d+\s*)*)?\)$")

Word = str
Composition = tuple


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


def check_word(w: Word) -> Word:
    if type(w) is not str or not _WORD_RE.match(w):
        raise DomainError(f"not a word over {{x,y}}: {w!r}")
    return w


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_int(n, least: int, what: str) -> int:
    """n itself if it is an int (not a bool) >= least; otherwise DomainError."""
    if not _is_int(n) or n < least:
        raise DomainError(f"{what} must be an integer >= {least}: {n!r}")
    return n


def tau_word(w: Word) -> Word:
    """Reverse the word and swap x with y (anti-automorphism on letters)."""
    return w[::-1].translate(_SWAP_XY)


def is_h1_word(w: Word) -> bool:
    """True if w is the unit or ends in y."""
    return w == "" or w.endswith(Y)


def is_h0_word(w: Word) -> bool:
    """True if w is the unit or starts with x and ends with y."""
    return w == "" or (w.startswith(X) and w.endswith(Y))


def check_h1(w: Word) -> Word:
    """w itself if it is the unit or ends in y; otherwise DomainError."""
    if not is_h1_word(w):
        raise DomainError(f"word does not end in y: {w!r}")
    return w


def check_h0(p: "Poly") -> None:
    """DomainError, naming the graded-lex-first such word, if a word of p is neither admissible
    nor the unit."""
    bad = [w for w in p._terms if not is_h0_word(w)]
    if bad:
        raise DomainError(f"word is not admissible: {min(bad, key=_term_key)!r}")


def word_of(c: Composition) -> Word:
    """Word x^(k1-1) y ... x^(kl-1) y of a composition (k1, ..., kl)."""
    for k in c:
        check_int(k, 1, "composition part")
    return "".join(X * (k - 1) + Y for k in c)


def composition_of(w: Word) -> Composition:
    """Inverse of word_of; defined only for words over {x,y} that are empty or end in y."""
    return _parts(check_h1(check_word(w)))


def _parts(w: Word) -> Composition:
    """composition_of without the checks: one part per y, 1 + the x-run before it."""
    return tuple(len(seg) + 1 for seg in w.split(Y)[:-1])


def is_admissible_composition(c: Composition) -> bool:
    return bool(c) and c[0] > 1 and all(k >= 1 for k in c)


def dual_composition(c: Composition) -> Composition:
    """Dual of an admissible composition: the composition of tau_word(word_of(c)).

    An involution on admissible compositions; weight is preserved and length
    goes to weight - length.
    """
    if not c:
        raise DomainError("dual of the empty composition is undefined")
    w = word_of(c)
    if not is_admissible_composition(c):
        raise DomainError(f"composition is not admissible: {c}")
    return _parts(tau_word(w))


def rotations(c: Composition) -> Iterator[Composition]:
    for i in range(len(c)):
        yield c[i:] + c[:i]


def all_words(n: int) -> Iterator[Word]:
    """All 2^n words of weight n, in lexicographic (x < y) order."""
    check_int(n, 0, "weight")
    return ("".join(letters) for letters in itertools.product(X + Y, repeat=n))


def compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n in lexicographic order: those of the y-ending
    words of weight n in reverse letter order, where a larger part is a longer x-run."""
    words = [w + Y for w in all_words(n - 1)] if check_int(n, 0, "weight") else [""]
    return map(_parts, reversed(words))


def admissible_words(n: int) -> list:
    """Admissible words of weight n in graded-lex order (the H0 basis)."""
    check_int(n, 0, "weight")
    return [X + m + Y for m in all_words(n - 2)] if n >= 2 else []


def _term_key(w: Word):
    return (len(w), w)


class Poly:
    """Finite rational linear combination of words, coefficients in canonical form.

    Immutable by convention: no method mutates self, so values can be cached
    and shared freely.  `+`, `-` are linear; `*` is the concatenation product
    of the word algebra; `scale` multiplies by a rational.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        if not isinstance(terms, (Mapping, type(None))):
            raise DomainError(f"Poly takes a mapping of words to coefficients: {terms!r}")
        acc: dict = {}
        for w, c in (terms or {}).items():
            _add_into(acc, Poly.word(w, c))
        self._terms = acc

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def word(cls, w: Word, coeff=1) -> "Poly":
        check_word(w)
        c = _coeff(coeff)
        return _raw({w: c} if c else {})

    def items(self) -> list:
        """Terms as (word, coefficient) pairs in graded-lex order."""
        return sorted(self._terms.items(), key=lambda t: _term_key(t[0]))

    def coeff(self, w: Word) -> int | Fraction:
        return self._terms.get(w, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _raw(_add_into(dict(self._terms), other))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return _raw({w: -c for w, c in self._terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return linear(lambda u: _between(u, other), self)

    def scale(self, c) -> "Poly":
        c = _coeff(c)
        if not c:
            return Poly.zero()
        return _raw(_add_into({}, self, c))

    def tau(self) -> "Poly":
        """Apply the anti-automorphism swapping x and y to every word."""
        return _raw({tau_word(w): c for w, c in self._terms.items()})

    def weight(self):
        """Common weight of the support, or None if zero or mixed-weight."""
        weights = {len(w) for w in self._terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _coeff(c) -> int | Fraction:
    """The canonical form of the rational c: an int if integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, (bool, float)):  # a float's binary value is rarely the one meant
            raise DomainError(f"not a rational coefficient: {c!r}")
        try:
            c = Fraction(c)
        except (TypeError, ValueError, ArithmeticError):
            raise DomainError(f"not a rational coefficient: {c!r}") from None
    return c.numerator if c.denominator == 1 else c


def _raw(terms: dict) -> Poly:
    """Wrap a dict of canonical nonzero coefficients without re-validation (internal)."""
    p = Poly.__new__(Poly)
    p._terms = terms
    return p


def as_poly(p) -> Poly:
    """A Poly unchanged, or a word as the one-term Poly with coefficient 1."""
    return p if isinstance(p, Poly) else Poly.word(p)


def _add_into(acc: dict, p: Poly, c=1) -> dict:
    """Add c * p to the term dict acc in place and return acc (internal).

    A coefficient that cancels to zero is deleted and an integral Fraction
    becomes an int, so acc stays canonical and can be wrapped by _raw.
    """
    terms = p._terms.items() if c == 1 else ((w, c * cw) for w, cw in p._terms.items())
    for w, cw in terms:
        s = acc.get(w, 0) + cw
        if s:
            acc[w] = s if type(s) is int else _coeff(s)
        else:
            acc.pop(w, None)
    return acc


def linear(word_fn, p) -> Poly:
    """Extend word_fn, a map from words to Polys, linearly to p (a Poly or a word)."""
    return _combine([(word_fn(w), c) for w, c in as_poly(p)._terms.items()])


def bilinear(word_fn, u, v) -> Poly:
    """Extend word_fn, a map from word pairs to Polys, bilinearly to u and v."""
    tu, tv = as_poly(u)._terms.items(), as_poly(v)._terms.items()
    return _combine([(word_fn(wu, wv), cu * cv) for wu, cu in tu for wv, cv in tv])


def _combine(images: list) -> Poly:
    """The sum of c * image over the (image, c) pairs (internal).  One pair gives the image,
    often a memoized one, itself when c is 1 and scaled otherwise: shared, not copied, which
    is safe as no wrapped term dict is mutated; every _add_into accumulator is a fresh dict."""
    if len(images) == 1:
        ((image, c),) = images
        return image if c == 1 else image.scale(c)
    acc: dict = {}
    for image, c in images:
        _add_into(acc, image, c)
    return _raw(acc)


def _between(a: Word, p: Poly, b: Word = "") -> Poly:
    """a p b for words a, b (internal): a + w + b is injective in w, so p's terms are relabelled."""
    return _raw({a + w + b: c for w, c in p._terms.items()})


# ---------------------------------------------------------------------------
# text and JSON output; word and composition input


def format_word(w: Word) -> str:
    return w if w else "1"


def format_composition(c: Composition) -> str:
    return "(" + ",".join(str(k) for k in c) + ")"


def format_poly(p: Poly) -> str:
    """Signed term list in graded-lex order, e.g. '4 xxyy + 2 xyxy'."""
    if not p:
        return "0"
    parts = []
    for i, (w, c) in enumerate(p.items()):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if w and mag == 1:
            body = format_word(w)
        elif w:
            body = f"{mag} {format_word(w)}"
        else:
            body = str(mag)
        if i == 0:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def parse_word(text: str) -> Word:
    """Parse a word from letters ('xxy'), z-notation ('z2 z1'), '(2,1)', or '1'."""
    s = text.strip()
    if s == "1" or s == "":
        return ""
    if _WORD_RE.match(s):
        return s
    if _ZWORD_RE.match(s):
        parts = tuple(int(d) for d in re.findall(r"z(\d+)", s))
        if any(k < 1 for k in parts):
            raise DomainError(f"z-index must be >= 1: {text!r}")
        return word_of(parts)
    if _COMP_RE.match(s):
        return word_of(parse_composition(s))
    raise DomainError(f"cannot parse word: {text!r}")


def parse_composition(text: str) -> Composition:
    s = text.strip()
    if not _COMP_RE.match(s):
        raise DomainError(f"cannot parse composition: {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return ()
    parts = tuple(int(p) for p in inner.split(","))
    if any(k < 1 for k in parts):
        raise DomainError(f"composition parts must be >= 1: {text!r}")
    return parts


def poly_to_obj(p: Poly) -> list:
    """JSON-ready form: list of {word, num, den} in deterministic order."""
    return [
        {"word": format_word(w), "num": c.numerator, "den": c.denominator}
        for w, c in p.items()
    ]
