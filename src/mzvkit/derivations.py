"""Derivations and cyclic derivations of the word algebra.

An ordinary derivation is determined by its images of x and y and extends by
the Leibniz rule F(uv) = F(u)v + uF(v).  The basic one here sends x to 0 and
y to xy; raising the x-power gives its higher relatives, and conjugating by
the x/y swap gives the mirrored family.  The antisymmetric combination with
image x (x+y)^(n-1) y on x is exposed as well.

A cyclic derivation is trace-like rather than Leibniz: its defining law is

    (C(f1 f2), f) = (C(f1), f2 f) + (C(f2), f f1),

and everything the relation machinery needs is the canonical element
(C(w), 1) together with the explicit pairing (C(w), f).  The generator C used
throughout sends x to 0 and pairs y as (C(y), f) = x f y.  Its conjugate is
tau . C . tau.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

from .words import (
    Poly,
    Word,
    X,
    Y,
    _add_into,
    _between,
    _raw,
    admissible_words,
    as_poly,
    check_int,
    check_word,
    linear,
)


@dataclass(frozen=True)
class Derivation:
    """A derivation of the word algebra, given by its images of x and y."""

    image_of_x: Poly
    image_of_y: Poly

    def __hash__(self) -> int:
        """The image sizes: agrees with equality in constant time, for _apply_word's memo."""
        return hash((len(self.image_of_x), len(self.image_of_y)))

    def apply(self, p) -> Poly:
        """Leibniz extension over each word, linear over terms."""
        return linear(partial(_apply_word, self), p)


@lru_cache(maxsize=None)
def _apply_word(d: Derivation, w: Word) -> Poly:
    acc: dict = {}
    for i, a in enumerate(w):
        image = d.image_of_x if a == X else d.image_of_y
        if image:  # D and D_n send x to 0
            _add_into(acc, _between(w[:i], image, w[i + 1 :]))
    return _raw(acc)


def derivation_D() -> Derivation:
    """The derivation with x -> 0 and y -> xy; bumps one z-index by 1."""
    return derivation_Dn(1)


def derivation_Dn(n: int) -> Derivation:
    """The derivation with x -> 0 and y -> x^n y."""
    check_int(n, 1, "index")
    return Derivation(Poly(), Poly.word(X * n + Y))


def conjugate(d: Derivation) -> Derivation:
    """Conjugate by the x/y swap: an involution on derivations."""
    return Derivation(d.image_of_y.tau(), d.image_of_x.tau())


def ihara_kaneko(n: int) -> Derivation:
    """Antisymmetric derivation with x -> x (x+y)^(n-1) y and y -> its negative.

    The image of y is forced: antisymmetry plus killing x + y leave a unique
    consistent completion.
    """
    check_int(n, 1, "index")
    img = Poly(dict.fromkeys(admissible_words(n + 1), 1))  # x (x+y)^(n-1) y: every x ... y word
    return Derivation(img, -img)


def cyclic_C(p) -> Poly:
    """Canonical element (C(w), 1): sum over y positions of the x...y rotation.

    For w = a1 ... ak, each position i with ai = y contributes
    x a_{i+1} ... a_k a_1 ... a_{i-1} y.  Pure x-powers and the unit map to 0.
    Linear in Poly arguments; invariant under rotation of the input word.
    """
    return linear(_cyclic_word, p)


@lru_cache(maxsize=None)
def _cyclic_word(w: Word) -> Poly:
    return cyclic_C_pair(w, "")


def cyclic_C_pair(w: Word, f: Word) -> Poly:
    """Full pairing (C(w), f); reduces to cyclic_C at f = the unit word."""
    check_word(w)
    check_word(f)
    rotations = Counter(X + w[i + 1 :] + f + w[:i] + Y for i, a in enumerate(w) if a == Y)
    return _raw(dict(rotations))


def cyclic_C_bar(p) -> Poly:
    """Conjugate cyclic derivation: tau . cyclic_C . tau."""
    return cyclic_C(as_poly(p).tau()).tau()
