"""The two commutative products on the word algebra.

The shuffle product interleaves letters:

    1 sh w = w sh 1 = w
    a w1 sh b w2 = a (w1 sh b w2) + b (a w1 sh w2)      for letters a, b.

The harmonic (stuffle) product models multiplication of nested series:

    1 * w = w * 1 = w
    x^p * w = w x^p
    x^(p-1) y w1 * x^(q-1) y w2 =
        x^(p-1) y (w1 * x^(q-1) y w2)
      + x^(q-1) y (x^(p-1) y w1 * w2)
      + x^(p+q-1) y (w1 * w2).

Both recursions are memoized on word pairs; Poly inputs extend bilinearly.
"""

from __future__ import annotations

from functools import lru_cache

from .words import Poly, Word, X, Y, _add_into, _between, _raw, as_poly, bilinear, check_h0


@lru_cache(maxsize=None)
def _shuffle_words(u: Word, v: Word) -> Poly:
    if not u or not v:
        return _raw({u + v: 1})
    acc = _add_into({}, _between(u[0], _shuffle_words(u[1:], v)))
    return _raw(_add_into(acc, _between(v[0], _shuffle_words(u, v[1:]))))


@lru_cache(maxsize=None)
def _harmonic_words(u: Word, v: Word) -> Poly:
    if Y not in u:  # the unit or a pure power of x: x^p * w = w x^p
        return _raw({v + u: 1})
    if Y not in v:
        return _raw({u + v: 1})
    p = u.index(Y)  # u = x^p y u1
    q = v.index(Y)
    u1 = u[p + 1 :]
    v1 = v[q + 1 :]
    acc = _add_into({}, _between(u[: p + 1], _harmonic_words(u1, v)))
    _add_into(acc, _between(v[: q + 1], _harmonic_words(u, v1)))
    return _raw(_add_into(acc, _between(X * (p + q + 1) + Y, _harmonic_words(u1, v1))))


def shuffle(u, v) -> Poly:
    """Shuffle product; accepts Poly or word arguments."""
    return bilinear(_shuffle_words, u, v)


def harmonic(u, v) -> Poly:
    """Harmonic (stuffle) product; accepts Poly or word arguments."""
    return bilinear(_harmonic_words, u, v)


def double_shuffle(u, v) -> Poly:
    """Difference u sh v - u * v of the two products.

    Both inputs must be supported on admissible words (or the unit), where
    the zeta evaluation is defined; the result lies in its kernel.
    """
    u = as_poly(u)
    v = as_poly(v)
    check_h0(u)
    check_h0(v)
    return shuffle(u, v) - harmonic(u, v)
