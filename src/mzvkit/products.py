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

Both recursions are memoized on word pairs, and two words get their image
back shared; Poly inputs extend bilinearly.  The kernels sum only images
that can share a word.  a (...) and b (...) are disjoint unless a = b, and
the harmonic images start with z_p, z_q and z_(p+q) (z_k = x^(k-1) y), so
only the first two can meet, when p = q.  Such images are summed before
their common prefix is put on; the others are joined by one dict union.
"""

from __future__ import annotations

from functools import lru_cache

from .words import Poly, Word, X, Y, _between, _raw, as_poly, bilinear, check_h0


@lru_cache(maxsize=None)
def _shuffle_words(u: Word, v: Word) -> Poly:
    if not u or not v:
        return _raw({u + v: 1})
    left, right = _shuffle_words(u[1:], v), _shuffle_words(u, v[1:])
    if u[0] == v[0]:
        return _between(u[0], left + right)
    return _raw(_between(u[0], left)._terms | _between(v[0], right)._terms)


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
    left, right = _harmonic_words(u1, v), _harmonic_words(u, v1)
    if p == q:
        head = _between(u[: p + 1], left + right)._terms
    else:
        head = _between(u[: p + 1], left)._terms | _between(v[: q + 1], right)._terms
    return _raw(head | _between(X * (p + q + 1) + Y, _harmonic_words(u1, v1))._terms)


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
    check_h0(as_poly(u))
    check_h0(as_poly(v))
    return shuffle(u, v) - harmonic(u, v)
