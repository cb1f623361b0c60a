"""Deconcatenation coproduct, the induced action on words, and t-series maps.

Words ending in y form a free algebra on the letters z_i = x^(i-1) y.  The
deconcatenation coproduct on z-letters makes it a Hopf algebra isomorphic to
the quasi-symmetric functions; under that identification z_n is the n-th
power sum p_n, y^n is the elementary e_n, and the sum of all z-monomials of
weight n is the complete h_n.  `coproduct` returns the coproduct of an
element as a plain {(u, v): coefficient} dict: w = u v fixes the pair, so no
two terms collide and each pair keeps its word's coefficient.

The action of that algebra on arbitrary words is generated by

    1 . w = w,   u . x = 0,   u . y = x^k y if u = z_k else 0,
    u . (w1 w2) = sum over the coproduct of (u' . w1)(u'' . w2),

and acting by z_n reproduces the derivation D_n with y -> x^n y.  `_act_word`
is that recursion with w1 the first letter of w: u' . x = 0 unless u' = 1,
and u' . y = 0 unless u' is 1 or one z-letter, so of the len(u) + 1 splits
only u' = 1 and u' = z_k1, the first letter of u (its word up to the first
y), survive, and the coproduct is never built.
Truncated power series in a central variable t carry the induced
automorphisms: the h-series action sigma_t, its inverse via the alternating
e-series, and exp(sum_n t^n d_n / n) for the D_n (sigma_t again) and the
antisymmetric partial_n (sigma_bar_t sigma_t^(-1), by Ihara-Kaneko-Zagier).
The d_n of each family commute, so that exponential is an integer recursion
in t.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, perm
from typing import Mapping

from .derivations import _apply_word, derivation_Dn, ihara_kaneko
from .words import (
    Poly,
    Word,
    X,
    Y,
    _add_into,
    _between,
    _raw,
    all_words,
    as_poly,
    bilinear,
    check_h1,
    check_int,
    is_h1_word,
)


def coproduct(p) -> dict:
    """Deconcatenation coproduct in z-letters as a {(u, v): coefficient} dict.

    The input must lie in the y-ending subalgebra.  w = u v fixes the pair, so
    each pair takes its word's coefficient as it is; the cuts fall after each y.
    """
    return {
        (w[:j], w[j:]): c
        for w, c in as_poly(p).items()
        for j in [0] + [i + 1 for i, a in enumerate(check_h1(w)) if a == Y]
    }


@lru_cache(maxsize=None)
def _act_word(u: Word, w: Word) -> Poly:
    if not u:
        return _raw({w: 1})
    if not w:
        return Poly()
    if w[0] == X:
        return _between(X, _act_word(u, w[1:]))
    k = u.index(Y) + 1  # u = z_k u1
    head_y = _between(Y, _act_word(u, w[1:]))
    head_x = _between(X + u[:k], _act_word(u[k:], w[1:]))
    return _raw(head_y._terms | head_x._terms)  # disjoint images: one dict union


def act(u, w) -> Poly:
    """Action of an element of the y-ending subalgebra on an arbitrary Poly."""
    for uw in as_poly(u)._terms:  # DomainError on a term of u outside the subalgebra, even when w is 0
        check_h1(uw)
    return bilinear(_act_word, u, w)


def power_p(n: int) -> Poly:
    """Power-sum element: the single letter z_n."""
    check_int(n, 1, "power-sum index")
    return Poly.word(X * (n - 1) + Y)


def elementary_e(n: int) -> Poly:
    """Elementary element: y^n."""
    check_int(n, 0, "index")
    return Poly.word(Y * n)


@lru_cache(maxsize=None)
def complete_h(n: int) -> Poly:
    """Complete element: sum of all z-monomials, the y-ending words, of weight n (2^(n-1) terms)."""
    check_int(n, 0, "index")
    return Poly({w: 1 for w in all_words(n) if is_h1_word(w)})


class TruncatedSeries:
    """Polynomial in t of bounded degree with Poly coefficients.

    Coefficients past the fixed order are dropped; two series compare equal
    only at the same order.
    """

    __slots__ = ("_coeffs", "order")

    def __init__(self, coeffs: Mapping, order: int):
        self.order = check_int(order, 0, "truncation order")
        self._coeffs = {
            k: p for k, p in coeffs.items() if 0 <= k <= order and p
        }

    def coeff(self, k: int) -> Poly:
        return self._coeffs.get(k, Poly())

    def items(self):
        return sorted(self._coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def __repr__(self):
        body = "; ".join(f"t^{k}: {p}" for k, p in self.items())
        return f"TruncatedSeries(order={self.order}, {body or '0'})"


def _series_sum(terms, order: int) -> TruncatedSeries:
    """Series whose t^k coefficient is the sum of the p over the (k, p) in terms."""
    acc: dict = {}
    for k, p in terms:
        _add_into(acc.setdefault(k, {}), p)
    return TruncatedSeries({k: _raw(t) for k, t in acc.items()}, order)


def sigma_t(p, order: int) -> TruncatedSeries:
    """Automorphism whose t^k coefficient is the action of the complete h_k."""
    check_int(order, 0, "truncation order")
    p = as_poly(p)
    return TruncatedSeries({k: act(complete_h(k), p) for k in range(order + 1)}, order)


def sigma_t_inverse(p, order: int) -> TruncatedSeries:
    """Inverse of sigma_t: t^k coefficient is (-1)^k times the e_k action."""
    check_int(order, 0, "truncation order")
    p = as_poly(p)
    return TruncatedSeries(
        {k: act(elementary_e(k), p).scale((-1) ** k) for k in range(order + 1)}, order
    )


def phi_bar_sigma(p, order: int) -> TruncatedSeries:
    """The composite sigma_bar_t . sigma_t^(-1).

    sigma_bar_t is the conjugate of sigma_t by the x/y swap, applied
    t-linearly to the whole series sigma_t^(-1)(p).
    """
    return _series_sum(
        (
            (i + j, act(complete_h(j), q.tau()).tau())
            for i, q in sigma_t_inverse(p, order).items()
            for j in range(order - i + 1)
        ),
        order,
    )


def _exp_graded_derivation(der_of_index, p: Poly, order: int) -> TruncatedSeries:
    """exp(sum_n t^n d_n / n) p for pairwise commuting derivations d_n.

    Then t E' = (sum_n t^n d_n) E for the series E, so m E_m = sum_{n=1..m}
    d_n E_{m-n}, and F_m = m! E_m obeys the integer recursion F_0 = p,
    F_m = sum_{n=1..m} (m-1)!/(m-n)! d_n F_{m-n}; only the division by m! at
    output leaves the integers.  Both families commute: D_n D_m y = x^(n+m) y,
    and partial_n fixes z = x + y and sends x to x z^(n-1) (z-x), so
    partial_n partial_m x = x z^(n+m-1) (z-x) - x z^(n-1) x z^(m-1) (z-x)
    - x z^(m-1) x z^(n-1) (z-x) is symmetric in n and m.
    """
    check_int(order, 0, "truncation order")
    f = [p]
    for m in range(1, order + 1):
        acc: dict = {}
        for n in range(1, m + 1):
            d, k = der_of_index(n), perm(m - 1, n - 1)
            for w, c in f[m - n]._terms.items():  # d_n F_(m-n), term by term
                _add_into(acc, _apply_word(d, w), k * c)
        f.append(_raw(acc))
    return TruncatedSeries(
        {m: fm.scale(Fraction(1, factorial(m))) for m, fm in enumerate(f)}, order
    )


_dn = lru_cache(maxsize=None)(derivation_Dn)
_partial = lru_cache(maxsize=None)(ihara_kaneko)


def sigma_t_exp(p, order: int) -> TruncatedSeries:
    """sigma_t computed as exp of the weighted sum of the y -> x^n y derivations."""
    return _exp_graded_derivation(_dn, as_poly(p), order)


def exp_partial_t(p, order: int) -> TruncatedSeries:
    """exp of the weighted sum of the antisymmetric derivations."""
    return _exp_graded_derivation(_partial, as_poly(p), order)
