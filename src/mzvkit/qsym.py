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
only u' = 1 and u' = z_k1, the first letter of u, survive, and the
coproduct is never built.
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
from math import factorial
from typing import Mapping

from .derivations import derivation_Dn, ihara_kaneko
from .words import (
    DomainError,
    Poly,
    Word,
    X,
    Y,
    _add_into,
    _raw,
    as_poly,
    bilinear,
    check_int,
    composition_of,
    compositions,
    word_of,
)


def coproduct(p) -> dict:
    """Deconcatenation coproduct in z-letters as a {(u, v): coefficient} dict.

    The input must lie in the y-ending subalgebra.  w = u v fixes the pair, so
    each pair takes its word's coefficient as it is.
    """
    return {
        (word_of(zs[:j]), word_of(zs[j:])): c
        for w, c in as_poly(p).items()
        for zs in [composition_of(w)]  # raises DomainError outside the domain
        for j in range(len(zs) + 1)
    }


@lru_cache(maxsize=None)
def _act_word(zs: tuple, w: Word) -> Poly:
    if not zs:
        return Poly.word(w)
    if not w:
        return Poly.zero()
    if w[0] == X:
        return Poly.word(X) * _act_word(zs, w[1:])
    return (
        Poly.word(Y) * _act_word(zs, w[1:])
        + Poly.word(X * zs[0] + Y) * _act_word(zs[1:], w[1:])
    )


def act(u, w) -> Poly:
    """Action of an element of the y-ending subalgebra on an arbitrary Poly."""
    # composition_of raises DomainError on a term of u outside the subalgebra
    return bilinear(lambda uw, ww: _act_word(composition_of(uw), ww), u, w)


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
    """Complete element: sum of all z-monomials of weight n (2^(n-1) terms)."""
    check_int(n, 0, "index")
    return Poly({word_of(c): 1 for c in compositions(n)})


class TruncatedSeries:
    """Polynomial in t of bounded degree with Poly coefficients.

    All arithmetic truncates uniformly at the fixed order; two series compare
    equal only at the same order.
    """

    __slots__ = ("_coeffs", "order")

    def __init__(self, coeffs: Mapping, order: int):
        self.order = check_int(order, 0, "truncation order")
        self._coeffs = {
            k: p for k, p in coeffs.items() if 0 <= k <= order and p
        }

    def coeff(self, k: int) -> Poly:
        return self._coeffs.get(k, Poly.zero())

    def items(self):
        return sorted(self._coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def __add__(self, other):
        self._check(other)
        return _series_sum(
            ((k, p, 1) for s in (self, other) for k, p in s._coeffs.items()), self.order
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return _series_sum(
                (
                    (i + j, p * q, 1)
                    for i, p in self._coeffs.items()
                    for j, q in other._coeffs.items()
                    if i + j <= self.order
                ),
                self.order,
            )
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries({k: p.scale(c) for k, p in self._coeffs.items()}, self.order)

    def _check(self, other):
        if self.order != other.order:
            raise DomainError(f"truncation orders differ: {self.order} != {other.order}")

    def __repr__(self):
        body = "; ".join(f"t^{k}: {p}" for k, p in self.items())
        return f"TruncatedSeries(order={self.order}, {body or '0'})"


def _series_sum(terms, order: int) -> TruncatedSeries:
    """Series whose t^k coefficient is the sum of c * p over the (k, p, c) in terms."""
    acc: dict = {}
    for k, p, c in terms:
        _add_into(acc.setdefault(k, {}), p, c)
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
            (i + j, act(complete_h(j), q.tau()).tau(), 1)
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
        c = 1  # (m-1)!/(m-n)!
        for n in range(1, m + 1):
            _add_into(acc, der_of_index(n).apply(f[m - n]), c)
            c *= m - n
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
