"""Generation of kernel-relation families and exact rank computation.

Each generator returns weight-homogeneous Poly elements supported on
admissible words, every one a claimed member of the kernel of the zeta
evaluation.  Elements are normalized (integer coefficients with content 1,
first coefficient positive in graded-lex order) and deduplicated per family.

Ranks of relation spans over the rationals are computed exactly in the
admissible-word basis by fraction-free integer elimination: every row stays a
primitive integer vector in echelon form, so no rational arithmetic is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .derivations import (
    conjugate,
    cyclic_C,
    cyclic_C_bar,
    derivation_D,
)
from .products import double_shuffle, harmonic, shuffle
from .qsym import _partial, act, complete_h
from .words import (
    DomainError,
    Poly,
    _raw,
    _term_key,
    admissible_words,
    check_h0,
    check_int,
    compositions,
    format_composition,
    rotations,
    word_of,
)


@dataclass(frozen=True)
class Relation:
    """A weight-homogeneous kernel element with its provenance."""

    element: Poly
    weight: int
    family: str
    params: tuple  # sorted (key, value) pairs, JSON-friendly

    def label(self) -> str:
        inside = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}[w={self.weight}; {inside}]"


def normalize(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1 and positive leading term."""
    if not p:
        return p
    terms = p._terms
    coeffs = terms.values()
    sign = 1 if terms[min(terms, key=_term_key)] > 0 else -1
    if all(type(c) is int for c in coeffs):
        content = sign * gcd(*coeffs)
        return p if content == 1 else _raw({w: c // content for w, c in terms.items()})
    den = lcm(*(c.denominator for c in coeffs))
    return p.scale(sign * Fraction(den, gcd(*(c.numerator for c in coeffs))))


def _collect(weight: int, family: str, pairs) -> list:
    """Relations of one family from (element, params) pairs.

    Zero elements drop out; every other element must be homogeneous of the
    weight and supported on admissible words.  Normalized elements are
    deduplicated, keeping first occurrences in order.
    """
    out: dict = {}
    for element, params in pairs:
        if not element:
            continue
        if element.weight() != weight:
            raise DomainError(f"relation element is not homogeneous of weight {weight}")
        check_h0(element)
        out.setdefault(normalize(element), params)
    return [Relation(e, weight, family, tuple(sorted(p.items()))) for e, p in out.items()]


def gen_duality(weight: int) -> list:
    """w minus its dual for each admissible word; self-dual words drop out."""
    pairs = ((Poly.word(w) - Poly.word(w).tau(), {"source": w}) for w in admissible_words(weight))
    return _collect(weight, "duality", pairs)


def gen_derivation(weight: int) -> list:
    """Difference of the basic derivation and its conjugate on admissible words."""
    d = derivation_D()
    dbar = conjugate(d)
    pairs = ((d.apply(w) - dbar.apply(w), {"source": w}) for w in admissible_words(max(weight - 1, 0)))
    return _collect(weight, "derivation", pairs)


def gen_cyclic_sum(weight: int) -> list:
    """Cyclic-derivation difference, one representative per rotation class.

    Sources are the y-ending words of weight - 1 that are not powers of y,
    enumerated as compositions up to rotation.
    """
    reps = dict.fromkeys(  # powers of y are excluded
        min(rotations(c)) for c in compositions(max(weight - 1, 0)) if c and set(c) != {1}
    )
    pairs = (
        (cyclic_C(w) - cyclic_C_bar(w), {"source": format_composition(rep)})
        for rep in reps
        for w in [word_of(rep)]
    )
    return _collect(weight, "cyclic", pairs)


def _fixed_length_sum(weight: int, l: int) -> Poly:
    return Poly({w: 1 for w in admissible_words(weight) if w.count("y") == l})


def gen_sum_theorem(weight: int) -> list:
    """Adjacent-length differences of the fixed-weight admissible sums."""
    pairs = (
        (_fixed_length_sum(weight, l) - _fixed_length_sum(weight, l + 1), {"l": l})
        for l in range(1, weight - 1)
    )
    return _collect(weight, "sum", pairs)


def gen_hoffman43(weight: int) -> list:
    """y sh w - y * w for admissible w; matches the derivation family up to sign."""
    y = Poly.word("y")
    pairs = ((shuffle(y, w) - harmonic(y, w), {"source": w}) for w in admissible_words(max(weight - 1, 0)))
    return _collect(weight, "hoffman43", pairs)


def gen_ihara_kaneko(weight: int) -> list:
    """Images of admissible words under the n-th antisymmetric derivation, 1 <= n <= weight - 2."""
    pairs = (
        (dn.apply(w), {"n": n, "source": w})
        for n in range(1, weight - 1)
        for dn in [_partial(n)]
        for w in admissible_words(weight - n)
    )
    return _collect(weight, "ihara_kaneko", pairs)


def gen_ohno(weight: int) -> list:
    """h_n on the dual of each admissible word minus h_n on the word, 1 <= n <= weight - 2."""
    pairs = (
        (act(hn, Poly.word(w).tau()) - act(hn, w), {"n": n, "source": w})
        for n in range(1, weight - 1)
        for hn in [complete_h(n)]
        for w in admissible_words(weight - n)
    )
    return _collect(weight, "ohno", pairs)


def gen_double_shuffle(weight: int) -> list:
    """Shuffle-minus-harmonic differences over unordered admissible pairs."""
    pairs = (
        (double_shuffle(u, v), {"u": u, "v": v})
        for a in range(2, weight - 1)
        for u in admissible_words(a)
        for v in admissible_words(weight - a)
        if (len(u), u) <= (len(v), v)
    )
    return _collect(weight, "double_shuffle", pairs)


# Relation families by name, each a generator of the family at one weight.
FAMILIES = {
    "duality": gen_duality,
    "derivation": gen_derivation,
    "cyclic": gen_cyclic_sum,
    "sum": gen_sum_theorem,
    "hoffman43": gen_hoffman43,
    "ihara_kaneko": gen_ihara_kaneko,
    "ohno": gen_ohno,
    "double_shuffle": gen_double_shuffle,
}


def _check_families(weight: int, families) -> tuple:
    """The family names as a tuple, each once in first-occurrence order, after rejecting
    weight < 2, none, or an unknown one."""
    check_int(weight, 2, "weight")
    families = tuple(dict.fromkeys(families))
    if not families:
        raise DomainError("no relation family given")
    for family in families:
        if family not in FAMILIES:
            raise DomainError(
                f"unknown family: {family!r} (expected one of {', '.join(FAMILIES)})"
            )
    return families


def generate(weight: int, families=FAMILIES) -> list:
    """All relations of the requested families at one weight, each family generated once and
    deduplicated on its own: families with equal elements (derivation, hoffman43) keep both."""
    return [r for family in _check_families(weight, families) for r in FAMILIES[family](weight)]


class RowSpace:
    """Span over the rationals of Polys on a basis of words, by fraction-free elimination.

    The basis order is the column order, so pivots are taken on the basis
    words in the order given; rank_report gives the admissible basis
    reversed, which keeps the entries far smaller (see there).  A Poly
    enters as its integer coordinate vector, denominators cleared.  Rows are
    primitive integer vectors with a positive pivot (first nonzero) entry,
    keyed by pivot column.  Against the row with pivot p a vector v becomes
    (row[p]*v - v[p]*row) / gcd(v[p], row[p]), with its content divided out.
    A vector that reduces to zero lies in the span already and is not stored.
    """

    def __init__(self, basis):
        self.column: dict = {}  # basis word -> column index
        for w in basis:
            if w in self.column:
                raise DomainError(f"repeated basis word: {w!r}")
            self.column[w] = len(self.column)
        self.rows: dict = {}  # pivot column -> primitive integer row

    def add(self, poly: Poly) -> bool:
        """Insert a Poly; True if it enlarged the span, False if the span already held it."""
        entries = {}
        for w, c in poly._terms.items():  # no order needed
            j = self.column.get(w)
            if j is None:
                raise DomainError(f"word outside the basis: {w!r}")
            entries[j] = c
        if any(type(c) is not int for c in entries.values()):  # clear denominators
            den = lcm(*(c.denominator for c in entries.values()))
            entries = {j: c.numerator * (den // c.denominator) for j, c in entries.items()}
        v = [0] * len(self.column)
        for j, c in entries.items():
            v[j] = c
        for p in range(min(entries, default=0), len(v)):  # columns before the first term are 0
            if not v[p]:
                continue
            row = self.rows.get(p)
            if row is None:
                g = gcd(*v) if v[p] > 0 else -gcd(*v)
                self.rows[p] = [x // g for x in v]
                return True
            g = gcd(v[p], row[p])
            a, b = row[p] // g, v[p] // g
            v[p:] = [a * x - b * y for x, y in zip(v[p:], row[p:])]
            g = gcd(*v[p:])
            if g > 1:
                v[p:] = [x // g for x in v[p:]]
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


@dataclass
class RankReport:
    """Exact ranks of relation spans at one weight over the admissible basis."""

    weight: int
    basis: list
    family_ranks: dict
    cumulative_rank: int
    nullity: int
    relation_counts: dict


def rank_report(weight: int, families=FAMILIES) -> RankReport:
    """Rank of each family's span, and of their union, over the admissible basis.

    The RowSpaces pivot on the basis in reverse, last graded-lex word first.
    The ranks do not depend on the order, but the cost does: at weight 11
    the largest stored row entry of the double_shuffle span falls from
    about 1e174 to about 1e57, and the span is built about 40 times faster,
    mostly as the words with the most y's come first: descending depth, ties
    reversed, halves the digits again, to 27, and ascending depth is the bad
    order, with 150 digits.  The report's basis stays in graded-lex order.
    """
    families = _check_families(weight, families)
    basis = admissible_words(weight)
    columns = basis[::-1]
    union = RowSpace(columns)
    family_ranks: dict = {}
    counts: dict = {}
    for family in families:
        rels = generate(weight, [family])
        counts[family] = len(rels)
        solo = RowSpace(columns)
        for r in rels:
            if solo.add(r.element):  # else r is in solo's span, which lies in union's
                union.add(r.element)
        family_ranks[family] = solo.rank
    return RankReport(
        weight=weight,
        basis=basis,
        family_ranks=family_ranks,
        cumulative_rank=union.rank,
        nullity=len(basis) - union.rank,
        relation_counts=counts,
    )
