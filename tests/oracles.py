"""Independent reference implementations that the tests compare the package against.

Each oracle computes a map of the package by a different route: the dual
composition on partial-sum sets, the cyclic derivations in closed z-letter
form, the exponential of a graded derivation term by term, exact
elimination in Fractions, the zeta kernel's sums one n at a time in Python
ints, and the compositions of n by recursion on the first part.  The small
helpers after them enumerate inputs and pick out graded parts.
"""

import itertools
from collections import Counter
from fractions import Fraction

from mzvkit.numerics import _GUARD_DIGITS, _rounding_term
from mzvkit.qsym import TruncatedSeries
from mzvkit.words import Poly, composition_of, compositions, word_of


def dual_by_partial_sums(c):
    """Dual of an admissible composition, computed on partial-sum sets.

    Take partial sums, reflect them in {1, ..., n} (a -> n+1-a, reversed),
    complement inside {1, ..., n}, and take successive differences.
    """
    n = sum(c)
    reflected = {n + 1 - a for a in itertools.accumulate(c)}
    complement = [a for a in range(1, n + 1) if a not in reflected]
    return tuple(b - a for a, b in zip([0] + complement, complement))


def cyclic_C_zform(w):
    """Closed form of cyclic_C on z-words: bump each z-index in turn and rotate.

    z_{i1} ... z_{il}  ->  sum over j of  z_{ij + 1} z_{i(j+1)} ... z_{i(j-1)}.
    Defined for words of the y-ending subalgebra only.
    """
    c = composition_of(w)
    return Poly(Counter(word_of((c[j] + 1,) + c[j + 1 :] + c[:j]) for j in range(len(c))))


def cyclic_C_bar_zform(w):
    """Closed double-sum form of the conjugate on z-words.

    z_{i1} ... z_{il}  ->  sum over positions j with ij >= 2 and q = 0 .. ij-2
    of  z_{ij - q} z_{i(j+1)} ... z_{i(j-1)} z_{q+1}.
    """
    c = composition_of(w)
    zs = ((k - q,) + c[j + 1 :] + c[:j] + (q + 1,) for j, k in enumerate(c) for q in range(k - 1))
    return Poly(Counter(map(word_of, zs)))


def exp_reference(der_of_index, p, order):
    """exp(sum_n t^n d_n / n) p, term by term: the m-th term of the exponential
    is the operator applied to the (m-1)-th, divided by m."""
    term = total = {0: Poly.word(p)}
    for m in range(1, order + 1):
        out = {}
        for k, q in term.items():
            for n in range(1, order - k + 1):
                image = der_of_index(n).apply(q).scale(Fraction(1, n * m))
                out[k + n] = out.get(k + n, Poly()) + image
        term = out
        total = {k: total.get(k, Poly()) + term.get(k, Poly()) for k in total | term}
    return TruncatedSeries(total, order)


def reference_span(rows, probe):
    """Fraction Gaussian elimination: add outcomes, rank, and whether probe is in the span."""
    basis = []  # (pivot, row scaled to pivot entry 1), each reduced by the earlier ones

    def reduce(v):
        for piv, b in basis:
            v = [x - v[piv] * y for x, y in zip(v, b)]
        return v

    added = []
    for r in rows:
        v = reduce(list(r))
        piv = next((j for j, x in enumerate(v) if x), None)
        added.append(piv is not None)
        if piv is not None:
            basis.append((piv, [x / v[piv] for x in v]))
    return added, len(basis), not any(reduce(list(probe)))


def suffix_pass_reference(comps, cutoff, digits):
    """numerics._suffix_pass one n at a time over Python ints: the same bits B and floors.

    At step n each suffix (k, inner) adds acc[inner] // n^k.  One walk per
    inner suffix divides q = acc[inner] by n once per k = 1, 2, ..., and
    walking longest inner suffixes first reads each inner value from step
    n - 1.
    """
    d, w = max(map(len, comps)), max(map(sum, comps))
    bits = (10 ** (digits + _GUARD_DIGITS) * _rounding_term(d, cutoff) * d**w).bit_length()
    nodes = {c[i:] for c in comps for i in range(len(c))}
    row = {s: j for j, s in enumerate(sorted(nodes | {()}, key=len, reverse=True))}
    walks = []  # (row of inner, row of (k, inner) or None for k = 1 .. largest k)
    for inner in sorted({s[1:] for s in nodes}, key=len, reverse=True):
        top = max(s[0] for s in nodes if s[1:] == inner)
        walks.append((row[inner], [row.get((k,) + inner) for k in range(1, top + 1)]))
    acc = [0] * len(nodes) + [1 << bits]
    for n in range(1, cutoff + 1):
        for i, parents in walks:
            q = acc[i]
            for j in parents:
                q //= n
                if j is not None:
                    acc[j] += q
    return bits, {c: acc[row[c]] for c in comps}


def compositions_by_recursion(n):
    """The compositions of n in lexicographic order: each first part k, then those of n - k."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in compositions_by_recursion(n - k)]


def admissible_compositions(n):
    """Compositions of n with first part > 1 (2^(n-2) of them for n >= 2)."""
    return [c for c in compositions(n) if c and c[0] > 1]


def length_part(p, l):
    """The terms of p whose words contain exactly l letters y."""
    return Poly({w: c for w, c in p.items() if w.count("y") == l})
