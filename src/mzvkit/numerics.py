"""High-precision truncated evaluation of the nested series and verification.

The zeta evaluation of an admissible composition (k1, ..., kl) is the partial
sum of 1/(n1^k1 ... nl^kl) over n1 > ... > nl >= 1 with n1 <= N, computed by
a streaming dynamic program over nested prefix sums.  The accumulator of level
i depends only on the suffix (ki, ..., kl), so all compositions evaluated
together share one pass over their suffix trie: O(#suffix nodes * N)
operations, with one power 2^B // n^k per distinct exponent k per n.
Sums are integers at scale 2^B, floored at every product and divided by 2^B
once at the end, so a suffix of length m falls short of 2^B times its sum by
some E >= 0.  Flooring 2^B / n^k and the product makes a step add less than
E_i / n^k + A_i + 1 to E, with E_i and A_i <= H_N^(m-1) the shortfall and
sum of the inner suffix (H_N the harmonic number), so by induction
E <= m N (1 + H_N^(m-1)) <= R = m N L^m <= d N L^d, with
L = 1 + bit_length(N) > H_N and d the largest depth.  A sum of depth
l <= N and weight w is at least its term (l, ..., 1) >= d^(-w), so
2^B > 10^(digits + guard digits) * d N L^d d^w keeps the relative error
below 10^-(digits + guard digits).  The exact sum lies in [S, S + R] / 2^B
for the computed S, so both ends are rounded to the requested digits
(half-even).  When they differ, a half-way point lies between them, as it
does for a sum that is an exact tie and otherwise with probability below
10^-(digits + guard digits), and that composition is settled by an exact
Fraction sum.  Every value is therefore correctly rounded.

The truncation tail of the zeta sum (the terms with n1 > N) is at most

    tail(N) = N^(1-k1) * sum_{j=0}^{l-1} (1 + ln N)^j / (j! (k1 - 1)^(l-j)),

the integral over t > N of (1 + ln t)^(l-1) / (l-1)! * t^(-k1): the inner
sum over n1 > n2 > ... > nl is at most H_{n1-1}^(l-1) / (l-1)!, and on
[n1 - 1, n1] both 1 + ln t >= H_{n1-1} and t^(-k1) >= n1^(-k1), so each
term is at most the integral over that interval.  Depth one gives the usual
N^(1-k1) / (k1 - 1).  The bound covers truncation only, not the rounding of
the value to the requested digits; relation verification multiplies the
tail sum by a slack factor.

The two auxiliary series with the coupling factor 1/(n1 - j), j the
innermost index, do not split into prefix sums, so they are summed in
float64 over the (j, n1) pairs, at an independently capped cutoff, by divide
and conquer over the index range [0, N].  For j < mid <= n1 the chain
n1 > n2 > ... > nl > j has its first i inner indices in [mid, n1) and the
rest in (j, mid) for exactly one i (Chen's split of an iterated sum at a
point), so its inner sum is sum_i U_i(n1) D_i(j) with U_i and D_i sums
inside one half each, and the cross terms are one convolution with
1 / (n1 - j) per i.  The halves recurse down to small blocks summed densely.
Every summand is nonnegative, so nothing cancels.  The first split is at
N // 2 + 1, so the sum at N // 2 is the sum of the left half, bit for bit
what a run at N // 2 returns; the tail is estimated from that half-cutoff
refinement plus a small absolute floor covering float64 accumulation noise
across the O(N^2) terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from numbers import Real

import numpy as np

from .words import (
    Composition,
    DomainError,
    Poly,
    _is_int,
    check_int,
    composition_of,
    h0_support,
    is_admissible_composition,
)

DEFAULT_CUTOFF = 10**6
DEFAULT_DIGITS = 30
DEFAULT_SLACK = 10.0
DEFAULT_ST_CUTOFF = 10**4
_GUARD_DIGITS = 10
_FLOAT_NOISE = 1e-13  # rounding floor for the O(N^2) float64 summations
_LEAF = 64  # index blocks of at most this size are summed densely in the T/S series


@dataclass(frozen=True)
class EvalResult:
    """Partial sum of a nested series with its truncation metadata."""

    value: Decimal
    truncation: int
    tail_bound: float


@dataclass(frozen=True)
class VerifyReport:
    relation: str
    residual: float
    threshold: float
    passed: bool


_mzv_cache: dict = {}


def check_args(cutoff: int, digits: int = DEFAULT_DIGITS, slack: float = DEFAULT_SLACK) -> None:
    """Reject a cutoff or precision that is not an integer >= 1 and a negative or non-finite slack."""
    check_int(cutoff, 1, "cutoff")
    check_int(digits, 1, "precision")
    if not (isinstance(slack, Real) and math.isfinite(slack) and slack >= 0):
        raise DomainError(f"slack must be finite and >= 0: {slack!r}")


def _check_composition(c: Composition) -> None:
    """Reject a composition that is neither empty nor admissible with integer parts."""
    if not all(map(_is_int, c)):
        raise DomainError(f"composition parts must be integers: {c}")
    if c and not is_admissible_composition(c):
        raise DomainError(f"composition is not admissible (series diverges): {c}")


def mzv_tail_bound(c: Composition, cutoff: int) -> float:
    _check_composition(c)
    check_args(cutoff)
    l = len(c)
    if l == 0:
        return 0.0
    a, log_n = c[0] - 1.0, 1.0 + math.log(cutoff)
    return sum(cutoff**-a * log_n**j / (math.factorial(j) * a ** (l - j)) for j in range(l))


def mzv_eval(c: Composition, cutoff: int = DEFAULT_CUTOFF, digits: int = DEFAULT_DIGITS) -> EvalResult:
    """Truncated zeta value of an admissible composition: mzv_eval_many of one."""
    return mzv_eval_many([c], cutoff, digits)[0]


def mzv_eval_many(comps, cutoff: int = DEFAULT_CUTOFF, digits: int = DEFAULT_DIGITS) -> list:
    """Truncated zeta values of admissible compositions, in order, from one shared pass.

    The empty composition is the unit and evaluates to exactly 1.  Results
    are memoized on (composition, cutoff, digits).  Every composition is
    checked before any work.
    """
    comps = [tuple(c) for c in comps]
    for c in comps:
        _check_composition(c)
    check_args(cutoff, digits)
    todo = {c for c in comps if (c, cutoff, digits) not in _mzv_cache}
    if todo:
        bits, sums = _suffix_pass(todo, cutoff, digits)
        ctx = Context(prec=digits)
        for c in todo:
            s = sums[c]
            value = ctx.divide(s, 1 << bits)
            if value != ctx.divide(s + _rounding_term(len(c), cutoff), 1 << bits):
                exact = _exact_sum(c, cutoff)  # a half-way point lies in the enclosure
                value = ctx.divide(exact.numerator, exact.denominator)
            _mzv_cache[(c, cutoff, digits)] = EvalResult(value, cutoff, mzv_tail_bound(c, cutoff))
    return [_mzv_cache[(c, cutoff, digits)] for c in comps]


def _suffix_pass(comps, cutoff: int, digits: int) -> tuple:
    """Bits B and 2^B times each partial sum, rounded down, from one pass over the suffix trie.

    acc[s] = 2^B * sum over n >= n_1 > ... > n_l >= 1 of the suffix s so far;
    the unit () is 2^B.  Each suffix s gets acc[s] += (2^B // n^k) * acc[s[1:]]
    >> B with k = s[0], and updating longest suffixes first reads the inner
    value from step n - 1, which is exactly the strict inequality n_i > n_{i+1}.
    B is chosen from the rounding term proved in the module docstring; a sum
    with no terms stays exactly 0.
    """
    d, w = max(map(len, comps)), max(map(sum, comps))
    bits = (10 ** (digits + _GUARD_DIGITS) * _rounding_term(d, cutoff) * d**w).bit_length()
    nodes = sorted({c[i:] for c in comps for i in range(len(c))}, key=len, reverse=True)
    row = {s: j for j, s in enumerate(nodes + [()])}
    exps = sorted({s[0] for s in nodes})
    links = [(j, exps.index(s[0]), row[s[1:]]) for j, s in enumerate(nodes)]
    one = 1 << bits
    acc = [0] * len(nodes) + [one]
    pows = [0] * len(exps)
    slots = range(len(exps))
    steps = range(1, cutoff + 1) if nodes else ()  # the unit alone needs no pass
    for n in steps:
        for e in slots:
            pows[e] = one // n ** exps[e]  # in place: a fresh list per n costs more
        for j, e, i in links:
            acc[j] += pows[e] * acc[i] >> bits
    return bits, {c: acc[row[c]] for c in comps}


def _rounding_term(m: int, cutoff: int) -> int:
    """m N L^m with L = 1 + bit_length(N): bounds the shortfall of a suffix of length m."""
    return m * cutoff * (1 + cutoff.bit_length()) ** m


def _exact_sum(c: Composition, cutoff: int) -> Fraction:
    """The partial sum of c as a Fraction, by the same recursion in exact arithmetic."""
    acc = [Fraction(0)] * len(c) + [Fraction(1)]
    for n in range(1, cutoff + 1):
        for i in range(len(c)):  # outer levels first read the inner value from step n - 1
            acc[i] += acc[i + 1] / n ** c[i]
    return acc[0]


def _support(p: Poly) -> list:
    """Compositions of p's words in items() order; every word must be admissible or empty."""
    return [composition_of(w) for w in h0_support(p)]


def zeta_of_poly(p: Poly, cutoff: int = DEFAULT_CUTOFF, digits: int = DEFAULT_DIGITS) -> EvalResult:
    """Linear extension of mzv_eval; support must be admissible (unit allowed)."""
    check_args(cutoff, digits)
    results = mzv_eval_many(_support(p), cutoff, digits)
    total = Decimal(0)
    tail = 0.0
    with localcontext() as ctx:
        ctx.prec = digits + _GUARD_DIGITS
        for (_, coeff), r in zip(p.items(), results):
            total += Decimal(coeff.numerator) / Decimal(coeff.denominator) * r.value
            tail += abs(float(coeff)) * r.tail_bound
    with localcontext() as ctx:
        ctx.prec = digits
        return EvalResult(+total, cutoff, tail)


def _check_series_args(c: Composition, k_last: int, cutoff: int) -> None:
    """T(c) is checked as S(c, 0): both diverge unless some exponent exceeds 1."""
    if not c or not all(_is_int(k) and k >= 1 for k in c):
        raise DomainError(f"series arguments must be positive integers: {c}")
    check_int(k_last, 0, "last exponent")
    if max(c) < 2 and k_last < 1:
        raise DomainError(f"series diverges: {c} with last exponent {k_last}")
    check_args(cutoff)


def _inv_powers(N: int, k: int) -> np.ndarray:
    v = np.zeros(N + 1)
    v[1:] = np.arange(1, N + 1, dtype=float) ** (-float(k))
    return v


def _chain_sum(c: Composition, w: np.ndarray, N: int) -> EvalResult:
    """Partial sum over N >= n1 > ... > nl > j >= 0 of w[j] / (n1^k1 ... nl^kl (n1 - j)).

    Divide and conquer over the index range [0, N] (see _block): the terms
    with j and n1 on one side of a split point mid recurse into that half,
    and for j < mid <= n1 the inner sum Q(j, n1) over n1 > n2 > ... > nl > j
    splits as sum_{i<l} U_i(n1) D_i(j), each factor a sum inside one half
    (Chen's split of an iterated sum at a point; see _cross).  Every summand is
    nonnegative (w >= 0), so nothing cancels.  The first split is at
    N // 2 + 1, so the sum at N // 2 is the sum of the left half, bit for bit
    what a run at N // 2 returns.  The tail estimate is the change from that
    half sum (0.0 when N // 2 is 0), doubled for safety, plus the float64
    noise floor: an empirical figure, not a certified bound.
    """
    pows = [_inv_powers(N, k) for k in c]
    w = np.append(w, 0.0)  # index N is never the innermost one
    half = _block(pows, w, 0, N // 2 + 1)
    total = _block(pows, w, 0, N + 1, half)
    return EvalResult(Decimal(repr(total)), N, 2.0 * abs(total - half) + _FLOAT_NOISE)


def _block(pows: list, w: np.ndarray, lo: int, hi: int, left: float | None = None) -> float:
    """The terms of _chain_sum with every index in [lo, hi); left, if known, is the left half's.

    A block of at most _LEAF indices is summed densely.  A larger one splits
    at mid = (lo + hi + 1) // 2 into the terms inside each half and the cross
    terms with j < mid <= n1 (see _cross).
    """
    if hi - lo <= _LEAF:
        return _leaf(pows, w, lo, hi)
    mid = (lo + hi + 1) // 2
    if left is None:
        left = _block(pows, w, lo, mid)
    return left + _block(pows, w, mid, hi) + _cross(pows, w, lo, mid, hi)


def _leaf(pows: list, w: np.ndarray, lo: int, hi: int) -> float:
    """_block of a small block as a dense (n1, j) array of chain sums."""
    s = slice(lo, hi)
    step = np.arange(hi - lo)
    gap = step[:, None] - step  # n1 - j
    q = (gap > 0) * w[s]  # q[n, j] = w[j] for n > j
    for a in reversed(pows[1:]):  # innermost index first, each new one above the last
        q = _sum_below(a[s, None] * q)
    # now q[n1, j] = w[j] Q(j, n1)
    return float(pows[0][s] @ (q / np.maximum(gap, 1)).sum(axis=1))


def _cross(pows: list, w: np.ndarray, lo: int, mid: int, hi: int) -> float:
    """The terms of _block with lo <= j < mid <= n1 < hi.

    A chain n1 > n2 > ... > nl > j has its first i inner indices in
    [mid, n1) and the rest in (j, mid) for exactly one i < l, so
    Q(j, n1) = sum_i U_i(n1) D_i(j), and the sum over j of
    w[j] D_i(j) / (n1 - j) is one convolution with 1 / (n1 - j) per i.
    """
    below, above = slice(lo, mid), slice(mid, hi)
    inv_gap = 1.0 / np.arange(1, hi - lo)
    total = 0.0
    for i in range(len(pows)):
        up = np.ones(hi - mid)  # U_i: n1 > n2 > ... > n_{i+1} >= mid
        for a in reversed(pows[1 : i + 1]):
            up = _sum_below(a[above] * up)
        down = np.ones(mid - lo)  # D_i: mid > n_{i+2} > ... > nl > j
        for a in pows[i + 1 :]:
            down = _sum_below((a[below] * down)[::-1])[::-1]
        total += float(pows[0][above] @ (up * np.convolve(w[below] * down, inv_gap, "valid")))
    return total


def _sum_below(x: np.ndarray) -> np.ndarray:
    """out[n] = the sum of x[m] over m < n, along the first axis."""
    out = np.zeros_like(x)
    np.cumsum(x[:-1], axis=0, out=out[1:])
    return out


def t_series_eval(c: Composition, cutoff: int = DEFAULT_ST_CUTOFF) -> EvalResult:
    """Coupled series with factor 1/(n1 - j), innermost index j >= 0; some argument must exceed 1."""
    c = tuple(c)
    _check_series_args(c, 0, cutoff)
    return _chain_sum(c, np.ones(cutoff), cutoff)


def s_series_eval(c: Composition, k_last: int, cutoff: int = DEFAULT_ST_CUTOFF) -> EvalResult:
    """Coupled series with innermost index j >= 1 carrying exponent k_last >= 0."""
    c = tuple(c)
    _check_series_args(c, k_last, cutoff)
    return _chain_sum(c, _inv_powers(cutoff - 1, k_last), cutoff)


def verify(
    relations,
    cutoff: int = DEFAULT_CUTOFF,
    slack: float = DEFAULT_SLACK,
    digits: int = DEFAULT_DIGITS,
) -> list:
    """Evaluate each relation element; pass iff |residual| <= slack * tail sum.

    No relations at all is an error rather than a vacuous pass.
    """
    check_args(cutoff, digits, slack)
    relations = list(relations)
    if not relations:
        raise DomainError("no relations to verify")
    # every support is checked before the one shared pass, whose memo zeta_of_poly then reads
    mzv_eval_many({c for rel in relations for c in _support(rel.element)}, cutoff, digits)
    reports = []
    for rel in relations:
        r = zeta_of_poly(rel.element, cutoff, digits)
        residual = abs(float(r.value))
        threshold = slack * r.tail_bound
        reports.append(VerifyReport(rel.label(), residual, threshold, residual <= threshold))
    return reports
