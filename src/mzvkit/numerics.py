"""High-precision truncated evaluation of the nested series and verification.

The zeta evaluation of an admissible composition (k1, ..., kl) is the partial
sum of 1/(n1^k1 ... nl^kl) over n1 > ... > nl >= 1 with n1 <= N, computed by
a streaming dynamic program over nested prefix sums.  The accumulator of level
i depends only on the suffix (ki, ..., kl), so all compositions evaluated
together share one pass over their suffix trie.  Sums are integers at
scale 2^B: at step n a suffix (k, inner) adds the floor of inner's sum
over n^k, and the result is divided by 2^B once at the end, so a suffix of
length m falls short of 2^B times its sum by some E_m >= 0.  The floor
makes a step add less than E_(m-1) / n^k + 1 to E_m, with E_(m-1) the
shortfall of the inner suffix, so E_m <= N + H_N E_(m-1) (H_N the
harmonic number) and by induction E_m <= N (1 + H_N + ... + H_N^(m-1))
<= m N (1 + H_N^(m-1)) <= R = m N L^m <= d N L^d, with
L = 1 + bit_length(N) > H_N and d the largest depth.  A sum of depth
l <= N and weight w is at least its term (l, ..., 1) >= d^(-w), so
2^B > 10^(digits + guard digits) * d N L^d d^w keeps the relative error
below 10^-(digits + guard digits).  The exact sum lies in [S, S + R] / 2^B
for the computed S, so both ends are rounded to the requested digits
(half-even).  When they differ, a half-way point lies between them, as it
does for a sum that is an exact tie and otherwise with probability below
10^-(digits + guard digits), and that composition is settled by an exact
Fraction sum.  Every value is therefore correctly rounded.

The pass takes the steps for a block of n at once, in numpy int64 limbs of
b = 63 - bit_length(N) bits.  A floor division by n is long division over
every limb from the top, exact in int64 since every remainder is below n,
so rem * 2^b + limb < n 2^b <= 2^63; a sum over the block is a cumulative
sum per limb followed by one carry sweep.
The sums need few limbs: acc[s] <= 2^B H_N^m < 2^B L^m for a suffix of
length m, so B + d log2 L + 1 bits hold every one.  The integers are those
of a loop over n in Python ints, bit for bit.  A cutoff of 2^62 or more
leaves no limb width and is rejected.

The truncation tail of the zeta sum (the terms with n1 > N) is at most

    tail(N) = N^(1-k1) * sum_{j=0}^{l-1} (1 + ln N)^j / (j! (k1 - 1)^(l-j)),

the integral over t > N of (1 + ln t)^(l-1) / (l-1)! * t^(-k1): the inner
sum over n1 > n2 > ... > nl is at most H_{n1-1}^(l-1) / (l-1)!, and on
[n1 - 1, n1] both 1 + ln t >= H_{n1-1} and t^(-k1) >= n1^(-k1), so each
term is at most the integral over that interval.  Depth one gives the usual
N^(1-k1) / (k1 - 1).  Every term grows with ln N, so _tail, a Fraction,
raises it to a rational bound: N = 2^e x with 1 <= x < 2 has
ln N <= 0.693148 e + (x - 1)(x + 5) / (4x + 2), since ln 2 < 0.693148 and
the last term minus ln x is 0 at x = 1 with derivative
4 (x - 1)^3 / (x (4x + 2)^2) >= 0.  mzv_eval's tail_bound is the least
float >= _tail: truncation only.

A combination sum c_i zeta(w_i) is decided in integers (verify,
zeta_of_poly).  With D the lcm of the c_i's denominators, a_i = D c_i, S_i
the pass's sums at scale 2^B, R_i the rounding term of w_i's depth and
T_i = ceil(2^B _tail_i), 2^B zeta(w_i) - S_i lies in [0, R_i + T_i].  So
X = sum a_i S_i has |X| <= sum |a_i| (R_i + T_i) for every true relation:
verify passes exactly then, and a failure proves the relation false at any
cutoff and precision.  Floats only print X and the bound over D 2^B.

The two auxiliary series with the coupling factor 1/(n1 - j), j the
innermost index, do not split into prefix sums, so they are summed in
float64 over the (j, n1) pairs, at an independently capped cutoff, over a
power-of-two tree on the index range (see _chain_sum).  Each pair lies in
the one block that has j in its lower half and n1 in its upper half; there
Chen's split of the chain at the block's midpoint makes the sum over j one
convolution with 1 / (n1 - j) per depth, and each level of the tree takes
all its blocks at once.  Every summand is nonnegative, so nothing cancels.
The terms are gathered by n1, so the sum at N // 2 is a prefix of the same
sum, bit for bit what a run at N // 2 returns; the tail is estimated from
that half-cutoff refinement plus a small absolute floor covering float64
accumulation noise across the O(N^2) terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np

from .words import (
    Composition,
    DomainError,
    Poly,
    _parts,
    check_composition,
    check_h0,
    check_int,
    is_admissible_composition,
)

DEFAULT_CUTOFF = 10**6
DEFAULT_DIGITS = 30
DEFAULT_ST_CUTOFF = 10**4
_GUARD_DIGITS = 10
_FLOAT_NOISE = 1e-13  # rounding floor for the O(N^2) float64 summations
_BLOCK = 2048  # values of n per block of the zeta kernel
_SMALL_BLOCK = 32  # T/S tree levels with half blocks up to this size convolve in one call


@dataclass(frozen=True)
class EvalResult:
    """Partial sum of a nested series at the caller's cutoff; tail_bound bounds its truncation
    (mzv_eval), its distance from the infinite sum (zeta_of_poly), or estimates its tail
    (T/S series)."""

    value: Decimal
    tail_bound: float


@dataclass(frozen=True)
class VerifyReport:
    """residual |X| / scale and threshold bound / scale, correctly rounded; passed: |X| <= bound."""

    relation: str
    residual: float
    threshold: float
    passed: bool


_mzv_cache: dict = {}


def check_args(cutoff: int, digits: int = DEFAULT_DIGITS) -> None:
    """Reject a cutoff or precision that is not an integer >= 1, and a cutoff of 2^62 or
    more (it leaves the zeta kernel no int64 limb width)."""
    if check_int(cutoff, 1, "cutoff") >= 1 << 62:
        raise DomainError(f"cutoff must be below 2^62: {cutoff}")
    check_int(digits, 1, "precision")


def _check_composition(c) -> Composition:
    """check_composition(c), after rejecting a composition that is neither empty nor admissible."""
    c = check_composition(c)
    if c and not is_admissible_composition(c):
        raise DomainError(f"composition is not admissible (series diverges): {c}")
    return c


def mzv_tail_bound(c: Composition, cutoff: int) -> float:
    """The least float >= _tail(c, cutoff): bounds the terms with n1 > cutoff, not rounding."""
    c = _check_composition(c)
    check_args(cutoff)
    return _float_above(_tail(c, cutoff))


def _log_bound(cutoff: int) -> Fraction:
    """The rational bound on 1 + ln N of the module docstring, N = cutoff."""
    e = cutoff.bit_length() - 1
    x = Fraction(cutoff, 1 << e)
    return 1 + Fraction(693148, 10**6) * e + (x - 1) * (x + 5) / (4 * x + 2)


def _tail(c: Composition, cutoff: int, log_n: Fraction | None = None) -> Fraction:
    """tail(N) of the module docstring, N = cutoff, with 1 + ln N raised to log_n, by default
    _log_bound(cutoff).  It depends on c only through its first part and its depth."""
    if log_n is None:
        log_n = _log_bound(cutoff)
    a = c[0] - 1 if c else 0  # the unit has no tail: the sum is empty
    return Fraction(sum(log_n**j / (math.factorial(j) * a ** (len(c) - j)) for j in range(len(c))), cutoff**a)


def _float_above(q: Fraction) -> float:
    """The least float >= q; a q above the largest float is a DomainError."""
    if q > sys.float_info.max:
        raise DomainError("bound out of float range")
    f = float(q)
    return f if f >= q else math.nextafter(f, math.inf)


def _decimal(num: int, den: int, digits: int) -> Decimal:
    """num / den rounded half-even to digits significant digits, padded to them; 0 stays 0."""
    ctx = Context(prec=digits)
    value = ctx.divide(num, den)
    return ctx.quantize(value, Decimal((0, (1,), value.adjusted() + 1 - digits))) if value else value


def mzv_eval(c: Composition, cutoff: int = DEFAULT_CUTOFF, digits: int = DEFAULT_DIGITS) -> EvalResult:
    """Truncated zeta value of an admissible composition, correctly rounded to digits.

    The empty composition is the unit and evaluates to exactly 1.  Results
    are memoized on (composition, cutoff, digits).
    """
    c = _check_composition(c)
    check_args(cutoff, digits)
    key = (c, cutoff, digits)
    if key not in _mzv_cache:
        bits, sums = _suffix_pass([c], cutoff, digits)
        value = _decimal(sums[c], 1 << bits, digits)
        if value != _decimal(sums[c] + _rounding_term(len(c), cutoff), 1 << bits, digits):
            exact = _exact_sum(c, cutoff)  # a half-way point lies in the enclosure
            value = _decimal(exact.numerator, exact.denominator, digits)
        _mzv_cache[key] = EvalResult(value, _float_above(_tail(c, cutoff)))
    return _mzv_cache[key]


def _suffix_pass(comps, cutoff: int, digits: int) -> tuple:
    """Bits B and 2^B times each partial sum, rounded down, from one pass over the suffix trie.

    acc[s] = 2^B * sum over n >= n_1 > ... > n_l >= 1 of the suffix s so far;
    the unit () is 2^B.  At step n each suffix (k, inner) gets
    floor(acc[inner] / n^k) from acc[inner] at step n - 1, which is exactly
    the strict inequality n_i > n_{i+1}, by k chained floor divisions by n
    (floor(floor(a / b) / c) = floor(a / (b c))).  The steps run _BLOCK
    values of n at a time in int64 limbs of b = 63 - bit_length(N) bits (see
    _descend; the module docstring bounds the limbs and proves the rounding
    term that B is chosen from).  A sum with no terms stays exactly 0.
    """
    d, w = max(map(len, comps), default=0), max(map(sum, comps), default=0)
    bits = (10 ** (digits + _GUARD_DIGITS) * _rounding_term(d, cutoff) * d**w).bit_length()
    nodes = {c[i:] for c in comps for i in range(len(c))}
    last = dict.fromkeys(nodes, 0) | {(): 1 << bits}  # acc at the end of the last block
    if nodes:  # the unit alone needs no pass
        kids: dict = {}  # inner -> its suffixes (k, inner), k ascending
        for s in sorted(nodes):
            kids.setdefault(s[1:], []).append(s)
        b = 63 - cutoff.bit_length()
        unit = _limbs(1 << bits, b, _rows(1 << bits, b))[:, None]
        for lo in range(1, cutoff + 1, _BLOCK):
            n = np.arange(lo, min(lo + _BLOCK, cutoff + 1), dtype=np.int64)
            _descend((), np.repeat(unit, len(n), axis=1), 1 << bits, n, kids, last, b)
    return bits, {c: last[c] for c in comps}


def _rows(x: int, b: int) -> int:
    """The number of b-bit limbs that hold x >= 0."""
    return max(1, -(-x.bit_length() // b))


def _limbs(x: int, b: int, rows: int) -> np.ndarray:
    """x as rows limbs of b bits, most significant first."""
    return np.array([x >> t * b & ((1 << b) - 1) for t in reversed(range(rows))], np.int64)


def _descend(inner, prev: np.ndarray, hi: int, n: np.ndarray, kids: dict, last: dict, b: int) -> None:
    """Advance the suffixes below inner over the block n, from acc[inner] at each n - 1.

    prev holds acc[inner] in limbs (rows, most significant first; one
    column per n) and is overwritten; hi >= every column.  A floor division
    by n is long division over every limb from the top, one divmod per limb,
    and then a quotient's rows shrink to those of its bound hi // n[0].  An addition
    is a cumulative sum of each limb along the block, from acc[s] at the
    last block's end, below (len(n) + 1) 2^b <= 2^63, and one carry sweep
    from the bottom limb up.  The walk is depth first, so only one path of
    block arrays is alive.
    """
    q, k, lo, m = prev, 0, int(n[0]), len(n)
    rem, cur = np.empty_like(n), np.empty_like(n)
    for s in kids[inner]:
        for _ in range(k, s[0]):
            rem[:] = 0
            for limb in q:
                np.left_shift(rem, b, out=cur)
                cur |= limb
                np.divmod(cur, n, out=(limb, rem))
            hi //= lo
            q = q[len(q) - _rows(hi, b) :]
        k = s[0]
        rows = _rows(last[s] + m * hi, b)
        v = np.empty((rows, m + 1), np.int64)
        v[:, 0] = _limbs(last[s], b, rows)
        v[: rows - len(q), 1:] = 0
        v[rows - len(q) :, 1:] = q
        np.cumsum(v, axis=1, out=v)
        for t in range(rows - 1, 0, -1):
            v[t - 1] += v[t] >> b
            v[t] &= (1 << b) - 1
        last[s] = 0
        for limb in v[:, -1].tolist():
            last[s] = last[s] << b | limb
        if s in kids:  # acc[s] is nondecreasing, so last[s] bounds every column
            _descend(s, v[rows - _rows(last[s], b) :, :-1], last[s], n, kids, last, b)


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


def _combination(polys: list, cutoff: int, digits: int) -> list:
    """(X, bound, scale = D 2^B) of each poly as in the module docstring, from one pass over the
    union of the supports, which are checked (words admissible or the unit) with the arguments first."""
    check_args(cutoff, digits)
    for p in polys:
        check_h0(p)
    terms = [[(_parts(w), q) for w, q in p.items()] for p in polys]
    union = {c for t in terms for c, _ in t}
    bits, sums = _suffix_pass(union, cutoff, digits)
    log_n = _log_bound(cutoff)
    reps = {(c[:1], len(c)): c for c in union}  # one composition per first part and depth
    tails = {key: math.ceil(_tail(c, cutoff, log_n) * (1 << bits)) for key, c in reps.items()}
    err = {c: _rounding_term(len(c), cutoff) + tails[c[:1], len(c)] for c in union}
    out = []
    for t in terms:
        den = math.lcm(*(q.denominator for _, q in t))
        ints = [(c, q.numerator * (den // q.denominator)) for c, q in t]
        x = sum(a * sums[c] for c, a in ints)
        out.append((x, sum(abs(a) * err[c] for c, a in ints), den << bits))
    return out


def zeta_of_poly(p: Poly, cutoff: int = DEFAULT_CUTOFF, digits: int = DEFAULT_DIGITS) -> EvalResult:
    """Linear extension of the zeta sums; support must be admissible (unit allowed).  The value
    is X / scale rounded once, and tail_bound bounds its distance from the infinite sum."""
    ((x, bound, scale),) = _combination([p], cutoff, digits)
    value = _decimal(x, scale, digits)
    return EvalResult(value, _float_above(Fraction(bound, scale) + abs(Fraction(value) - Fraction(x, scale))))


def _check_series_args(c, k_last: int, cutoff: int) -> Composition:
    """check_composition(c) if the series is defined; both series need a nonempty c."""
    c = check_composition(c)
    if not c:
        raise DomainError("the series of the empty composition is undefined")
    check_int(k_last, 0, "last exponent")
    if max(c) < 2 and k_last < 1:
        raise DomainError(f"series diverges: {c} with last exponent {k_last}")
    check_args(cutoff)
    return c


def _inv_powers(N: int, k: int) -> np.ndarray:
    v = np.zeros(N + 1)
    v[1:] = np.arange(1, N + 1, dtype=float) ** (-float(k))
    return v


def _chain_sum(c: Composition, w: np.ndarray, N: int) -> EvalResult:
    """Partial sum over N >= n1 > ... > nl > j >= 0 of w[j] / (n1^k1 ... nl^kl (n1 - j)).

    Level h of the tree on [0, P), P the least power of two above N, sums
    the pairs with j in the lower and n1 in the upper half of a block
    [lo, lo + 2h), as (blocks, h) rows: there Q(j, n1), the sum over
    n1 > n2 > ... > nl > j, is sum_i U_i(n1) D_i(j), the first i inner
    indices in [lo + h, n1) and the rest in (j, lo + h) (Chen's split), with
    U_i and D_i row-wise cumulative sums.  The values at N and N // 2 sum the
    terms gathered by n1 over n1 <= N and n1 <= N // 2.  A run at N // 2 has
    the blocks of every level here but the top one, whose n1 all exceed
    N // 2, and builds each entry with n1 <= N // 2 from the same data by the
    same elementwise, row-wise and per-position steps, so it returns the half
    value bit for bit.  The tail estimate is twice the change from it plus
    the float64 noise floor: empirical, not a certified bound.
    """
    P = 1 << N.bit_length()
    pows = np.zeros((len(c), P))
    pows[:, : N + 1] = [_inv_powers(N, k) for k in c]
    w = np.append(w, np.zeros(P - len(w)))  # w[j] = 0 for j >= N
    inv_gap = np.append(0.0, 1.0 / np.arange(1, P))
    by_n1 = np.zeros(P)
    h = 1
    while h < P:
        m = ((N - h) // (2 * h) + 1) * 2 * h  # the blocks whose upper half starts at or below N
        blocks = pows[:, :m].reshape(len(c), -1, 2 * h)
        low, high, w_low = blocks[:, :, :h], blocks[:, :, h:], w[:m].reshape(-1, 2 * h)[:, :h]
        cross = 0.0
        for i in range(len(c)):
            up = 1.0  # U_i: n1 > n2 > ... > n_{i+1} >= lo + h
            for a in high[i:0:-1]:
                up = _cumsum_before(a * up)
            down = 1.0  # D_i: lo + h > n_{i+2} > ... > nl > j
            for a in low[i + 1 :]:
                down = _cumsum_before((a * down)[:, ::-1])[:, ::-1]
            cross += up * _gap_convolve(w_low * down, inv_gap, N)
        by_n1[:m].reshape(-1, 2 * h)[:, h:] += high[0] * cross
        h *= 2
    total, half = float(by_n1[: N + 1].sum()), float(by_n1[: N // 2 + 1].sum())
    return EvalResult(Decimal(repr(total)), 2.0 * abs(total - half) + _FLOAT_NOISE)


def _cumsum_before(x: np.ndarray) -> np.ndarray:
    """out[:, t] = the sum of x[:, s] over s < t."""
    out = np.zeros_like(x)
    np.cumsum(x[:, :-1], axis=1, out=out[:, 1:])
    return out


def _gap_convolve(x: np.ndarray, inv_gap: np.ndarray, N: int) -> np.ndarray:
    """out[b, t] = the sum of x[b, s] / (h + t - s) over s, for the block of size 2h at 2hb.

    Small blocks share one np.convolve, laid out 2h apart so that no gap reaches
    the next block; large ones take one each, cut at n1 = N.  Either way an
    output is the same dot product of the same data, whatever N is."""
    blocks, h = x.shape
    if h <= _SMALL_BLOCK:
        flat = np.zeros((blocks, 2 * h))
        flat[:, :h] = x
        out = np.convolve(flat.ravel(), inv_gap[: 2 * h], "full")[: 2 * h * blocks]
        return out.reshape(blocks, 2 * h)[:, h:]
    out = np.zeros_like(x)
    for b, row in enumerate(x):
        top = min(2 * h, N + 1 - 2 * h * b)  # n1 <= N
        out[b, : top - h] = np.convolve(inv_gap[1:top], row, "valid")
    return out


def t_series_eval(c: Composition, cutoff: int = DEFAULT_ST_CUTOFF) -> EvalResult:
    """Coupled series with factor 1/(n1 - j), innermost index j >= 0; some argument must exceed 1."""
    c = _check_series_args(c, 0, cutoff)
    return _chain_sum(c, np.ones(cutoff), cutoff)


def s_series_eval(c: Composition, k_last: int, cutoff: int = DEFAULT_ST_CUTOFF) -> EvalResult:
    """Coupled series with innermost index j >= 1 carrying exponent k_last >= 0."""
    c = _check_series_args(c, k_last, cutoff)
    return _chain_sum(c, _inv_powers(cutoff - 1, k_last), cutoff)


def verify(relations, cutoff: int = DEFAULT_CUTOFF, digits: int = DEFAULT_DIGITS) -> list:
    """Decide each relation element by the integer test |X| <= bound, so a failure proves the
    relation false.  No relations at all is an error, not a vacuous pass."""
    relations = list(relations)
    if not relations:
        raise DomainError("no relations to verify")
    reports = []
    for rel, (x, bound, scale) in zip(relations, _combination([r.element for r in relations], cutoff, digits)):
        try:  # int / int rounds correctly, so it keeps the order of |X| and bound
            residual, threshold = abs(x) / scale, bound / scale
        except OverflowError:
            raise DomainError(f"residual or threshold out of float range: {rel.label()}") from None
        reports.append(VerifyReport(rel.label(), residual, threshold, abs(x) <= bound))
    return reports
