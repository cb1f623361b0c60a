from dataclasses import asdict
from decimal import Context, Decimal, localcontext
from fractions import Fraction
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import mzvkit.numerics as numerics
from mzvkit.derivations import conjugate, derivation_D
from mzvkit.numerics import (
    mzv_eval,
    mzv_tail_bound,
    s_series_eval,
    t_series_eval,
    verify,
    zeta_of_poly,
)
from mzvkit.products import harmonic, shuffle
from mzvkit.relations import Relation, generate
from mzvkit.words import (
    DomainError,
    Poly,
    admissible_words,
    composition_of,
    tau_word,
)
from oracles import admissible_compositions, suffix_pass_reference

mpmath.mp.dps = 40

N_SMALL = 10**4


def mp(value: Decimal) -> mpmath.mpf:
    return mpmath.mpf(str(value))


def test_mzv_eval_unit_and_errors():
    r = mzv_eval(())
    assert r.value == 1 and r.tail_bound == 0.0
    with pytest.raises(DomainError):
        mzv_eval((1, 2), N_SMALL)
    with pytest.raises(DomainError):
        mzv_eval((2, 0), N_SMALL)
    # parts, cutoffs and precisions must be integers; a bool is not one
    for args in (((2.5,), 100), ((2,), 10.5), ((2,), 100, 5.0), ((2,), True), ((True, 1), 100)):
        with pytest.raises(DomainError):
            mzv_eval(*args)


def test_zeta2_matches_classical_constant():
    r = mzv_eval((2,), 10**5)
    assert abs(mp(r.value) - mpmath.pi**2 / 6) <= r.tail_bound


def test_depth_one_matches_mpmath_zeta():
    for k in (2, 3, 4, 5):
        r = mzv_eval((k,), N_SMALL)
        assert abs(mp(r.value) - mpmath.zeta(k)) <= max(r.tail_bound, 1e-25)


def test_weight4_classical_closed_forms():
    # zeta(3,1) = pi^4/360 and zeta(2,2) = pi^4/120
    r31 = mzv_eval((3, 1), 10**5)
    r22 = mzv_eval((2, 2), 10**5)
    assert abs(mp(r31.value) - mpmath.pi**4 / 360) <= 10 * r31.tail_bound
    assert abs(mp(r22.value) - mpmath.pi**4 / 120) <= 10 * r22.tail_bound


def test_depth_two_identity():
    r3 = mzv_eval((3,), 10**5)
    r21 = mzv_eval((2, 1), 10**5)
    assert abs(float(r3.value - r21.value)) <= 10 * (r3.tail_bound + r21.tail_bound)


def test_monotone_refinement():
    n = 5000
    comps = [c for w in range(2, 8) for c in admissible_compositions(w)]
    for c in comps:
        v1 = mzv_eval(c, n)
        v2 = mzv_eval(c, 2 * n)
        assert abs(float(v2.value - v1.value)) <= v1.tail_bound, c


@pytest.mark.parametrize("cutoff", [10, 10**2, 10**3, 10**4])
def test_tail_bound_dominates_the_true_tail(cutoff):
    exact = {
        (2, 1): mpmath.zeta(3),
        (3, 1): mpmath.pi**4 / 360,
        (2, 1, 1): mpmath.zeta(4),
        (2, 2): mpmath.pi**4 / 120,
    }
    for c, value in exact.items():
        r = mzv_eval(c, cutoff)
        assert value - mp(r.value) <= r.tail_bound, c


def test_tail_bound_survives_float_underflow():
    # N^(1-k1) is 0.0 for (100,) and subnormal for (80,); the true tails are about 1e-398, 1e-318
    for c in ((100,), (80,)):
        bound = mzv_eval(c, 10**4).tail_bound
        assert bound > 0 and mpmath.mpf(bound) >= mpmath.zeta(c[0], 10**4 + 1), c


def test_depth_above_the_cutoff_has_a_tail_bound():
    # the partial sum is 0, and zeta(2, {1}^171) = zeta(173) by duality
    r = mzv_eval((2,) + (1,) * 171, 10)
    assert r.value == 0 and mpmath.mpf(r.tail_bound) >= mpmath.zeta(173)


def test_large_first_part_over_ones_has_a_tail_bound():
    # 1/N^999 over a long tail of ones: the bound stays a positive float, with no overflow
    r = mzv_eval((1000,) + (1,) * 110, 3, 5)
    assert r.value == 0 and r.tail_bound > 0


def test_tail_bound_shape():
    assert mzv_tail_bound((), 100) == 0.0
    assert mzv_tail_bound((2,), 10**6) == pytest.approx(1e-6)
    assert mzv_tail_bound((3, 1), 100) < mzv_tail_bound((2, 1), 100)
    with pytest.raises(DomainError):
        mzv_tail_bound((2,), 0)
    # the composition is checked as in mzv_eval: a divergent, non-integer or zero part raises
    for c in ((1,), (1, 2), (2.5,), (0, 2)):
        with pytest.raises(DomainError):
            mzv_tail_bound(c, 100)


def test_zeta_of_poly():
    p = Poly({"xxy": 1, "xyy": -1})
    r = zeta_of_poly(p, N_SMALL)
    assert abs(float(r.value)) <= 10 * r.tail_bound
    assert zeta_of_poly(Poly(), N_SMALL).value == 0
    assert zeta_of_poly(Poly.word(""), N_SMALL).value == 1
    with pytest.raises(DomainError):
        zeta_of_poly(Poly.word("yx"), N_SMALL)


def test_zeta_cyclic_element_closed_form():
    # z4 - z3z1 - z2z2 evaluates to pi^4 (1/90 - 1/360 - 1/120) = 0
    p = Poly({"xxxy": 1, "xxyy": -1, "xyxy": -1})
    r = zeta_of_poly(p, 10**5)
    closed = mpmath.pi**4 * (mpmath.mpf(1) / 90 - mpmath.mpf(1) / 360 - mpmath.mpf(1) / 120)
    assert abs(closed) < 1e-30
    assert abs(float(r.value)) <= 10 * r.tail_bound


def test_zeta_is_homomorphism_for_both_products():
    for wu in range(2, 5):
        for wv in range(2, 8 - wu):
            for u in admissible_words(wu):
                for v in admissible_words(wv):
                    ru = mzv_eval(composition_of(u), N_SMALL)
                    rv = mzv_eval(composition_of(v), N_SMALL)
                    prod = float(ru.value * rv.value)
                    budget = (
                        ru.tail_bound * abs(float(rv.value))
                        + rv.tail_bound * abs(float(ru.value))
                    )
                    for p in (harmonic(u, v), shuffle(u, v)):
                        rp = zeta_of_poly(p, N_SMALL)
                        assert abs(float(rp.value) - prod) <= 10 * (rp.tail_bound + budget)


def test_tau_invariance_numeric():
    for w in range(2, 8):
        for u in admissible_words(w):
            ru = mzv_eval(composition_of(u), N_SMALL)
            rt = mzv_eval(composition_of(tau_word(u)), N_SMALL)
            assert abs(float(ru.value - rt.value)) <= 10 * (ru.tail_bound + rt.tail_bound)


def test_mzv_partial_sum_matches_bruteforce():
    # exact enumeration over strictly decreasing index tuples at a tiny cutoff
    import itertools

    n = 12
    for wt in range(2, 5):
        for c in admissible_compositions(wt):
            exact = Fraction(0)
            for tup in itertools.combinations(range(1, n + 1), len(c)):
                ns = tuple(reversed(tup))  # decreasing
                term = Fraction(1)
                for ni, ki in zip(ns, c):
                    term /= Fraction(ni) ** ki
                exact += term
            got = mzv_eval(c, n, digits=30).value
            half_unit = Fraction(10) ** (got.adjusted() - 29) / 2
            bits, _ = numerics._suffix_pass([c], n, 30)
            tol = half_unit + _rounding_term(c, n) / 2**bits
            assert abs(Fraction(got) - exact) <= tol, c


def test_coupled_sums_match_bruteforce():
    import itertools

    n = 14
    for c in ((2,), (2, 1), (1, 2), (3, 1), (2, 1, 1)):
        exact_t = Fraction(0)
        for tup in itertools.combinations(range(0, n + 1), len(c) + 1):
            ns = tuple(reversed(tup))  # n1 > ... > nl > j >= 0
            term = Fraction(1, ns[0] - ns[-1])
            for ni, ki in zip(ns, c):
                term /= Fraction(ni) ** ki
            exact_t += term
        assert abs(float(t_series_eval(c, n).value) - float(exact_t)) < 1e-12, c

    for c, klast in (((2,), 1), ((2, 1), 0), ((1, 2), 1), ((2,), 0)):
        exact_s = Fraction(0)
        for tup in itertools.combinations(range(1, n + 1), len(c) + 1):
            ns = tuple(reversed(tup))  # n1 > ... > nl > j >= 1
            term = Fraction(1, ns[0] - ns[-1]) / Fraction(ns[-1]) ** klast
            for ni, ki in zip(ns, c):
                term /= Fraction(ni) ** ki
            exact_s += term
        assert abs(float(s_series_eval(c, klast, n).value) - float(exact_s)) < 1e-12, (c, klast)


def _rounding_term(c, cutoff):
    """The documented bound m N (1 + H_N^(m-1)) on 2^B times the kernel's shortfall."""
    harmonic = sum(Fraction(1, n) for n in range(1, cutoff + 1))
    return len(c) * cutoff * (1 + harmonic ** (len(c) - 1))


def _exact_sums(comps, cutoff):
    """Exact partial sums by the same streaming recursion in Fractions."""
    out = {}
    for c in comps:
        acc = [Fraction(0)] * len(c) + [Fraction(1)]
        for n in range(1, cutoff + 1):
            for i in range(len(c)):
                acc[i] += acc[i + 1] / n ** c[i]
        out[c] = acc[0]
    return out


@pytest.mark.parametrize("cutoff", [1, 2, 3, 7, 40])
@pytest.mark.parametrize("digits", [1, 12])
def test_fixed_point_error_is_one_sided_and_within_the_rounding_term(cutoff, digits):
    comps = [c for w in range(2, 7) for c in admissible_compositions(w)]
    exact = _exact_sums(comps, cutoff)
    bits, sums = numerics._suffix_pass(comps, cutoff, digits)
    for c in comps:
        scaled, term = 2**bits * exact[c], _rounding_term(c, cutoff)
        assert 0 <= scaled - sums[c] <= term, c
        if len(c) > cutoff:
            assert sums[c] == 0
        else:
            # the chosen scale keeps the rounding term below the guarded precision
            assert term <= scaled / 10 ** (digits + numerics._GUARD_DIGITS), c


def test_exponent_gaps_between_suffixes_sharing_an_inner_one():
    # () has parents at k = 1, 2, 7, (2,) at k = 1, 2, 5, and (1, 2) and (1,) only at k = 3 and 6
    comps = [(7,), (2, 2), (5, 2), (3, 1, 2), (6, 1)]
    for cutoff in range(1, 41):
        exact = _exact_sums(comps, cutoff)
        bits, sums = numerics._suffix_pass(comps, cutoff, 12)
        for c in comps:
            assert 0 <= 2**bits * exact[c] - sums[c] <= _rounding_term(c, cutoff), (c, cutoff)


# a deep run of 1s has the largest sums, so it fills the most limbs
_KERNEL_CASES = [(2,), (3, 1), (7,), (2, 2), (5, 2), (3, 1, 2), (6, 1), (4, 1, 1), (2, 1, 1, 1, 1, 1)]


@pytest.mark.parametrize("digits", [1, 30, 100])
@pytest.mark.parametrize("cutoff", [1, 7, 8, 9, 17])
def test_block_kernel_matches_the_per_n_loop(monkeypatch, cutoff, digits):
    # blocks of 8: the cutoffs are block - 1, block, block + 1 and 2 block + 1;
    # the unit and a composition longer than the cutoff give 2^B and 0
    monkeypatch.setattr(numerics, "_BLOCK", 8)
    comps = _KERNEL_CASES + [(), (2,) + (1,) * 9]
    assert numerics._suffix_pass(comps, cutoff, digits) == suffix_pass_reference(comps, cutoff, digits)
    assert numerics._suffix_pass([()], cutoff, digits) == suffix_pass_reference([()], cutoff, digits)


def test_block_kernel_matches_the_per_n_loop_across_full_blocks():
    # every composition of weight <= 7 shares one pass two blocks long, where
    # the quotients drop limbs
    comps = [c for w in range(2, 8) for c in admissible_compositions(w)]
    cutoff = 2 * numerics._BLOCK + 1
    assert numerics._suffix_pass(comps, cutoff, 30) == suffix_pass_reference(comps, cutoff, 30)


@given(
    st.lists(st.sampled_from(_KERNEL_CASES + [()]), min_size=1, max_size=5),
    st.integers(1, 120),
    st.integers(1, 40),
    st.integers(1, 60),
)
def test_block_kernel_matches_the_per_n_loop_at_any_block(comps, cutoff, block, digits):
    with mock.patch.object(numerics, "_BLOCK", block):
        got = numerics._suffix_pass(comps, cutoff, digits)
    assert got == suffix_pass_reference(comps, cutoff, digits)


def _one_block(comps, acc, lo, m, b):
    """acc after the steps n = lo .. lo + m - 1 of _descend in b-bit limbs, and of a per-n loop."""
    nodes = sorted({c[i:] for c in comps for i in range(len(c))})
    kids, last, want = {}, dict(acc), dict(acc)
    for s in nodes:
        kids.setdefault(s[1:], []).append(s)
    unit = numerics._limbs(acc[()], b, numerics._rows(acc[()], b))[:, None]
    n = np.arange(lo, lo + m, dtype=np.int64)
    numerics._descend((), np.repeat(unit, m, axis=1), acc[()], n, kids, last, b)
    for v in range(lo, lo + m):
        old = dict(want)
        for s in nodes:
            want[s] += old[s[1:]] // v ** s[0]
    return last, want


def test_one_block_with_limbs_narrower_than_n():
    # cutoff 3 * 10^9 gives 31-bit limbs and n >= 2^31, so dividing 2^B by n
    # drops two limbs when B + 1 = 1 mod 31, and the top one is the first remainder
    for bits in (62, 93, 124, 248):
        acc = {(): 1 << bits, (2,): 0, (1,): 0, (2, 1): 5, (3, 1): 7}
        last, want = _one_block([(2,), (2, 1), (3, 1)], acc, 3 * 10**9 - 40, 40, 31)
        assert last == want and want[(1,)] > 0, bits


@given(st.data())
def test_one_block_matches_the_per_n_loop_at_any_limb_width(data):
    # a cutoff of bit length L gives limbs of b = 63 - L bits; from L = 32 on
    # an n can reach 2^b, and a quotient's dropped top limbs span more than one
    L = data.draw(st.integers(1, 62), "bit length of the cutoff")
    m = data.draw(st.integers(1, min(20, 2**L - 1)), "block length")
    lo = data.draw(st.integers(max(1, 2 ** (L - 1) - m), 2**L - m), "first n")
    comps = data.draw(st.lists(st.sampled_from(_KERNEL_CASES), min_size=1, max_size=4))
    bits = data.draw(st.integers(0, 300), "B")
    nodes = {c[i:] for c in comps for i in range(len(c))}
    acc = {s: data.draw(st.integers(0, 2 ** (bits + 40))) for s in sorted(nodes)} | {(): 1 << bits}
    last, want = _one_block(comps, acc, lo, m, 63 - L)
    assert last == want


def _reference_sum(c, cutoff, digits):
    """Each composition with its own streaming loop, no suffix shared, correctly rounded.

    The loop runs with guard digits.  Each operation errs by at most a unit
    in the last guard digit, relative, so the loop is off by less than
    len(c) * cutoff * (max(c) + 2) such units; a sum within that of a
    half-way point between two values at digits digits is settled exactly.
    """
    with localcontext() as ctx:
        ctx.prec = digits + numerics._GUARD_DIGITS
        one = Decimal(10 ** (ctx.prec - 1)).scaleb(1 - ctx.prec)  # 1 with prec digits, kept when exact
        acc = [Decimal(0)] * len(c) + [one]
        for n in range(1, cutoff + 1):
            inv = one / n
            for i in range(len(c)):
                acc[i] += inv ** c[i] * acc[i + 1]
        err = acc[0] * len(c) * cutoff * (max(c, default=0) + 2) * Decimal(10) ** (1 - ctx.prec)
        lo, hi = acc[0] - err, acc[0] + err
    ctx = Context(prec=digits)
    if ctx.plus(lo) == ctx.plus(hi):
        return ctx.plus(acc[0])
    exact = _exact_sums([c], cutoff)[c]
    return ctx.divide(exact.numerator, exact.denominator)


_UP_TO_8 = [()] + [c for w in range(2, 9) for c in admissible_compositions(w)]


@given(
    st.lists(st.sampled_from(_UP_TO_8), max_size=12),
    st.lists(st.sampled_from(_UP_TO_8), max_size=4),
    st.integers(1, 300),
    st.integers(5, 40),
)
# exact half-way ties, which a floored sum would round down
@example([], [(2, 1, 1, 1)], 9, 9)  # 559/5120 = 0.1091796875
@example([(4, 1, 1, 2)], [], 5, 6)  # 0.001284375
@example([(5, 1, 1, 1)], [], 5, 7)  # 0.00029609375
@example([], [(2, 3)], 3, 5)  # an exact quotient, 3/8, still prints digits digits: 0.37500
def test_shared_pass_matches_per_composition_loop(comps, cached, cutoff, digits):
    # comps may repeat and hold the unit; the cached ones are evaluated once beforehand
    with mock.patch.dict(numerics._mzv_cache, clear=True):
        for c in cached:
            mzv_eval(c, cutoff, digits)
        got = [mzv_eval(c, cutoff, digits) for c in comps + cached]
    for c, r in zip(comps + cached, got):
        if len(c) > cutoff:
            assert str(r.value) == "0", c
        else:
            assert str(r.value) == str(_reference_sum(c, cutoff, digits)), c
        assert r.tail_bound == mzv_tail_bound(c, cutoff)


def _count_passes(monkeypatch) -> list:
    """Record each suffix pass, starting from an empty cache."""
    calls = []
    real = numerics._suffix_pass

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numerics, "_suffix_pass", spy)
    monkeypatch.setattr(numerics, "_mzv_cache", {})
    return calls


def test_verify_makes_one_pass_over_the_support_union(monkeypatch):
    calls = _count_passes(monkeypatch)
    rels = [r for w in range(2, 8) for r in generate(w)]
    union = {composition_of(w) for r in rels for w, _ in r.element.items()}
    reports = verify(rels, cutoff=200)
    assert len(reports) == len(rels)
    assert len(calls) == 1 and set(calls[0][0]) == union
    assert numerics._mzv_cache == {}  # verify reads the pass's integers, not the rounded values


def test_verify_reports_the_value_of_zeta_of_poly():
    rels = [r for w in range(2, 7) for r in generate(w)]
    reports = verify(rels, cutoff=500)
    for rel, rep in zip(rels, reports):
        z = zeta_of_poly(rel.element, 500)
        ((x, bound, scale),) = numerics._combination([rel.element], 500, numerics.DEFAULT_DIGITS)
        assert rep.residual == pytest.approx(abs(float(z.value)), rel=1e-15)
        assert rep.threshold <= z.tail_bound
        assert rep.passed == (abs(x) <= bound)
        # correctly rounded quotients keep the integer test's order
        assert rep.residual == abs(x) / scale and rep.threshold == bound / scale


@pytest.mark.parametrize("digits", [1, 30])
def test_combination_bound_counts_each_shortfall_and_tail(digits):
    # R_i / 2^B is far below every tail, so only the exact integers show a dropped rounding term
    polys = [
        Poly({"xy": 1}),
        Poly({"xxyy": 1}),
        Poly({"xxy": 1, "xyy": -1}),
        Poly({"xxyy": Fraction(3, 4), "xyxy": -2}),
    ]
    for cutoff in range(1, 41):
        for p in polys:
            ((x, bound, scale),) = numerics._combination([p], cutoff, digits)
            terms = [(composition_of(w), q) for w, q in p.items()]
            bits, sums = numerics._suffix_pass([c for c, _ in terms], cutoff, digits)
            den = math.lcm(*(q.denominator for _, q in terms))
            a = [(c, int(q * den)) for c, q in terms]
            assert scale == den << bits
            assert x == sum(ai * sums[c] for c, ai in a)
            err = {
                c: numerics._rounding_term(len(c), cutoff) + math.ceil(numerics._tail(c, cutoff) * 2**bits)
                for c, _ in a
            }
            assert bound == sum(abs(ai) * err[c] for c, ai in a)


@pytest.mark.parametrize("digits", [3, 5, 8, 12])
def test_true_relations_pass_at_any_precision(digits):
    # the threshold covers the rounding of the values, not only the truncation tails
    reports = verify([r for w in range(2, 7) for r in generate(w)], cutoff=10**5, digits=digits)
    assert [rep for rep in reports if not rep.passed] == []


def test_inadmissible_support_raises_before_any_evaluation(monkeypatch):
    calls = _count_passes(monkeypatch)
    p = Poly({"xxy": 1, "xyx": 1})
    with pytest.raises(DomainError):
        zeta_of_poly(p, 200)
    bad = Relation(p, 3, "duality", ())
    with pytest.raises(DomainError):
        verify(generate(3) + [bad], cutoff=200)
    with pytest.raises(DomainError):
        verify(generate(3), 100, digits=0)
    assert calls == [] and numerics._mzv_cache == {}


# --- coupled series ----------------------------------------------------------


def test_t_series_preconditions():
    with pytest.raises(DomainError):
        t_series_eval((1, 1))
    with pytest.raises(DomainError):
        t_series_eval(())
    with pytest.raises(DomainError):
        s_series_eval((1,), 0)
    # converges thanks to the last exponent
    s_series_eval((1,), 1, 500)
    # a cutoff below 1 is an error, not an empty sum with a tiny tail
    with pytest.raises(DomainError):
        t_series_eval((2,), -4)
    with pytest.raises(DomainError):
        t_series_eval((2,), 0)
    with pytest.raises(DomainError):
        s_series_eval((2,), 1, 0)
    # a part, last exponent or cutoff that is not an integer is an error, not a value
    for series, args in (
        (t_series_eval, ((2,), 10.5)),
        (t_series_eval, ((2.5,), 100)),
        (s_series_eval, ((2,), 0.5, 100)),
        (s_series_eval, ((2,), True, 100)),
    ):
        with pytest.raises(DomainError):
            series(*args)


def test_matched_cutoff_tail_identity():
    # dropping the innermost index to zero splits off a plain zeta term,
    # exactly at any matched cutoff
    for c in ((2,), (2, 1), (3,), (1, 2)):
        n = 2000
        t = t_series_eval(c, n)
        s = s_series_eval(c, 0, n)
        z = mzv_eval((c[0] + 1,) + c[1:], n)
        assert abs(float(s.value) - (float(t.value) - float(z.value))) < 1e-12


def test_first_exponent_shift_identity():
    # lowering the first exponent while raising the last, minus a zeta term,
    # is a term-by-term rearrangement: near-exact at matched cutoff
    for c, klast in (((2, 1), 1), ((3,), 0), ((2,), 2), ((2, 1), 0)):
        n = 2000
        s1 = s_series_eval(c, klast, n)
        s2 = s_series_eval((c[0] - 1,) + c[1:], klast + 1, n)
        z = mzv_eval(c + (klast + 1,), n)
        assert abs(float(s1.value) - (float(s2.value) - float(z.value))) < 1e-12


def test_unit_first_exponent_identity():
    # first exponent 1 re-indexes into a shorter coupled series
    n = 4000
    s = s_series_eval((1, 2), 1, n)
    t = t_series_eval((2, 2), n)
    tol = 10 * (s.tail_bound + t.tail_bound)
    assert abs(float(s.value) - float(t.value)) <= tol


def test_rotation_difference_identity():
    n = 4000
    c = (2, 1)
    t1 = t_series_eval(c, n)
    t2 = t_series_eval((1, 2), n)
    z_head = mzv_eval((3, 1), n)
    z_tail = mzv_eval((2, 1, 1), n)
    lhs = float(t1.value) - float(t2.value)
    rhs = float(z_head.value) - float(z_tail.value)
    tol = 10 * (t1.tail_bound + t2.tail_bound + z_head.tail_bound + z_tail.tail_bound)
    assert abs(lhs - rhs) <= tol


@pytest.mark.parametrize("n", [1, 2, 3, 50, 51, 127, 128, 129, 257, 1001, 1023, 1024, 1025])
def test_one_pass_refinement_matches_separate_runs(n):
    # the value at n // 2 taken on the way to n is what a run at n // 2 gives
    runs = [(t_series_eval, c, (), np.ones) for c in ((2,), (2, 1), (1, 2))]
    runs += [
        (s_series_eval, c, (k,), lambda m, k=k: numerics._inv_powers(m - 1, k))
        for c, k in (((2,), 0), ((2, 1), 1), ((1, 2), 1))
    ]
    for series, c, args, weights in runs:
        r = series(c, *args, n)
        v = float(numerics._chain_sum(c, weights(n), n).value)
        v_half = float(numerics._chain_sum(c, weights(n // 2), n // 2).value)
        if n == 1:
            assert v_half == 0.0  # the half run is empty
        assert r.value == Decimal(repr(v)), (c, args)
        assert r.tail_bound == 2.0 * abs(v - v_half) + numerics._FLOAT_NOISE, (c, args)


def _exact_chain_sums(c, w, cutoff):
    """Sums at every cutoff 0..cutoff by the per-n recursion, in Fractions.

    levels[i][j] sums w[j] over the chains n_{i+2} > ... > n_l > j below the
    current n1; the last level is w itself, and each level is updated before
    the one it reads from.
    """
    levels = [[Fraction(0)] * cutoff for _ in c[1:]] + [w]
    sums = [Fraction(0)]
    for n in range(1, cutoff + 1):
        sums.append(sums[-1] + sum(levels[0][j] / (n - j) for j in range(n)) / n ** c[0])
        for i in range(len(c) - 1):
            step = Fraction(1, n ** c[i + 1])
            levels[i][:n] = [a + step * b for a, b in zip(levels[i][:n], levels[i + 1][:n])]
    return sums


@pytest.mark.parametrize(
    "c, k_last",
    [((2,), None), ((1, 2), None), ((3, 1, 1), None), ((2, 1, 1, 1), None)]
    + [((2,), 2), ((1, 2), 1), ((3, 1, 1), 0), ((2, 1, 1, 1), 1)]
    # distinct inner exponents, which fix the order of the chain
    + [((2, 1, 3), None), ((1, 3, 1, 2), 2)],
)
def test_chain_sum_matches_exact_recursion_across_blocks(c, k_last):
    # cutoffs around powers of two reach every level of the index tree
    cutoffs = (63, 64, 65, 97, 127, 128, 129, 255, 256)
    top = max(cutoffs)
    if k_last is None:  # T: innermost index j >= 0 with weight 1
        w = [Fraction(1)] * top
    else:  # S: j >= 1 with weight j^(-k_last)
        w = [Fraction(0)] + [Fraction(1, j**k_last) for j in range(1, top)]
    exact = _exact_chain_sums(c, w, top)
    for n in cutoffs:
        r = t_series_eval(c, n) if k_last is None else s_series_eval(c, k_last, n)
        assert abs(Fraction(r.value) - exact[n]) <= 1e-13 * exact[n], (c, k_last, n)


def test_coupled_series_memory_is_linear_in_the_cutoff():
    # one array of a few times the cutoff per depth; a batch of dense 64-wide
    # blocks would take about 5 MiB here
    t_series_eval((1, 3, 1, 2), 100)  # lazy imports and set-up stay outside the count
    tracemalloc.start()
    try:
        t_series_eval((1, 3, 1, 2), 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_series_refinement_tail_estimates():
    r1 = t_series_eval((2, 1), 2000)
    r2 = t_series_eval((2, 1), 4000)
    assert abs(float(r2.value) - float(r1.value)) <= 2 * r1.tail_bound


# --- verification ------------------------------------------------------------


def test_verify_all_families_small_weights():
    rels = [r for w in range(3, 5) for r in generate(w)]
    reports = verify(rels, cutoff=10**5)
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 7, 40])
@pytest.mark.parametrize("digits", [1, 12])
def test_true_relations_pass_at_tiny_cutoffs(cutoff, digits):
    # depths above N sum to exactly 0 and the tails are most of each value, at one digit as well
    reports = verify([r for w in range(2, 7) for r in generate(w)], cutoff=cutoff, digits=digits)
    assert [rep for rep in reports if not rep.passed] == []


@pytest.mark.parametrize("digits", [1, 2])
def test_corrupted_relation_fails_at_any_precision(digits):
    # the integer test has no rounding term in 10^-digits, so one digit refutes it too (30: below)
    bad = Relation(Poly({"xxy": 2, "xyy": -1}), 3, "duality", (("source", "xxy"),))
    (report,) = verify([bad], cutoff=10**4, digits=digits)
    assert not report.passed and report.residual > report.threshold


@pytest.mark.parametrize("cutoff", [10, 4096, 10**4])
def test_tail_bound_is_the_least_float_above_the_rational_tail(cutoff):
    for c in ((2, 1), (3, 1, 2), (100,)):
        exact = numerics._tail(c, cutoff)
        bound = mzv_tail_bound(c, cutoff)
        assert bound >= exact and math.nextafter(bound, 0.0) < exact, c
        # with 1 + ln N at 60 digits the formula is at most the rational tail, and close to it
        with mpmath.workdps(60):
            log_n, a, l = 1 + mpmath.log(cutoff), c[0] - 1, len(c)
            tail = sum(log_n**j / (mpmath.factorial(j) * a ** (l - j)) for j in range(l)) / mpmath.mpf(cutoff) ** a
            ratio = mpmath.mpf(exact.numerator) / exact.denominator / tail
            assert 1 - mpmath.mpf(10) ** -50 <= ratio <= 1.001, c


def test_verify_corrupted_relation_fails():
    bad = Relation(Poly({"xxy": 2, "xyy": -1}), 3, "duality", (("source", "xxy"),))
    (report,) = verify([bad], cutoff=10**5)
    assert not report.passed
    assert report.residual > report.threshold


def test_negative_control_derivation_needs_admissible_input():
    # the derivation identity fails on the bare letter y: one side is the
    # depth-one zeta value at 2, the other is zero
    D = derivation_D()
    Dbar = conjugate(D)
    lhs = zeta_of_poly(D.apply("y"), N_SMALL)
    rhs = zeta_of_poly(Dbar.apply("y"), N_SMALL)
    assert Dbar.apply("y") == Poly()
    assert abs(float(lhs.value - rhs.value)) > 10 * (lhs.tail_bound + rhs.tail_bound)
    assert float(lhs.value) > 1.6


def test_verify_report_shape():
    rels = generate(3, ["duality"])
    (rep,) = verify(rels, cutoff=1000)
    obj = asdict(rep)
    assert set(obj) == {"relation", "residual", "threshold", "passed"}
    assert rep.threshold >= 0
