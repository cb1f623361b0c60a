"""Coefficients stay canonical: an int when integral, else a Fraction with denominator > 1.

Every operation below runs on Polys with mixed int and Fraction coefficients
and is compared with an all-Fraction reference computed here on plain dicts.
The references reuse the library only for word-level images (a product of two
words, a derivation of one word), which have integer coefficients; all the
rational arithmetic of the linear extensions is redone in Fractions.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from mzvkit.derivations import ihara_kaneko
from mzvkit.products import harmonic, shuffle
from mzvkit.qsym import coproduct, exp_partial_t
from mzvkit.words import Poly, format_poly, linear, poly_to_obj

# small values over denominators 1..4, so sums often cancel or become integral;
# Fraction(4, 2) is an integral value given as a Fraction
coeffs_st = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)
terms_st = st.dictionaries(st.text(alphabet="xy", max_size=3), coeffs_st, max_size=4)
HALF = Fraction(1, 2)


def _ref(terms: dict) -> dict:
    """All-Fraction reference form of a term dict, zeros dropped."""
    return {w: Fraction(c) for w, c in terms.items() if c}


def _ref_poly(p: Poly) -> dict:
    return _ref(dict(p.items()))


def _ref_add(a: dict, b: dict, k=Fraction(1)) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, Fraction(0)) + k * c
    return _ref(out)


def _ref_linear(word_fn, a: dict) -> dict:
    out: dict = {}
    for w, c in a.items():
        out = _ref_add(out, word_fn(w), c)
    return out


def _ref_bilinear(word_fn, a: dict, b: dict) -> dict:
    return _ref_linear(lambda u: _ref_linear(lambda v: word_fn(u, v), b), a)


def _ref_exp_partial(a: dict, order: int) -> dict:
    """exp of sum_n t^n partial_n / n on a constant series, by degree."""
    term = total = {0: a}
    for m in range(1, order + 1):
        nxt: dict = {}
        for k, q in term.items():
            for n in range(1, order - k + 1):
                img = _ref_linear(lambda w: _ref_poly(ihara_kaneko(n).apply(w)), q)
                nxt[k + n] = _ref_add(nxt.get(k + n, {}), img, Fraction(1, n * m))
        term = nxt
        total = {k: _ref_add(total.get(k, {}), term.get(k, {})) for k in range(order + 1)}
    return {k: q for k, q in total.items() if q}


def _word_map(w):
    # half-integer images that overlap between words, so sums turn integral
    return Poly.word(w[:-1], HALF) - Poly.word(w[1:], HALF) + Poly.word(w)


def _assert_canonical(p: Poly, expected: dict) -> None:
    for _, c in p.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
    assert dict(p.items()) == expected


@given(terms_st, terms_st, coeffs_st)
@example({"x": HALF}, {"x": HALF}, Fraction(4, 2))
@example({"x": HALF, "y": 1}, {"x": -HALF, "y": Fraction(2, 3)}, 2)
def test_ring_operations_keep_coefficients_canonical(a, b, k):
    p, q = Poly(a), Poly(b)
    ra, rb = _ref(a), _ref(b)
    _assert_canonical(p, ra)
    _assert_canonical(p + q, _ref_add(ra, rb))
    _assert_canonical(p - q, _ref_add(ra, rb, Fraction(-1)))
    _assert_canonical(p * q, _ref_bilinear(lambda u, v: {u + v: Fraction(1)}, ra, rb))
    _assert_canonical(p.scale(k), _ref({w: Fraction(k) * c for w, c in ra.items()}))
    _assert_canonical(linear(_word_map, p), _ref_linear(lambda w: _ref_poly(_word_map(w)), ra))


@given(terms_st, terms_st)
@example({"xy": HALF, "y": HALF}, {"y": 2, "x": Fraction(4, 2)})
def test_products_and_derivations_keep_coefficients_canonical(a, b):
    p, q = Poly(a), Poly(b)
    ra, rb = _ref(a), _ref(b)
    for op in (shuffle, harmonic):
        _assert_canonical(op(p, q), _ref_bilinear(lambda u, v: _ref_poly(op(u, v)), ra, rb))
    d = ihara_kaneko(2)
    _assert_canonical(d.apply(p), _ref_linear(lambda w: _ref_poly(d.apply(w)), ra))


@settings(deadline=None)
@given(terms_st)
@example({"xy": HALF, "y": Fraction(3, 2)})
def test_exp_partial_keeps_coefficients_canonical(a):
    series = exp_partial_t(Poly(a), 3)
    expected = _ref_exp_partial(_ref(a), 3)
    assert [k for k, _ in series.items()] == sorted(expected)
    for k, p in series.items():
        _assert_canonical(p, expected[k])


def test_integral_fraction_is_indistinguishable_from_int():
    as_fraction, as_int = Poly({"xy": Fraction(2), "y": Fraction(-6, 3)}), Poly({"xy": 2, "y": -2})
    assert as_fraction == as_int and hash(as_fraction) == hash(as_int)
    assert str(as_fraction) == str(as_int) == format_poly(as_int) == "-2 y + 2 xy"
    assert repr(as_fraction) == repr(as_int)
    assert json.dumps(poly_to_obj(as_fraction)) == json.dumps(poly_to_obj(as_int))
    assert [type(c) for _, c in as_fraction.items()] == [int, int]
    assert type(as_int.coeff("x")) is int and as_int.coeff("x") == 0
    t = coproduct(Poly({"yy": Fraction(4, 2)}))
    assert [type(c) for c in t.values()] == [int, int, int]
    assert t == {("", "yy"): 2, ("y", "y"): 2, ("yy", ""): 2}
