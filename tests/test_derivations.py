import pytest

from mzvkit.derivations import (
    Derivation,
    conjugate,
    cyclic_C,
    cyclic_C_bar,
    cyclic_C_pair,
    derivation_D,
    derivation_Dn,
    ihara_kaneko,
)
from mzvkit.products import harmonic, shuffle
from mzvkit.words import DomainError, Poly, all_words, word_of
from oracles import cyclic_C_bar_zform, cyclic_C_zform, length_part


def h1_words(n):
    return [w for w in all_words(n) if w.endswith("y")] + ([""] if n == 0 else [])


def test_basic_derivation_on_generators():
    D = derivation_D()
    for i in range(1, 6):
        assert D.apply(word_of((i,))) == Poly.word(word_of((i + 1,)))
    # bump each index in turn
    assert D.apply(word_of((1, 2))) == Poly.word(word_of((2, 2))) + Poly.word(word_of((1, 3)))
    assert D.apply("") == Poly()
    assert D.apply("xxx") == Poly()


def test_derivation_Dn():
    assert derivation_Dn(1) == derivation_D()
    assert derivation_Dn(2).image_of_y == Poly.word("xxy")
    assert derivation_Dn(3).apply("xxxx") == Poly()
    with pytest.raises(DomainError):
        derivation_Dn(0)


def test_leibniz_rule():
    ds = [derivation_D(), derivation_Dn(2), ihara_kaneko(1), ihara_kaneko(2)]
    for d in ds:
        for wu in range(0, 8):
            for wv in range(0, 8 - wu):
                for u in all_words(wu):
                    for v in all_words(wv):
                        left = d.apply(u + v)
                        right = d.apply(u) * Poly.word(v) + Poly.word(u) * d.apply(v)
                        assert left == right


def test_ihara_kaneko_image_is_x_binomial_power_y():
    x, y = Poly.word("x"), Poly.word("y")
    power = Poly.word("")  # (x+y)^(n-1), one factor per n
    for n in range(1, 8):
        d = ihara_kaneko(n)
        assert d.image_of_x == x * power * y, n
        assert d.image_of_y == -d.image_of_x, n
        power = power * (x + y)


def test_derivation_hash_agrees_with_equality_without_hashing_images(monkeypatch):
    def no_hash(p):
        raise AssertionError("a Poly was hashed")

    monkeypatch.setattr(Poly, "__hash__", no_hash)
    D = derivation_D()
    assert isinstance(hash(ihara_kaneko(5)), int)
    img, x, y = ihara_kaneko(5).image_of_x, Poly.word("x"), Poly.word("y")
    assert ihara_kaneko(5).apply("xxy") == img * x * y + x * img * y - x * x * img
    assert hash(derivation_Dn(1)) == hash(D)
    assert conjugate(conjugate(D)) == D and hash(conjugate(conjugate(D))) == hash(D)


def test_conjugate():
    D = derivation_D()
    assert conjugate(D).image_of_x == Poly.word("xy")
    assert conjugate(D).image_of_y == Poly()
    assert conjugate(conjugate(D)) == D
    for n in range(1, 5):
        pn = ihara_kaneko(n)
        assert conjugate(pn) == Derivation(-pn.image_of_x, -pn.image_of_y)


def test_ihara_kaneko_images():
    assert ihara_kaneko(1).image_of_x == Poly.word("xy")
    d1 = ihara_kaneko(1)
    D = derivation_D()
    Dbar = conjugate(D)
    assert d1.image_of_x == Dbar.image_of_x - D.image_of_x
    assert d1.image_of_y == Dbar.image_of_y - D.image_of_y
    assert ihara_kaneko(2).image_of_x == Poly({"xxy": 1, "xyy": 1})
    z = Poly.word("x") + Poly.word("y")
    for n in range(1, 6):
        assert ihara_kaneko(n).apply(z) == Poly()
        assert len(ihara_kaneko(n).apply(z)) == 0  # cancelled terms are not stored
    with pytest.raises(DomainError):
        ihara_kaneko(0)


def test_cyclic_canonical_examples():
    for i in range(1, 6):
        assert cyclic_C(word_of((i,))) == Poly.word(word_of((i + 1,)))
    assert cyclic_C(word_of((3, 3))) == Poly({word_of((4, 3)): 2})
    assert cyclic_C("xxx") == Poly()
    assert cyclic_C("") == Poly()


def test_cyclic_pair_examples():
    assert cyclic_C_pair("y", "xy") == Poly.word("xxyy")
    assert cyclic_C_pair("x", "xy") == Poly()
    assert cyclic_C_pair("yy", "") == Poly({"xyy": 2})  # equal rotations accumulate
    for w, f in (("xz", ""), ("y", "z")):
        with pytest.raises(DomainError):
            cyclic_C_pair(w, f)
    for i in range(1, 5):
        zi = word_of((i,))
        for f in ("", "x", "xy", "yx"):
            assert cyclic_C_pair(zi, f) == Poly.word("x" + f + zi)
    # pairing at the unit recovers the canonical element
    for n in range(0, 7):
        for w in all_words(n):
            assert cyclic_C_pair(w, "") == cyclic_C(w)


def test_cyclic_derivation_law():
    # (C(f1 f2), f) = (C(f1), f2 f) + (C(f2), f f1)
    for a in range(0, 7):
        for b in range(0, 7 - a):
            for c in range(0, 7 - a - b):
                for f1 in all_words(a):
                    for f2 in all_words(b):
                        for f in all_words(c):
                            left = cyclic_C_pair(f1 + f2, f)
                            right = cyclic_C_pair(f1, f2 + f) + cyclic_C_pair(f2, f + f1)
                            assert left == right


def test_cyclic_trace_property():
    for a in range(0, 9):
        for b in range(0, 9 - a):
            for f in all_words(a):
                for g in all_words(b):
                    assert cyclic_C(f + g) == cyclic_C(g + f)


def test_cyclic_zform_agreement():
    for n in range(0, 9):
        for w in h1_words(n):
            assert cyclic_C_zform(w) == cyclic_C(w)
            assert cyclic_C_bar_zform(w) == cyclic_C_bar(w)
    for zform in (cyclic_C_zform, cyclic_C_bar_zform):
        with pytest.raises(DomainError):
            zform("xzy")


def test_cyclic_bar_examples():
    assert cyclic_C_bar("yyy") == Poly()
    assert cyclic_C_bar("y") == Poly()
    got = cyclic_C_bar(word_of((3, 3)))
    assert got == Poly({word_of((3, 3, 1)): 2, word_of((2, 3, 2)): 2})


def test_cyclic_bar_is_tau_conjugate():
    for n in range(0, 9):
        for w in all_words(n):
            assert cyclic_C_bar(w) == cyclic_C(Poly.word(w).tau()).tau()


def test_cyclic_on_graded_binomial_powers():
    # C((x+ty)^(n-1)) = (n-1) t x (x+ty)^(n-2) y, and the conjugate analog
    # without the extra t; grading tracks the y-count of the source.
    # The coefficient of t^d is the part with d letters y (length_part).
    x, y = Poly.word("x"), Poly.word("y")
    for n in range(2, 8):
        mu = Poly(dict.fromkeys(all_words(n - 1), 1))  # (x+y)^(n-1): every word of length n-1
        inner = Poly(dict.fromkeys(all_words(n - 2), 1))
        for d in range(n):
            expected_c = (x * length_part(inner, d - 1) * y).scale(n - 1)
            assert cyclic_C(length_part(mu, d)) == expected_c, (n, d)
            expected_cbar = (x * length_part(inner, d) * y).scale(n - 1)
            assert cyclic_C_bar(length_part(mu, d)) == expected_cbar, (n, d)


def test_y_products_difference_is_derivation_gap():
    # y sh w - y * w equals the conjugate-minus-plain derivation image
    D = derivation_D()
    Dbar = conjugate(D)
    y = Poly.word("y")
    for n in range(0, 8):
        for w in all_words(n):
            p = Poly.word(w)
            assert shuffle(y, p) - harmonic(y, p) == Dbar.apply(p) - D.apply(p)
