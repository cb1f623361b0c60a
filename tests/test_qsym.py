import pytest

from mzvkit.derivations import derivation_Dn, ihara_kaneko
from mzvkit.products import harmonic
from mzvkit.qsym import (
    TruncatedSeries,
    act,
    complete_h,
    coproduct,
    elementary_e,
    exp_partial_t,
    phi_bar_sigma,
    power_p,
    sigma_t,
    sigma_t_exp,
    sigma_t_inverse,
)
from mzvkit.words import DomainError, Poly, all_words, composition_of, compositions, word_of
from oracles import exp_reference, length_part


def h1_words(n):
    if n == 0:
        return [""]
    return [w for w in all_words(n) if w.endswith("y")]


def test_coproduct_examples():
    z2 = word_of((2,))
    d = coproduct(z2)
    assert d == {("", z2): 1, (z2, ""): 1}
    assert coproduct("") == {("", ""): 1}
    z1z2 = word_of((1, 2))
    assert coproduct(z1z2) == {("", z1z2): 1, ("y", "xy"): 1, (z1z2, ""): 1}
    d = coproduct(Poly({"y": 2, "xy": -1}))  # each pair keeps its word's coefficient
    assert d == {("", "y"): 2, ("y", ""): 2, ("", "xy"): -1, ("xy", ""): -1}
    for bad in ("yx", "xzy"):
        with pytest.raises(DomainError):
            coproduct(bad)
    with pytest.raises(DomainError, match="word does not end in y: 'yx'"):
        coproduct("yx")


def test_coproduct_coassociative():
    def triple_left(w):
        out = {}
        for (u, v), c in coproduct(w).items():
            for (a, b), c2 in coproduct(u).items():
                key = (a, b, v)
                out[key] = out.get(key, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    def triple_right(w):
        out = {}
        for (u, v), c in coproduct(w).items():
            for (a, b), c2 in coproduct(v).items():
                key = (u, a, b)
                out[key] = out.get(key, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    for n in range(0, 9):
        for w in h1_words(n):
            assert triple_left(w) == triple_right(w)


def test_act_base_cases():
    assert act(Poly.word(""), "xyx") == Poly.word("xyx")
    for k in range(1, 5):
        assert act(word_of((k,)), "y") == Poly.word("x" * k + "y")
        assert act(word_of((k,)), "x") == Poly()
    assert act(word_of((1, 1)), "y") == Poly()
    with pytest.raises(DomainError, match="word does not end in y: 'yx'"):
        act("yx", "xy")
    for u in ["x", Poly({"x": 1, "y": 1})]:  # u is checked even when there is nothing to act on
        with pytest.raises(DomainError):
            act(u, Poly())
    with pytest.raises(DomainError, match="word does not end in y: 'yx'"):
        act(Poly({"xy": 1, "yx": 1}), Poly())


def test_act_obeys_its_defining_law():
    # u . (w1 w2) = sum over coproduct(u) of (u' . w1)(u'' . w2): checks the recursion's
    # shortcut, which computes only the splits u' = 1 and u' = the first z-letter of u
    cases = 0
    for a in range(5):
        for u in h1_words(a):
            for n in range(4):
                for w in all_words(n):
                    for i in range(n + 1):
                        w1, w2 = w[:i], w[i:]
                        expected = Poly()
                        for (u1, u2), c in coproduct(u).items():
                            expected = expected + (act(u1, w1) * act(u2, w2)).scale(c)
                        assert act(u, w) == expected, (u, w1, w2)
                        cases += 1
    assert cases == 784


def test_act_by_single_generator_is_derivation():
    for n in range(1, 6):
        dn = derivation_Dn(n)
        for wlen in range(0, 7):
            for w in all_words(wlen):
                assert act(word_of((n,)), w) == dn.apply(w)


def test_act_is_length_filtered_harmonic():
    for a in range(1, 9):
        for b in range(0, 9 - a):
            for u in h1_words(a):
                for w in all_words(b):
                    expected = length_part(harmonic(u, w), w.count("y"))
                    assert act(u, w) == expected


def test_act_module_property():
    for a in range(1, 7):
        for b in range(1, 7 - a):
            for c in range(0, 8 - a - b):
                for u in h1_words(a):
                    for v in h1_words(b):
                        for w in all_words(c):
                            left = act(harmonic(u, v), w)
                            right = act(u, act(v, w))
                            assert left == right


def test_act_on_x_prefix_cyclic():
    from mzvkit.derivations import cyclic_C

    for n in range(1, 7):
        for m in range(1, 7):
            assert cyclic_C("x" * n + "y" * m) == act(word_of((n,)), "x" + "y" * m)


def test_symmetric_elements():
    assert power_p(1) == elementary_e(1) == complete_h(1) == Poly.word("y")
    assert complete_h(2) == Poly({"xy": 1, "yy": 1})
    assert elementary_e(3) == Poly.word("yyy")
    assert power_p(3) == Poly.word("xxy")
    assert complete_h(0) == elementary_e(0) == Poly.word("")
    for n in range(1, 8):
        assert len(complete_h(n)) == 2 ** (n - 1)
        assert complete_h(n) == Poly({word_of(c): 1 for c in compositions(n)})
    with pytest.raises(DomainError):
        power_p(0)
    with pytest.raises(DomainError):
        complete_h(-1)


def test_h2_action_matches_filtered_product():
    h2 = complete_h(2)
    w = "xy"
    assert act(h2, w) == length_part(harmonic(h2, w), 1)


def weak_compositions(total, slots):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in weak_compositions(total - head, slots - 1):
            yield (head,) + rest


def test_complete_action_distributes_over_exponents():
    # acting by the complete element of weight n raises the exponents of a
    # z-word by every weak composition of n, each exactly once
    for n in range(0, 5):
        hn = complete_h(n)
        for wlen in range(1, 6):
            for w in h1_words(wlen):
                c = composition_of(w)
                expected = Poly()
                for bump in weak_compositions(n, len(c)):
                    expected = expected + Poly.word(
                        word_of(tuple(k + e for k, e in zip(c, bump)))
                    )
                assert act(hn, w) == expected


def test_sigma_t_basics():
    s = sigma_t("x", 5)
    assert s == TruncatedSeries({0: Poly.word("x")}, 5)
    s = sigma_t("y", 5)
    for k in range(6):
        assert s.coeff(k) == Poly.word("x" * k + "y")
    for w in ("", "x", "xy", "xxyy"):
        assert sigma_t(w, 4).coeff(0) == Poly.word(w)


def test_sigma_t_exponential_form_agrees():
    for w in ("x", "y"):
        assert sigma_t(w, 6) == sigma_t_exp(w, 6)
    for n in range(0, 6):
        for w in all_words(n):
            assert sigma_t(w, 6) == sigma_t_exp(w, 6)


def test_sigma_inverse_inverts():
    # applying the alternating-e series after sigma recovers the word
    for n in range(0, 5):
        for w in all_words(n):
            s = sigma_t(w, 5)
            out = {}
            for i, p in s.items():
                for j, q in sigma_t_inverse(p, 5).items():
                    if i + j <= 5:
                        out[i + j] = out.get(i + j, Poly()) + q
            recovered = TruncatedSeries(out, 5)
            assert recovered == TruncatedSeries({0: Poly.word(w)}, 5)


def test_exp_partial_fixes_x_plus_y():
    z = Poly.word("x") + Poly.word("y")
    for order in range(0, 7):
        assert exp_partial_t(z, order) == TruncatedSeries({0: z}, order)


def test_exp_partial_on_x_is_geometric():
    e = exp_partial_t("x", 6)
    for k in range(7):
        assert e.coeff(k) == Poly.word("x" + "y" * k)


def test_phi_properties():
    ph = phi_bar_sigma("x", 6)
    for k in range(7):
        assert ph.coeff(k) == Poly.word("x" + "y" * k)
    z = Poly.word("x") + Poly.word("y")
    assert phi_bar_sigma(z, 6) == TruncatedSeries({0: z}, 6)
    phy = phi_bar_sigma("y", 6)
    assert phy.coeff(0) == Poly.word("y")
    for k in range(1, 7):
        assert phy.coeff(k) == Poly({"x" + "y" * k: -1})


def test_exp_partial_equals_phi():
    for w in ("x", "y"):
        assert exp_partial_t(w, 6) == phi_bar_sigma(w, 6)
    for n in range(0, 6):
        for w in all_words(n):
            assert exp_partial_t(w, 6) == phi_bar_sigma(w, 6)


def test_graded_derivations_commute():
    # the premise of the integer recursion behind exp_partial_t and sigma_t_exp
    for family in (derivation_Dn, ihara_kaneko):
        d = {n: family(n) for n in range(1, 6)}
        for k in range(0, 7):
            for w in all_words(k):
                image = {n: d[n].apply(w) for n in d}
                for n in range(1, 6):
                    for m in range(n + 1, 6):
                        assert d[n].apply(image[m]) == d[m].apply(image[n])


def test_exp_series_match_literal_exponential():
    for n in range(0, 4):
        for w in all_words(n):
            assert exp_partial_t(w, 5) == exp_reference(ihara_kaneko, w, 5)
            assert sigma_t_exp(w, 5) == exp_reference(derivation_Dn, w, 5)


def test_exp_partial_is_automorphism():
    for a in range(0, 6):
        for b in range(0, 6 - a):
            for u in all_words(a):
                for v in all_words(b):
                    eu, ev = exp_partial_t(u, 5), exp_partial_t(v, 5)
                    product = {
                        k: sum((eu.coeff(i) * ev.coeff(k - i) for i in range(k + 1)), Poly())
                        for k in range(6)
                    }
                    assert exp_partial_t(u + v, 5) == TruncatedSeries(product, 5)


def test_truncated_series_compares_and_prints():
    assert (TruncatedSeries({0: Poly.word("x")}, 2) == 1) is False
    series = TruncatedSeries({0: Poly.word("x"), 1: Poly.word("y")}, 2)
    assert repr(series) == "TruncatedSeries(order=2, t^0: x; t^1: y)"
    assert repr(TruncatedSeries({}, 2)) == "TruncatedSeries(order=2, 0)"
    # coefficients past the order are dropped, and only series of one order compare equal
    x = Poly.word("x")
    assert TruncatedSeries({0: x, 3: Poly.word("y")}, 2) == TruncatedSeries({0: x}, 2)
    assert TruncatedSeries({}, 2) != TruncatedSeries({}, 3)
    with pytest.raises(DomainError):
        TruncatedSeries({0: Poly.word("")}, -1)
