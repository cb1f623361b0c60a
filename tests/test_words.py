import pytest
from fractions import Fraction
from hypothesis import example, given, strategies as st

import mzvkit
from mzvkit.derivations import cyclic_C, derivation_D
from mzvkit.products import harmonic, shuffle
from mzvkit.qsym import act, phi_bar_sigma, sigma_t_exp
from mzvkit.words import (
    DomainError,
    Poly,
    admissible_words,
    all_words,
    bilinear,
    composition_of,
    compositions,
    dual_composition,
    format_poly,
    is_h0_word,
    is_h1_word,
    linear,
    parse_composition,
    parse_word,
    poly_to_obj,
    rotations,
    tau_word,
    word_of,
)
from oracles import admissible_compositions, compositions_by_recursion, dual_by_partial_sums

words_st = st.text(alphabet="xy", max_size=8)
polys_st = st.dictionaries(
    st.text(alphabet="xy", max_size=3),
    st.integers(min_value=-2, max_value=2),  # few values, so terms often cancel
    max_size=5,
).map(Poly)


def _term_by_term(word_fn, p):
    """Reference linear extension: one Poly.__add__ per term."""
    out = Poly()
    for w, c in p.items():
        out = out + word_fn(w).scale(c)
    return out


def _word_map(w):
    # images of different words share terms, e.g. xy -> x - y and yx -> y - x
    return Poly.word(w[:-1]) - Poly.word(w[1:])


def _commutator(u, v):
    return Poly.word(u + v) - Poly.word(v + u)


@given(polys_st)
@example(Poly({"xy": 1, "yx": 1}))
def test_linear_matches_term_by_term_sum(p):
    got = linear(_word_map, p)
    assert got == _term_by_term(_word_map, p)
    assert all(c for _, c in got.items())


@given(polys_st, polys_st)
@example(Poly({"x": 1, "y": 1}), Poly({"x": 1, "y": 1}))
def test_bilinear_matches_term_by_term_sum(u, v):
    got = bilinear(_commutator, u, v)
    expected = _term_by_term(lambda wu: _term_by_term(lambda wv: _commutator(wu, wv), v), u)
    assert got == expected
    assert all(c for _, c in got.items())
    assert bilinear(_commutator, u, u) == Poly()


# memoized word images, which linear hands out without copying
SHARED_IMAGES = {
    "shuffle": lambda: shuffle("xy", "xxy"),
    "harmonic": lambda: harmonic("xy", "xxy"),
    "Derivation.apply": lambda: derivation_D().apply("xxyy"),
    "act": lambda: act(Poly.word("xy"), "xxyy"),
}


@pytest.mark.parametrize("name", SHARED_IMAGES)
def test_shared_word_image_is_never_mutated(name):
    image = SHARED_IMAGES[name]
    p = image()
    before = dict(p.items())
    assert image() is p  # shared, not copied
    p + p, p - p, -p, p.scale(3), p.scale(Fraction(1, 2)), p * p
    Poly.word("x") * p, p * Poly.word("y")
    linear(lambda w: p, Poly({"x": 1, "y": -1}))
    bilinear(lambda u, v: p, Poly({"x": 1, "y": 2}), "x")
    phi_bar_sigma(p, 2)  # series accumulation (_series_sum)
    sigma_t_exp(p, 2)  # and the derivation images' accumulation
    assert dict(p.items()) == before
    assert image() is p


# each word map with valid word arguments; the maps of two arguments take a word in either place
WORD_MAPS = {
    "shuffle": (shuffle, ("xy", "yxy")),
    "harmonic": (harmonic, ("xy", "yxy")),
    "act": (act, ("xy", "yxy")),
    "Derivation.apply": (derivation_D().apply, ("xxyy",)),
    "cyclic_C": (cyclic_C, ("xyxyy",)),
}


@pytest.mark.parametrize("name", WORD_MAPS)
def test_word_maps_take_a_word_as_its_one_term_poly(name):
    fn, args = WORD_MAPS[name]
    expected = fn(*args)
    assert expected
    assert fn(*map(Poly.word, args)) == expected
    for i in range(len(args)):
        assert fn(*args[:i], Poly.word(args[i]), *args[i + 1 :]) == expected
        for bad in ("xyz", "1", 3, None, ["x"]):  # a non-word str, or neither a str nor a Poly
            with pytest.raises(DomainError):
                fn(*args[:i], bad, *args[i + 1 :])


def test_weight_length_examples():
    assert len("xxyxy") == 5
    assert "xxyxy".count("y") == 2
    assert len("") == 0 and "".count("y") == 0
    assert len("xyxyy") == 5 and "xyxyy".count("y") == 3
    assert "xxyxy".count("x") == 3


def test_tau_examples():
    assert tau_word("xxyxy") == "xyxyy"
    assert Poly.word("xxyxy").tau() == Poly.word("xyxyy")
    assert Poly({"xy": 2, "x": -1}).tau() == Poly({"xy": 2, "y": -1})
    assert tau_word("") == ""
    # dual class of {(2,3),(3,2)}: tau on words realizes it
    assert composition_of(tau_word(word_of((2, 3)))) == (2, 1, 2)
    assert composition_of(tau_word(word_of((3, 2)))) == (2, 2, 1)


@given(words_st)
def test_tau_involution(w):
    assert tau_word(tau_word(w)) == w


@given(words_st)
def test_tau_swaps_length_and_colength(w):
    assert len(tau_word(w)) == len(w)
    assert tau_word(w).count("y") == w.count("x")


@given(words_st, words_st)
def test_tau_antiautomorphism(u, v):
    assert tau_word(u + v) == tau_word(v) + tau_word(u)


def test_tau_exhaustive_small():
    for n in range(9):
        for w in all_words(n):
            assert tau_word(tau_word(w)) == w
            assert tau_word(w).count("y") == w.count("x")


def test_tau_antiautomorphism_exhaustive():
    for a in range(0, 9):
        for b in range(0, 9 - a):
            for u in all_words(a):
                for v in all_words(b):
                    assert tau_word(u + v) == tau_word(v) + tau_word(u)


def test_word_composition_roundtrip():
    assert word_of((2, 1)) == "xyy"
    assert word_of((3,)) == "xxy"
    assert word_of(()) == ""
    assert composition_of("") == ()
    assert composition_of("xyxyy") == (2, 2, 1)
    for n in range(8):
        for c in compositions(n):
            assert composition_of(word_of(c)) == c
    for bad in ("xyx", "xzy"):
        with pytest.raises(DomainError):
            composition_of(bad)
    with pytest.raises(DomainError):
        word_of((0, 2))


def test_dual_composition_examples():
    assert dual_composition((3,)) == (2, 1)
    assert dual_composition((2, 3)) == (2, 1, 2)
    with pytest.raises(DomainError):
        dual_composition(())
    with pytest.raises(DomainError):
        dual_composition((1, 2))


def test_dual_composition_involution_and_grading():
    for n in range(2, 11):
        for c in admissible_compositions(n):
            d = dual_composition(c)
            assert sum(d) == n
            assert len(d) == n - len(c)
            assert d[0] > 1
            assert dual_composition(d) == c


def test_dual_matches_tau_on_words():
    for n in range(2, 11):
        for c in admissible_compositions(n):
            d = dual_by_partial_sums(c)
            assert word_of(d) == tau_word(word_of(c))
            assert dual_composition(c) == d


def test_dual_of_juxtaposition_reverses():
    for n1 in range(2, 6):
        for n2 in range(2, 11 - n1):
            for c1 in admissible_compositions(n1):
                for c2 in admissible_compositions(n2):
                    assert dual_composition(c1 + c2) == dual_composition(c2) + dual_composition(c1)


def test_cyclic_class_count_invariant():
    # the distinct rotations of c number len(c) / m, with m the largest m such that c = u^m
    for n in range(1, 8):
        for c in compositions(n):
            members = set(rotations(c))
            assert len(c) % len(members) == 0
            assert all(sorted(m) == sorted(c) for m in members)


def test_membership_predicates():
    for n in range(9):
        for w in all_words(n):
            if is_h0_word(w):
                assert is_h1_word(w)
                assert is_h0_word(tau_word(w))


def test_admissible_words_basis():
    assert admissible_words(2) == ["xy"]
    assert admissible_words(4) == ["xxxy", "xxyy", "xyxy", "xyyy"]
    for n in range(2, 9):
        ws = admissible_words(n)
        assert len(ws) == 2 ** (n - 2)
        assert ws == sorted(ws)
    for n in range(11):
        assert admissible_words(n) == [w for w in all_words(n) if w and is_h0_word(w)]
    with pytest.raises(DomainError):
        admissible_words(-1)


def test_poly_arithmetic():
    x, y = Poly.word("x"), Poly.word("y")
    assert x * y == Poly.word("xy")
    assert Poly.word("xy") + Poly({"xy": -1}) == Poly()
    assert (x == "x") is False  # == and + take Polys only
    for other in (lambda: x + 1, lambda: x - 1):
        with pytest.raises(TypeError):
            other()
    assert x.scale(2) == Poly({"x": 2})
    assert Poly({"x": 2}).scale(Fraction(1, 2)) == x
    for scalar_product in (lambda: x * 2, lambda: 2 * x):  # scale is the one scalar product
        with pytest.raises(TypeError):
            scalar_product()
    assert Poly({"xy": 0}) == Poly()
    assert type(Poly({"xy": Fraction(4, 2)}).coeff("xy")) is int
    for coeff in (1, 0):  # a bad word is an error even with coefficient 0
        with pytest.raises(DomainError):
            Poly({"xz": coeff})
    with pytest.raises(DomainError):
        Poly.word("xz")
    with pytest.raises(TypeError):  # Poly.word is the unit-coefficient word only
        Poly.word("xy", 2)
    half = Poly({"xy": Fraction(1, 2)})
    assert type((half + half).coeff("xy")) is int
    assert (x + y) * (x + y) == Poly({"xx": 1, "xy": 1, "yx": 1, "yy": 1})
    with pytest.raises(TypeError):
        Poly.word("xy") ** 2
    assert Poly.word("") * x == x
    assert -(x - y) == y - x
    assert (x * y).tau() == y.tau() * x.tau()


def test_poly_weight():
    assert Poly.word("xy").weight() == 2
    assert (Poly.word("xy") + Poly.word("x")).weight() is None
    assert Poly().weight() is None


def test_poly_term_order_graded_lex():
    p = Poly({"y": 1, "xy": 1, "x": 1, "yy": 1})
    assert [w for w, _ in p.items()] == ["x", "y", "xy", "yy"]


def test_format_and_parse_poly():
    p = Poly({"xyxy": 2, "xxyy": 4})
    assert format_poly(p) == "4 xxyy + 2 xyxy"
    q = Poly({"xxy": 1, "xyy": -1})
    assert format_poly(q) == "xxy - xyy"
    assert format_poly(Poly()) == "0"
    assert format_poly(Poly({"": Fraction(-3, 2), "xy": 1})) == "-3/2 + xy"


def test_poly_json_roundtrip():
    p = Poly({"xy": Fraction(2, 3), "": -1, "xxy": 5})
    assert poly_to_obj(p) == [
        {"word": "1", "num": -1, "den": 1},
        {"word": "xy", "num": 2, "den": 3},
        {"word": "xxy", "num": 5, "den": 1},
    ]


def test_parse_word_forms():
    assert parse_word("xxy") == "xxy"
    assert parse_word("1") == ""
    assert parse_word("z2z1") == "xyy"
    assert parse_word("z2 z1") == "xyy"
    assert parse_word("(2,1)") == "xyy"
    assert parse_word("()") == ""
    with pytest.raises(DomainError):
        parse_word("xz")
    with pytest.raises(DomainError):
        parse_word("z0")
    with pytest.raises(DomainError):
        parse_composition("(2,0)")


def test_compositions_count():
    assert len(list(compositions(0))) == 1
    for n in range(1, 9):
        assert len(list(compositions(n))) == 2 ** (n - 1)
        assert len(list(admissible_compositions(n))) == (2 ** (n - 2) if n >= 2 else 0)
    for n in range(11):
        assert list(compositions(n)) == compositions_by_recursion(n)
    with pytest.raises(DomainError):
        compositions(-1)
    for n in range(15):
        comps = list(compositions(n))
        assert comps == sorted(set(comps))
        assert all(k >= 1 for c in comps for k in c)
        assert all(sum(c) == n for c in comps)


@pytest.mark.parametrize(
    "call",
    [
        "word_of((2.5,))",
        "dual_composition((2.5, 1))",
        "compositions(2.5)",
        "admissible_words(2.5)",
        "complete_h(2.5)",
        "power_p(2.5)",
        "derivation_Dn(2.5)",
        "ihara_kaneko(0)",
        "ihara_kaneko(True)",
        "ihara_kaneko(2.0)",
        "generate(2.5)",
        "rank_report(3.0)",
        "sigma_t('xy', 2.5)",
        "Poly('xy')",
        "word_of((True,))",
        "list(all_words(2.5))",
        "Poly({'xy': 'a'})",
        "Poly([('xy',)])",
        "Poly([1, 2])",
        "Poly([('xy', 1)])",
        "cyclic_C_pair('xy', 3)",
        "Poly({'xy': 0.1})",
        "Poly({'xy': 0.5})",
        "Poly({'xy': True})",
        "Poly.word('x').scale(0.5)",
        "Poly({'xy': '1/2'})",  # a coefficient is an int or a Fraction, never parsed
        "Poly({'xy': '0.5'})",
        "Poly.word('x').scale('1/2')",
        "zeta_of_poly(Poly({'xy': 10**400}), 10)",
        "verify([Relation(Poly({'xxy': 10**400, 'xyy': -10**400}), 3, 'duality', ())], 10)",
    ],
)
def test_non_integer_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        eval(call, vars(mzvkit))


@pytest.mark.parametrize(
    "call",
    [
        "mzv_eval((2,), 2**62)",
        "mzv_eval((2, 1), 2**63)",
        "zeta_of_poly(Poly.word('xy'), 2**62)",
        "verify(generate(3), 2**62)",
        "mzv_tail_bound((2,), 2**62)",
        "t_series_eval((2,), 2**62)",
    ],
)
def test_cutoff_the_limbs_cannot_hold_raises_domain_error(call, monkeypatch):
    # the zeta kernel's int64 limbs have 63 - bit_length(cutoff) >= 1 bits only below 2^62
    monkeypatch.setattr(mzvkit.numerics, "_suffix_pass", None)  # a started pass is a TypeError
    with pytest.raises(DomainError, match=r"below 2\^62"):
        eval(call, vars(mzvkit))
    mzvkit.numerics.check_args(2**62 - 1)
