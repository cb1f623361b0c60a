import functools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from mzvkit.derivations import conjugate, cyclic_C, derivation_D
from mzvkit.products import harmonic, shuffle
from mzvkit.qsym import act, complete_h
from mzvkit.relations import (
    FAMILIES,
    RowSpace,
    generate,
    normalize,
    rank_report,
)
from mzvkit.words import (
    DomainError,
    Poly,
    admissible_words,
    compositions,
    dual_composition,
    is_h0_word,
    rotations,
    word_of,
)
from oracles import admissible_compositions, reference_span


def by_source(rels):
    return {dict(r.params)["source"]: r.element for r in rels}


def test_duality_family():
    rels = generate(3, ["duality"])
    assert len(rels) == 1
    assert rels[0].element == Poly({"xxy": 1, "xyy": -1})
    # self-dual words drop out: weight 4 has xxyy and xyxy fixed by tau
    rels4 = generate(4, ["duality"])
    assert len(rels4) == 1
    assert rels4[0].element == Poly({"xxxy": 1, "xyyy": -1})
    # dual pairs produce one normalized element, not two
    rels5 = generate(5, ["duality"])
    elems = {tuple(r.element.items()) for r in rels5}
    assert len(elems) == len(rels5)
    w23 = word_of((2, 3))
    w212 = word_of((2, 1, 2))
    assert any(r.element in (Poly.word(w23) - Poly.word(w212), Poly.word(w212) - Poly.word(w23)) for r in rels5)
    assert generate(2, ["duality"]) == []  # xy is self-dual


def test_derivation_family():
    rels = by_source(generate(3, ["derivation"]))
    # from xy: D - Dbar sends xy to x^2y - xy^2
    assert rels["xy"] == Poly({"xxy": 1, "xyy": -1})
    # cross-check against the product-difference form
    D, Dbar = derivation_D(), conjugate(derivation_D())
    for w in admissible_words(4):
        p = Poly.word(w)
        expected = normalize(D.apply(p) - Dbar.apply(p))
        got = by_source(generate(5, ["derivation"]))[w]
        assert got == expected
        assert got == normalize(-(shuffle("y", p) - harmonic("y", p)))


def test_hoffman43_matches_derivation_up_to_sign():
    for weight in range(3, 8):
        h = by_source(generate(weight, ["hoffman43"]))
        d = by_source(generate(weight, ["derivation"]))
        assert set(h) == set(d)
        y = Poly.word("y")
        for w in h:
            p = Poly.word(w)
            raw_h = shuffle(y, p) - harmonic(y, p)
            D, Dbar = derivation_D(), conjugate(derivation_D())
            raw_d = D.apply(p) - Dbar.apply(p)
            assert raw_h == -raw_d


def with_n(rels, n):
    return [r for r in rels if dict(r.params)["n"] == n]


def test_ihara_kaneko_family():
    for weight in range(3, 8):
        ik1 = by_source(with_n(generate(weight, ["ihara_kaneko"]), 1))
        d = by_source(generate(weight, ["derivation"]))
        assert ik1 == d  # identical after normalization (sign absorbed)
    rels = with_n(generate(4, ["ihara_kaneko"]), 2)
    assert len(rels) == 1
    assert rels[0].element == Poly({"xxxy": 1, "xyyy": -1})


def test_families_without_a_source_word_are_empty():
    # weight 2: xy is self-dual, no index 1 <= n <= weight - 2, and weight 1 has no
    # admissible word (derivation, hoffman43) and no composition but (1) (cyclic)
    assert generate(2) == []


def test_cyclic_family_weight4():
    rels = generate(4, ["cyclic"])
    elems = [r.element for r in rels]
    z4 = Poly.word(word_of((4,)))
    z31 = Poly.word(word_of((3, 1)))
    z22 = Poly.word(word_of((2, 2)))
    assert z4 - z31 - z22 in elems
    sources = {dict(r.params)["source"] for r in rels}
    assert sources == {"(3)", "(1,2)"}  # one per class, powers of y excluded


def test_cyclic_family_skips_y_powers():
    for weight in range(2, 8):
        for r in generate(weight, ["cyclic"]):
            src = dict(r.params)["source"]
            assert src != "(" + ",".join(["1"] * (weight - 1)) + ")"


def multiplicity(c):
    """The largest m with c = u^m: len(c) over the number of distinct rotations."""
    return len(c) // len(set(rotations(c)))


def test_cyclic_rotation_sum_structure():
    # C(w) is the class multiplicity times the sum over distinct rotations
    # with their first index bumped; same for the dual class via tau.
    for n in range(1, 7):
        for c in compositions(n):
            if not c:
                continue
            members = set(rotations(c))
            w = word_of(c)
            expected = Poly()
            for rot in members:
                expected = expected + Poly.word(word_of((rot[0] + 1,) + rot[1:]))
            assert cyclic_C(w) == expected.scale(multiplicity(c))
    # the dual class carries the same multiplicity
    for n in range(2, 8):
        for c in admissible_compositions(n):
            assert multiplicity(dual_composition(c)) == multiplicity(c)


def test_sum_theorem_family():
    rels3 = generate(3, ["sum"])
    assert len(rels3) == 1
    assert rels3[0].element == Poly({"xxy": 1, "xyy": -1})
    rels4 = by_l = {dict(r.params)["l"]: r.element for r in generate(4, ["sum"])}
    assert by_l[1] == Poly({"xxxy": 1, "xxyy": -1, "xyxy": -1})
    assert by_l[2] == Poly({"xxyy": 1, "xyxy": 1, "xyyy": -1})
    assert generate(2, ["sum"]) == []


def test_sum_theorem_in_cyclic_span():
    for weight in range(3, 9):
        space = RowSpace(admissible_words(weight))
        for r in generate(weight, ["cyclic"]):
            space.add(r.element)
        for r in generate(weight, ["sum"]):
            assert not space.add(r.element)


def test_ohno_family():
    # n = 0 reduces to duality up to sign
    h0 = complete_h(0)
    for weight in (3, 4, 5):
        oh0 = {act(h0, Poly.word(w).tau()) - act(h0, w) for w in admissible_words(weight)}
        oh0 = {frozenset(normalize(p).items()) for p in oh0 if p}
        du = {frozenset(r.element.items()) for r in generate(weight, ["duality"])}
        assert oh0 == du
    rels = with_n(generate(5, ["ohno"]), 2)
    assert rels and all(r.element.weight() == 5 for r in rels)


def test_ohno1_span_within_derivation_and_duality():
    for weight in range(3, 9):
        space = RowSpace(admissible_words(weight))
        for r in generate(weight, ["derivation", "duality"]):
            space.add(r.element)
        for r in with_n(generate(weight, ["ohno"]), 1):
            assert not space.add(r.element)


def test_double_shuffle_family():
    rels = generate(4, ["double_shuffle"])
    assert len(rels) == 1
    assert rels[0].element == Poly({"xxxy": 1, "xxyy": -4})
    assert dict(rels[0].params) == {"u": "xy", "v": "xy"}
    assert generate(3, ["double_shuffle"]) == []


def test_all_relations_admissible_and_homogeneous():
    for weight in range(2, 8):
        for r in generate(weight):
            assert r.element.weight() == weight
            assert all(w != "" and is_h0_word(w) for w, _ in r.element.items())


def test_normalize():
    p = Poly({"xy": Fraction(-2, 3), "xxy": Fraction(4, 3)})
    q = normalize(p)
    # graded-lex leading term is xy, whose sign is flipped positive
    assert q == Poly({"xy": 1, "xxy": -2})
    assert normalize(Poly()) == Poly()
    assert normalize(Poly({"xy": Fraction(1, 7)})) == Poly.word("xy")


@pytest.mark.parametrize(
    "terms, expected",
    [
        ([("xy", Fraction(-2, 3)), ("xxy", Fraction(4, 3))], {"xy": 1, "xxy": -2}),
        ([("xxyy", -6), ("xyxy", 2), ("xyyy", 4)], {"xxyy": 3, "xyxy": -1, "xyyy": -2}),
    ],
)
def test_normalize_reads_the_sign_in_graded_lex_order(terms, expected):
    for order in (terms, terms[::-1]):  # the term dict in and against graded-lex order
        assert normalize(Poly(dict(order))) == Poly(expected)


def test_inadmissible_family_element_names_the_graded_lex_first_bad_word(monkeypatch):
    element = Poly({"yxyy": 1, "xyyy": 1, "yxxy": 1, "xxyx": 1})
    family = lambda weight: [(element, {})]  # noqa: E731
    monkeypatch.setitem(FAMILIES, "bad", family)
    with pytest.raises(DomainError, match="'xxyx'"):
        generate(4, ["bad"])


def test_mixed_weight_family_element_is_an_error(monkeypatch):
    element = Poly({"xxy": 1, "xxyy": 1})
    family = lambda weight: [(element, {})]  # noqa: E731
    monkeypatch.setitem(FAMILIES, "bad", family)
    with pytest.raises(DomainError, match="^relation element is not homogeneous of weight 4$"):
        generate(4, ["bad"])


def test_rowspace():
    s = RowSpace(["xy", "xxy", "xyy"])
    half = Fraction(1, 2)
    assert s.add(Poly({"xy": 1, "xxy": 1}))
    assert not s.add(Poly({"xy": half, "xxy": half}))
    assert s.add(Poly({"xxy": 1, "xyy": 1}))
    assert s.rank == 2
    assert not s.add(Poly({"xy": 1, "xxy": 2, "xyy": 1}))
    assert s.rank == 2
    assert s.add(Poly.word("xyy"))
    assert s.rank == 3


def test_rowspace_contains_zero():
    assert not RowSpace(["xy"]).add(Poly())
    assert not RowSpace([]).add(Poly())


def test_rowspace_rejects_words_outside_basis():
    s = RowSpace(["xy", "xxy"])
    with pytest.raises(DomainError):
        s.add(Poly({"xy": 1, "xyy": 1}))
    with pytest.raises(DomainError):
        s.add(Poly.word("y"))
    assert s.rank == 0


@pytest.mark.parametrize("basis", [["xy", "xy"], ["xy", "xxy", "xy"]])
def test_rowspace_rejects_a_repeated_basis_word(basis):
    with pytest.raises(DomainError, match="^repeated basis word: 'xy'$"):
        RowSpace(basis)


# the 8 admissible words of weight 5, in order: the columns of the generated rows
BASIS8 = admissible_words(5)


@st.composite
def fraction_rows(draw):
    """Up to 8 rows of up to 8 columns, with repeats and combinations of earlier rows."""
    ncols = draw(st.integers(1, 8))
    entries = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    scales = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 8)) + 1):  # the last one is the probe
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            m, n = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            row = [m * x + n * y for x, y in zip(a, b)]
        else:
            row = draw(entries)
        rows.append([draw(scales) * x for x in row])
    return ncols, rows[:-1], rows[-1]


def _poly(row) -> Poly:
    """The Poly with coordinates row over the first len(row) words of BASIS8."""
    return Poly(dict(zip(BASIS8, row)))


@given(fraction_rows())
def test_rowspace_matches_fraction_reference(case):
    ncols, rows, probe = case
    space = RowSpace(BASIS8[:ncols])
    added = [space.add(_poly(r)) for r in rows]
    assert (added, space.rank, not space.add(_poly(probe))) == reference_span(rows, probe)
    for p, row in space.rows.items():  # echelon form of primitive rows, pivot positive
        assert not any(row[:p]) and row[p] > 0 and gcd(*row) == 1


@given(fraction_rows())
def test_rowspace_column_order_does_not_change_the_span(case):
    ncols, rows, probe = case
    forward, reverse = RowSpace(BASIS8[:ncols]), RowSpace(BASIS8[:ncols][::-1])
    for row in rows:
        assert forward.add(_poly(row)) == reverse.add(_poly(row))
        assert forward.rank == reverse.rank
    assert forward.add(_poly(probe)) == reverse.add(_poly(probe))


# rank_report at weights 2..11 is shared by the dimension and rank tests
report = functools.cache(rank_report)


def zagier_dimension(weight: int) -> int:
    d = [1, 0, 1]  # d_0, d_1, d_2; then d_k = d_(k-2) + d_(k-3)
    while len(d) <= weight:
        d.append(d[-2] + d[-3])
    return d[weight]


@pytest.mark.parametrize("weight", range(2, 12))
def test_nullity_is_zagier_dimension(weight):
    assert [zagier_dimension(w) for w in range(2, 12)] == [1, 1, 1, 2, 2, 3, 4, 5, 7, 9]
    assert report(weight).nullity == zagier_dimension(weight)
    if weight <= 9:
        pair = rank_report(weight, ["double_shuffle", "hoffman43"])
        assert pair.nullity == zagier_dimension(weight)


# family ranks in FAMILIES order, then the union rank, as pivoting in
# graded-lex column order gave them
GRADED_LEX_RANKS = {
    2: ([0, 0, 0, 0, 0, 0, 0, 0], 0),
    3: ([1, 1, 1, 1, 1, 1, 0, 0], 1),
    4: ([1, 2, 2, 2, 2, 2, 1, 1], 3),
    5: ([4, 4, 4, 3, 4, 5, 2, 2], 6),
    6: ([6, 8, 6, 4, 8, 10, 6, 7], 14),
    7: ([16, 16, 12, 5, 16, 22, 12, 16], 29),
    8: ([28, 32, 18, 6, 32, 44, 27, 40], 60),
    9: ([64, 64, 34, 7, 64, 90, 55, 92], 123),
    10: ([120, 128, 58, 8, 128, 181, 116, 200], 249),
}


@pytest.mark.parametrize("weight", GRADED_LEX_RANKS)
def test_ranks_do_not_depend_on_column_order(weight):
    family_ranks, union_rank = GRADED_LEX_RANKS[weight]
    rep = report(weight)
    assert rep.family_ranks == dict(zip(FAMILIES, family_ranks))
    assert rep.cumulative_rank == union_rank


def test_rank_weight2():
    rep = rank_report(2)
    assert rep.basis == ["xy"]
    assert rep.cumulative_rank == 0
    assert rep.nullity == 1
    assert all(v == 0 for v in rep.family_ranks.values())


def test_rank_weight3_duality_only():
    rep = rank_report(3, ["duality"])
    assert rep.basis == ["xxy", "xyy"]
    assert rep.cumulative_rank == 1
    assert rep.nullity == 1


def test_rank_report_generates_a_repeated_family_once(monkeypatch):
    calls = []
    gen = FAMILIES["sum"]
    monkeypatch.setitem(FAMILIES, "sum", lambda weight: calls.append(weight) or gen(weight))
    rep = rank_report(5, ["sum", "sum"])
    assert calls == [5]
    assert rep.family_ranks == {"sum": 3} and rep.relation_counts == {"sum": 3}


def test_generate_hashes_each_element_at_most_once(monkeypatch):
    calls = []
    poly_hash = Poly.__hash__
    monkeypatch.setattr(Poly, "__hash__", lambda p: calls.append(1) or poly_hash(p))
    rels = generate(12, ["ihara_kaneko", "ohno"])
    sources = 2 * sum(len(admissible_words(12 - n)) for n in range(1, 11))  # 2046
    assert len(rels) == 1519
    assert len(calls) <= sources


def test_rank_weight4_all_families():
    rep = rank_report(4)
    assert len(rep.basis) == 4
    assert rep.cumulative_rank == 3
    assert rep.nullity == 1


def test_generate_unknown_family():
    with pytest.raises(DomainError):
        generate(4, ["nonsense"])
    for fn in (generate, rank_report):  # a string is not read as its characters
        with pytest.raises(DomainError, match="not a string: 'sum'$"):
            fn(5, "sum")
    assert set(FAMILIES) == {
        "duality",
        "derivation",
        "cyclic",
        "sum",
        "hoffman43",
        "ihara_kaneko",
        "ohno",
        "double_shuffle",
    }
