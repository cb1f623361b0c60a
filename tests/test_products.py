import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from mzvkit.products import double_shuffle, harmonic, shuffle
from mzvkit.words import (
    DomainError,
    Poly,
    all_words,
    admissible_words,
    composition_of,
    is_h0_word,
    word_of,
)


# --- independent oracles -----------------------------------------------------


def shuffle_oracle(u: str, v: str) -> Counter:
    """Place the letters of u on a chosen position subset, v on the rest."""
    n = len(u) + len(v)
    out = Counter()
    for pos in itertools.combinations(range(n), len(u)):
        slots = [None] * n
        for letter, i in zip(u, pos):
            slots[i] = letter
        it = iter(v)
        word = "".join(slot if slot else next(it) for slot in slots)
        out[word] += 1
    return out


def stuffle_oracle(a: tuple, b: tuple) -> Counter:
    """Pairs of order-preserving embeddings covering every slot; overlaps add."""
    r, s = len(a), len(b)
    out = Counter()
    for p in range(max(r, s), r + s + 1):
        for pa in itertools.combinations(range(p), r):
            for pb in itertools.combinations(range(p), s):
                if set(pa) | set(pb) != set(range(p)):
                    continue
                merged = [0] * p
                for part, i in zip(a, pa):
                    merged[i] += part
                for part, i in zip(b, pb):
                    merged[i] += part
                out[tuple(merged)] += 1
    return out


def as_counter(p: Poly) -> Counter:
    return Counter({w: c for w, c in p.items()})


# --- shuffle -----------------------------------------------------------------


def test_shuffle_unit():
    for w in ("", "x", "xyx", "xxyy"):
        assert shuffle("", w) == Poly.word(w)
        assert shuffle(w, "") == Poly.word(w)


def test_shuffle_y_with_x_power():
    # y sh x^k inserts the y in every slot
    for k in range(1, 6):
        expected = Poly({("x" * i + "y" + "x" * (k - i)): 1 for i in range(k + 1)})
        assert shuffle("y", "x" * k) == expected


def test_shuffle_frozen_example():
    assert shuffle("xy", "xy") == Poly({"xyxy": 2, "xxyy": 4})


def test_shuffle_matches_interleaving_oracle():
    for wu in range(1, 5):
        for wv in range(1, 9 - wu):
            for u in all_words(wu):
                for v in all_words(wv):
                    assert as_counter(shuffle(u, v)) == shuffle_oracle(u, v)


def test_shuffle_coefficient_sum_is_binomial():
    for wu in range(0, 5):
        for wv in range(0, 9 - wu):
            for u in all_words(wu):
                for v in all_words(wv):
                    total = sum(c for _, c in shuffle(u, v).items())
                    assert total == comb(wu + wv, wu)


def test_shuffle_bilinear():
    p = Poly({"xy": 2, "y": -1})
    q = Poly({"x": Fraction(1, 2)})
    assert shuffle(p, q) == shuffle("xy", "x").scale(1) + shuffle("y", "x").scale(Fraction(-1, 2))


# --- harmonic ----------------------------------------------------------------


def test_harmonic_units_and_x_powers():
    assert harmonic("", "xyx") == Poly.word("xyx")
    assert harmonic("xx", "y") == Poly.word("yxx")
    assert harmonic("y", "xx") == Poly.word("yxx")
    assert harmonic("xx", "xxx") == Poly.word("xxxxx")


def test_harmonic_frozen_examples():
    assert harmonic("y", "y") == Poly({"yy": 2, "xy": 1})
    assert harmonic("y", "xy") == Poly({"yxy": 1, "xyy": 1, "xxy": 1})
    # z2 * z2 = 2 z2z2 + z4
    assert harmonic("xy", "xy") == Poly({"xyxy": 2, "xxxy": 1})


def test_harmonic_matches_stuffle_oracle_on_compositions():
    for wa in range(1, 5):
        for wb in range(1, 9 - wa):
            for a in map(composition_of, (w for w in all_words(wa) if w.endswith("y"))):
                for b in map(composition_of, (w for w in all_words(wb) if w.endswith("y"))):
                    got = harmonic(word_of(a), word_of(b))
                    expected = Counter(
                        {word_of(c): m for c, m in stuffle_oracle(a, b).items()}
                    )
                    assert as_counter(got) == expected


def test_harmonic_composition_recursion():
    # independent top-down recursion on compositions
    def stuffle_comp(a, b):
        if not a:
            return Counter({b: 1})
        if not b:
            return Counter({a: 1})
        out = Counter()
        for c, m in stuffle_comp(a[1:], b).items():
            out[(a[0],) + c] += m
        for c, m in stuffle_comp(a, b[1:]).items():
            out[(b[0],) + c] += m
        for c, m in stuffle_comp(a[1:], b[1:]).items():
            out[(a[0] + b[0],) + c] += m
        return out

    from mzvkit.words import compositions

    for wa in range(1, 6):
        for wb in range(1, 8 - wa):
            for a in compositions(wa):
                for b in compositions(wb):
                    got = harmonic(word_of(a), word_of(b))
                    expected = Counter({word_of(c): m for c, m in stuffle_comp(a, b).items()})
                    assert as_counter(got) == expected


# --- shared algebra laws -----------------------------------------------------


def _triples(total):
    for wa in range(0, total + 1):
        for wb in range(0, total + 1 - wa):
            for wc in range(0, total + 1 - wa - wb):
                for u in all_words(wa):
                    for v in all_words(wb):
                        for w in all_words(wc):
                            yield u, v, w


@pytest.mark.parametrize("product", [shuffle, harmonic])
def test_commutative_and_associative(product):
    seen_pairs = set()
    for u, v, w in _triples(7):
        if (u, v) not in seen_pairs:
            seen_pairs.add((u, v))
            assert product(u, v) == product(v, u)
        assert product(product(u, v), Poly.word(w)) == product(Poly.word(u), product(v, w))


@pytest.mark.parametrize("product", [shuffle, harmonic])
def test_h0_closed_under_products(product):
    for wu in range(2, 7):
        for u in admissible_words(wu):
            for wv in range(2, 9 - wu):
                for v in admissible_words(wv):
                    assert all(is_h0_word(w) for w, _ in product(u, v).items())


# --- double shuffle ----------------------------------------------------------


def test_double_shuffle_unit_and_symmetry():
    w = Poly.word("xxyy")
    assert double_shuffle(Poly.word(""), w) == Poly.zero()
    assert double_shuffle(w, Poly.word("")) == Poly.zero()
    u = Poly.word("xy")
    assert double_shuffle(u, w) == double_shuffle(w, u)


def test_double_shuffle_weight4():
    got = double_shuffle("xy", "xy")
    assert got == Poly({"xxyy": 4, "xxxy": -1})
    assert got.weight() == 4


def test_double_shuffle_rejects_inadmissible():
    with pytest.raises(DomainError):
        double_shuffle(Poly.word("y"), Poly.word("xy"))
    with pytest.raises(DomainError):
        double_shuffle(Poly.word("xy"), Poly.word("yx"))
