"""Acceptance suite.

One test per acceptance criterion, each at its stated size, cutoff, and
tolerance; a criterion passes only if every instance inside it passes.  Run
with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time

import mzvkit.numerics as numerics
from mzvkit.derivations import (
    conjugate,
    cyclic_C,
    cyclic_C_bar,
    cyclic_C_pair,
    derivation_D,
    derivation_Dn,
)
from mzvkit.products import _shuffle_words, harmonic, shuffle
from mzvkit.qsym import (
    TruncatedSeries,
    act,
    exp_partial_t,
    phi_bar_sigma,
    sigma_t,
    sigma_t_exp,
)
from mzvkit.relations import (
    FAMILIES,
    Relation,
    RowSpace,
    generate,
    rank_report,
)
from mzvkit.words import (
    Poly,
    admissible_words,
    all_words,
    compositions,
    dual_composition,
    tau_word,
    word_of,
)
from oracles import (
    admissible_compositions,
    cyclic_C_bar_zform,
    cyclic_C_zform,
    dual_by_partial_sums,
    length_part,
)

FULL_CUTOFF = 10**6
ST_CUTOFF = 10**4
DIGITS = 30
SLACK = 10.0


def h1_words(n):
    if n == 0:
        return [""]
    return [w for w in all_words(n) if w.endswith("y")]


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_a01_y_product_gap_equals_derivation_gap():
    # y sh w - y * w coincides with the conjugate-minus-plain derivation
    # image for every word of weight <= 8, in under 60 seconds.
    _shuffle_words.cache_clear()
    D = derivation_D()
    Dbar = conjugate(D)
    y = Poly.word("y")
    start = time.perf_counter()
    count = 0
    for n in range(0, 9):
        for w in all_words(n):
            p = Poly.word(w)
            assert shuffle(y, p) - harmonic(y, p) == Dbar.apply(p) - D.apply(p)
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("A01", f"product gap equals derivation gap on {count} words in {elapsed:.1f}s")


def test_a02_cyclic_forms_agree_and_pairing_law():
    # three implementations of the cyclic map and two of its conjugate agree
    # on y-ending words of weight <= 8
    count = 0
    for n in range(0, 9):
        for w in h1_words(n):
            canonical = cyclic_C(w)
            assert canonical == cyclic_C_zform(w)
            assert canonical == cyclic_C_pair(w, "")
            assert cyclic_C_bar(w) == cyclic_C_bar_zform(w)
            count += 1
    # defining law of the pairing over all splittings with total weight <= 6
    law = 0
    for a in range(0, 7):
        for b in range(0, 7 - a):
            for c in range(0, 7 - a - b):
                for f1 in all_words(a):
                    for f2 in all_words(b):
                        for f in all_words(c):
                            lhs = cyclic_C_pair(f1 + f2, f)
                            rhs = cyclic_C_pair(f1, f2 + f) + cyclic_C_pair(f2, f + f1)
                            assert lhs == rhs
                            law += 1
    report("A02", f"cyclic forms agree on {count} words; pairing law on {law} triples")


def test_a03_action_filtration_module_property_and_special_cases():
    # the action picks out the fixed-length part of the harmonic product
    pairs = 0
    for a in range(1, 8):
        for b in range(0, 8 - a):
            for u in h1_words(a):
                for w in all_words(b):
                    assert act(u, w) == length_part(harmonic(u, w), w.count("y"))
                    pairs += 1
    # acting by a product equals acting twice
    triples = 0
    for a in range(1, 7):
        for b in range(1, 8 - a):
            for c in range(0, 8 - a - b):
                for u in h1_words(a):
                    for v in h1_words(b):
                        for w in all_words(c):
                            assert act(harmonic(u, v), w) == act(u, act(v, w))
                            triples += 1
    # single generators act as the y -> x^n y derivations
    for n in range(1, 7):
        dn = derivation_Dn(n)
        for wlen in range(0, 7):
            for w in all_words(wlen):
                assert act(word_of((n,)), w) == dn.apply(w)
    # the cyclic map on x^n y^m is a single generator action
    for n in range(1, 7):
        for m in range(1, 7):
            assert cyclic_C("x" * n + "y" * m) == act(word_of((n,)), "x" + "y" * m)
    report("A03", f"length filtration on {pairs} pairs; module property on {triples} triples")


def test_a04_exp_derivation_series_equals_conjugated_automorphism():
    count = 0
    for w in ["x", "y"] + [w for n in range(0, 6) for w in all_words(n)]:
        assert exp_partial_t(w, 6) == phi_bar_sigma(w, 6)
        count += 1
    # image of x is the geometric y-series; x + y is fixed
    ph = phi_bar_sigma("x", 6)
    for k in range(7):
        assert ph.coeff(k) == Poly.word("x" + "y" * k)
    z = Poly.word("x") + Poly.word("y")
    assert phi_bar_sigma(z, 6) == TruncatedSeries({0: z}, 6)
    # the h-action and exponential forms of the underlying automorphism agree
    for w in ["x", "y"] + [w for n in range(0, 6) for w in all_words(n)]:
        assert sigma_t(w, 6) == sigma_t_exp(w, 6)
    report("A04", f"series automorphism identities on {count} inputs through order 6")


def test_a05_word_duality_matches_composition_duality():
    count = 0
    for n in range(2, 11):
        for c in admissible_compositions(n):
            d = dual_composition(c)
            assert d == dual_by_partial_sums(c)
            assert word_of(d) == tau_word(word_of(c))
            assert dual_composition(d) == c
            count += 1
    report("A05", f"word-level and partial-sum duality agree on {count} compositions")


def test_a06_rank_weight4_and_sum_in_cyclic_span():
    rep = rank_report(4, FAMILIES)
    assert len(rep.basis) == 4
    assert rep.cumulative_rank == 3
    assert rep.nullity == 1
    checked = 0
    for weight in range(3, 9):
        span = RowSpace(admissible_words(weight))
        for r in generate(weight, ["cyclic"]):
            span.add(r.element)
        for r in generate(weight, ["sum"]):
            assert not span.add(r.element)
            checked += 1
    report("A06", f"weight-4 rank 3 / nullity 1; {checked} sum elements inside cyclic spans")


def test_a07_depth_two_identity_high_cutoff_timed():
    numerics._mzv_cache.clear()  # honest timing
    start = time.perf_counter()
    r3 = numerics.mzv_eval((3,), FULL_CUTOFF, DIGITS)
    r21 = numerics.mzv_eval((2, 1), FULL_CUTOFF, DIGITS)
    elapsed = time.perf_counter() - start
    diff = abs(float(r3.value - r21.value))
    assert diff <= 2e-5
    assert elapsed < 5.0
    report("A07", f"|zeta(2,1)-zeta(3)| = {diff:.3e} <= 2e-5 at N=1e6 in {elapsed:.2f}s")


def test_a08_all_families_verify_at_weight7_and_corrupted_fails():
    rels = [r for weight in range(2, 8) for r in generate(weight, FAMILIES)]
    reports = numerics.verify(rels, cutoff=FULL_CUTOFF, digits=DIGITS)
    failures = [rep for rep in reports if not rep.passed]
    assert reports and not failures, failures[:5]
    corrupted = Relation(
        Poly({"xxy": 2, "xyy": -1}), 3, "duality", (("source", "xxy"),)
    )
    (bad,) = numerics.verify([corrupted], cutoff=FULL_CUTOFF, digits=DIGITS)
    assert not bad.passed
    report(
        "A08",
        f"{len(reports)} relations across weights 2..7 verified at N=1e6; corrupted control fails",
    )


def _t_cached(cache, c):
    if ("T", c) not in cache:
        cache[("T", c)] = numerics.t_series_eval(c, ST_CUTOFF)
    return cache[("T", c)]


def _s_cached(cache, c, klast):
    if ("S", c, klast) not in cache:
        cache[("S", c, klast)] = numerics.s_series_eval(c, klast, ST_CUTOFF)
    return cache[("S", c, klast)]


def _z(c):
    return numerics.mzv_eval(c, ST_CUTOFF, DIGITS)


def test_a09_coupled_series_identities():
    cache: dict = {}
    checks = {"drop": 0, "shift": 0, "reindex": 0, "rotation": 0}
    max_ratio = 0.0

    def close(lhs, rhs, budget, tag):
        nonlocal max_ratio
        threshold = SLACK * budget
        resid = abs(lhs - rhs)
        assert resid <= threshold, (tag, resid, threshold)
        if threshold:
            max_ratio = max(max_ratio, resid / threshold)
        checks[tag] += 1

    convergent = [
        c for n in range(2, 6) for c in compositions(n) if max(c) > 1
    ]

    # dropping the innermost index to zero splits off a plain zeta term
    for c in convergent:
        t = _t_cached(cache, c)
        s = _s_cached(cache, c, 0)
        z = _z((c[0] + 1,) + c[1:])
        close(
            float(s.value),
            float(t.value) - float(z.value),
            s.tail_bound + t.tail_bound + z.tail_bound,
            "drop",
        )

    # lowering the first exponent while raising the last one
    for n in range(2, 6):
        for c in compositions(n):
            if c[0] < 2:
                continue
            for klast in range(0, 6 - n):
                s1 = _s_cached(cache, c, klast)
                s2 = _s_cached(cache, (c[0] - 1,) + c[1:], klast + 1)
                z = _z(c + (klast + 1,))
                close(
                    float(s1.value),
                    float(s2.value) - float(z.value),
                    s1.tail_bound + s2.tail_bound + z.tail_bound,
                    "shift",
                )

    # unit first exponent re-indexes into a shorter coupled series
    for n in range(1, 5):
        for rest in compositions(n - 1):
            for klast in range(0, 6 - n):
                if max(rest, default=1) < 2 and klast < 1:
                    continue
                s = _s_cached(cache, (1,) + rest, klast)
                t = _t_cached(cache, rest + (klast + 1,))
                close(
                    float(s.value),
                    float(t.value),
                    s.tail_bound + t.tail_bound,
                    "reindex",
                )

    # rotating the argument changes the value by zeta terms
    for c in convergent:
        rot = c[1:] + c[:1]
        t1 = _t_cached(cache, c)
        t2 = _t_cached(cache, rot)
        budget = t1.tail_bound + t2.tail_bound
        rhs_val = 0.0
        z_head = _z((c[0] + 1,) + c[1:])
        rhs_val += float(z_head.value)
        budget += z_head.tail_bound
        for j in range(0, c[0] - 1):
            zj = _z((c[0] - j,) + c[1:] + (j + 1,))
            rhs_val -= float(zj.value)
            budget += zj.tail_bound
        close(float(t1.value) - float(t2.value), rhs_val, budget, "rotation")

    total = sum(checks.values())
    report(
        "A09",
        f"{total} coupled-series identities at cutoff 1e4 "
        f"({checks}); worst residual at {max_ratio:.2f} of threshold",
    )


def test_a10_negative_control_inadmissible_derivation():
    D = derivation_D()
    Dbar = conjugate(D)
    assert Dbar.apply("y") == Poly()
    lhs = numerics.zeta_of_poly(D.apply("y"), ST_CUTOFF, DIGITS)
    rhs = numerics.zeta_of_poly(Dbar.apply("y"), ST_CUTOFF, DIGITS)
    gap = abs(float(lhs.value - rhs.value))
    assert gap > SLACK * (lhs.tail_bound + rhs.tail_bound)
    assert gap > 1.6  # the depth-one value at 2
    report("A10", f"derivation identity fails on the bare letter y: gap {gap:.4f}")
