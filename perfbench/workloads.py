"""Benchmark workloads: seeded inputs, the timed job, and its checks.

There are four parts (verify, rank, algebra, eval).  The timed workloads
combine them in pairs; each part also runs alone.  Each has three pieces:

- ``inputs(rng)`` builds a JSON-ready dict from a seeded ``random.Random``
  and nothing else, so one seed always gives byte-identical inputs;
- ``job(mzv, inputs)`` is the timed part: every call into the package, made
  through ``mzv.<module>.<name>`` at call time so that the traced run sees
  the functions it patched;
- ``check(inputs, outputs)`` returns ``(name, passed)`` pairs, each judged
  against an oracle that does not come from the code under test: mpmath,
  Zagier's dimension recurrence, or an identity between two independent
  code paths of the package.

``outputs["observed"]`` carries figures the job saw directly (stdout bytes,
verification margins); the traced run reports them as layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

FAMILIES = (
    "duality",
    "derivation",
    "cyclic",
    "sum",
    "hoffman43",
    "ihara_kaneko",
    "ohno",
    "double_shuffle",
)

# verify: `mzv verify --weight 7` over all families.  The run budget scales
# the cutoff from 10^6 to 4 * 10^3; the relation set and the sharing of
# compositions between relations are unchanged.
VERIFY_WEIGHT = 7
VERIFY_CUTOFF = 4_000
DIGITS = 30

# rank: `mzv rank` over all families, scaled from weight 10 to weight 7.
# The family order moves the cost of one rank by up to 40% (Fraction
# growth in the union space depends on insertion order), so the job ranks
# every rotation of the seeded order: its cost then hardly depends on the
# seed, and every rotation must give the same union rank.
RANK_WEIGHT = 7

# algebra: series maps at order 6 on all words of weight <= 2 plus two
# seeded y-ending words of weight 3 (those four cost 0.08-0.10 s each in
# exp_partial_t, words ending in x up to 0.23 s, which would let the seed
# rather than the code set the time); both products on every word pair of
# total weight <= 7.
SERIES_ORDER = 6
SERIES_FULL_WEIGHT = 2
SERIES_SAMPLED = 2
PRODUCT_WEIGHT = 7

# eval: `mzv eval` at 2 * 10^4 and the coupled T/S series at 1.5 * 10^3.
EVAL_CUTOFF = 20_000
ST_CUTOFF = 1_500
A07_GAP_AT_1E6 = 2e-5  # |zeta(3) - zeta(2,1)| at cutoff 10^6; the gap scales like 1/N
SLACK = 10.0


def _words(n: int) -> list:
    return ["".join(t) for t in itertools.product("xy", repeat=n)]


def _composition_text(c) -> str:
    return "(" + ",".join(str(k) for k in c) + ")"


def _compositions(n: int) -> list:
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in _compositions(n - k)]


def zagier_dimension(k: int) -> int:
    """d_k from d_0 = 1, d_1 = 0, d_2 = 1 and d_k = d_(k-2) + d_(k-3)."""
    d = [1, 0, 1]
    while len(d) <= k:
        d.append(d[-2] + d[-3])
    return d[k]


def run_cli(mzv, outputs: dict, argv: list):
    """Run `mzv <argv>` in process, capturing stdout; returns (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mzv.cli.main(argv)
    text = buf.getvalue()
    observed = outputs.setdefault("observed", {})
    observed["cli.stdout_bytes"] = observed.get("cli.stdout_bytes", 0) + len(text.encode())
    return code, text


# ---------------------------------------------------------------------------
# verify


def verify_inputs(rng) -> dict:
    families = list(FAMILIES)
    rng.shuffle(families)  # reorders the output only; the work is unchanged
    return {
        "weight": VERIFY_WEIGHT,
        "cutoff": VERIFY_CUTOFF,
        "precision": DIGITS,
        "families": families,
    }


def verify_job(mzv, inp: dict) -> dict:
    out: dict = {}
    argv = [
        "verify",
        "--weight", str(inp["weight"]),
        "--cutoff", str(inp["cutoff"]),
        "--precision", str(inp["precision"]),
        "--families", ",".join(inp["families"]),
        "--format", "json",
    ]
    out["code"], text = run_cli(mzv, out, argv)
    out["reports"] = [json.loads(line) for line in text.splitlines()]
    # 2 zeta(3) - zeta(2,1) = zeta(3) is far from 0: the corrupted duality
    # relation must fail at any cutoff.
    corrupted = mzv.relations.Relation(
        mzv.words.Poly({"xxy": 2, "xyy": -1}), 3, "duality", (("source", "xxy"),)
    )
    out["control"] = [
        r.passed
        for r in mzv.numerics.verify([corrupted], cutoff=inp["cutoff"], digits=inp["precision"])
    ]
    margins = [r["residual"] / r["threshold"] for r in out["reports"] if r["threshold"] > 0]
    out["observed"]["numerics.worst_margin"] = max(margins, default=0.0)
    return out


def verify_check(inp: dict, out: dict) -> list:
    reports = out["reports"]
    checks = [
        ("verify.exit_code_0", out["code"] == 0),
        ("verify.relations_checked", len(reports) > 0),
        (
            "verify.every_family_present",
            {r["relation"].split("[")[0] for r in reports} == set(inp["families"]),
        ),
        ("verify.control_fails", out["control"] == [False]),
    ]
    for r in reports:
        checks.append(
            (f"verify.{r['relation']}", r["passed"] is True and r["residual"] <= r["threshold"])
        )
    return checks


# ---------------------------------------------------------------------------
# rank


def rank_inputs(rng) -> dict:
    families = list(FAMILIES)
    rng.shuffle(families)
    return {"weight": RANK_WEIGHT, "families": families}


def rank_job(mzv, inp: dict) -> dict:
    fams = inp["families"]
    out: dict = {"reports": []}
    for k in range(len(fams)):
        order = fams[k:] + fams[:k]
        argv = [
            "rank",
            "--weight", str(inp["weight"]),
            "--families", ",".join(order),
            "--format", "json",
        ]
        code, text = run_cli(mzv, out, argv)
        out["reports"].append((order, code, json.loads(text)))
    return out


def rank_check(inp: dict, out: dict) -> list:
    w = inp["weight"]
    d = zagier_dimension(w)
    checks = []
    for order, code, report in out["reports"]:
        tag = f"[{','.join(order)}]"
        checks += [
            (f"rank.exit_code_0{tag}", code == 0),
            (f"rank.basis_size{tag}", len(report["basis"]) == 2 ** (w - 2)),
            (f"rank.nullity_is_zagier_dimension{tag}", report["nullity"] == d),
            (f"rank.union_rank{tag}", report["cumulative_rank"] == 2 ** (w - 2) - d),
            (f"rank.every_family_ranked{tag}", set(report["family_ranks"]) == set(order)),
        ]
    return checks


# ---------------------------------------------------------------------------
# algebra


def algebra_inputs(rng) -> dict:
    words = [w for n in range(SERIES_FULL_WEIGHT + 1) for w in _words(n)]
    pool = [w for w in _words(SERIES_FULL_WEIGHT + 1) if w.endswith("y")]
    words += rng.sample(pool, SERIES_SAMPLED)
    return {"order": SERIES_ORDER, "series_words": words, "product_weight": PRODUCT_WEIGHT}


def algebra_job(mzv, inp: dict) -> dict:
    q = mzv.qsym
    order = inp["order"]
    series = {}
    for w in inp["series_words"]:
        series[w] = (
            q.exp_partial_t(w, order),
            q.phi_bar_sigma(w, order),
            q.sigma_t(w, order),
            q.sigma_t_exp(w, order),
        )
    fixed = q.phi_bar_sigma(mzv.words.Poly({"x": 1, "y": 1}), order)

    top = inp["product_weight"]
    products = {}
    for a in range(top + 1):
        for b in range(top + 1 - a):
            for u in _words(a):
                for v in _words(b):
                    products[u, v] = (mzv.products.shuffle(u, v), mzv.products.harmonic(u, v))

    d = mzv.derivations.derivation_D()
    dbar = mzv.derivations.conjugate(d)
    gaps = {
        w: dbar.apply(w) - d.apply(w) for n in range(top) for w in _words(n)
    }
    return {"series": series, "fixed": fixed, "products": products, "gaps": gaps}


def algebra_check(inp: dict, out: dict) -> list:
    checks = []
    for w, (exp_partial, phi_bar, sigma, sigma_exp) in out["series"].items():
        checks.append((f"A04.exp_partial_eq_phi_bar[{w}]", exp_partial == phi_bar))
        checks.append((f"A04.sigma_eq_sigma_exp[{w}]", sigma == sigma_exp))
    phi_x = out["series"]["x"][1]
    order = range(inp["order"] + 1)
    checks.append(
        (
            "A04.phi_bar_of_x_is_geometric",
            all(phi_x.coeff(k).items() == [("x" + "y" * k, 1)] for k in order),
        )
    )
    fixed = out["fixed"]
    checks.append(
        (
            "A04.x_plus_y_fixed",
            fixed.coeff(0).items() == [("x", 1), ("y", 1)]
            and not any(fixed.coeff(k) for k in order[1:]),
        )
    )
    products = out["products"]
    for (u, v), (sh, st) in products.items():
        if (len(u), u) < (len(v), v):
            sh_vu, st_vu = products[v, u]
            checks.append((f"commutative[{u},{v}]", sh == sh_vu and st == st_vu))
        if u == "y":
            checks.append((f"A01[{v}]", sh - st == out["gaps"][v]))
    return checks


# ---------------------------------------------------------------------------
# eval


def eval_inputs(rng) -> dict:
    # one admissible composition of each depth 1, 2, 3 and weight 4..6: the
    # evaluator's cost grows with depth, so fixing the depths keeps seeds
    # comparable
    sampled = []
    for depth in (1, 2, 3):
        pool = [
            c
            for n in range(4, 7)
            for c in _compositions(n)
            if len(c) == depth and c[0] > 1
        ]
        sampled.append(rng.choice(pool))
    st = [c for n in range(2, 5) for c in _compositions(n) if max(c) > 1]
    return {
        "cutoff": EVAL_CUTOFF,
        "precision": DIGITS,
        "compositions": [_composition_text(c) for c in [(3,), (2, 1)] + sampled],
        "st_cutoff": ST_CUTOFF,
        "st_compositions": [list(c) for c in st],
    }


def eval_job(mzv, inp: dict) -> dict:
    out: dict = {"evals": {}}
    for text in inp["compositions"]:
        argv = [
            "eval", text,
            "--cutoff", str(inp["cutoff"]),
            "--precision", str(inp["precision"]),
            "--format", "json",
        ]
        code, line = run_cli(mzv, out, argv)
        out["evals"][text] = (code, json.loads(line))
    n = mzv.numerics
    m = inp["st_cutoff"]
    out["drop"] = []
    for c in map(tuple, inp["st_compositions"]):
        t = n.t_series_eval(c, m)
        s = n.s_series_eval(c, 0, m)
        z = n.mzv_eval((c[0] + 1,) + c[1:], m, inp["precision"])
        out["drop"].append((c, t, s, z))
    return out


def eval_check(inp: dict, out: dict) -> list:
    import mpmath

    mpmath.mp.dps = inp["precision"] + 10
    checks = []
    evals = out["evals"]
    for text, (code, obj) in evals.items():
        checks.append((f"eval.exit_code_0{text}", code == 0))
        if len(obj["composition"]) == 1:
            # the depth-one tail is sum_{n>N} n^-k, which tail_bound must cover
            gap = mpmath.zeta(obj["composition"][0]) - mpmath.mpf(obj["value"])
            checks.append((f"eval.mpmath{text}", 0 <= gap <= obj["tail_bound"]))
    gap = abs(float(evals["(3)"][1]["value"]) - float(evals["(2,1)"][1]["value"]))
    checks.append(("eval.zeta3_vs_zeta21", gap <= A07_GAP_AT_1E6 * 10**6 / inp["cutoff"]))
    for c, t, s, z in out["drop"]:
        resid = abs(float(s.value) - (float(t.value) - float(z.value)))
        budget = SLACK * (s.tail_bound + t.tail_bound + z.tail_bound)
        checks.append((f"A09.drop{_composition_text(c)}", resid <= budget))
    return checks


PARTS = {
    "verify": (verify_inputs, verify_job, verify_check),
    "rank": (rank_inputs, rank_job, rank_check),
    "algebra": (algebra_inputs, algebra_job, algebra_check),
    "eval": (eval_inputs, eval_job, eval_check),
}


def combined(*names):
    """One workload that runs the named parts in turn, in one process."""

    def inputs(rng):
        return {name: PARTS[name][0](rng) for name in names}

    def job(mzv, inp):
        out = {name: PARTS[name][1](mzv, inp[name]) for name in names}
        # each observed figure comes from one part, or adds up across parts
        observed: dict = {}
        for part in out.values():
            for key, value in part.get("observed", {}).items():
                observed[key] = observed.get(key, 0) + value
        out["observed"] = observed
        return out

    def check(inp, out):
        return [c for name in names for c in PARTS[name][2](inp[name], out[name])]

    return inputs, job, check


# The timed runs use two workloads, so that each run can be long enough
# to average over the load swings of a shared machine.  `numeric` exercises
# the evaluators and bypasses exact elimination and Poly accumulation;
# `exact` is the reverse.  Each part also runs on its own for diagnosis.
WORKLOADS = {
    "numeric": combined("verify", "eval"),
    "exact": combined("rank", "algebra"),
    **{name: combined(name) for name in PARTS},
}
