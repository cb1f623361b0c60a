"""Command-line front end.

Subcommands cover the algebra (dual, shuffle, harmonic, derive, act, series),
relation generation and exact ranks (relations, rank), and numerical
evaluation and verification (eval, verify).  Output is deterministic; with
--format json it is machine-readable JSON lines.  Exit status is 1 on a
domain error or a relation proved false at that cutoff and precision, else 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from dataclasses import asdict

from . import numerics, qsym, relations
from .derivations import (
    conjugate,
    cyclic_C,
    cyclic_C_bar,
    derivation_D,
    derivation_Dn,
    ihara_kaneko,
)
from .products import harmonic, shuffle
from .words import (
    DomainError,
    Poly,
    check_int,
    dual_composition,
    format_composition,
    format_poly,
    parse_composition,
    parse_word,
    poly_to_obj,
)


def _poly_out(p: Poly, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly_to_obj(p), sort_keys=True)
    return format_poly(p)


def _emit(lines, out_path):
    text = "".join(line + "\n" for line in lines)  # no lines: nothing, not an empty line
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_dual(args, fmt):
    c = parse_composition(args.composition)
    d = dual_composition(c)
    if fmt == "json":
        return [json.dumps({"dual": list(d)})], 0
    return [format_composition(d)], 0


# subcommand name -> product of two words
_PRODUCTS = {"shuffle": shuffle, "harmonic": harmonic}


def _cmd_product(args, fmt):
    p = _PRODUCTS[args.command](parse_word(args.u), parse_word(args.v))
    return [_poly_out(p, fmt)], 0


# derive --op name -> map of (word, --n)
_DERIVE_OPS = {
    "D": lambda w, n: derivation_D().apply(w),
    "Dbar": lambda w, n: conjugate(derivation_D()).apply(w),
    "Dn": lambda w, n: derivation_Dn(n).apply(w),
    "partial_n": lambda w, n: ihara_kaneko(n).apply(w),
    "C": lambda w, n: cyclic_C(w),
    "Cbar": lambda w, n: cyclic_C_bar(w),
}


def _cmd_derive(args, fmt):
    p = _DERIVE_OPS[args.op](parse_word(args.word), check_int(args.n, 1, "index"))
    return [_poly_out(p, fmt)], 0


# act --elem name -> quasi-symmetric element of degree --n; --elem word takes a word instead
_ACT_ELEMS = {"pn": qsym.power_p, "en": qsym.elementary_e, "hn": qsym.complete_h}


def _cmd_act(args, fmt):
    *actor, target = args.words
    if args.elem == "word":
        if len(actor) != 1:
            raise DomainError("act --elem word needs two word arguments: actor target")
        if args.n is not None:
            raise DomainError("act --elem word takes no --n")
        u = parse_word(actor[0])
    else:
        if args.n is None:
            raise DomainError(f"act --elem {'/'.join(_ACT_ELEMS)} requires --n")
        if actor:
            raise DomainError("act needs one target word")
        u = _ACT_ELEMS[args.elem](args.n)
    return [_poly_out(qsym.act(u, parse_word(target)), fmt)], 0


# series --op name -> t-series map of (word, --order)
_SERIES_OPS = {"sigma": qsym.sigma_t, "exp-partial": qsym.exp_partial_t, "phi": qsym.phi_bar_sigma}


def _cmd_series(args, fmt):
    series = _SERIES_OPS[args.op](parse_word(args.word), args.order)
    lines = []
    for k in range(args.order + 1):
        coeff = series.coeff(k)
        if fmt == "json":
            lines.append(json.dumps({"degree": k, "coeff": poly_to_obj(coeff)}, sort_keys=True))
        else:
            lines.append(f"t^{k}: {format_poly(coeff)}")
    return lines, 0


def _families(arg: str):
    if arg == "all":
        return relations.FAMILIES
    return tuple(f.strip() for f in arg.split(",") if f.strip())


def _relation_obj(r):
    return {
        "family": r.family,
        "weight": r.weight,
        "params": dict(r.params),
        "element": poly_to_obj(r.element),
    }


def _cmd_relations(args, fmt):
    rels = relations.generate(args.weight, _families(args.families))
    if fmt == "json":
        return [json.dumps(_relation_obj(r), sort_keys=True) for r in rels], 0
    return [f"{r.label()}: {format_poly(r.element)}" for r in rels], 0


def _cmd_rank(args, fmt):
    report = relations.rank_report(args.weight, _families(args.families))
    if fmt == "json":
        return [json.dumps(asdict(report), sort_keys=True)], 0
    lines = [f"weight {report.weight}: basis size {len(report.basis)}"]
    for fam, rk in report.family_ranks.items():
        lines.append(f"  {fam}: rank {rk} ({report.relation_counts[fam]} relations)")
    lines.append(f"  union rank {report.cumulative_rank}, nullity {report.nullity}")
    return lines, 0


def _cmd_verify(args, fmt):
    numerics.check_args(args.cutoff, args.precision)
    rels = relations.generate(args.weight, _families(args.families))
    reports = numerics.verify(rels, cutoff=args.cutoff, digits=args.precision)
    code = 0 if all(rep.passed for rep in reports) else 1
    if fmt == "json":
        return [json.dumps(asdict(rep), sort_keys=True) for rep in reports], code
    return [
        f"{'pass' if rep.passed else 'FAIL'} {rep.relation} "
        f"residual={rep.residual:.3e} threshold={rep.threshold:.3e}"
        for rep in reports
    ], code


def _cmd_eval(args, fmt):
    c = parse_composition(args.composition)
    r = numerics.mzv_eval(c, cutoff=args.cutoff, digits=args.precision)
    if fmt == "json":
        obj = dict(composition=list(c), value=str(r.value), cutoff=args.cutoff, tail_bound=r.tail_bound)
        return [json.dumps(obj, sort_keys=True)], 0
    return [f"{format_composition(c)} = {r.value}  (cutoff {args.cutoff}, tail <= {r.tail_bound:.3e})"], 0


@functools.cache  # one parser per process; parse_args returns a fresh Namespace each call
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mzv", description=__doc__)
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--out", default=None, help="write output to a file instead of stdout")
    # accepted before or after the subcommand; SUPPRESS keeps the subparser
    # from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    at_weight = argparse.ArgumentParser(add_help=False)  # relations, rank, verify
    at_weight.add_argument("--weight", type=int, required=True)
    at_weight.add_argument("--families", default="all")
    evaluated = argparse.ArgumentParser(add_help=False)  # verify, eval
    evaluated.add_argument("--cutoff", type=int, default=numerics.DEFAULT_CUTOFF)
    evaluated.add_argument("--precision", type=int, default=numerics.DEFAULT_DIGITS)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(run=run)
        return p

    p = command("dual", _cmd_dual, "dual of an admissible composition")
    p.add_argument("composition")

    for name in _PRODUCTS:
        p = command(name, _cmd_product, f"{name} product of two words")
        p.add_argument("u")
        p.add_argument("v")

    p = command("derive", _cmd_derive, "apply a derivation or cyclic derivation")
    p.add_argument("--op", choices=tuple(_DERIVE_OPS), required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("word")

    p = command("act", _cmd_act, "act by a quasi-symmetric element on a word")
    p.add_argument("--elem", choices=(*_ACT_ELEMS, "word"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("words", nargs="+")

    p = command("series", _cmd_series, "truncated t-series applied to a word")
    p.add_argument("--op", choices=tuple(_SERIES_OPS), required=True)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("word")

    command("relations", _cmd_relations, "generate relation families at a weight", at_weight)
    command("rank", _cmd_rank, "exact ranks of relation spans at a weight", at_weight)
    command("verify", _cmd_verify, "numerically verify relation families", at_weight, evaluated)
    p = command("eval", _cmd_eval, "evaluate one composition", evaluated)
    p.add_argument("composition")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines, code = args.run(args, args.format)
        _emit(lines, args.out)
    # OSError: e.g. --out in a missing directory; OverflowError: an index past sys.maxsize
    except (DomainError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
