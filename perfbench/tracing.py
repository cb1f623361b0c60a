"""Span recording and layer counters for the traced benchmark run.

The tracer wraps the public entry points of each mzvkit module from the
outside.  Modules bind functions by name at import (``relations`` binds
``shuffle``, ``act``, ``cyclic_C`` and others; ``cli`` and ``qsym`` bind
derivations), so every binding of an original function object in every
mzvkit module is replaced, not only the one in the defining module.
Methods are patched on their class, including aliases such as
``Derivation.__call__``.

A span is ``[name, start, end, parent, note]``; spans stay in memory until
the job ends.  A span's self time is its duration minus the durations of
its direct children.  The job runs inside a root span, so the self times of
all spans add up to the traced job time with nothing counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

SPANS = {
    "products": ("shuffle", "harmonic", "double_shuffle"),
    "derivations": ("Derivation.apply", "cyclic_C", "cyclic_C_bar"),
    "qsym": ("act", "sigma_t", "sigma_t_inverse", "phi_bar_sigma", "sigma_t_exp", "exp_partial_t"),
    "relations": (
        "generate",
        "gen_duality",
        "gen_derivation",
        "gen_cyclic_sum",
        "gen_sum_theorem",
        "gen_hoffman43",
        "gen_ihara_kaneko",
        "gen_ohno",
        "gen_double_shuffle",
        "RowSpace.add",
        "rank_report",
    ),
    "numerics": ("mzv_eval", "zeta_of_poly", "verify", "t_series_eval", "s_series_eval"),
    "cli": ("main",),
}

SERIES = ("sigma_t", "sigma_t_inverse", "phi_bar_sigma", "sigma_t_exp", "exp_partial_t")

CACHES = {
    "products": ("_shuffle_words", "_harmonic_words"),
    "derivations": ("_apply_word", "_cyclic_word"),
    "qsym": ("_act_word", "complete_h", "_dn", "_partial"),
}

ROOT = "bench.job"


def _length(bound, result):
    return len(result)


def _result(bound, result):
    return result


class Tracer:
    """Patches mzvkit for one traced job and turns the spans into layer metrics."""

    def __init__(self, package):
        self.package = package
        self.modules = [
            m for name, m in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        self.spans: list = []
        self.missing: list = []
        self.counts = {"poly_add_calls": 0, "poly_add_terms_copied": 0, "poly_mul_calls": 0}
        self._stack = [-1]
        self._undo: list = []
        self._mzv_cache_start = self._mzv_cache_len = len(package.numerics._mzv_cache)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = note(bound.arguments, result)
            return result

        return traced

    def _note_mzv_eval(self, bound, result):
        """(composition length x cutoff) if this call filled the cache, else None."""
        size = len(self.package.numerics._mzv_cache)
        missed = size > self._mzv_cache_len
        self._mzv_cache_len = size
        if not missed:
            return None
        return len(tuple(bound["c"])) * bound["cutoff"]

    def _notes(self) -> dict:
        """What each span keeps about its call, from its bound arguments and result."""
        notes = {name: _length for name in ("shuffle", "harmonic", "generate")}
        notes["RowSpace.add"] = _result
        notes["mzv_eval"] = self._note_mzv_eval
        notes["t_series_eval"] = lambda bound, result: _pair_count(bound["cutoff"], 0)
        notes["s_series_eval"] = lambda bound, result: _pair_count(bound["cutoff"], -1)
        return notes

    def install(self):
        notes = self._notes()
        for module_name, names in SPANS.items():
            module = getattr(self.package, module_name)
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or attr not in owner.__dict__:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                original = owner.__dict__[attr]
                wrapped = self._wrap(name, original, notes.get(name))
                # a method is patched on its class, aliases included
                for target in [owner] if owner_name else self.modules:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._set(target, key, wrapped)
        self._patch_poly()

    def _patch_poly(self):
        poly = self.package.words.Poly
        add, mul = poly.__add__, poly.__mul__
        counts = self.counts

        def counted_add(self, other):
            counts["poly_add_calls"] += 1
            counts["poly_add_terms_copied"] += len(self)
            return add(self, other)

        def counted_mul(self, other):
            counts["poly_mul_calls"] += 1
            return mul(self, other)

        self._set(poly, "__add__", counted_add)
        self._set(poly, "__mul__", counted_mul)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def root(self):
        """The root span around the whole job."""
        span = [ROOT, time.perf_counter(), 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- metrics -----------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, observed: dict) -> dict:
        spans = self.spans
        own = self.self_times()
        self_by: dict = {}
        dur_by: dict = {}
        calls_by: dict = {}
        for (name, start, end, _, _), s in zip(spans, own):
            self_by[name] = self_by.get(name, 0.0) + s
            dur_by[name] = dur_by.get(name, 0.0) + (end - start)
            calls_by[name] = calls_by.get(name, 0) + 1

        def notes(name):
            return [sp[4] for sp in spans if sp[0] == name]

        def self_sum(*names):
            return sum(self_by.get(n, 0.0) for n in names)

        m: dict = {}
        m["trace.job_s"] = spans[0][2] - spans[0][1]
        m["trace.self_sum_s"] = sum(own)
        m["trace.spans"] = len(spans)
        m["bench.self_s"] = own[0]

        # numerics
        evals = notes("mzv_eval")
        miss_terms = sum(n for n in evals if n is not None)
        miss_s = sum(
            (sp[2] - sp[1] for sp in spans if sp[0] == "mzv_eval" and sp[4] is not None), 0.0
        )
        misses = len(self.package.numerics._mzv_cache) - self._mzv_cache_start
        m["numerics.mzv_eval_calls"] = len(evals)
        m["numerics.mzv_eval_miss_s"] = miss_s
        m["numerics.mzv_cache_hit_ratio"] = _ratio(len(evals) - misses, len(evals))
        m["numerics.ns_per_term"] = _ratio(miss_s * 1e9, miss_terms)
        m["numerics.verify_self_s"] = self_sum("verify")
        m["numerics.zeta_of_poly_self_s"] = self_sum("zeta_of_poly")
        m["numerics.t_series_s"] = dur_by.get("t_series_eval", 0.0)
        m["numerics.s_series_s"] = dur_by.get("s_series_eval", 0.0)
        pairs = sum(notes("t_series_eval")) + sum(notes("s_series_eval"))
        m["numerics.st_ns_per_pair"] = _ratio(
            (m["numerics.t_series_s"] + m["numerics.s_series_s"]) * 1e9, pairs
        )
        m["numerics.worst_margin"] = observed.get("numerics.worst_margin", 0.0)

        # relations
        adds = [(sp[2] - sp[1], sp[4]) for sp in spans if sp[0] == "RowSpace.add"]
        add_ms = sorted(d * 1e3 for d, _ in adds)
        added = sum(1 for _, grew in adds if grew)
        m["relations.rowspace_add_s"] = sum((d for d, _ in adds), 0.0)
        m["relations.rowspace_add_p50_ms"] = _percentile(add_ms, 50)
        m["relations.rowspace_add_p99_ms"] = _percentile(add_ms, 99)
        m["relations.rowspace_add_calls"] = len(adds)
        m["relations.rows_added"] = added
        m["relations.useful_row_ratio"] = _ratio(added, len(adds))
        m["relations.generate_self_s"] = self_sum(*(n for n in SPANS["relations"] if n.startswith("gen")))
        m["relations.relations_out"] = sum(notes("generate"))
        m["relations.rank_report_self_s"] = self_sum("rank_report")

        # products
        m["products.shuffle_s"] = self_sum("shuffle")
        m["products.harmonic_s"] = self_sum("harmonic")
        m["products.double_shuffle_self_s"] = self_sum("double_shuffle")
        m["products.calls"] = calls_by.get("shuffle", 0) + calls_by.get("harmonic", 0)
        m["products.terms_out"] = sum(notes("shuffle")) + sum(notes("harmonic"))

        # derivations and qsym
        m["derivations.apply_s"] = self_sum("Derivation.apply")
        m["derivations.cyclic_s"] = self_sum("cyclic_C", "cyclic_C_bar")
        m["qsym.act_s"] = self_sum("act")
        m["qsym.series_s"] = sum(
            (
                sp[2] - sp[1]
                for sp in spans
                if sp[0] in SERIES and (sp[3] < 0 or spans[sp[3]][0] not in SERIES)
            ),
            0.0,
        )
        m["qsym.series_self_s"] = self_sum(*SERIES)

        # memo tables of products, derivations and qsym
        for layer, (hits, misses, entries) in self._cache_stats().items():
            m[f"{layer}.cache_hit_ratio"] = _ratio(hits, hits + misses)
            m[f"{layer}.cache_entries"] = entries

        # words
        m["words.poly_add_calls"] = self.counts["poly_add_calls"]
        m["words.poly_add_terms_copied"] = self.counts["poly_add_terms_copied"]
        m["words.poly_mul_calls"] = self.counts["poly_mul_calls"]

        # cli
        m["cli.main_self_s"] = self_sum("main")
        m["cli.stdout_bytes"] = observed.get("cli.stdout_bytes", 0)
        return m

    def span_table(self) -> dict:
        """Calls and self seconds per span name, for the detail output."""
        table: dict = {}
        for (name, *_), s in zip(self.spans, self.self_times()):
            calls, total = table.get(name, (0, 0.0))
            table[name] = (calls + 1, total + s)
        return table

    def _cache_stats(self) -> dict:
        out = {}
        for layer, names in CACHES.items():
            module = getattr(self.package, layer)
            hits = misses = entries = 0
            for name in names:
                fn = getattr(module, name, None)
                if fn is None or not hasattr(fn, "cache_info"):
                    self.missing.append(f"{layer}.{name}.cache_info")
                    continue
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
                entries += info.currsize
            out[layer] = (hits, misses, entries)
        return out


def _pair_count(cutoff: int, offset: int) -> int:
    """(n, j) pairs a T (offset 0) or S (offset -1) sum visits at N and N // 2.

    For each outer index n <= N the inner index runs over n + offset values,
    so one sum visits N (N + 1) / 2 + offset N pairs.  The figure is computed
    from the index domain, not counted inside the program.
    """
    return sum(n * (n + 1) // 2 + offset * n for n in (cutoff, cutoff // 2))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _percentile(sorted_values: list, p: int) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1]
