"""Per-layer tracing installed from outside the library.

The library is not changed.  Instead, timing wrappers replace the layer
functions in every namespace that holds them: the defining module, each
module that imported the name (`certificates` imports `blocks`, `cli`
imports `classify_detailed`, ...), the package itself, and the recipe
tuple `certificates._DISPATCH`, which captured the function objects at
import.  Patching only the defining module would miss most calls.

Each call becomes a span (name, start, end, parent id).  A span's self time
is its duration minus the part its child spans cover; time in helpers that
are not wrapped counts toward the wrapped caller.  Aggregates are exact for
every call; the raw spans are kept in memory up to SPAN_CAP and written out
when the worker exits.

Not wrapped on purpose: allowed_contributions (millions of cached calls on
the oracle workload; its cache_info() gives the counts), gcd, private
helpers and methods other than ScanReport.to_csv.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter

LAYERS = ("numtheory", "decomposition", "certificates", "selector_models", "rc24", "cli")

TRACED = {
    "numtheory": ("is_prime", "bertrand_prime", "primes_up_to", "goldbach_triples"),
    "decomposition": (
        "admissible_sums",
        "blocks",
        "find_blocking_decomposition",
        "classify_detailed",
        "classify",
        "provable_by_theorem",
    ),
    "certificates": (
        "build_certificate",
        "recipe_greater",
        "recipe_odd",
        "recipe_prime_divisor",
        "recipe_prime_power",
        "recipe_fermat_shift",
        "recipe_even_gap",
        "recipe_even_dense",
    ),
    "selector_models": (
        "build_cyclic_model",
        "verify_equivariance",
        "witness_no_invariant_choice",
        "verify_gcd_claim",
        "catalog_models",
        "find_embeddings",
        "are_isomorphic",
        "build_fraisse_stage",
        "run_fraisse_stages",
        "check_one_point_extension",
    ),
    "rc24": ("score", "choose4", "verify_rc24", "check_equivariance"),
}

# Generators are counted per item yielded instead of timed: function -> count.
COUNTED = {"decomposition.iter_decompositions": "decomposition.partitions_visited"}

SPAN_CAP = 100_000


def _admissible_sums(counts, args, result):
    counts["decomposition.admissible_sums.parts"] += len(args[0].parts)
    counts["decomposition.admissible_sums.mask_bits"] += result.total


def _blocks(counts, args, result):
    counts["decomposition.blocks.blocking"] += bool(result)


def _goldbach_triples(counts, args, result):
    counts["numtheory.goldbach_triples.triples"] += len(result)


def _build_certificate(counts, args, result):
    counts[f"certificates.wins.{result.recipe.value}"] += 1


def _build_cyclic_model(counts, args, result):
    counts["selector_models.build_cyclic_model.subsets"] += len(result.model.sel)


def _find_embeddings(counts, args, result):
    sub, target = args[0], args[1]
    counts["selector_models.find_embeddings.candidates"] += math.perm(len(target.domain), len(sub.domain))
    counts["selector_models.find_embeddings.found"] += len(result)


HOOKS = {
    "decomposition.admissible_sums": _admissible_sums,
    "decomposition.blocks": _blocks,
    "numtheory.goldbach_triples": _goldbach_triples,
    "certificates.build_certificate": _build_certificate,
    "selector_models.build_cyclic_model": _build_cyclic_model,
    "selector_models.find_embeddings": _find_embeddings,
}


class Tracer:
    """Spans and counts for one process; install() patches the library."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self.site_calls: Counter = Counter()
        self.spans_opened = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.names.index(name)

    def timed(self, fn, name: str, site: str):
        """A span-recording stand-in for fn, called from namespace site."""
        idx = self._index(name)
        hook = HOOKS.get(name)
        site_key = (site, name)
        stack, calls, self_s, counts, site_calls = (
            self._stack, self.calls, self.self_s, self.counts, self.site_calls)
        ids, parents, names, starts, ends = (
            self.span_id, self.span_parent, self.span_name, self.span_start, self.span_end)
        clock, cap = time.perf_counter, SPAN_CAP
        tracer = self

        # Everything the wrapper touches is a local: it runs millions of times
        # in one traced repetition of the large workload.
        def traced(*args, **kwargs):
            sid = tracer.spans_opened
            tracer.spans_opened = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[idx] += duration - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += duration
                if sid < cap:
                    ids.append(sid)
                    parents.append(parent)
                    names.append(idx)
                    starts.append(start)
                    ends.append(end)
            site_calls[site_key] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, name: str):
        counts = self.counts

        def generator(*args, **kwargs):
            for value in fn(*args, **kwargs):
                counts[name] += 1
                yield value

        generator.__wrapped__ = fn
        return generator

    def install(self, package) -> None:
        """Patch every namespace of the package that holds a traced function."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        originals = {}  # id of a library function -> (span or count name, timed?)
        for layer, names in TRACED.items():
            for fname in names:
                originals[id(getattr(modules[layer], fname))] = (f"{layer}.{fname}", True)
        for qualified, count_name in COUNTED.items():
            layer, fname = qualified.split(".")
            originals[id(getattr(modules[layer], fname))] = (count_name, False)
        for site, ns in {"ramseychoice": package, **modules}.items():
            for attr, value in list(vars(ns).items()):
                if id(value) in originals:
                    name, timed = originals[id(value)]
                    setattr(ns, attr, self.timed(value, name, site) if timed else self.counted(value, name))
        certificates = modules["certificates"]
        certificates._DISPATCH = tuple(getattr(certificates, f.__name__) for f in certificates._DISPATCH)
        report = modules["cli"].ScanReport
        report.to_csv = self.timed(report.to_csv, "cli.to_csv", "cli")

    def summary(self) -> dict:
        """Exact per-function calls and self time, plus the hook counts."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counts": dict(self.counts),
            "site_calls": {f"{site}->{name}": n for (site, name), n in self.site_calls.items()},
            "spans": self.spans_opened,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            rows = zip(self.span_id, self.span_parent, self.span_name, self.span_start, self.span_end)
            for sid, parent, idx, start, end in rows:
                out.write(f"{sid}\t{parent}\t{self.names[idx]}\t{start:.9f}\t{end:.9f}\n")


def per_layer(summary: dict, caches: dict, recipes) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run.

    caches holds cache_info() deltas as {"is_prime": [hits, misses], ...};
    recipes lists every Recipe value so each gets a win count, zero or not.
    """
    calls, self_s, counts, sites = summary["calls"], summary["self_s"], summary["counts"], summary["site_calls"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def layer_self(layer):
        return sum(t for name, t in self_s.items() if name.split(".")[0] == layer)

    hits, misses = caches["is_prime"]
    ac_hits, ac_misses = caches["allowed_contributions"]
    built = sum(counts.get(f"certificates.wins.{r}", 0) for r in recipes)
    out = {
        "numtheory.is_prime.calls": hits + misses,
        "numtheory.is_prime.cache_hit_ratio": ratio(hits, hits + misses),
    }
    for name in ("numtheory.goldbach_triples", "numtheory.primes_up_to",
                 "decomposition.admissible_sums", "decomposition.find_blocking_decomposition",
                 "decomposition.blocks", "certificates.build_certificate",
                 "selector_models.build_cyclic_model", "selector_models.find_embeddings",
                 "rc24.verify_rc24", "rc24.check_equivariance", "cli.to_csv"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("numtheory.goldbach_triples", "numtheory.primes_up_to",
                 "decomposition.admissible_sums", "decomposition.find_blocking_decomposition",
                 "certificates.build_certificate", "selector_models.build_cyclic_model",
                 "selector_models.verify_equivariance", "selector_models.catalog_models",
                 "selector_models.build_fraisse_stage", "selector_models.check_one_point_extension",
                 "selector_models.verify_gcd_claim", "rc24.verify_rc24", "rc24.check_equivariance",
                 "cli.to_csv"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self(layer)
    for name in ("numtheory.goldbach_triples.triples", "decomposition.admissible_sums.parts",
                 "decomposition.admissible_sums.mask_bits", "decomposition.partitions_visited",
                 "selector_models.build_cyclic_model.subsets",
                 "selector_models.find_embeddings.candidates", "selector_models.find_embeddings.found"):
        out[name] = counts.get(name, 0)
    out["decomposition.allowed_contributions.cache_hit_ratio"] = ratio(ac_hits, ac_hits + ac_misses)
    out["decomposition.blocks.hit_ratio"] = ratio(
        counts.get("decomposition.blocks.blocking", 0), calls.get("decomposition.blocks", 0))
    out["certificates.verifications_per_certificate"] = ratio(
        sites.get("certificates->decomposition.blocks", 0), built)
    for r in recipes:
        out[f"certificates.wins.{r}"] = counts.get(f"certificates.wins.{r}", 0)
    out["certificates.fallback_ratio"] = ratio(counts.get("certificates.wins.ExhaustiveFallback", 0), built)
    return out
