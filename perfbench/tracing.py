"""Traced runs: spans around the calls into each flab module, from outside it.

``Tracer.install()`` wraps every public function of each layer module (and a
few methods and private helpers named in ``EXTRA``), and rebinds every copy
of a wrapped name that another flab module imported with ``from .x import``.
Spans are aggregated in memory per function: calls, inclusive and self
seconds (self = inclusive minus the time of wrapped children), and
parent->child call counts.  ``layer_metrics()`` turns one request's
aggregate into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

LAYERS = (
    "perms",
    "groups",
    "subgroups",
    "lattice",
    "series",
    "formations",
    "hypercenter",
    "intersections",
    "corpus",
    "checks",
    "report",
    "cli",
)

CHECK_NAMES = (
    "baer-a1",
    "cor-a4",
    "prop1",
    "theorem-a",
    "theorem-b",
    "prop2",
    "sidorov",
    "lemmas",
    "boundary",
    "delta-phi",
)

# (module, attribute path, span name) of wrapped callables that are not
# public module-level functions.
EXTRA = (
    ("groups", "StabilizerChain.__init__", "groups.chain.init"),
    ("groups", "StabilizerChain.extend", "groups.chain.extend"),
    ("groups", "StabilizerChain.contains", "groups.chain.contains"),
    ("groups", "Group.__init__", "groups.group.init"),
    ("groups", "QuotientMap.image_mask", "groups.quotient_image.image"),
    ("groups", "QuotientMap.preimage_mask", "groups.quotient_image.preimage"),
    ("series", "_minimal_normal_above", "series.minimal_normal_above"),
)


class Tracer:
    """In-memory span aggregation for one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.counts: Counter = Counter()  # hits, builds, per-check seconds
        self._stack: list[list] = []  # open spans: [name, child_seconds]
        self._open: Counter = Counter()  # name -> open spans of that name
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; before(args, kwargs) runs ahead of the call and
        its result is passed to after(state, args, result, seconds)."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges, open_ = self._stack, self.edges, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            outermost = open_[name] == 0
            open_[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                open_[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                stats[0] += 1
                if outermost:
                    stats[1] += seconds
                stats[2] += seconds - frame[1]
            if after is not None:
                after(state, args, result, seconds)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn to count calls only (for calls made millions of times)."""
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {short: importlib.import_module(f"flab.{short}") for short in LAYERS}
        everywhere = [importlib.import_module("flab")] + list(modules.values())
        hooks = _hooks(self.counts, modules["formations"].formation_key)
        replace: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    name = f"{short}.{attr}"
                    replace[id(obj)] = self.span(name, obj, *hooks.get(name, (None, None)))
        for short, path, name in EXTRA:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(modules[short], owner_name) if owner_name else modules[short]
            obj = getattr(owner, attr)
            wrapped = self.span(name, obj, *hooks.get(name, (None, None)))
            if owner_name:
                self._set(owner, attr, wrapped)
            else:
                replace[id(obj)] = wrapped
        perm = modules["perms"].Permutation
        self._set(perm, "__mul__", self.counter("perms.mul.calls", perm.__mul__))
        # every module-level binding of a wrapped function, wherever imported
        for module in everywhere:
            for attr, obj in list(vars(module).items()):
                wrapped = replace.get(id(obj))
                if wrapped is not None and wrapped.__wrapped__ is obj:
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- output ---------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]} for k, v in sorted(self.spans.items())},
            "edges": {f"{p or '-'}>{c}": n for (p, c), n in sorted(self.edges.items(), key=str)},
            "counts": dict(sorted(self.counts.items())),
        }


# ---------------------------------------------------------------------------
# Cache probes, taken before each call from the group's own caches
# ---------------------------------------------------------------------------


def _ambient(X):
    return getattr(X, "ambient", X)


def _hit_quotient(args, kwargs):
    G, normal_mask = args[0], args[1]
    return normal_mask in G._quotients


def _hit_normal_masks(args, kwargs):
    X = args[0]
    G = _ambient(X)
    if X is G or X.is_full:
        if G._normal_masks is not None:
            return True
    return X is not G and X.mask in G._normal_masks_by_mask


def _hit_lattice(args, kwargs):
    return _ambient(args[0])._lattice is not None


def _product_count(args, kwargs):
    return len(args[0]._factor_products)


def _hooks(counts: Counter, formation_key) -> dict[str, tuple]:
    """(before, after) pairs by span name; they add to ``counts``.
    ``formation_key`` is the unwrapped memo-key function of the hypercenter."""

    def hit_hypercenter(args, kwargs):
        test, G = args[0], args[1]
        if callable(test):
            return False
        method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
        return (formation_key(test), method) in G._hypercenters

    def count_hits(name):
        def after(hit, args, result, seconds):
            counts[f"{name}.hits"] += hit

        return after

    def after_lattice(hit, args, result, seconds):
        counts["lattice.all_subgroups.hits"] += hit
        if not hit:
            counts["lattice.all_subgroups.builds"] += 1
            counts["lattice.subgroups"] += len(result.refs)

    def after_products(before, args, result, seconds):
        counts["hypercenter.factor_products.builds"] += len(args[0]._factor_products) - before

    def after_run_check(state, args, result, seconds):
        counts[f"checks.{args[0]}.s"] += seconds

    return {
        "groups.quotient": (_hit_quotient, count_hits("groups.quotient")),
        "subgroups.normal_subgroup_masks": (
            _hit_normal_masks,
            count_hits("subgroups.normal_subgroup_masks"),
        ),
        "lattice.all_subgroups": (_hit_lattice, after_lattice),
        "hypercenter.hypercenter": (hit_hypercenter, count_hits("hypercenter.hypercenter")),
        "hypercenter.build_factor_action_product": (_product_count, after_products),
        "checks.run_check": (None, after_run_check),
    }


def start() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(trace: dict, cpu_s: float, wall_s: float) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics from one request's trace."""
    spans, counts, edges = trace["spans"], trace["counts"], trace["edges"]

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def inclusive(*names):
        return sum(spans.get(n, {}).get("inclusive_s", 0.0) for n in names)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    out: dict[str, tuple[float, str]] = {}
    for check in CHECK_NAMES:
        out[f"checks.{check}.s"] = (counts.get(f"checks.{check}.s", 0.0), "s")
    out["corpus.load_s"] = (inclusive("corpus.build_corpus", "corpus.load_corpus_file"), "s")

    def call_time(metric, *names):
        out[f"{metric}.calls"] = (calls(*names), "count")
        out[f"{metric}.self_s"] = (self_s(*names), "s")

    def cached(metric, name):
        call_time(metric, name)
        out[f"{metric}.hit_ratio"] = (ratio(counts.get(f"{name}.hits", 0), calls(name)), "ratio")

    call_time("groups.make_group", "groups.make_group")
    chain = ("groups.chain.init", "groups.chain.extend", "groups.chain.contains")
    out["groups.chain.builds"] = (calls("groups.chain.init"), "count")
    out["groups.chain.self_s"] = (self_s(*chain), "s")
    out["groups.group.builds"] = (calls("groups.group.init"), "count")
    cached("groups.quotient", "groups.quotient")
    out["groups.quotient_image.self_s"] = (
        self_s("groups.quotient_image.image", "groups.quotient_image.preimage"),
        "s",
    )
    out["perms.mul.calls"] = (counts.get("perms.mul.calls", 0), "count")
    call_time("subgroups.closure_mask", "subgroups.closure_mask")
    call_time("subgroups.gens_for_mask", "subgroups.gens_for_mask")
    out["subgroups.gens_for_mask.closures_per_call"] = (
        ratio(edges.get("subgroups.gens_for_mask>subgroups.closure_mask", 0), calls("subgroups.gens_for_mask")),
        "closures/call",
    )
    cached("subgroups.normal_subgroup_masks", "subgroups.normal_subgroup_masks")
    call_time("subgroups.normalizer", "subgroups.normalizer")
    call_time("subgroups.centralizer_of_factor", "subgroups.centralizer_of_factor")
    out["lattice.all_subgroups.builds"] = (counts.get("lattice.all_subgroups.builds", 0), "count")
    out["lattice.all_subgroups.hit_ratio"] = (
        ratio(counts.get("lattice.all_subgroups.hits", 0), calls("lattice.all_subgroups")),
        "ratio",
    )
    out["lattice.all_subgroups.self_s"] = (self_s("lattice.all_subgroups"), "s")
    out["lattice.subgroups"] = (counts.get("lattice.subgroups", 0), "count")
    call_time("series.minimal_normal_above", "series.minimal_normal_above")
    call_time("series.chief_series", "series.chief_series")
    for fn in ("formation_member", "formation_residual", "local_def_member"):
        call_time(f"formations.{fn}", f"formations.{fn}")
    cached("hypercenter.hypercenter", "hypercenter.hypercenter")
    call_time("hypercenter.central_local", "hypercenter.is_f_central_local")
    call_time("hypercenter.central_oracle", "hypercenter.is_f_central_oracle")
    out["hypercenter.factor_products.builds"] = (counts.get("hypercenter.factor_products.builds", 0), "count")
    call_time("intersections.f_maximal_subgroups", "intersections.f_maximal_subgroups")
    out["intersections.normalizer_intersection.self_s"] = (
        self_s(
            "intersections.f_maximal_normalizer_intersection",
            "intersections.sylow_normalizer_intersection",
        ),
        "s",
    )
    call_time("intersections.is_f_subnormal", "intersections.is_f_subnormal")
    out["intersections.subnormalizer_intersection.self_s"] = (
        self_s("intersections.subnormalizer_intersection"),
        "s",
    )
    out["intersections.abnormal_maximal.self_s"] = (
        self_s("intersections.abnormal_maximal_intersection"),
        "s",
    )
    out["report.render_report.self_s"] = (self_s("report.render_report"), "s")
    out["process.cpu_s"] = (cpu_s, "s")
    out["trace.wall_s"] = (wall_s, "s")
    return out
