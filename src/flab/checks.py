"""Check drivers: evaluate the verified identities over a corpus.

Every check recomputes both sides of its identity through independent code
paths and reports per-group verdicts with witnesses on failure.  Assertive
checks contribute to the process exit code; search/probe checks (boundary,
the supersoluble subnormalizer probe, soluble-kind partition probes) are
informational and never flip it.

A check is a per-group function listed in ``CHECKS``.  ``run_checks`` loops
over the corpus once and, on each group, runs every configured check in turn.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .corpus import Corpus, CorpusEntry
from .errors import SpecParseError
from .formations import (
    Cross,
    FormationExpr,
    Gpi,
    Nil,
    NilPow,
    SolPi,
    NIL,
    SUPERSOLUBLE,
    _format_primeset,
    _parse_block,
    format_formation,
    formation_member,
    parse_formation,
    residual_mask,
    partition_blocks_for,
    pi_support,
    boundary_counterexample_search,
    supports_local_definition,
)
from .groups import Group, _split_top_level, quotient
from .hypercenter import hypercenter
from .intersections import (
    CYCLIC_PRIMARY,
    SYLOW,
    SubgroupFunctor,
    abnormal_maximal_intersection,
    f_maximal_intersection,
    f_maximal_normalizer_intersection,
    is_f_subnormal,
    subnormalizer_intersection,
    sylow_normalizer_intersection,
)
from .lattice import all_subgroups, frattini
from .series import is_soluble
from .subgroups import (
    SubgroupRef,
    bits,
    closure_mask,
    commutator_subgroup,
    full_subgroup,
    join,
    normal_subgroup_masks,
    o_pi_up,
    prime_factors,
    product_mask,
    subgroup_from_mask,
    trivial_subgroup,
)

_SAMPLE_SEED = 0xF1AB
_EXHAUSTIVE_ORDER = 60
_PROBE_NOTE = "no equality guarantee - negative-case probe"
_GPI23 = Gpi(frozenset({2, 3}))
_LEMMA_FORMATIONS = (NIL, SUPERSOLUBLE, _GPI23)
_SIDOROV_RS = (1, 2, 3)


@dataclass
class CheckReport:
    check: str
    params: dict
    rows: list[dict]
    assertive: bool
    elapsed_ms: int = 0

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r["pass"])

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows if not r["pass"])

    @property
    def ok(self) -> bool:
        return (not self.assertive) or self.failed == 0


def _witness(lhs: SubgroupRef, rhs: SubgroupRef) -> dict:
    return {
        "lhs_order": lhs.order,
        "rhs_order": rhs.order,
        "lhs_fingerprint": list(lhs.fingerprint),
        "rhs_fingerprint": list(rhs.fingerprint),
    }


def _row(
    entry: CorpusEntry,
    lhs: SubgroupRef | None,
    rhs: SubgroupRef | None,
    note: str | None = None,
    *,
    ok: bool | None = None,
    witness: dict | None = None,
) -> dict:
    """One report row.  ``ok`` defaults to lhs == rhs; a failing row given no
    ``witness`` carries the orders and fingerprints of both sides."""
    if ok is None:
        ok = lhs.mask == rhs.mask
    if witness is None and not ok:
        witness = _witness(lhs, rhs)
    row = {
        "group": entry.name,
        "order": entry.group.order,
        "lhs_order": None if lhs is None else lhs.order,
        "rhs_order": None if rhs is None else rhs.order,
        "pass": ok,
        "witness": witness,
    }
    if note:
        row["note"] = note
    return row


# ---------------------------------------------------------------------------
# Individual checks: the rows of one corpus group
# ---------------------------------------------------------------------------


def _baer_a1(entry: CorpusEntry, params: dict) -> list[dict]:
    """Sylow-normalizer intersection equals the nilpotent-class hypercenter."""
    G = entry.group
    return [_row(entry, sylow_normalizer_intersection(G), hypercenter(NIL, G))]


def _cor_a4(entry: CorpusEntry, params: dict) -> list[dict]:
    """Intersection of maximal nilpotent subgroups equals the hypercenter."""
    G = entry.group
    return [_row(entry, f_maximal_intersection(NIL, G), hypercenter(NIL, G))]


def _prop1(entry: CorpusEntry, params: dict) -> list[dict]:
    """O^{pi'} of the normalizer intersection equals the member intersection."""
    F, G = params["formation"], entry.group
    ni = f_maximal_normalizer_intersection(F, G)
    pi = pi_support(F)
    if pi is None:
        lhs = ni
    else:
        complement = frozenset(p for p in prime_factors(ni.order) if p not in pi)
        lhs = o_pi_up(ni, complement)
    return [_row(entry, lhs, f_maximal_intersection(F, G))]


def _has_soluble_block(F: Cross) -> bool:
    """Whether a block of F is the soluble pi-groups for three or more
    primes; by Burnside's p^a q^b theorem one of at most two primes is the
    class ``Gpi`` of them."""
    return any(isinstance(block, SolPi) and len(block.primes) > 2 for block in F.blocks)


def _theorem_a(entry: CorpusEntry, params: dict) -> list[dict]:
    """Intersection of per-block normalizer intersections equals the cross hypercenter."""
    F: Cross = params["partition"]
    G = entry.group
    mask = full_subgroup(G).mask
    for Fi in partition_blocks_for(F, prime_factors(G.order)):
        mask &= f_maximal_normalizer_intersection(Fi, G).mask
    lhs = subgroup_from_mask(G, mask)
    rhs = hypercenter(F, G)
    return [_row(entry, lhs, rhs, _PROBE_NOTE if _has_soluble_block(F) else None)]


def _partition_params(F: Cross) -> list[str]:
    return [
        _format_primeset(block.primes) + (":spi" if isinstance(block, SolPi) else "")
        for block in F.blocks
    ]


def _is_lattice_formation(F: FormationExpr) -> bool:
    if isinstance(F, SolPi):
        return len(F.primes) <= 2
    return isinstance(F, (Nil, Gpi)) or (isinstance(F, Cross) and not _has_soluble_block(F))


def _theorem_b(entry: CorpusEntry, params: dict) -> list[dict]:
    """Subnormalizer intersections over Sylow and cyclic primary subgroups vs the hypercenter."""
    F, G = params["formation"], entry.group
    z = hypercenter(F, G)
    si_syl = subnormalizer_intersection(F, SYLOW, G)
    si_cp = subnormalizer_intersection(F, CYCLIC_PRIMARY, G)
    ok = si_syl.mask == z.mask and si_cp.mask == z.mask
    witness = None if ok else {**_witness(si_syl, z), "cyclic_primary_order": si_cp.order}
    note = None if _is_lattice_formation(F) else _PROBE_NOTE
    return [_row(entry, si_syl, z, note, ok=ok, witness=witness)]


def _prop2(entry: CorpusEntry, params: dict) -> list[dict]:
    """The subnormalizer intersection is the join of the normal subgroups that
    subnormalize the whole family, and it subnormalizes the family itself."""
    F, G = params["formation"], entry.group
    sigma: SubgroupFunctor = params["sigma"]
    si = subnormalizer_intersection(F, sigma, G)
    # subnormality in HN is conjugation-equivariant, so class representatives
    # of the (conjugation-closed) family decide the whole family
    lat = all_subgroups(G)
    family = []
    seen_classes: set[int] = set()
    for H in sigma(G):
        cid = lat.class_id[lat.index_of(H)]
        if cid not in seen_classes:
            seen_classes.add(cid)
            family.append(H)
    joined = trivial_subgroup(G)
    for nmask in normal_subgroup_masks(full_subgroup(G)):
        n_ref = subgroup_from_mask(G, nmask)
        if all(is_f_subnormal(F, H, join(H, n_ref)) for H in family):
            joined = join(joined, n_ref)
    back_ok = all(is_f_subnormal(F, H, join(H, si)) for H in family)
    ok = joined.mask == si.mask and back_ok
    witness = {"subnormalize_back": False} if joined.mask == si.mask and not back_ok else None
    return [_row(entry, joined, si, ok=ok, witness=witness)]


def _sidorov(entry: CorpusEntry, params: dict) -> list[dict]:
    """For soluble groups, members of bounded Fitting length: intersection of
    the maximal ones equals the class hypercenter (oracle centrality path)."""
    G = entry.group
    if not is_soluble(G):
        return []
    rows = []
    for r in _SIDOROV_RS:
        F = NilPow(r)
        lhs = f_maximal_intersection(F, G)
        rhs = hypercenter(F, G, method="oracle")
        rows.append(_row(entry, lhs, rhs, note=f"r={r}"))
    return rows


def _delta_phi(entry: CorpusEntry, params: dict) -> list[dict]:
    """Image of the abnormal-maximal intersection modulo Frattini equals the
    hypercenter of the Frattini quotient."""
    F, G = params["formation"], entry.group
    phi = frattini(G)
    delta = abnormal_maximal_intersection(F, G)
    qm = quotient(G, phi.mask, phi.gen_idxs)
    lhs = subgroup_from_mask(qm.group, qm.image_mask(delta.mask))
    return [_row(entry, lhs, hypercenter(F, qm.group))]


def _boundary(entry: CorpusEntry, params: dict) -> list[dict]:
    """Search for a group outside the class whose maximal subgroups all lie in
    the local class at some prime (bounded report, never asserted empty)."""
    found = boundary_counterexample_search(params["formation"], [(entry.name, entry.group)])
    if not found:
        return []
    witness = {"primes": sorted(p for _, p in found)}
    return [_row(entry, None, None, "maximal subgroups all in local class", ok=True, witness=witness)]


def _lemma_formations(params: dict) -> tuple[FormationExpr, ...]:
    return (params["formation"],) if params["formation"] else _LEMMA_FORMATIONS


def _lemmas(entry: CorpusEntry, params: dict) -> list[dict]:
    """Closure and embedding facts for normalizer intersections, hypercenter
    products, subnormality, and the residual-hypercenter commutator."""
    failures: list[str] = []
    checked = 0
    for F in _lemma_formations(params):
        checked += _lemma_suite(entry.group, F, failures)
    witness = {"failures": failures} if failures else None
    return [_row(entry, None, None, f"{checked} instances", ok=not failures, witness=witness)]


def _lemma_suite(G: Group, F: FormationExpr, failures: list[str]) -> int:
    """Run the lemma instances for one group and class; returns instance count."""
    rng = random.Random(_SAMPLE_SEED + G.order)
    fkey = format_formation(F)
    lat = all_subgroups(G)
    full = full_subgroup(G)
    exhaustive = G.order <= _EXHAUSTIVE_ORDER
    checked = 0

    ni = f_maximal_normalizer_intersection(F, G)
    int_f = f_maximal_intersection(F, G)
    z = hypercenter(F, G)
    residual = subgroup_from_mask(G, residual_mask(F, G))

    normal_masks = list(normal_subgroup_masks(full))
    class_reps = [lat.refs[cls[0]] for cls in lat.classes]
    if not exhaustive:
        n_cap, h_cap = (3, 10) if G.order <= 150 else (2, 6)
        normal_masks = _sample(rng, normal_masks, n_cap)
        sampled_reps = _sample(rng, class_reps, h_cap)
    else:
        sampled_reps = class_reps

    # image of the normalizer intersection in every quotient
    for nmask in normal_masks:
        n_ref = subgroup_from_mask(G, nmask)
        qm = quotient(G, n_ref.mask, n_ref.gen_idxs)
        ni_image = qm.image_mask(ni.mask)
        ni_quot = f_maximal_normalizer_intersection(F, qm.group)
        checked += 1
        if ni_image & ~ni_quot.mask:
            failures.append(f"{fkey}: NI image exceeds NI of quotient (|N|={n_ref.order})")
        # when N lies inside the member intersection the image is exact
        if nmask & ~int_f.mask == 0:
            checked += 1
            if nmask & ~ni.mask:
                failures.append(f"{fkey}: N inside Int but not inside NI (|N|={n_ref.order})")
            elif ni_image != ni_quot.mask:
                failures.append(f"{fkey}: NI/N differs from NI of quotient (|N|={n_ref.order})")

    # restriction to subgroups
    for H in sampled_reps:
        checked += 1
        ni_h = f_maximal_normalizer_intersection(F, H)
        if ni.mask & H.mask & ~ni_h.mask:
            failures.append(f"{fkey}: NI(G) meet H exceeds NI(H) (|H|={H.order})")

    # hypercenter product with members stays in the class
    for H in sampled_reps:
        if not formation_member(F, H):
            continue
        checked += 1
        if H.mask & ~z.mask == 0:
            prod = gen_mask = z.mask
        else:
            prod = product_mask(G, z, H)
            gen_mask = closure_mask(G, list(z.gen_idxs) + list(H.gen_idxs))
        if prod != gen_mask:
            failures.append(f"{fkey}: hypercenter product is not a subgroup (|H|={H.order})")
        elif not formation_member(F, subgroup_from_mask(G, prod)):
            failures.append(f"{fkey}: hypercenter product left the class (|H|={H.order})")

    # subnormality: quotient image, preimage, transitivity
    for nmask in normal_masks:
        n_ref = subgroup_from_mask(G, nmask)
        qm = quotient(G, n_ref.mask, n_ref.gen_idxs)
        for H in sampled_reps:
            hn = join(H, n_ref)
            hn_image = subgroup_from_mask(qm.group, qm.image_mask(hn.mask))
            if is_f_subnormal(F, H, full):
                checked += 1
                if not is_f_subnormal(F, hn_image, full_subgroup(qm.group)):
                    failures.append(f"{fkey}: subnormal image fails (|H|={H.order}, |N|={n_ref.order})")
            if is_f_subnormal(F, hn_image, full_subgroup(qm.group)):
                checked += 1
                if not is_f_subnormal(F, hn, full):
                    failures.append(f"{fkey}: subnormal preimage fails (|HN|={hn.order})")
    triples = [
        (h, k)
        for h in range(len(lat.refs))
        for k in bits(lat.sup_rows[h])
        if k != h
    ]
    for h, k in triples if exhaustive else _sample(rng, triples, 10):
        H, K = lat.refs[h], lat.refs[k]
        if is_f_subnormal(F, H, K) and is_f_subnormal(F, K, full):
            checked += 1
            if not is_f_subnormal(F, H, full):
                failures.append(f"{fkey}: subnormality transitivity fails (|H|={H.order},|K|={K.order})")

    # the residual centralises the hypercenter
    checked += 1
    comm = commutator_subgroup(residual, z)
    if not comm.is_trivial:
        failures.append(f"{fkey}: residual does not centralise the hypercenter")
    return checked


def _sample(rng: random.Random, items: list, k: int) -> list:
    if len(items) <= k:
        return list(items)
    return rng.sample(items, k)


# ---------------------------------------------------------------------------
# Registry, the default suite and the driver
# ---------------------------------------------------------------------------


def _no_params(params: dict) -> tuple[dict, bool]:
    return {}, True


def _formation_params(params: dict) -> tuple[dict, bool]:
    return {"formation": format_formation(params["formation"])}, True


def _boundary_params(params: dict) -> tuple[dict, bool]:
    F = params["formation"]
    if not supports_local_definition(F):
        raise SpecParseError(f"local definition unavailable for {format_formation(F)}")
    # `_boundary` searches over every prime
    return {"formation": format_formation(F), "universe": "all"}, False


@dataclass(frozen=True)
class Check:
    """One registry entry.

    ``rows`` computes the rows of one corpus group.  ``defaults`` names every
    parameter the check reads, with the value it takes when the parameter is
    absent or empty; the CLI accepts exactly the options named here.
    ``describe`` maps the resolved parameters to the report's params and
    ``assertive`` flag, and rejects values the check cannot run with.  A
    report without rows gets ``empty_note`` (if set) and the corpus's largest
    order in its params.
    """

    rows: Callable[[CorpusEntry, dict], list[dict]]
    defaults: dict = field(default_factory=dict)
    describe: Callable[[dict], tuple[dict, bool]] = _no_params
    empty_note: str | None = None

    def configure(self, params: dict) -> tuple[dict, dict, bool]:
        """The resolved parameters, the report's params and its assertive flag."""
        resolved = {key: params.get(key) or default for key, default in self.defaults.items()}
        return (resolved, *self.describe(resolved))


CHECKS = {
    "baer-a1": Check(_baer_a1),
    "cor-a4": Check(_cor_a4),
    "prop1": Check(_prop1, {"formation": NIL}, _formation_params),
    "theorem-a": Check(
        _theorem_a,
        {"partition": Cross(())},
        lambda p: (
            {"partition": _partition_params(p["partition"])},
            not _has_soluble_block(p["partition"]),
        ),
    ),
    "theorem-b": Check(
        _theorem_b,
        {"formation": NIL},
        lambda p: (_formation_params(p)[0], _is_lattice_formation(p["formation"])),
    ),
    "prop2": Check(
        _prop2,
        {"formation": NIL, "sigma": SYLOW},
        lambda p: ({**_formation_params(p)[0], "sigma": p["sigma"].tag}, True),
    ),
    "sidorov": Check(_sidorov, describe=lambda p: ({"rs": list(_SIDOROV_RS)}, True)),
    "lemmas": Check(
        _lemmas,
        {"formation": None},
        lambda p: ({"formations": [format_formation(F) for F in _lemma_formations(p)]}, True),
    ),
    "boundary": Check(
        _boundary,
        {"formation": SUPERSOLUBLE},
        _boundary_params,
        empty_note="no counterexample",
    ),
    "delta-phi": Check(_delta_phi, {"formation": NIL}, _formation_params),
}

PARTITION_PRESETS: dict[str, Cross] = {
    "singletons": Cross(()),
    "{2,3}": parse_formation("cross[{2,3}]"),
    "{2,3},{5}": parse_formation("cross[{2,3};{5}]"),
    "{2,5},{3,7}": parse_formation("cross[{2,5};{3,7}]"),
}

_CROSS235 = parse_formation("cross[{2,3}:gpi;{5}:gpi]")

DEFAULT_SUITE: tuple[tuple[str, dict], ...] = (
    ("baer-a1", {}),
    ("cor-a4", {}),
    *(("prop1", {"formation": F}) for F in (NIL, SUPERSOLUBLE, _GPI23, _CROSS235)),
    *(
        ("theorem-a", {"partition": PARTITION_PRESETS[preset]})
        for preset in ("singletons", "{2,3}", "{2,3},{5}", "{2,5},{3,7}")
    ),
    *(("theorem-b", {"formation": F}) for F in (NIL, _CROSS235, SUPERSOLUBLE)),
    ("prop2", {"formation": NIL, "sigma": SYLOW}),
    ("prop2", {"formation": NIL, "sigma": CYCLIC_PRIMARY}),
    ("prop2", {"formation": SUPERSOLUBLE, "sigma": SYLOW}),
    ("sidorov", {}),
    ("lemmas", {}),
    ("boundary", {"formation": SUPERSOLUBLE}),
    *(("delta-phi", {"formation": F}) for F in (NIL, SUPERSOLUBLE, _GPI23)),
)
"""The full default matrix of checks, as ``(name, params)`` pairs."""


def parse_partition(text: str) -> Cross:
    """Parse a partition: a preset name or ';'/','-separated blocks, each
    ``{..}`` with an optional ``:gpi`` or ``:spi`` kind, as in ``cross[...]``."""
    text = text.strip()
    if text in PARTITION_PRESETS:
        return PARTITION_PRESETS[text]
    parts = [part for chunk in _split_top_level(text, ";") for part in _split_top_level(chunk, ",")]
    return Cross(tuple(_parse_block(part) for part in parts if part.strip()))


def run_checks(configs: Iterable[tuple[str, dict]], corpus: Corpus) -> list[CheckReport]:
    """Run ``(name, params)`` configurations over the corpus, group-major.

    Every configuration is resolved before any group is touched.  Each group
    then runs every check in configuration order; a report's ``elapsed_ms``
    is the sum of its per-group times.  Once every configuration has run on
    a group, its working set is freed (:meth:`Group.release_working_set`:
    the sections it built, its conjugation rows, its table and inverses),
    as no check compares two groups; its lattice, hypercenters and class
    memos stay, so a later call on the same corpus rebuilds none of them,
    and a table it reads again is rebuilt from the generators' rows.  Returns one report per configuration.
    """
    plan = []
    for name, params in configs:
        if name not in CHECKS:
            raise SpecParseError(f"unknown check {name!r}")
        resolved, report_params, assertive = CHECKS[name].configure(params)
        plan.append((CHECKS[name], resolved, CheckReport(name, report_params, [], assertive)))
    seconds = [0.0] * len(plan)
    max_order = 0
    for entry in corpus:
        max_order = max(max_order, entry.group.order)
        for i, (check, resolved, report) in enumerate(plan):
            start = time.perf_counter()
            report.rows.extend(check.rows(entry, resolved))
            seconds[i] += time.perf_counter() - start
        entry.group.release_working_set()
    for (check, _, report), spent in zip(plan, seconds):
        report.rows.sort(key=lambda r: (r["order"], r["group"], r.get("note") or ""))
        report.elapsed_ms = int(spent * 1000)
        if check.empty_note and not report.rows:
            report.params["note"] = f"{check.empty_note} up to order {max_order}"
    return [report for _, _, report in plan]


def run_check(name: str, params: dict, corpus: Corpus) -> CheckReport:
    """Run one named check; see CHECKS for the registry."""
    return run_checks([(name, params)], corpus)[0]


def default_suite(corpus: Corpus) -> list[CheckReport]:
    """The full default matrix of checks over the corpus."""
    return run_checks(DEFAULT_SUITE, corpus)
