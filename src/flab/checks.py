"""Check drivers: evaluate the verified identities over a corpus.

Every check recomputes both sides of its identity through independent code
paths and reports per-group verdicts with witnesses on failure.  Assertive
checks contribute to the process exit code; search/probe checks (boundary,
the supersoluble subnormalizer probe, soluble-kind partition probes) are
informational and never flip it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .corpus import Corpus
from .errors import SpecParseError
from .formations import (
    Cross,
    CrossBlock,
    FormationExpr,
    Gpi,
    Nil,
    NilPow,
    SolPi,
    NIL,
    SUPERSOLUBLE,
    format_formation,
    formation_member,
    formation_residual,
    parse_formation,
    pi_support,
    boundary_counterexample_search,
)
from .groups import Group, quotient
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


def _witness(lhs: SubgroupRef, rhs: SubgroupRef) -> dict | None:
    if lhs.mask == rhs.mask:
        return None
    return {
        "lhs_order": lhs.order,
        "rhs_order": rhs.order,
        "lhs_fingerprint": list(lhs.fingerprint),
        "rhs_fingerprint": list(rhs.fingerprint),
    }


def _row(name: str, G: Group, lhs: SubgroupRef, rhs: SubgroupRef, note: str | None = None) -> dict:
    row = {
        "group": name,
        "order": G.order,
        "lhs_order": lhs.order,
        "rhs_order": rhs.order,
        "pass": lhs.mask == rhs.mask,
        "witness": _witness(lhs, rhs),
    }
    if note:
        row["note"] = note
    return row


def _sorted_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: (r["order"], r["group"], r.get("note") or ""))


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_baer_a1(corpus: Corpus, params: dict) -> CheckReport:
    """Sylow-normalizer intersection equals the nilpotent-class hypercenter."""
    rows = []
    for entry in corpus:
        lhs = sylow_normalizer_intersection(entry.group)
        rhs = hypercenter(NIL, entry.group)
        rows.append(_row(entry.name, entry.group, lhs, rhs))
    return CheckReport("baer-a1", {}, _sorted_rows(rows), assertive=True)


def _check_cor_a4(corpus: Corpus, params: dict) -> CheckReport:
    """Intersection of maximal nilpotent subgroups equals the hypercenter."""
    rows = []
    for entry in corpus:
        lhs = f_maximal_intersection(NIL, entry.group)
        rhs = hypercenter(NIL, entry.group)
        rows.append(_row(entry.name, entry.group, lhs, rhs))
    return CheckReport("cor-a4", {}, _sorted_rows(rows), assertive=True)


def _check_prop1(corpus: Corpus, params: dict) -> CheckReport:
    """O^{pi'} of the normalizer intersection equals the member intersection."""
    F = params.get("formation") or NIL
    rows = []
    for entry in corpus:
        G = entry.group
        ni = f_maximal_normalizer_intersection(F, G)
        pi = pi_support(F)
        if pi is None:
            lhs = ni
        else:
            complement = frozenset(p for p in prime_factors(ni.order) if p not in pi)
            lhs = o_pi_up(ni, complement)
        rhs = f_maximal_intersection(F, G)
        rows.append(_row(entry.name, G, lhs, rhs))
    return CheckReport(
        "prop1", {"formation": format_formation(F)}, _sorted_rows(rows), assertive=True
    )


def _partition_to_cross(blocks: list[tuple[frozenset[int], bool]]) -> Cross:
    return Cross(tuple(CrossBlock(primes, soluble) for primes, soluble in blocks))


def _check_theorem_a(corpus: Corpus, params: dict) -> CheckReport:
    """Intersection of per-block normalizer intersections equals the cross hypercenter."""
    blocks: list[tuple[frozenset[int], bool]] = params.get("partition") or []
    has_soluble_blocks = any(soluble for _, soluble in blocks)
    cross = _partition_to_cross(blocks)
    rows = []
    for entry in corpus:
        G = entry.group
        mask = full_subgroup(G).mask
        remaining = set(prime_factors(G.order))
        per_block: list[tuple[frozenset[int], bool]] = []
        for primes, soluble in blocks:
            if primes & remaining:
                per_block.append((primes, soluble))
                remaining -= primes
        for p in sorted(remaining):
            per_block.append((frozenset([p]), False))
        for primes, soluble in per_block:
            Fi: FormationExpr = SolPi(primes) if soluble else Gpi(primes)
            mask &= f_maximal_normalizer_intersection(Fi, G).mask
        lhs = subgroup_from_mask(G, mask)
        rhs = hypercenter(cross, G)
        note = "no equality guarantee - negative-case probe" if has_soluble_blocks else None
        rows.append(_row(entry.name, G, lhs, rhs, note))
    return CheckReport(
        "theorem-a",
        {"partition": _partition_params(blocks)},
        _sorted_rows(rows),
        assertive=not has_soluble_blocks,
    )


def _partition_params(blocks: list[tuple[frozenset[int], bool]]) -> list[str]:
    return [
        "{" + ",".join(map(str, sorted(primes))) + "}" + (":spi" if soluble else "")
        for primes, soluble in blocks
    ]


def _check_theorem_b(corpus: Corpus, params: dict) -> CheckReport:
    """Subnormalizer intersections over Sylow and cyclic primary subgroups vs the hypercenter."""
    F = params.get("formation") or NIL
    lattice_formation = isinstance(F, (Nil, Gpi)) or (
        isinstance(F, Cross) and all(not b.soluble for b in F.blocks)
    )
    rows = []
    for entry in corpus:
        G = entry.group
        z = hypercenter(F, G)
        si_syl = subnormalizer_intersection(F, SYLOW, G)
        si_cp = subnormalizer_intersection(F, CYCLIC_PRIMARY, G)
        ok = si_syl.mask == z.mask and si_cp.mask == z.mask
        row = {
            "group": entry.name,
            "order": G.order,
            "lhs_order": si_syl.order,
            "rhs_order": z.order,
            "pass": ok,
            "witness": None if ok else {
                "lhs_order": si_syl.order,
                "rhs_order": z.order,
                "cyclic_primary_order": si_cp.order,
                "lhs_fingerprint": list(si_syl.fingerprint),
                "rhs_fingerprint": list(z.fingerprint),
            },
        }
        if not lattice_formation:
            row["note"] = "no equality guarantee - negative-case probe"
        rows.append(row)
    return CheckReport(
        "theorem-b",
        {"formation": format_formation(F)},
        _sorted_rows(rows),
        assertive=lattice_formation,
    )


def _check_prop2(corpus: Corpus, params: dict) -> CheckReport:
    """The subnormalizer intersection is the join of the normal subgroups that
    subnormalize the whole family, and it subnormalizes the family itself."""
    F = params.get("formation") or NIL
    sigma: SubgroupFunctor = params.get("sigma") or SYLOW
    rows = []
    for entry in corpus:
        G = entry.group
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
        row = {
            "group": entry.name,
            "order": G.order,
            "lhs_order": joined.order,
            "rhs_order": si.order,
            "pass": ok,
            "witness": None if ok else _witness(joined, si) or {"subnormalize_back": back_ok},
        }
        rows.append(row)
    return CheckReport(
        "prop2",
        {"formation": format_formation(F), "sigma": sigma.tag},
        _sorted_rows(rows),
        assertive=True,
    )


def _check_sidorov(corpus: Corpus, params: dict) -> CheckReport:
    """For soluble groups, members of bounded Fitting length: intersection of
    the maximal ones equals the class hypercenter (oracle centrality path)."""
    rs = params.get("rs") or (1, 2, 3)
    rows = []
    for entry in corpus:
        G = entry.group
        if not is_soluble(G):
            continue
        for r in rs:
            F = NilPow(r)
            lhs = f_maximal_intersection(F, G)
            rhs = hypercenter(F, G, method="oracle")
            rows.append(_row(entry.name, G, lhs, rhs, note=f"r={r}"))
    return CheckReport("sidorov", {"rs": list(rs)}, _sorted_rows(rows), assertive=True)


def _check_delta_phi(corpus: Corpus, params: dict) -> CheckReport:
    """Image of the abnormal-maximal intersection modulo Frattini equals the
    hypercenter of the Frattini quotient."""
    F = params.get("formation") or NIL
    rows = []
    for entry in corpus:
        G = entry.group
        phi = frattini(G)
        delta = abnormal_maximal_intersection(F, G)
        qm = quotient(G, phi.mask, phi.gen_idxs)
        lhs_mask = qm.image_mask(delta.mask)
        lhs = subgroup_from_mask(qm.group, lhs_mask)
        rhs = hypercenter(F, qm.group)
        row = {
            "group": entry.name,
            "order": G.order,
            "lhs_order": lhs.order,
            "rhs_order": rhs.order,
            "pass": lhs.mask == rhs.mask,
            "witness": _witness(lhs, rhs),
        }
        rows.append(row)
    return CheckReport(
        "delta-phi", {"formation": format_formation(F)}, _sorted_rows(rows), assertive=True
    )


def _check_boundary(corpus: Corpus, params: dict) -> CheckReport:
    """Corpus search for groups outside the class whose maximal subgroups all
    lie in the local class at some prime (bounded report, never asserted empty)."""
    F = params.get("formation") or SUPERSOLUBLE
    universe = params.get("universe")
    found = boundary_counterexample_search(
        F, universe, [(e.name, e.group) for e in corpus]
    )
    by_name: dict[str, list[int]] = {}
    for name, p in found:
        by_name.setdefault(name, []).append(p)
    rows = []
    max_order = 0
    for entry in corpus:
        max_order = max(max_order, entry.group.order)
        primes = by_name.get(entry.name)
        if primes:
            rows.append(
                {
                    "group": entry.name,
                    "order": entry.group.order,
                    "lhs_order": None,
                    "rhs_order": None,
                    "pass": True,
                    "witness": {"primes": sorted(primes)},
                    "note": "maximal subgroups all in local class",
                }
            )
    params = {
        "formation": format_formation(F),
        "universe": sorted(universe) if universe else "all",
    }
    if not rows:
        params["note"] = f"no counterexample up to order {max_order}"
    return CheckReport("boundary", params, _sorted_rows(rows), assertive=False)


def _check_lemmas(corpus: Corpus, params: dict) -> CheckReport:
    """Closure and embedding facts for normalizer intersections, hypercenter
    products, subnormality, and the residual-hypercenter commutator."""
    formations = params.get("formations")
    if formations is None and params.get("formation") is not None:
        formations = (params["formation"],)
    if formations is None:
        formations = (NIL, SUPERSOLUBLE, Gpi(frozenset({2, 3})))
    rows = []
    for entry in corpus:
        failures: list[str] = []
        checked = 0
        for F in formations:
            checked += _lemma_suite(entry.group, F, failures)
        rows.append(
            {
                "group": entry.name,
                "order": entry.group.order,
                "lhs_order": None,
                "rhs_order": None,
                "pass": not failures,
                "witness": {"failures": failures} if failures else None,
                "note": f"{checked} instances",
            }
        )
    return CheckReport(
        "lemmas",
        {"formations": [format_formation(F) for F in formations]},
        _sorted_rows(rows),
        assertive=True,
    )


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
    residual = formation_residual(F, G)

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
# Registry and the default suite
# ---------------------------------------------------------------------------


CHECKS = {
    "baer-a1": _check_baer_a1,
    "cor-a4": _check_cor_a4,
    "prop1": _check_prop1,
    "theorem-a": _check_theorem_a,
    "theorem-b": _check_theorem_b,
    "prop2": _check_prop2,
    "sidorov": _check_sidorov,
    "lemmas": _check_lemmas,
    "boundary": _check_boundary,
    "delta-phi": _check_delta_phi,
}

PARTITION_PRESETS: dict[str, list[tuple[frozenset[int], bool]]] = {
    "singletons": [],
    "{2,3}": [(frozenset({2, 3}), False)],
    "{2,3},{5}": [(frozenset({2, 3}), False), (frozenset({5}), False)],
    "{2,5},{3,7}": [(frozenset({2, 5}), False), (frozenset({3, 7}), False)],
}


def parse_partition(text: str) -> list[tuple[frozenset[int], bool]]:
    """Parse a partition: a preset name or ';'/','-separated {..} blocks."""
    text = text.strip()
    if text in PARTITION_PRESETS:
        return PARTITION_PRESETS[text]
    blocks: list[tuple[frozenset[int], bool]] = []
    depth = 0
    current = ""
    parts = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch in ",;" and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    parts.append(current)
    seen: set[int] = set()
    for part in parts:
        part = part.strip()
        if not part:
            continue
        soluble = False
        if part.endswith(":spi"):
            soluble = True
            part = part[: -len(":spi")]
        elif part.endswith(":gpi"):
            part = part[: -len(":gpi")]
        body = part.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise SpecParseError(f"bad partition block {part!r}")
        try:
            primes = frozenset(int(tok) for tok in body[1:-1].split(",") if tok.strip())
        except ValueError as exc:
            raise SpecParseError(f"bad partition block {part!r}") from exc
        if seen & primes:
            raise SpecParseError("partition blocks must be disjoint")
        seen |= primes
        blocks.append((primes, soluble))
    return blocks


def run_check(name: str, params: dict, corpus: Corpus) -> CheckReport:
    """Run one named check; see CHECKS for the registry."""
    if name not in CHECKS:
        raise SpecParseError(f"unknown check {name!r}")
    start = time.perf_counter()
    report = CHECKS[name](corpus, params)
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return report


def default_suite(corpus: Corpus) -> list[CheckReport]:
    """The full default matrix of checks over the corpus."""
    gpi23 = Gpi(frozenset({2, 3}))
    cross235 = parse_formation("cross[{2,3}:gpi;{5}:gpi]")
    reports = [
        run_check("baer-a1", {}, corpus),
        run_check("cor-a4", {}, corpus),
    ]
    for F in (NIL, SUPERSOLUBLE, gpi23, cross235):
        reports.append(run_check("prop1", {"formation": F}, corpus))
    for preset in ("singletons", "{2,3}", "{2,3},{5}", "{2,5},{3,7}"):
        reports.append(run_check("theorem-a", {"partition": PARTITION_PRESETS[preset]}, corpus))
    for F in (NIL, cross235, SUPERSOLUBLE):
        reports.append(run_check("theorem-b", {"formation": F}, corpus))
    reports.append(run_check("prop2", {"formation": NIL, "sigma": SYLOW}, corpus))
    reports.append(run_check("prop2", {"formation": NIL, "sigma": CYCLIC_PRIMARY}, corpus))
    reports.append(run_check("prop2", {"formation": SUPERSOLUBLE, "sigma": SYLOW}, corpus))
    reports.append(run_check("sidorov", {}, corpus))
    reports.append(run_check("lemmas", {}, corpus))
    reports.append(run_check("boundary", {"formation": SUPERSOLUBLE}, corpus))
    for F in (NIL, SUPERSOLUBLE, gpi23):
        reports.append(run_check("delta-phi", {"formation": F}, corpus))
    return reports
