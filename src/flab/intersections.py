"""Intersection constructions over the subgroup lattice.

Covers maximal members of a class and the intersections of those subgroups
and of their normalizers, the Sylow-normalizer intersection, class
subnormality with subnormalizers and their intersections, the intersection of
abnormal maximal subgroups, and the "all Sylow / all cyclic primary subgroups
subnormal" membership tests.

Intersections over an empty family return the ambient group.  Subnormality
steps compare the class residual of the chain top against the core of the
maximal subgroup (the quotient lies in the class iff the residual lies inside
the kernel), which keeps the recursion at bitmask level.  Class membership
and residuals are read from ``formations.formation_member`` and
``formations.residual_mask``; this module decides no class itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import NotASubgroup
from .formations import FormationExpr, formation_member, residual_mask
from .groups import Group
from .lattice import (
    SubgroupLattice,
    all_subgroups,
    cyclic_primary_subgroups,
    maximal_subgroups,
    sylow_subgroups,
)
from .subgroups import (
    SubgroupRef,
    as_ref,
    bits,
    conjugacy_orbit,
    core,
    normalizer,
    prime_factors,
    subgroup_from_mask,
    trivial_subgroup,
)


# ---------------------------------------------------------------------------
# Subgroup functors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupFunctor:
    """A conjugation-closed assignment of subgroup families to groups."""

    tag: str  # "sylow" | "cyclic-primary" | "maximal"

    def __call__(self, X: Group | SubgroupRef) -> list[SubgroupRef]:
        X = as_ref(X)
        if self.tag == "sylow":
            out: list[SubgroupRef] = [trivial_subgroup(X.ambient)]
            for p in prime_factors(X.order):
                out.extend(sylow_subgroups(X, p))
            return out
        if self.tag == "cyclic-primary":
            return cyclic_primary_subgroups(X)
        if self.tag == "maximal":
            return maximal_subgroups(X)
        raise ValueError(f"unknown functor {self.tag!r}")


SYLOW = SubgroupFunctor("sylow")
CYCLIC_PRIMARY = SubgroupFunctor("cyclic-primary")
MAXIMAL = SubgroupFunctor("maximal")


# ---------------------------------------------------------------------------
# Members of a class that are maximal among members
# ---------------------------------------------------------------------------


def f_maximal_subgroups(F: FormationExpr, X: Group | SubgroupRef) -> list[SubgroupRef]:
    """Members of the class that no larger member of the class contains."""
    X = as_ref(X)
    lat = all_subgroups(X.ambient)
    xi = lat.index_of(X)
    inside = lat.sub_rows[xi]
    member_bits = 0
    for i in bits(inside):
        if formation_member(F, lat.refs[i]):
            member_bits |= 1 << i
    return _containment_maximal(lat, member_bits)


def _containment_maximal(lat: SubgroupLattice, chosen: int) -> list[SubgroupRef]:
    """The containment-maximal members among the lattice bits ``chosen``
    (all inside one subgroup X): those no other chosen member contains."""
    return [lat.refs[i] for i in bits(chosen) if not lat.sup_rows[i] & chosen & ~(1 << i)]


def f_maximal_intersection(F: FormationExpr, X: Group | SubgroupRef) -> SubgroupRef:
    """Intersection of all class-maximal members (the whole group if none)."""
    X = as_ref(X)
    mask = X.mask
    for ref in f_maximal_subgroups(F, X):
        mask &= ref.mask
    return subgroup_from_mask(X.ambient, mask)


def _class_core_intersection(
    X: SubgroupRef, family: list[SubgroupRef], result_mask: Callable[[SubgroupRef], int]
) -> int:
    """Intersection of ``result_mask(H)`` over a family closed under conjugation by X.

    The result must commute with conjugation, result(H^x) = result(H)^x (as
    N_X(M^x) = N_X(M)^x does), so over the X-class of H the results
    intersect to the X-core of result(H): one member of each class is
    decided and the rest of its class is skipped.  The running intersection
    is an intersection of X-cores, so it is normal in X; when it already lies
    in result(H) it lies in that core too, and the orbit is not walked.
    """
    mask = X.mask
    done: set[int] = set()
    for H in family:
        if H.mask in done:
            continue
        done.update(conjugacy_orbit(X, H.mask))
        result = result_mask(H)
        if mask & ~result == 0:
            continue
        for m in conjugacy_orbit(X, result):
            mask &= m
    return mask


def f_maximal_normalizer_intersection(F: FormationExpr, X: Group | SubgroupRef) -> SubgroupRef:
    """Intersection of the normalizers (in X) of all class-maximal members."""
    X = as_ref(X)
    mask = _class_core_intersection(X, f_maximal_subgroups(F, X), lambda M: normalizer(X, M).mask)
    return subgroup_from_mask(X.ambient, mask)


def sylow_normalizer_intersection(X: Group | SubgroupRef) -> SubgroupRef:
    """Intersection of the normalizers of all Sylow subgroups."""
    X = as_ref(X)
    family = [P for p in prime_factors(X.order) for P in sylow_subgroups(X, p)]
    mask = _class_core_intersection(X, family, lambda P: normalizer(X, P).mask)
    return subgroup_from_mask(X.ambient, mask)


# ---------------------------------------------------------------------------
# Subnormality
# ---------------------------------------------------------------------------


def _core_mask(lat: SubgroupLattice, t_idx: int, m_idx: int) -> int:
    """Core of refs[m_idx] in refs[t_idx] (cached)."""
    key = ("core", t_idx, m_idx)
    cached = lat.memo.get(key)
    if cached is None:
        cached = lat.memo[key] = core(lat.refs[t_idx], lat.refs[m_idx]).mask
    return cached


def _step_ok(lat: SubgroupLattice, F: FormationExpr, t_idx: int, m_idx: int) -> bool:
    """Whether refs[t_idx] / Core(refs[m_idx]) lies in the class."""
    return residual_mask(F, lat.refs[t_idx]) & ~_core_mask(lat, t_idx, m_idx) == 0


def is_f_subnormal(F: FormationExpr, H: SubgroupRef, X: Group | SubgroupRef) -> bool:
    """Whether H is joined to X by a chain of maximal subgroups whose step
    quotients-by-core are members."""
    X = as_ref(X)
    if H.ambient is not X.ambient or not X.contains(H):
        raise NotASubgroup("chain bottom is not a subgroup of the chain top")
    lat = all_subgroups(X.ambient)
    return _subnormal(lat, F, lat.index_of(H), lat.index_of(X))


def _subnormal(lat: SubgroupLattice, F: FormationExpr, h_idx: int, t_idx: int) -> bool:
    key = ("subnormal", F)
    table = lat.memo.get(key)
    if table is None:
        table = {}
        lat.memo[key] = table
    cached = table.get((h_idx, t_idx))
    if cached is not None:
        return cached
    if h_idx == t_idx:
        result = True
    elif formation_member(F, lat.refs[t_idx]):
        # hereditary catalog: every subgroup of a member is subnormal in it
        result = True
    else:
        result = False
        h_sup = lat.sup_rows[h_idx]
        for m_idx in lat.maximal_subgroup_idxs(t_idx):
            if not (h_sup >> m_idx) & 1:
                continue
            if _step_ok(lat, F, t_idx, m_idx) and _subnormal(lat, F, h_idx, m_idx):
                result = True
                break
    table[(h_idx, t_idx)] = result
    return result


@dataclass(frozen=True)
class SubnormalizerSet:
    """The containment-maximal subgroups in which the target is subnormal."""

    target: SubgroupRef
    carriers: tuple[SubgroupRef, ...]

    def __post_init__(self) -> None:
        if not self.carriers:
            raise NotASubgroup("a subnormalizer always exists (the target itself)")


def f_subnormalizers(
    F: FormationExpr, H: SubgroupRef, X: Group | SubgroupRef
) -> SubnormalizerSet:
    """All subnormalizers of H inside X (maximal carriers; not necessarily unique)."""
    X = as_ref(X)
    if H.ambient is not X.ambient or not X.contains(H):
        raise NotASubgroup("target is not a subgroup of the ambient")
    lat = all_subgroups(X.ambient)
    xi = lat.index_of(X)
    hi = lat.index_of(H)
    inside = lat.sub_rows[xi]
    candidate_bits = 0
    for t in bits(lat.sup_rows[hi] & inside):
        if _subnormal(lat, F, hi, t):
            candidate_bits |= 1 << t
    return SubnormalizerSet(H, tuple(_containment_maximal(lat, candidate_bits)))


def subnormalizer_intersection(
    F: FormationExpr, sigma: SubgroupFunctor, X: Group | SubgroupRef
) -> SubgroupRef:
    """Intersection of all subnormalizers of all subgroups from the functor.

    The subnormalizers of H^x are those of H conjugated by x, so they are
    computed for one member of each X-class of the family.
    """
    X = as_ref(X)

    def carriers_mask(H: SubgroupRef) -> int:
        mask = X.mask
        for carrier in f_subnormalizers(F, H, X).carriers:
            mask &= carrier.mask
        return mask

    return subgroup_from_mask(X.ambient, _class_core_intersection(X, sigma(X), carriers_mask))


def abnormal_maximal_intersection(F: FormationExpr, X: Group | SubgroupRef) -> SubgroupRef:
    """Intersection of the maximal subgroups M with X/Core(M) outside the class."""
    X = as_ref(X)
    lat = all_subgroups(X.ambient)
    xi = lat.index_of(X)
    mask = X.mask
    for m_idx in lat.maximal_subgroup_idxs(xi):
        if not _step_ok(lat, F, xi, m_idx):
            mask &= lat.refs[m_idx].mask
    return subgroup_from_mask(X.ambient, mask)


def all_sigma_f_subnormal(F: FormationExpr, X: Group | SubgroupRef, mode: str) -> bool:
    """Whether every Sylow ("w") or cyclic primary ("v") subgroup is subnormal in X."""
    sigma = {"w": SYLOW, "v": CYCLIC_PRIMARY}[mode]
    X = as_ref(X)
    lat = all_subgroups(X.ambient)
    xi = lat.index_of(X)
    return all(
        _subnormal(lat, F, lat.index_of(H), xi) for H in sigma(X)
    )
