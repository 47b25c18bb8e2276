"""Intersection constructions over the subgroup lattice.

Covers maximal members of a class and the intersections of those subgroups
and of their normalizers, the Sylow-normalizer intersection, class
subnormality with subnormalizers and their intersections, the intersection of
abnormal maximal subgroups, and the "all Sylow / all cyclic primary subgroups
subnormal" membership tests.

Intersections over an empty family return the ambient group.  A subnormality
step from a chain top T to a maximal subgroup M is decided by T^F <= M: the
residual is normal in T, so it lies in M iff it lies in Core_T(M), the kernel
of the step quotient.  Subnormality is kept as one lattice bit row per chain
top, the subgroups reachable from it by such steps, and every caller reads
those rows.  Class membership and residuals are read from
``formations.formation_member`` (``member_bits`` for lattice members) and
``formations.residual_mask``; this module decides no class itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import NotASubgroup
from .formations import FormationExpr, formation_member, member_bits, residual_mask
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
    chosen = member_bits(F, lat, lat.sub_rows[lat.index_of(X)])
    return [lat.refs[i] for i in lat.maximal_idxs(chosen)]


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


def _step_ok(lat: SubgroupLattice, F: FormationExpr, t_idx: int, m_idx: int) -> bool:
    """Whether refs[t_idx] / Core(refs[m_idx]) lies in the class.

    The residual of the top is normal in it and the core is the largest normal
    subgroup of the top inside refs[m_idx], so the residual lies in the core
    iff it lies in refs[m_idx]."""
    return residual_mask(F, lat.refs[t_idx]) & ~lat.refs[m_idx].mask == 0


def is_f_subnormal(F: FormationExpr, H: SubgroupRef, X: Group | SubgroupRef) -> bool:
    """Whether H is joined to X by a chain of maximal subgroups whose step
    quotients-by-core are members."""
    X = as_ref(X)
    if H.ambient is not X.ambient or not X.contains(H):
        raise NotASubgroup("chain bottom is not a subgroup of the chain top")
    lat = all_subgroups(X.ambient)
    return (_subnormal_row(lat, F, lat.index_of(X)) >> lat.index_of(H)) & 1 == 1


def _subnormal_row(lat: SubgroupLattice, F: FormationExpr, t_idx: int) -> int:
    """Bit h set: refs[h] is subnormal in refs[t_idx] (one memo row per chain top)."""
    rows = lat.memo.get(("subnormal", F))
    if rows is None:
        rows = lat.memo[("subnormal", F)] = [0] * len(lat)
    row = rows[t_idx]
    if row:  # bit t_idx is set in every decided row
        return row
    if formation_member(F, lat.refs[t_idx]):
        # hereditary catalog: every subgroup of a member is subnormal in it
        row = lat.sub_rows[t_idx]
    else:
        row = 1 << t_idx
        for m_idx in lat.maximal_subgroup_idxs(t_idx):
            if _step_ok(lat, F, t_idx, m_idx):
                row |= _subnormal_row(lat, F, m_idx)
    rows[t_idx] = row
    return row


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
        if (_subnormal_row(lat, F, t) >> hi) & 1:
            candidate_bits |= 1 << t
    return SubnormalizerSet(H, tuple(lat.refs[t] for t in lat.maximal_idxs(candidate_bits)))


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
    row = _subnormal_row(lat, F, lat.index_of(X))
    return all((row >> lat.index_of(H)) & 1 for H in sigma(X))
