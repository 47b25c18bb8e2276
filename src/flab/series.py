"""Normal structure: normal subgroups, chief series, central and derived series."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FlabError, InternalCheckFailure
# perfbench's tracer test reads the quotient and closure_mask bindings of this module
from .groups import Group, quotient  # noqa: F401
from .subgroups import closure_mask  # noqa: F401
from .subgroups import (
    SubgroupRef,
    as_ref,
    bits,
    commutator_subgroup,
    full_subgroup,
    normal_subgroup_masks,
    o_pi,
    p_part,
    pi_elements,
    prime_factors,
    subgroup_from_mask,
    trivial_subgroup,
)


def normal_subgroups(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """All normal subgroups, sorted by (order, integer mask), the order of
    :func:`subgroups.normal_subgroup_masks`."""
    X = as_ref(X)
    return [subgroup_from_mask(X.ambient, m) for m in normal_subgroup_masks(X)]


def minimal_normal_subgroups(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """Minimal nontrivial normal subgroups, sorted by (order, fingerprint); errors on the trivial group."""
    X = as_ref(X)
    if X.order == 1:
        raise FlabError("the trivial group has no minimal normal subgroups")
    G = X.ambient
    return [subgroup_from_mask(G, m) for m in _minimal_normal_above(X, 1 << G.identity_idx)]


@dataclass(frozen=True)
class ChiefFactor:
    """A chief factor H/K (K < H, both normal, nothing normal strictly between).

    ``ambient`` names the group whose element indexing the masks use; for a
    factor of a proper subgroup the normality is relative to that subgroup.
    """

    ambient: Group
    below: SubgroupRef
    above: SubgroupRef

    @property
    def order(self) -> int:
        return self.above.order // self.below.order

    def primes(self) -> list[int]:
        return prime_factors(self.order)

    def verify(self) -> None:
        """Assert the factor is chief: no normal subgroup strictly between."""
        for m in normal_subgroup_masks(full_subgroup(self.ambient)):
            if (
                self.below.mask & ~m == 0
                and m & ~self.above.mask == 0
                and m != self.below.mask
                and m != self.above.mask
            ):
                raise InternalCheckFailure("factor is not chief")
        if self.order > 1 and len(self.primes()) == 1:
            p = self.primes()[0]
            G = self.ambient
            kmask = self.below.mask
            for x in bits(self.above.mask & ~kmask):
                xp = x
                for _ in range(p - 1):
                    xp = G.mul(xp, x)
                if not (kmask >> xp) & 1:
                    raise InternalCheckFailure("abelian chief factor is not elementary")


def _minimal_normal_above(X: Group | SubgroupRef, floor_mask: int) -> tuple[int, ...]:
    """Masks of the X-normal subgroups minimal among those strictly above the
    X-normal floor: the minimal normal subgroups of X/floor, read in the ambient group.

    Sorted by (order, fingerprint): the first mask is the deterministic choice
    of every walk up a chief series.  Cached on the ambient group per
    (X, floor).
    """
    X = as_ref(X)
    key = (X.mask, floor_mask)
    cached = X.ambient._minimal_above.get(key)
    if cached is not None:
        return cached
    masks = [m for m in normal_subgroup_masks(X) if floor_mask & ~m == 0 and m != floor_mask]
    minimal = [m for m in masks if not any(other != m and other & ~m == 0 for other in masks)]
    cached = X.ambient._minimal_above[key] = tuple(
        sorted(minimal, key=lambda m: (m.bit_count(), tuple(bits(m))))
    )
    return cached


def _chief_masks_to(X: Group | SubgroupRef, top_mask: int) -> list[int]:
    """Masks of a chief series of X from 1 up to the X-normal subgroup ``top_mask``.

    Each step takes the first minimal normal subgroup above the current term
    that lies inside the top.
    """
    X = as_ref(X)
    series = [1 << X.ambient.identity_idx]
    while series[-1] != top_mask:
        inside = [m for m in _minimal_normal_above(X, series[-1]) if m & ~top_mask == 0]
        if not inside:
            raise InternalCheckFailure("no chief series passes through the given subgroup")
        series.append(inside[0])
    return series


def chief_series(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """A chief series, built bottom-up with a deterministic choice rule.

    At each step the minimal normal subgroup of the quotient with the smallest
    order (ties broken by least fingerprint) is chosen.  For a proper
    subgroup X the terms are X-normal subgroups, read in the ambient group.
    """
    X = as_ref(X)
    return [subgroup_from_mask(X.ambient, m) for m in _chief_masks_to(X, X.mask)]


def chief_factors(X: Group | SubgroupRef) -> list[ChiefFactor]:
    X = as_ref(X)
    series = chief_series(X)
    return [
        ChiefFactor(X.ambient, below, above)
        for below, above in zip(series, series[1:])
    ]


def upper_central_series(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """1 = Z_0 <= Z_1 <= ... up to the stable term (the hypercenter of X)."""
    X = as_ref(X)
    G = X.ambient
    series = [trivial_subgroup(G)]
    while True:
        z = series[-1].mask
        nxt = 0
        for g in bits(X.mask):
            if all((z >> G.comm(g, s)) & 1 for s in X.gen_idxs):
                nxt |= 1 << g
        if nxt == z:
            return series
        series.append(subgroup_from_mask(G, nxt))


def derived_series(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """X >= X' >= X'' >= ... down to the stable term."""
    X = as_ref(X)
    series = [X]
    while True:
        current = series[-1]
        derived = commutator_subgroup(current, current)
        if derived.mask == current.mask:
            return series
        series.append(derived)


def is_soluble(X: Group | SubgroupRef) -> bool:
    return derived_series(X)[-1].is_trivial


def fitting_subgroup(X: Group | SubgroupRef, floor: SubgroupRef | None = None) -> SubgroupRef:
    """F(X), or over an X-normal floor the preimage of F(X/floor).

    That is the smallest X-normal subgroup containing ``o_pi(X, [p], floor)``
    for each prime p dividing |X/floor|.  The closure of the join of the
    O_p(X) that this replaced is ``tests/oracles.py::fitting_subgroup_by_closure``.
    """
    X = as_ref(X)
    parts = 1 << X.ambient.identity_idx if floor is None else floor.mask
    for p in prime_factors(X.order // parts.bit_count()):
        parts |= o_pi(X, [p], floor).mask
    # normal_subgroup_masks is sorted by order, so the first one containing
    # the parts is the smallest
    mask = next(m for m in normal_subgroup_masks(X) if parts & ~m == 0)
    return subgroup_from_mask(X.ambient, mask)


def nilpotent_length(X: Group | SubgroupRef) -> int:
    """Length of the Fitting series; requires a soluble group.

    The series is walked by floors in X: the term above a floor is
    ``fitting_subgroup(X, floor)``.
    """
    X = as_ref(X)
    if not is_soluble(X):
        raise FlabError("nilpotent length is defined for soluble groups only")
    floor = trivial_subgroup(X.ambient)
    length = 0
    while floor.mask != X.mask:
        above = fitting_subgroup(X, floor)
        if above.mask == floor.mask:  # pragma: no cover - impossible for soluble groups
            raise InternalCheckFailure("trivial Fitting subgroup in a soluble group")
        floor = above
        length += 1
    return length


def is_nilpotent(X: Group | SubgroupRef) -> bool:
    """Nilpotency by counting: for each prime p, the elements of p-power order
    (the identity included) number |X|_p.

    A Sylow p-subgroup has |X|_p elements, all of p-power order, so the count
    is |X|_p exactly when every p-element lies in one Sylow p-subgroup, which
    is then normal; X is nilpotent iff all its Sylow subgroups are normal.
    One pass over the element orders per prime; no subgroup is built.  The Sylow
    normality test it replaced is ``tests/oracles.py::is_nilpotent_by_sylow``.
    """
    X = as_ref(X)
    order = X.order
    primes = prime_factors(order)
    if len(primes) < 2:
        return True
    return all(len(pi_elements(X, [p])) == p_part(order, p) for p in primes)
