"""Normal structure: normal subgroups, chief series, central and derived series."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FlabError, InternalCheckFailure
from .groups import Group, quotient
from .subgroups import (
    SubgroupRef,
    as_ref,
    bits,
    closure_mask,
    full_subgroup,
    normal_closure_mask,
    normal_subgroup_masks,
    o_pi,
    p_part,
    pi_elements,
    prime_factors,
    subgroup_from_mask,
    subgroup_to_group,
    translate_mask,
    trivial_subgroup,
)


def normal_subgroups(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """All normal subgroups, sorted by (order, fingerprint)."""
    X = as_ref(X)
    return [subgroup_from_mask(X.ambient, m) for m in normal_subgroup_masks(X)]


def minimal_normal_subgroups(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """Minimal nontrivial normal subgroups; errors on the trivial group."""
    X = as_ref(X)
    if X.order == 1:
        raise FlabError("the trivial group has no minimal normal subgroups")
    masks = normal_subgroup_masks(X)
    trivial = 1 << X.ambient.identity_idx
    nontrivial = [m for m in masks if m != trivial]
    out = [
        m
        for m in nontrivial
        if not any(other != m and other & ~m == 0 for other in nontrivial)
    ]
    return [subgroup_from_mask(X.ambient, m) for m in out]


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


def _minimal_normal_above(G: Group, floor_mask: int) -> tuple[int, ...]:
    """Masks of the normal subgroups minimal among those strictly above the floor.

    Sorted by (order, fingerprint): the first mask is the deterministic choice
    of every walk up a chief series.  Cached on G per floor.
    """
    cached = G._minimal_above.get(floor_mask)
    if cached is not None:
        return cached
    masks = [m for m in normal_subgroup_masks(full_subgroup(G)) if floor_mask & ~m == 0 and m != floor_mask]
    minimal = [
        m
        for m in masks
        if not any(other != m and floor_mask & ~other == 0 and other & ~m == 0 for other in masks)
    ]
    cached = G._minimal_above[floor_mask] = tuple(
        sorted(minimal, key=lambda m: (m.bit_count(), tuple(bits(m))))
    )
    return cached


def _chief_masks_to(G: Group, top_mask: int) -> list[int]:
    """Masks of a chief series of G from 1 up to the normal subgroup ``top_mask``.

    Each step takes the first minimal normal subgroup above the current term
    that lies inside the top.
    """
    series = [1 << G.identity_idx]
    while series[-1] != top_mask:
        inside = [m for m in _minimal_normal_above(G, series[-1]) if m & ~top_mask == 0]
        if not inside:
            raise InternalCheckFailure("no chief series passes through the given subgroup")
        series.append(inside[0])
    return series


def chief_series(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """A chief series, built bottom-up with a deterministic choice rule.

    At each step the minimal normal subgroup of the quotient with the smallest
    order (ties broken by least fingerprint) is chosen.
    """
    X = as_ref(X)
    G = X.ambient
    if not X.is_full:
        inner = chief_series(subgroup_to_group(X))
        return [subgroup_from_mask(G, translate_mask(X, ref.mask, to_ambient=True)) for ref in inner]
    return [subgroup_from_mask(G, m) for m in _chief_masks_to(G, X.mask)]


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
            ginv = G.inv(g)
            if all(
                (z >> G.mul(G.mul(ginv, G.inv(s)), G.mul(g, s))) & 1
                for s in X.gen_idxs
            ):
                nxt |= 1 << g
        if nxt == z:
            return series
        series.append(subgroup_from_mask(G, nxt))


def derived_subgroup(X: SubgroupRef) -> SubgroupRef:
    """[X, X] as the normal closure in X of the generator commutators."""
    G = X.ambient
    seeds = set()
    gens = X.gen_idxs
    for a_pos, a in enumerate(gens):
        ainv = G.inv(a)
        for b in gens[a_pos + 1:]:
            seeds.add(G.mul(G.mul(ainv, G.inv(b)), G.mul(a, b)))
    seeds.discard(G.identity_idx)
    mask = normal_closure_mask(X, sorted(seeds))
    return subgroup_from_mask(G, mask)


def derived_series(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """X >= X' >= X'' >= ... down to the stable term."""
    X = as_ref(X)
    series = [X]
    while True:
        current = series[-1]
        derived = derived_subgroup(current)
        if derived.mask == current.mask:
            return series
        series.append(derived)


def is_soluble(X: Group | SubgroupRef) -> bool:
    return derived_series(X)[-1].is_trivial


def fitting_subgroup(X: Group | SubgroupRef) -> SubgroupRef:
    """F(X): the join of the O_p(X) over primes dividing |X|."""
    X = as_ref(X)
    G = X.ambient
    mask = trivial_subgroup(G).mask
    for p in prime_factors(X.order):
        mask |= o_pi(X, [p]).mask
    return subgroup_from_mask(G, closure_mask(G, list(bits(mask))))


def nilpotent_length(X: Group | SubgroupRef) -> int:
    """Length of the Fitting series; requires a soluble group."""
    X = as_ref(X)
    if not is_soluble(X):
        raise FlabError("nilpotent length is defined for soluble groups only")
    length = 0
    current = subgroup_to_group(X) if not X.is_full else X.ambient
    while current.order > 1:
        fit = fitting_subgroup(current)
        if fit.is_trivial:  # pragma: no cover - impossible for soluble groups
            raise InternalCheckFailure("trivial Fitting subgroup in a soluble group")
        qm = quotient(current, fit.mask, fit.gen_idxs)
        current = qm.group
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
