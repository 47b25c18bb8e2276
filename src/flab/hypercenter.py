"""Centrality of chief factors and the class hypercenter.

Two independent centrality tests are provided: the oracle builds the
semidirect product of the factor with the acting quotient and tests class
membership; the local test checks membership of the acting quotient in the
canonical local class at each relevant prime.  The hypercenter is computed by
greedy ascent through minimal normal subgroups and then re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from . import config
from .errors import InternalCheckFailure, OracleCapExceeded
from .groups import Group, quotient
from .perms import Permutation
from .series import ChiefFactor, _chief_masks_to, _minimal_normal_above
from .subgroups import (
    SubgroupRef,
    bits,
    centralizer_of_factor,
    full_subgroup,
    subgroup_from_mask,
    trivial_subgroup,
)
from .formations import (
    FormationExpr,
    formation_member,
    local_def_member,
    supports_local_definition,
)

MembershipTest = Union[FormationExpr, Callable[[Group], bool]]


@dataclass(frozen=True)
class CentralityVerdict:
    factor: ChiefFactor
    central: bool
    method: str  # "oracle" | "local-definition" | "both"
    acting_order: int  # |G / C_G(H/K)|
    product_order: int | None = None  # |H/K| * acting order, when the oracle ran


def _factor_quotient_data(G: Group, factor: ChiefFactor) -> tuple[SubgroupRef, int]:
    cent = centralizer_of_factor(G, factor.above, factor.below)
    return cent, G.order // cent.order


def build_factor_action_product(G: Group, factor: ChiefFactor, cap: int | None = None) -> Group:
    """The semidirect product (H/K) x| (G/C) with the conjugation action.

    Realised on the cosets of K in H: the factor acts by right translation and
    the acting quotient by conjugation.  The quotient G/C embeds in the
    automorphisms of the factor (C is exactly the kernel), so this action is
    faithful and the product has order |H/K| * |G/C|.
    """
    cap = config.ORACLE_CAP if cap is None else cap
    cent, acting = _factor_quotient_data(G, factor)
    m = factor.order
    if m * acting > cap:
        raise OracleCapExceeded(
            f"product order {m * acting} exceeds the oracle cap {cap}"
        )
    cache_key = (factor.below.mask, factor.above.mask)
    cached = G._factor_products.get(cache_key)
    if cached is not None:
        return cached
    kmask = factor.below.mask
    kmembers = list(bits(kmask))
    coset_of = {}
    reps = []
    for i in bits(factor.above.mask):
        if i in coset_of:
            continue
        cid = len(reps)
        reps.append(i)
        for x in kmembers:
            coset_of[G.mul(x, i)] = cid
    gens = []
    for h in factor.above.gen_idxs:
        gens.append(Permutation(coset_of[G.mul(reps[c], h)] for c in range(m)))
    for g in G.gen_idxs():
        ginv = G.inv(g)
        gens.append(
            Permutation(coset_of[G.mul(G.mul(ginv, reps[c]), g)] for c in range(m))
        )
    W = Group(m, gens, name="factor-action-product")
    if W.order != m * acting:
        raise InternalCheckFailure("oracle product has unexpected order")
    G._factor_products[cache_key] = W
    return W


def is_f_central_oracle(
    test: MembershipTest, G: Group, factor: ChiefFactor, cap: int | None = None
) -> CentralityVerdict:
    """Centrality by constructing the factor-action product and testing membership."""
    cent, acting = _factor_quotient_data(G, factor)
    W = build_factor_action_product(G, factor, cap)
    member = test(W) if callable(test) else formation_member(test, W)
    return CentralityVerdict(factor, member, "oracle", acting, W.order)


def is_f_central_local(F: FormationExpr, G: Group, factor: ChiefFactor) -> CentralityVerdict:
    """Centrality via the canonical local classes: G/C in F(p) for all p | |H/K|."""
    cent, acting = _factor_quotient_data(G, factor)
    qm = quotient(G, cent.mask, cent.gen_idxs)
    central = all(local_def_member(F, p, qm.group) for p in factor.primes())
    return CentralityVerdict(factor, central, "local-definition", acting)


def is_f_central(
    test: MembershipTest, G: Group, factor: ChiefFactor, method: str = "auto"
) -> CentralityVerdict:
    """Centrality with method dispatch; "both" enforces agreement."""
    local_ok = not callable(test) and supports_local_definition(test)
    if method == "auto":
        method = "local" if local_ok else "oracle"
    if method == "local":
        if not local_ok:
            raise InternalCheckFailure("local centrality requested without a local class")
        return is_f_central_local(test, G, factor)
    if method == "oracle":
        return is_f_central_oracle(test, G, factor)
    if method == "both":
        oracle = is_f_central_oracle(test, G, factor)
        local = is_f_central_local(test, G, factor)
        if oracle.central != local.central:
            raise InternalCheckFailure(
                f"centrality oracle ({oracle.central}) and local test "
                f"({local.central}) disagree on a factor of order {factor.order}"
            )
        return CentralityVerdict(
            factor, oracle.central, "both", oracle.acting_order, oracle.product_order
        )
    raise ValueError(f"unknown method {method!r}")


def hypercenter(test: MembershipTest, G: Group, method: str = "auto") -> SubgroupRef:
    """The class hypercenter: greedy ascent through central minimal normal factors.

    The ascent is valid when the class is a formation; the result is
    post-verified (all chief factors below it central, no central factor
    directly above), so a non-formation membership test is flagged by the
    verification instead of being silently accepted.
    """
    from .formations import formation_key

    # predicate-based classes are not memoized (no stable key for a callable)
    memo_key = None if callable(test) else (formation_key(test), method)
    if memo_key is not None:
        cached = G._hypercenters.get(memo_key)
        if cached is not None:
            return cached
    current = trivial_subgroup(G)
    full = full_subgroup(G)
    while current.mask != full.mask:
        step = None
        for mask in _minimal_normal_above(G, current.mask):
            above = subgroup_from_mask(G, mask)
            factor = ChiefFactor(G, current, above)
            if is_f_central(test, G, factor, method).central:
                step = above
                break
        if step is None:
            break
        current = step
    _verify_hypercenter(test, G, current, method)
    if memo_key is not None:
        G._hypercenters[memo_key] = current
    return current


def _verify_hypercenter(
    test: MembershipTest, G: Group, Z: SubgroupRef, method: str
) -> None:
    # every factor of a chief series through Z and below it must be central
    series = [subgroup_from_mask(G, m) for m in _chief_masks_to(G, Z.mask)]
    for below, above in zip(series, series[1:]):
        if not is_f_central(test, G, ChiefFactor(G, below, above), method).central:
            raise InternalCheckFailure("hypercenter contains a non-central factor")
    if Z.mask != full_subgroup(G).mask:
        for mask in _minimal_normal_above(G, Z.mask):
            factor = ChiefFactor(G, Z, subgroup_from_mask(G, mask))
            if is_f_central(test, G, factor, method).central:
                raise InternalCheckFailure("hypercenter is not maximal")
