"""Centrality of chief factors and the class hypercenter.

Two independent centrality tests are provided: the oracle builds the
semidirect product of the factor with the acting quotient and tests class
membership; the local test checks membership of the acting section
G/C_G(H/K), decided in G itself, in the canonical local class at each
relevant prime.  The hypercenter is computed by
greedy ascent through minimal normal subgroups and then re-verified; both
read one cached verdict per chief factor, class and method.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Union

from . import config
from .errors import InternalCheckFailure, OracleCapExceeded
from .groups import Group, QuotientMap, _typecode, quotient, right_cosets
from .perms import Permutation
from .series import ChiefFactor, _chief_masks_to, _minimal_normal_above
from .subgroups import (
    SubgroupRef,
    centralizer_of_factor,
    full_subgroup,
    subgroup_from_mask,
    trivial_subgroup,
)
from .formations import (
    FormationExpr,
    formation_key,
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

    The quotient G/C embeds in the automorphisms of the factor (C is exactly
    the kernel), so the product has order |H/K| * |G/C|.  Up to
    ``ELEMENT_CAP`` it is a table group read off G's table; above it, it is a
    permutation group on the cosets of K in H, because membership beyond the
    element cap is decided from a stabilizer chain.  Cached on G per factor;
    the cache is read first, so a cached product costs no centralizer scan.
    """
    cap = config.ORACLE_CAP if cap is None else cap
    cache_key = (factor.below.mask, factor.above.mask)
    W = G._factor_products.get(cache_key)
    if W is None:
        cent, acting = _factor_quotient_data(G, factor)
        order = factor.order * acting
    else:
        order = W.order
    if order > cap:
        raise OracleCapExceeded(f"product order {order} exceeds the oracle cap {cap}")
    if W is None:
        coset_of, reps = right_cosets(G, factor.above.mask, factor.below.mask)
        if order <= config.ELEMENT_CAP:
            W = _table_product(G, factor, coset_of, reps, quotient(G, cent.mask, cent.gen_idxs))
        else:
            W = _permutation_product(G, factor, coset_of, reps)
            if W.order != order:
                raise InternalCheckFailure("oracle product has unexpected order")
        G._factor_products[cache_key] = W
    return W


def _table_product(
    G: Group,
    factor: ChiefFactor,
    coset_of: list[int],
    reps: list[int],
    acting: QuotientMap,
) -> Group:
    """(H/K) x| A, A = G/C, as a table group.

    Element (c, a) has index a*m + c, m = |H/K|, and A acts on the right by
    conjugation with coset representatives: (c1, a1)(c2, a2) =
    (c1 * c2^(a1^-1), a1 * a2).
    """
    table = G.table
    m = len(reps)
    A = acting.group
    a_table = A.table
    a_inv = [A.inv(a) for a in range(A.order)]
    # right multiplication in H/K: factor_rows[d][c] = c * d
    factor_rows = [[coset_of[x] for x in map(table[d].__getitem__, reps)] for d in reps]
    # the action: act[a][c] = c^a, conjugation by a representative of a
    act = []
    for g in acting.reps:
        ginv = G.inv(g)
        row_g = table[g]
        act.append([coset_of[row_g[table[r][ginv]]] for r in reps])
    typecode = _typecode(m * A.order)
    rows = []
    for a2 in range(A.order):
        a_row = a_table[a2]
        for c2 in range(m):
            row: list[int] = []
            for a1 in range(A.order):
                row += map((a_row[a1] * m).__add__, factor_rows[act[a_inv[a1]][c2]])
            rows.append(array(typecode, row))
    factor_inv = [coset_of[G.inv(r)] for r in reps]
    inv = array(
        typecode,
        (a_inv[a] * m + act[a][factor_inv[c]] for a in range(A.order) for c in range(m)),
    )
    c_e = coset_of[G.identity_idx]
    a_e = A.identity_idx
    gens = [a_e * m + coset_of[h] for h in factor.above.gen_idxs]
    gens += [a * m + c_e for a in A.gen_idxs()]
    return Group.from_table(rows, inv, a_e * m + c_e, gens, name="factor-action-product")


def _permutation_product(
    G: Group, factor: ChiefFactor, coset_of: list[int], reps: list[int]
) -> Group:
    """(H/K) x| (G/C) on the cosets of K in H: the factor acts by right
    translation and G by conjugation, which is faithful modulo C."""
    m = len(reps)
    gens = []
    for h in factor.above.gen_idxs:
        gens.append(Permutation(coset_of[G.mul(reps[c], h)] for c in range(m)))
    for g in G.gen_idxs():
        ginv = G.inv(g)
        gens.append(
            Permutation(coset_of[G.mul(G.mul(ginv, reps[c]), g)] for c in range(m))
        )
    return Group(m, gens, name="factor-action-product")


def is_f_central_oracle(
    test: MembershipTest, G: Group, factor: ChiefFactor, cap: int | None = None
) -> CentralityVerdict:
    """Centrality by constructing the factor-action product and testing membership.

    The acting order is read off the product, whose order is |H/K|·|G/C|.
    """
    W = build_factor_action_product(G, factor, cap)
    member = test(W) if callable(test) else formation_member(test, W)
    return CentralityVerdict(factor, member, "oracle", W.order // factor.order, W.order)


def is_f_central_local(F: FormationExpr, G: Group, factor: ChiefFactor) -> CentralityVerdict:
    """Centrality via the canonical local classes: G/C in F(p) for all p | |H/K|.

    The section G/C, C = C_G(H/K), is decided in G with C as the floor; no
    quotient group is built.
    """
    cent, acting = _factor_quotient_data(G, factor)
    central = all(local_def_member(F, p, G, cent) for p in factor.primes())
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


def _central(test: MembershipTest, G: Group, below: SubgroupRef, above: SubgroupRef, method: str) -> bool:
    """Whether the chief factor above/below is central.

    Verdicts for class expressions are decided once per group and cached per
    (below, above, class, method); a callable predicate has no stable key
    and is decided on every call.
    """
    if callable(test):
        return is_f_central(test, G, ChiefFactor(G, below, above), method).central
    key = (below.mask, above.mask, test, method)
    verdict = G._central_verdicts.get(key)
    if verdict is None:
        verdict = is_f_central(test, G, ChiefFactor(G, below, above), method).central
        G._central_verdicts[key] = verdict
    return verdict


def hypercenter(test: MembershipTest, G: Group, method: str = "auto") -> SubgroupRef:
    """The class hypercenter: greedy ascent through central minimal normal factors.

    The ascent is valid when the class is a formation; the result is
    post-verified (all chief factors below it central, no central factor
    directly above), so a non-formation membership test is flagged by the
    verification instead of being silently accepted.  Both read the
    per-factor verdicts of :func:`_central`, so each factor is decided once.
    """
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
            if _central(test, G, current, above, method):
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
        if not _central(test, G, below, above, method):
            raise InternalCheckFailure("hypercenter contains a non-central factor")
    if Z.mask != full_subgroup(G).mask:
        for mask in _minimal_normal_above(G, Z.mask):
            if _central(test, G, Z, subgroup_from_mask(G, mask), method):
                raise InternalCheckFailure("hypercenter is not maximal")
