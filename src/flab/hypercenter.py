"""Centrality of chief factors and the class hypercenter.

Two independent centrality tests are provided: the oracle tests class
membership of the semidirect product of the factor with the acting
quotient, built from its generators' table rows for an abelian factor
and decided from the primes of its order, by a theorem, for a non-abelian
one; the local test checks membership of the acting section G/C_G(H/K),
decided in G itself, in the canonical local class at each relevant prime.
The hypercenter is computed by greedy ascent through minimal normal
subgroups and then re-verified; both read one cached verdict per chief
factor, class and method.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Union

from .errors import InternalCheckFailure, OracleCapExceeded
from .groups import Group, QuotientMap, _typecode, prime_factors, quotient, right_cosets
from .series import ChiefFactor, _chief_masks_to, _minimal_normal_above
from .subgroups import (
    SubgroupRef,
    centralizer_of_factor,
    full_subgroup,
    subgroup_from_mask,
    trivial_subgroup,
)
from .formations import (
    Cross,
    FormationExpr,
    Gpi,
    formation_key,
    formation_member,
    local_def_member,
    partition_blocks_for,
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


def build_factor_action_product(G: Group, factor: ChiefFactor) -> Group:
    """The semidirect product (H/K) x| (G/C) with the conjugation action.

    The quotient G/C embeds in the automorphisms of the factor (C is exactly
    the kernel), so the product has order |H/K| * |G/C|.  It is built from
    its generators' rows read off G's table, only for an abelian factor:
    then H <= C, so the order is at most |G/K|.  A non-abelian factor raises
    :class:`OracleCapExceeded`.  Cached on G per factor; the cache is read
    first, so a cached product costs no centralizer scan.
    """
    cache_key = (factor.below.mask, factor.above.mask)
    W = G._factor_products.get(cache_key)
    if W is not None:
        return W
    if len(factor.primes()) > 1:
        raise OracleCapExceeded(f"no product is built for a non-abelian factor of order {factor.order}")
    cent = centralizer_of_factor(G, factor.above, factor.below)
    coset_of, reps = right_cosets(G, factor.above.mask, factor.below.mask)
    W = _table_product(G, factor, coset_of, reps, quotient(G, cent.mask, cent.gen_idxs))
    G._factor_products[cache_key] = W
    return W


def _table_product(
    G: Group,
    factor: ChiefFactor,
    coset_of: list[int],
    reps: list[int],
    acting: QuotientMap,
) -> Group:
    """(H/K) x| A, A = G/C, as a group of its generators' rows.

    Element (c, a) has index a*m + c, m = |H/K|, and A acts on the right by
    conjugation with coset representatives: (c1, a1)(c2, a2) =
    (c1 * c2^(a1^-1), a1 * a2).  The generators are (c2, 1) for the
    generators c2 of H/K and (1, a2) for those of A, whose rows are
    (c1, a1)(c2, 1) = (c1 * c2^(a1^-1), a1) and (c1, a1)(1, a2) =
    (c1, a1 * a2), read off G's table with a representative g of a1:
    c2^(a1^-1) is the coset of g h g^-1 for h in c2.
    """
    table, inverses = G.table, G.inverses
    m = len(reps)
    A = acting.group
    typecode = _typecode(m * A.order)
    a_e, c_e = A.identity_idx, coset_of[G.identity_idx]
    gen_rows: dict[int, array] = {}
    for h in factor.above.gen_idxs:
        if a_e * m + coset_of[h] in gen_rows:
            continue
        row: list[int] = []
        for a1, g in enumerate(acting.reps):
            conj_row = table[table[inverses[g]][table[h][g]]]  # x -> x * g h g^-1
            row += [a1 * m + coset_of[conj_row[r]] for r in reps]
        gen_rows[a_e * m + coset_of[h]] = array(typecode, row)
    for a2 in A.gen_idxs():
        row_a2 = table[acting.reps[a2]]
        row = []
        for g in acting.reps:
            base = acting.coset_of[row_a2[g]] * m  # a1 * a2
            row += range(base, base + m)
        gen_rows[a2 * m + c_e] = array(typecode, row)
    return Group.from_gen_rows(m * A.order, a_e * m + c_e, gen_rows, name="factor-action-product")


def _holds_non_abelian_product(F: FormationExpr, order: int) -> bool:
    """Whether F holds W = N x| A, N = H/K a non-abelian chief factor of G and
    A = G/C, C = C_G(H/K), acting by conjugation; ``order`` is |W|.

    The W-normal subgroups of N are the G-invariant ones, so N is minimal
    normal in W.  An element (n, a) of W centralises N iff a acts on N as
    the inner automorphism by n^-1, which determines n since Z(N) = 1; so
    C_W(N) maps injectively into A meet Inn(N), and |C_W(N)| divides |N|.
    Suppose W is the direct product of its parts O_pi(W) over a partition
    of the primes.  N meets some part O_pi(W), else [N, P] <= N meet P = 1
    for every part P and N would be central; being minimal normal, N lies
    in O_pi(W).  Every other part commutes with O_pi(W), so it is a
    pi'-subgroup of C_W(N), whose order is a pi-number: it is trivial, and
    W = O_pi(W).  Hence W lies in F iff the primes of |W| lie in one block
    of F and that block holds every group of its primes: F is ``Gpi`` over
    those primes, or the one block of a cross class meeting them is a
    ``Gpi`` block.  The soluble classes (``Sol``, ``Spi``, ``N``, ``N^r``,
    ``U``) never hold W, whose chief factor N is insoluble.  As HC/C is
    isomorphic to H/K, the primes of |W| are those of |A|.
    """
    primes = prime_factors(order)
    if isinstance(F, Cross):
        F = partition_blocks_for(F, primes)[0]  # W lies in F only if this block has all its primes
    return isinstance(F, Gpi) and F.primes.issuperset(primes)


def is_f_central_oracle(test: MembershipTest, G: Group, factor: ChiefFactor) -> CentralityVerdict:
    """Centrality by testing membership of the factor-action product W.

    For an abelian factor W is built and the acting order read off it.  A
    non-abelian factor's W, of order |H/K|·|G/C|, is not built: the class is
    decided by :func:`_holds_non_abelian_product`, and a callable predicate,
    which needs the group, raises :class:`OracleCapExceeded`.
    """
    if len(factor.primes()) > 1:
        _, acting = _factor_quotient_data(G, factor)
        order = factor.order * acting
        if callable(test):
            raise OracleCapExceeded(
                f"a predicate needs the product of a non-abelian factor of order {factor.order}"
            )
        return CentralityVerdict(factor, _holds_non_abelian_product(test, order), "oracle", acting, order)
    W = build_factor_action_product(G, factor)
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
