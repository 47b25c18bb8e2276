"""Subgroups of a fixed ambient group, stored as element-index bitmasks.

A :class:`SubgroupRef` identifies a subgroup by the bitmask of its element
indices inside the ambient group's element list; the mask doubles as
the canonical fingerprint.  All operators here work at index level and need
the ambient group's elements and multiplication table.
"""

from __future__ import annotations

from operator import getitem
from typing import Iterable, Sequence

from .errors import NotASubgroup
# bits, p_part and prime_factors stay importable from here for existing
# callers; perfbench's tracer test reads the quotient binding of this module
from .groups import Group, bits, p_part, prime_factors, quotient  # noqa: F401


class SubgroupRef:
    """A subgroup of ``ambient`` as an element-index bitmask plus generators.

    ``gen_idxs`` may be passed in (any generating set the caller already has)
    or left as ``None``; it is then computed by :func:`gens_for_mask` on first
    read and cached.  Equality and hashing use the ambient group and the mask
    only, so they do not depend on whether the generators exist yet.
    """

    __slots__ = ("ambient", "mask", "_gen_idxs")

    def __init__(self, ambient: Group, mask: int, gen_idxs: tuple[int, ...] | None = None):
        self.ambient = ambient
        self.mask = mask
        self._gen_idxs = gen_idxs

    @property
    def gen_idxs(self) -> tuple[int, ...]:
        gens = self._gen_idxs
        if gens is None:
            gens = self._gen_idxs = gens_for_mask(self.ambient, self.mask)
        return gens

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubgroupRef)
            and self.ambient is other.ambient
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.ambient), self.mask))

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def fingerprint(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        return self.order == self.ambient.order

    def contains(self, other: "SubgroupRef") -> bool:
        return other.mask & ~self.mask == 0

    def __repr__(self) -> str:
        return f"<Subgroup order {self.order} of {self.ambient.name or self.ambient.degree}>"


# ---------------------------------------------------------------------------
# Closure and construction
# ---------------------------------------------------------------------------


# flag bytes -> binary digits, for reading a flag array back as a mask
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def closure_mask(
    G: Group,
    seed_idxs: Iterable[int],
    stop_above: int | None = None,
    base: int | None = None,
) -> int:
    """Bitmask of the subgroup generated by the given element indices.

    Dimino's algorithm: the first seed's cyclic group is walked power by
    power; each further seed outside the current subgroup H is adjoined one
    right coset ``H·r`` at a time, checking closure only on coset
    representatives times generators.

    If ``stop_above`` is given and the closure's order passes it, returns the
    full group mask as soon as that is seen (caller guarantees the bound,
    e.g. the largest proper divisor of |G|).  If ``base`` is given it is the
    mask of a subgroup that is already closed; the seeds that lie inside it
    are taken as its generators, and the caller guarantees that they
    generate it.
    """
    e = G.identity_idx
    mask = 1 << e if base is None else base
    gens: list[int] = []
    new: list[int] = []
    for s in seed_idxs:
        if (mask >> s) & 1:
            if s != e:
                gens.append(s)
        else:
            new.append(s)
    n = G.order
    if not new:
        if stop_above is not None and mask.bit_count() > stop_above:
            return (1 << n) - 1
        return mask
    table = G.table
    members = list(bits(mask))  # the current subgroup
    inside = bytearray(n)  # inside[x] == 1 iff x is in it
    for x in members:
        inside[x] = 1
    for s in new:
        if inside[s]:
            continue
        gens.append(s)
        if len(members) == 1:
            # the cyclic group <s>, one power at a time
            row = table[s]
            x = s
            while x != e:
                inside[x] = 1
                members.append(x)
                x = row[x]
            if stop_above is not None and len(members) > stop_above:
                return (1 << n) - 1
            continue
        H = members[:]
        gen_rows = [table[g] for g in gens]
        reps = [s]
        for r in reps:  # grows as new cosets are found; repeats are skipped
            if inside[r]:
                continue
            row = table[r]
            coset = [row[h] for h in H]
            for y in coset:
                inside[y] = 1
            members += coset
            if stop_above is not None and len(members) > stop_above:
                return (1 << n) - 1
            for grow in gen_rows:
                y = grow[r]
                if not inside[y]:
                    reps.append(y)
    return int(inside.translate(_BIT_DIGITS)[::-1], 2)


def gens_for_mask(G: Group, mask: int) -> tuple[int, ...]:
    """A small deterministic generating set for the subgroup with this mask.

    Greedy: repeatedly adjoin the lowest-index element of maximal order not
    yet generated, growing the generated subgroup one step at a time.
    """
    e = G.identity_idx
    if mask == 1 << e:
        return ()
    order = G.elt_order
    candidates = sorted(bits(mask & ~(1 << e)), key=lambda i: (-order(i), i))
    gens: list[int] = []
    have = 1 << e
    for c in candidates:
        if (have >> c) & 1:
            continue
        gens.append(c)
        have = closure_mask(G, gens, base=have)
        if have == mask:
            break
    return tuple(sorted(gens))


def subgroup_from_idxs(G: Group, idxs: Sequence[int]) -> SubgroupRef:
    mask = closure_mask(G, idxs)
    gens = tuple(sorted(i for i in idxs if i != G.identity_idx))
    return SubgroupRef(G, mask, gens)


def subgroup_from_mask(G: Group, mask: int, gen_idxs: Sequence[int] | None = None) -> SubgroupRef:
    """The subgroup with this mask; without ``gen_idxs`` they are built on first read."""
    return SubgroupRef(G, mask, None if gen_idxs is None else tuple(gen_idxs))


def trivial_subgroup(G: Group) -> SubgroupRef:
    return SubgroupRef(G, 1 << G.identity_idx, ())


def full_subgroup(G: Group) -> SubgroupRef:
    return SubgroupRef(G, (1 << G.order) - 1, G.gen_idxs())


def as_ref(X: Group | SubgroupRef) -> SubgroupRef:
    return X if isinstance(X, SubgroupRef) else full_subgroup(X)


def _require_subgroup(X: SubgroupRef, H: SubgroupRef) -> None:
    if H.ambient is not X.ambient:
        raise NotASubgroup("operands live in different ambient groups")
    if not X.contains(H):
        raise NotASubgroup("not a subgroup of the given ambient")


# ---------------------------------------------------------------------------
# Elementary operators
# ---------------------------------------------------------------------------


def _members(X: SubgroupRef) -> Iterable[int]:
    """The element indices of X: a plain range when X is the whole group."""
    return range(X.order) if X.is_full else bits(X.mask)


def normalizer(X: Group | SubgroupRef, H: SubgroupRef) -> SubgroupRef:
    """N_X(H) = {g in X : H^g = H}."""
    X = as_ref(X)
    G = X.ambient
    if H.ambient is not G:
        raise NotASubgroup("operands live in different ambient groups")
    table = G.table
    digits = format(H.mask, f"0{G.order}b")[::-1].encode()  # digits[x] == ord("1") iff x in H
    out = X.mask
    for h in H.gen_idxs:
        # for every g at once: h^g = table[g][table[h][inv[g]]], and whether it lies in H
        conj = map(getitem, table, map(table[h].__getitem__, G.inverses))
        out &= int(bytes(map(digits.__getitem__, conj))[::-1], 2)
    return subgroup_from_mask(G, out)


def centralizer(X: Group | SubgroupRef, H: SubgroupRef) -> SubgroupRef:
    """C_X(H) = {g in X : gh = hg for all h in H}."""
    X = as_ref(X)
    G = X.ambient
    if H.ambient is not G:
        raise NotASubgroup("operands live in different ambient groups")
    return centralizer_of_factor(X, H, trivial_subgroup(G))


def centralizer_of_factor(
    X: Group | SubgroupRef, H: SubgroupRef, K: SubgroupRef
) -> SubgroupRef:
    """C_X(H/K) = {g : [g, H] <= K}; requires K <= H.

    H/K is a factor of X when both are normal in X; with K = 1 this is the
    centralizer of any H.
    """
    X = as_ref(X)
    G = X.ambient
    if not H.contains(K):
        raise NotASubgroup("factor floor is not contained in its ceiling")
    kmask = K.mask
    hgens = H.gen_idxs
    out = 0
    table = G.table
    inv = G.inverses
    hrows = [(h, inv[h]) for h in hgens]
    for g in _members(X):
        ginv = inv[g]
        row_g = table[g]
        ok = True
        for h, hinv in hrows:
            # [g, h] = g^-1 h^-1 g h
            comm = table[h][row_g[table[hinv][ginv]]]
            if not (kmask >> comm) & 1:
                ok = False
                break
        if ok:
            out |= 1 << g
    return subgroup_from_mask(G, out)


def conjugacy_orbit(X: Group | SubgroupRef, mask: int) -> list[int]:
    """Orbit of a subgroup mask under conjugation by X (via X's generators).

    Each orbit member's elements are listed once and mapped by every
    generator's conjugation row.
    """
    X = as_ref(X)
    G = X.ambient
    rows = [G.conj_row(g) for g in X.gen_idxs]
    seen = {mask}
    frontier = [mask]
    while frontier:
        nxt = []
        for m in frontier:
            members = list(bits(m))
            for row in rows:
                c = 0
                for x in members:
                    c |= 1 << row[x]
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(seen)


def core(X: Group | SubgroupRef, H: SubgroupRef) -> SubgroupRef:
    """Largest X-normal subgroup of H: the intersection of the X-conjugates of H."""
    X = as_ref(X)
    _require_subgroup(X, H)
    out = H.mask
    for m in conjugacy_orbit(X, H.mask):
        out &= m
    return subgroup_from_mask(X.ambient, out)


def is_normal_in(H: SubgroupRef, X: Group | SubgroupRef) -> bool:
    X = as_ref(X)
    G = X.ambient
    hmask = H.mask
    return all(
        (hmask >> G.conj(h, g)) & 1 for g in X.gen_idxs for h in H.gen_idxs
    )


def commutator_subgroup(A: SubgroupRef, B: SubgroupRef) -> SubgroupRef:
    """[A, B]: the normal closure in <A, B> of the commutators [a, b] of the
    generators of A with those of B (Robinson, 5.1.7).

    The commutators are closed under conjugation by the generators of the
    operand that contains the other, or by both generator sets when neither
    does, and the subgroup they generate is taken.
    """
    if A.ambient is not B.ambient:
        raise NotASubgroup("operands live in different ambient groups")
    G = A.ambient
    if B.mask & ~A.mask == 0:
        conj_gens = A.gen_idxs
    elif A.mask & ~B.mask == 0:
        conj_gens = B.gen_idxs
    else:
        conj_gens = A.gen_idxs + B.gen_idxs
    seeds = {G.comm(a, b) for a in A.gen_idxs for b in B.gen_idxs}
    seeds.discard(G.identity_idx)
    pending = list(seeds)
    while pending:
        s = pending.pop()
        for g in conj_gens:
            c = G.conj(s, g)
            if c not in seeds:
                seeds.add(c)
                pending.append(c)
    return subgroup_from_mask(G, closure_mask(G, sorted(seeds)))


def join(A: SubgroupRef, B: SubgroupRef) -> SubgroupRef:
    if A.ambient is not B.ambient:
        raise NotASubgroup("operands live in different ambient groups")
    if B.mask & ~A.mask == 0:
        return A
    if A.mask & ~B.mask == 0:
        return B
    mask = closure_mask(A.ambient, A.gen_idxs + B.gen_idxs, base=A.mask)
    return subgroup_from_mask(A.ambient, mask)


def product_mask(G: Group, A: SubgroupRef, B: SubgroupRef) -> int:
    """The set product AB = {ab} as a mask (a subgroup iff AB = BA)."""
    return _set_product(G.table, A.mask, B.mask)


def _set_product(table, a: int, b: int) -> int:
    """The set product of two subgroup masks, as the union of the right
    cosets Ax, x in B: each coset is listed once, so the cost is O(|AB|)."""
    out = a
    a_elts = list(bits(a))
    for x in bits(b):
        if not (out >> x) & 1:
            row = table[x]
            for y in a_elts:
                out |= 1 << row[y]
    return out


# ---------------------------------------------------------------------------
# pi-elements
# ---------------------------------------------------------------------------


def pi_element_mask(X: Group | SubgroupRef, pi: Iterable[int]) -> int:
    """The mask of the elements of X whose orders are pi-numbers, the identity
    included: X's mask ANDed with that of G's pi-elements, memoised on G per pi."""
    X = as_ref(X)
    G = X.ambient
    pi = frozenset(pi)
    mask = G._pi_masks.get(pi)
    if mask is None:
        orders = G.elt_orders()
        pi_orders = {o for o in set(orders) if pi.issuperset(prime_factors(o))}
        mask = G._pi_masks[pi] = sum(1 << x for x, o in enumerate(orders) if o in pi_orders)
    return X.mask & mask


# ---------------------------------------------------------------------------
# Normal-subgroup machinery (mask level)
# ---------------------------------------------------------------------------


def normal_subgroup_masks(X: Group | SubgroupRef) -> tuple[int, ...]:
    """All X-normal subgroups of X as masks, sorted by (order, mask), read
    off the ambient subgroup lattice (so they share its budget).

    For X = G they are the lattice members whose conjugacy class has one
    member; for a proper X, the members of X's row of subgroups that
    conjugation by each generator of X maps into themselves.
    """
    from .lattice import all_subgroups  # lattice imports this module

    X = as_ref(X)
    G = X.ambient
    if X.is_full and G._normal_masks is not None:
        return G._normal_masks
    cached = G._normal_masks_by_mask.get(X.mask)
    if cached is not None:
        return cached
    lat = all_subgroups(G)
    if X.is_full:
        masks = G._normal_masks = tuple(
            ref.mask for ref, cid in zip(lat.refs, lat.class_id) if len(lat.classes[cid]) == 1
        )
    else:
        rows = [G.conj_row(g) for g in X.gen_idxs]
        subs = (lat.refs[j].mask for j in bits(lat.sub_rows[lat.index_of(X)]))
        masks = tuple(
            m for m in subs if all((m >> row[x]) & 1 for row in rows for x in bits(m))
        )
    G._normal_masks_by_mask[X.mask] = masks
    return masks


# ---------------------------------------------------------------------------
# O_pi, O^pi, O_{p',p}
# ---------------------------------------------------------------------------


def o_pi(X: Group | SubgroupRef, pi: Iterable[int], floor: SubgroupRef | None = None) -> SubgroupRef:
    """O_pi(X), the largest normal pi-subgroup; over an X-normal floor, the
    preimage of O_pi(X/floor).

    That is the largest X-normal subgroup containing the floor with pi-index
    over it.  The normal subgroups with this property are closed under
    products, so the largest one contains all the others; this is checked.
    """
    X = as_ref(X)
    pi = frozenset(pi)
    floor_mask = 1 << X.ambient.identity_idx if floor is None else floor.mask
    floor_order = floor_mask.bit_count()
    candidates = [
        m
        for m in normal_subgroup_masks(X)
        if floor_mask & ~m == 0 and pi.issuperset(prime_factors(m.bit_count() // floor_order))
    ]
    top = candidates[-1]  # normal_subgroup_masks is sorted by order
    if any(m & ~top for m in candidates):
        raise NotASubgroup("normal pi-sections have no largest member")  # pragma: no cover
    return subgroup_from_mask(X.ambient, top)


def o_pi_up(X: Group | SubgroupRef, pi: Iterable[int]) -> SubgroupRef:
    """O^pi(X): the smallest normal subgroup with pi-quotient.

    It is generated by the pi'-elements of X, and so by those of order q^k
    with q outside pi.  The intersection of the normal subgroups with
    pi-quotient that this replaced is ``tests/oracles.py::o_pi_up_by_normal_subgroups``.
    """
    X = as_ref(X)
    G = X.ambient
    pi = frozenset(pi)
    orders = G.elt_orders()
    seed_orders = set()
    for o in set(orders):
        primes = prime_factors(o)
        if len(primes) == 1 and primes[0] not in pi:
            seed_orders.add(o)
    seeds = [x for x in _members(X) if orders[x] in seed_orders]
    return subgroup_from_mask(G, closure_mask(G, seeds))


def o_pp(X: Group | SubgroupRef, p: int) -> SubgroupRef:
    """O_{p',p}(X), defined by O_{p',p}/O_{p'} = O_p(X / O_{p'})."""
    X = as_ref(X)
    return o_pi(X, [p], o_pi(X, [q for q in prime_factors(X.order) if q != p]))
