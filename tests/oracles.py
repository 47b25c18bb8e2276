"""Independent brute-force oracles for the test suite.

Everything here works directly on Permutation objects and frozensets, never
through the library's index machinery, so oracle results are independent of
the code paths they check.  Three families read the library's element
indices but none of its fast paths: the reference index-level kernels;
``quotient_by_permutations``, which reads cosets off the source group's table
and builds the quotient from permutations; and the replaced decisions at the
end of this file (the Sylow subgroup grown through normalizers, cyclic
primary subgroups by one closure per element, Sylow nilpotency, cross
membership through O_pi, the permutation-built oracle product, the
per-member subnormalizer and normalizer intersections, O^pi as an
intersection of normal subgroups, supersolubility by chief factors,
subnormality along any chain of step quotients, the chain-level derived
and lower central series with the membership rule read from them, O_pi as
the join of the normal pi-subgroups, the section decisions made on quotient
or subgroup groups: the local class test, O_{p',p}, the Fitting length and the chief
series of a subgroup, and the constructions that now have one kernel each:
the commutator subgroup as the closure of all |A|·|B| commutators, the set
product one pair at a time, and the Fitting subgroup as the closure of the
join of the O_p; and kernels that now skip work: the subgroup lattice
that joins each class representative with every prime-power cyclic
subgroup outside it, ``subgroups_by_all_joins``, the multiplication
table built from Permutation products, ``table_by_permutation_products``,
the element permutations kept by the enumeration,
``elements_by_enumeration``, the normal subgroups from one closure per
conjugacy class,
``normal_subgroup_masks_by_classes``, the semidirect action checked map
by map, relations, bijection and homomorphism, ``semidirect_action_by_maps``,
and the section X/N and the oracle product with every table row and the
inverse column built, ``coset_group_by_full_rows`` and
``table_product_by_full_rows``),
each the library's algorithm before its exact shortcut, before the lattice
became its source, before it read sections as masks in the ambient group,
before one routine served every caller, or before it was pruned.
"""

from __future__ import annotations

import itertools

from flab.perms import Permutation


def closure(perms) -> frozenset[Permutation]:
    """Subgroup generated by the given permutations, by plain BFS."""
    perms = list(perms)
    if not perms:
        raise ValueError("need at least one permutation for the degree")
    degree = perms[0].degree
    identity = Permutation.identity(degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in perms:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def elements_of(G) -> frozenset[Permutation]:
    gens = list(G.generators) or [Permutation.identity(G.degree)]
    return closure(gens)


def subgroups_by_small_subsets(G, max_gens: int) -> set[frozenset[Permutation]]:
    """All subgroups generated by at most max_gens elements."""
    elems = sorted(elements_of(G))
    out = {frozenset([Permutation.identity(G.degree)])}
    for k in range(1, max_gens + 1):
        for combo in itertools.combinations(elems, k):
            out.add(closure(combo))
    return out


def subgroups_by_cyclic_extension(G) -> set[frozenset[Permutation]]:
    """All subgroups of a group whose subgroups are all soluble.

    Classic cyclic-extension enumeration: every soluble subgroup arises from a
    smaller one by adjoining a prime-order element of its normalizer whose
    prime power lies inside.  Complete whenever every subgroup of G is
    soluble (e.g. S4, Q8, dihedral groups).
    """
    elems = sorted(elements_of(G))
    identity = Permutation.identity(G.degree)
    trivial = frozenset([identity])
    layers = {trivial}
    all_found = {trivial}
    while layers:
        next_layer = set()
        for H in layers:
            normalizer = [g for g in elems if all(h.conjugate(g) in H for h in H)]
            for g in normalizer:
                if g in H:
                    continue
                o = g.order()
                # adjoin g when its image over H has prime order
                for p in {p for p in range(2, o + 1) if o % p == 0 and _is_prime(p)}:
                    if (g ** p) in H:
                        K = closure(list(H) + [g])
                        if K not in all_found:
                            all_found.add(K)
                            next_layer.add(K)
        layers = next_layer
    return all_found


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def normalizer_bf(ambient: frozenset[Permutation], H: frozenset[Permutation]) -> frozenset[Permutation]:
    return frozenset(g for g in ambient if all(h.conjugate(g) in H for h in H))


def centralizer_bf(ambient: frozenset[Permutation], H: frozenset[Permutation]) -> frozenset[Permutation]:
    return frozenset(g for g in ambient if all(g * h == h * g for h in H))


def core_bf(ambient: frozenset[Permutation], H: frozenset[Permutation]) -> frozenset[Permutation]:
    out = set(H)
    for g in ambient:
        out &= {h.conjugate(g) for h in H}
    return frozenset(out)


def commutator_bf(A: frozenset[Permutation], B: frozenset[Permutation]) -> frozenset[Permutation]:
    return closure([a.commutator(b) for a in A for b in B])


def center_bf(ambient: frozenset[Permutation]) -> frozenset[Permutation]:
    return centralizer_bf(ambient, ambient)


def element_order_histogram(G) -> dict[int, int]:
    hist: dict[int, int] = {}
    for p in elements_of(G):
        hist[p.order()] = hist.get(p.order(), 0) + 1
    return hist


def is_nilpotent_bf(elems: frozenset[Permutation]) -> bool:
    """Nilpotency via the ascending central series on raw element sets."""
    degree = next(iter(elems)).degree
    z = {Permutation.identity(degree)}
    while True:
        nxt = {
            g
            for g in elems
            if all(g.commutator(h) in z for h in elems)
        }
        if nxt == z:
            return len(z) == len(elems)
        if len(nxt) == len(elems):
            return True
        z = nxt


def is_supersoluble_bf(elems: frozenset[Permutation]) -> bool:
    """Supersolubility by searching for a normal series with prime cyclic steps.

    Greedy: repeatedly extend a normal subgroup chain by any normal-in-G
    overgroup of prime index step generated by one more element.
    """
    degree = next(iter(elems)).degree
    current = frozenset([Permutation.identity(degree)])
    while len(current) < len(elems):
        step = None
        for g in sorted(elems - current):
            candidate = closure(list(current | {g}))
            ratio = len(candidate) // len(current)
            if not _is_prime(ratio):
                continue
            if all(h.conjugate(x) in candidate for h in candidate for x in elems):
                step = candidate
                break
        if step is None:
            return False
        current = step
    return True


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


# ---------------------------------------------------------------------------
# Reference index-level kernels.  These keep the plain algorithms that the
# library's closure kernel replaced; products go through Permutation objects
# and the element list, never through the multiplication table.  The bit walk
# is the one ``groups.bits`` keeps for sparse masks only.
# ---------------------------------------------------------------------------


def bits_by_lowest_bit(mask: int):
    """Set bit positions in ascending order, one lowest bit at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure_mask_bfs(G, seed_idxs, stop_above=None) -> int:
    """Mask of <seeds> by breadth-first search over right multiplication."""
    elems = G.elements()
    index = G.element_index()
    e = G.identity_idx
    mask = 1 << e
    frontier = [e]
    seeds = []
    for i in seed_idxs:
        if not (mask >> i) & 1:
            mask |= 1 << i
            frontier.append(i)
            seeds.append(i)
    if not seeds:
        return mask
    count = len(frontier)
    while frontier:
        nxt = []
        for x in frontier:
            for s in seeds:
                y = index[elems[x] * elems[s]]
                if not (mask >> y) & 1:
                    mask |= 1 << y
                    nxt.append(y)
                    count += 1
        if stop_above is not None and count > stop_above:
            return (1 << G.order) - 1
        frontier = nxt
    return mask


def gens_for_mask_maxscan(G, mask: int) -> tuple[int, ...]:
    """Greedy generators: adjoin the lowest-index element of maximal order
    not yet generated, re-closing from scratch after every pick."""
    e = G.identity_idx
    if mask == 1 << e:
        return ()
    elems = G.elements()
    gens: list[int] = []
    have = 1 << e
    while have != mask:
        candidates = [i for i in range(G.order) if (mask >> i) & 1 and not (have >> i) & 1]
        pick = max(candidates, key=lambda i: (elems[i].order(), -i))
        gens.append(pick)
        have = closure_mask_bfs(G, gens)
    return tuple(sorted(gens))


def normal_subgroups_bf(G) -> set[frozenset[Permutation]]:
    """All normal subgroups of a group whose subgroups are all soluble."""
    elems = elements_of(G)
    return {
        H
        for H in subgroups_by_cyclic_extension(G)
        if all(h.conjugate(g) in H for g in elems for h in H)
    }


def quotient_by_permutations(G, normal_mask: int):
    """Oracle for ``groups.quotient``: G/N as a permutation group on the right cosets.

    This is the construction ``quotient`` used before quotients became table
    groups: coset ids in order of least element index, one coset permutation
    per generator of G, and a fresh Schreier-Sims group on them, whose
    elements are then enumerated and sorted.  Returns that group, the coset id
    of each element of G, and the coset permutation of each element of G.
    """
    from flab.groups import Group

    n = G.order
    members = [i for i in range(n) if (normal_mask >> i) & 1]
    coset_of = [-1] * n
    reps: list[int] = []
    for i in range(n):
        if coset_of[i] != -1:
            continue
        cid = len(reps)
        reps.append(i)
        for x in members:
            coset_of[G.mul(x, i)] = cid
    count = len(reps)

    def coset_perm(g: int) -> Permutation:
        return Permutation(coset_of[G.mul(reps[c], g)] for c in range(count))

    quo = Group(count, [coset_perm(g) for g in G.gen_idxs()])
    return quo, coset_of, [coset_perm(i) for i in range(n)]


# ---------------------------------------------------------------------------
# Replaced decisions.  Each is the library's former algorithm for a decision
# or a subgroup family that is now made by a counting test, from the
# multiplication table or read off the subgroup lattice.
# ---------------------------------------------------------------------------


def sylow_subgroup_by_growth(X, p):
    """Oracle for ``lattice.sylow_subgroups``: one Sylow p-subgroup of X, grown
    through normalizers (trivial if p does not divide |X|).

    While P is below |X|_p, some p-element of N_X(P) outside P has its p-part
    power outside P; adjoining it grows P p-fold.
    """
    from flab.subgroups import as_ref, bits, closure_mask, normalizer, p_part, subgroup_from_mask, trivial_subgroup

    X = as_ref(X)
    G = X.ambient
    target = p_part(X.order, p)
    current = trivial_subgroup(G)
    while current.order < target:
        nmask = normalizer(X, current).mask & X.mask
        for x in bits(nmask & ~current.mask):
            o = G.elt_order(x)
            if o % p:
                continue
            xp = x
            for _ in range(o // p_part(o, p) - 1):  # xp = x^(p'-part of o)
                xp = G.mul(xp, x)
            if (current.mask >> xp) & 1:
                continue
            grown = closure_mask(G, (*current.gen_idxs, xp), base=current.mask)
            if grown.bit_count() == current.order * p:
                current = subgroup_from_mask(G, grown, tuple(sorted((*current.gen_idxs, xp))))
                break
        else:
            raise AssertionError("Sylow growth stalled")
    return current


def cyclic_primary_by_closure(X):
    """Oracle for ``lattice.cyclic_primary_subgroups``: the closure of every
    element of prime-power order, each new one generated by the element that
    found it, sorted by (order, mask) after the unit group."""
    from flab.subgroups import as_ref, bits, closure_mask, prime_factors, subgroup_from_mask, trivial_subgroup

    X = as_ref(X)
    G = X.ambient
    masks = {trivial_subgroup(G).mask}
    out = [trivial_subgroup(G)]
    for x in bits(X.mask):
        o = G.elt_order(x)
        if o > 1 and len(prime_factors(o)) == 1:
            m = closure_mask(G, [x])
            if m not in masks:
                masks.add(m)
                out.append(subgroup_from_mask(G, m, (x,)))
    out.sort(key=lambda r: (r.order, r.mask))
    return out


def is_nilpotent_by_sylow(X) -> bool:
    """Oracle for ``series.is_nilpotent``: each Sylow subgroup, grown through
    normalizers, is normal."""
    from flab.subgroups import as_ref, is_normal_in, prime_factors

    X = as_ref(X)
    return all(is_normal_in(sylow_subgroup_by_growth(X, p), X) for p in prime_factors(X.order))


def cross_member_by_o_pi(F, X) -> bool:
    """Oracle for cross membership: X is the product of its O_pi parts over the
    blocks, each O_pi the join of X's normal pi-subgroups."""
    from flab.formations import SolPi, partition_blocks_for
    from flab.series import is_soluble
    from flab.subgroups import as_ref, o_pi, prime_factors

    X = as_ref(X)
    total = 1
    parts = []
    for block in partition_blocks_for(F, prime_factors(X.order)):
        part = o_pi(X, block.primes)
        parts.append((part, isinstance(block, SolPi)))
        total *= part.order
    if total != X.order:
        return False
    return all(not soluble or is_soluble(part) for part, soluble in parts)


def factor_action_product_by_permutations(G, factor):
    """Oracle for ``hypercenter.build_factor_action_product``: the product
    (H/K) x| (G/C) as a permutation group on the cosets of K in H, the factor
    acting by right translation and G by conjugation, with its own
    Schreier-Sims chain."""
    from flab.groups import Group

    members = [i for i in range(G.order) if (factor.below.mask >> i) & 1]
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for i in range(G.order):
        if not (factor.above.mask >> i) & 1 or i in coset_of:
            continue
        reps.append(i)
        for x in members:
            coset_of[G.mul(x, i)] = len(reps) - 1
    m = len(reps)
    gens = [Permutation(coset_of[G.mul(reps[c], h)] for c in range(m)) for h in factor.above.gen_idxs]
    gens += [
        Permutation(coset_of[G.mul(G.mul(G.inv(g), reps[c]), g)] for c in range(m))
        for g in G.gen_idxs()
    ]
    return Group(m, gens, name="factor-action-product")


def commutator_gens(a_gens, b_gens, degree):
    """Generators and order of [A, B] for A = <a_gens> inside B = <b_gens>,
    from a stabilizer chain, with no element enumeration.

    [A, B] is the normal closure in <A, B> = B of the commutators of the two
    generator sets (Robinson, 5.1.7), grown by sifting into a stabilizer
    chain: each commutator or conjugate that enlarges the chain is kept and
    conjugated in turn by every generator of B.
    """
    from flab.groups import StabilizerChain

    chain = StabilizerChain(degree)
    gens = []
    for a in a_gens:
        for b in b_gens:
            c = a.commutator(b)
            if chain.extend(c):
                gens.append(c)
    pending = list(gens)
    while pending:
        s = pending.pop()
        for g in b_gens:
            c = s.conjugate(g)
            if chain.extend(c):
                gens.append(c)
                pending.append(c)
    return gens, chain.order()


def chain_series_end(gens, degree, derived):
    """Generators and order of the last term of the derived series of <gens>,
    or of its lower central series when ``derived`` is false, from
    stabilizer chains: each term is ``commutator_gens`` of the one before
    with itself (derived) or with the whole group (lower central), and the
    walk stops at the first term whose order equals that of the term before.
    The list is empty exactly when the last term is trivial."""
    current, order = list(gens), None
    while True:
        nxt, nxt_order = commutator_gens(current, current if derived else gens, degree)
        if nxt_order == order:
            return current, order
        current, order = nxt, nxt_order


def member_by_chain(F, gens, degree):
    """The chain-level membership rule that decided oracle products above
    the element enumeration limit, for the non-abelian factors' products
    that ``hypercenter.is_f_central_oracle`` decides from their primes.

    Solubility and ``N^r`` come from :func:`chain_series_end`; ``U`` and
    cross classes are decided only for an insoluble non-member and raise
    ``CapExceeded`` otherwise, except that a cross class with one block
    meeting the order is decided as that block's class.
    """
    from flab.errors import CapExceeded
    from flab.formations import Cross, Gpi, Nil, NilPow, Sol, SolPi, Supersoluble, partition_blocks_for
    from flab.groups import StabilizerChain, prime_factors

    order = StabilizerChain(degree, gens).order()
    primes = prime_factors(order)

    def soluble():
        return not chain_series_end(gens, degree, derived=True)[0]

    if isinstance(F, Gpi):
        return all(p in F.primes for p in primes)
    if isinstance(F, SolPi):
        return all(p in F.primes for p in primes) and soluble()
    if isinstance(F, Sol):
        return soluble()
    if isinstance(F, (Nil, NilPow)):
        current, current_order = list(gens), order
        for _ in range(F.r if isinstance(F, NilPow) else 1):
            current, limit_order = chain_series_end(current, degree, derived=False)
            if limit_order in (1, current_order):
                break
            current_order = limit_order
        return not current
    if isinstance(F, Supersoluble):
        if not soluble():
            return False
        raise CapExceeded("supersolubility needs element enumeration")
    if isinstance(F, Cross):
        blocks = partition_blocks_for(F, primes)
        if len(blocks) == 1:
            return member_by_chain(blocks[0], gens, degree)
        if all(isinstance(b, SolPi) or len(b.primes) <= 2 for b in blocks) and not soluble():
            return False
        raise CapExceeded("cross membership needs element enumeration")
    raise TypeError(F)


def subnormalizer_intersection_per_member(F, sigma, X):
    """Oracle for ``intersections.subnormalizer_intersection``: the
    subnormalizers of every member of the family, intersected; returns a mask."""
    from flab.intersections import f_subnormalizers
    from flab.subgroups import as_ref

    X = as_ref(X)
    mask = X.mask
    for H in sigma(X):
        for carrier in f_subnormalizers(F, H, X).carriers:
            mask &= carrier.mask
    return mask


def normalizer_intersection_per_member(X, family):
    """Oracle for the Sylow- and class-maximal normalizer intersections: the
    normalizer in X of every member of the family, intersected; returns a mask."""
    from flab.subgroups import as_ref, normalizer

    X = as_ref(X)
    mask = X.mask
    for M in family:
        mask &= normalizer(X, M).mask
    return mask


def o_pi_up_by_normal_subgroups(X, pi):
    """Oracle for ``subgroups.o_pi_up``: the intersection of the normal
    subgroups of X with pi-quotient; returns a mask."""
    from flab.subgroups import as_ref, normal_subgroup_masks, prime_factors

    X = as_ref(X)
    pi = frozenset(pi)
    mask = X.mask
    for m in normal_subgroup_masks(X):
        if pi.issuperset(prime_factors(X.order // m.bit_count())):
            mask &= m
    return mask


def is_supersoluble_by_chief_factors(X) -> bool:
    """Oracle for supersoluble membership (Huppert's prime-index criterion in
    ``formations``): X is soluble and every chief factor has prime order."""
    from flab.series import chief_factors, is_soluble

    return is_soluble(X) and all(_is_prime(f.order) for f in chief_factors(X))


def is_f_subnormal_by_any_chain(F, H, X) -> bool:
    """Oracle for ``intersections.is_f_subnormal``: H is joined to X by a chain
    of proper (not necessarily maximal) subgroups T > M, each with T/Core_T(M)
    in the class, decided on the step quotient itself."""
    from flab.formations import formation_member
    from flab.lattice import all_subgroups
    from flab.subgroups import as_ref, bits, core

    X = as_ref(X)
    G = X.ambient
    refs = all_subgroups(G).refs
    reached: dict[int, bool] = {}
    subs: dict[int, object] = {}

    def step_ok(T, M) -> bool:
        if T.mask not in subs:
            subs[T.mask] = _subgroup_group(T)[0]
        sub = subs[T.mask]
        kernel = sum(1 << sub.idx_of(G.perm_at(i)) for i in bits(core(T, M).mask))
        return formation_member(F, _quotient_by(sub, kernel).group)

    def reach(T) -> bool:
        if T.mask == H.mask:
            return True
        if T.mask not in reached:
            reached[T.mask] = any(
                M.mask != T.mask and M.contains(H) and T.contains(M) and step_ok(T, M) and reach(M)
                for M in refs
            )
        return reached[T.mask]

    return reach(X)


def o_pi_by_join(X, pi) -> int:
    """Oracle for ``subgroups.o_pi`` without a floor: the closure of the join
    of X's normal pi-subgroups; returns a mask."""
    from flab.subgroups import as_ref, bits, closure_mask, normal_subgroup_masks, prime_factors

    X = as_ref(X)
    pi = frozenset(pi)
    joined = 0
    for m in normal_subgroup_masks(X):
        if pi.issuperset(prime_factors(m.bit_count())):
            joined |= m
    return closure_mask(X.ambient, list(bits(joined)))


def _subgroup_group(X):
    """X as a group in its own right, a permutation group built from its
    generators, and the map of its masks back to the ambient indexing."""
    from flab.groups import Group
    from flab.subgroups import as_ref, bits

    X = as_ref(X)
    G = X.ambient
    if X.is_full:
        return G, lambda mask: mask
    sub = Group(G.degree, [G.perm_at(g) for g in X.gen_idxs])
    return sub, lambda mask: sum(1 << G.idx_of(sub.perm_at(i)) for i in bits(mask))


def _quotient_by(G, mask):
    from flab.groups import quotient
    from flab.subgroups import gens_for_mask

    return quotient(G, mask, gens_for_mask(G, mask))


def local_def_member_by_quotient(F, p, X) -> bool:
    """Oracle for ``formations.local_def_member``: for U, X/O_p(X) is built as
    a quotient group, and its element orders and generators are read; N and
    cross classes read the primes of |X|."""
    from flab.formations import Cross, Nil, partition_blocks_for
    from flab.subgroups import as_ref, prime_factors

    X = as_ref(X)
    if isinstance(F, (Nil, Cross)):
        return set(prime_factors(X.order)) <= partition_blocks_for(F, [p])[0].primes
    sub, _ = _subgroup_group(X)
    quo = _quotient_by(sub, o_pi_by_join(sub, [p])).group
    if any((p - 1) % quo.elt_order(a) for a in range(quo.order)):
        return False
    gens = quo.gen_idxs()
    return all(quo.mul(a, b) == quo.mul(b, a) for a in gens for b in gens)


def o_pp_by_quotient(X, p) -> int:
    """Oracle for ``subgroups.o_pp``: O_p of the quotient group of X (as a
    group in its own right) by O_{p'}, pulled back; returns an ambient mask."""
    from flab.subgroups import prime_factors

    sub, to_ambient = _subgroup_group(X)
    qm = _quotient_by(sub, o_pi_by_join(sub, [q for q in prime_factors(sub.order) if q != p]))
    return to_ambient(qm.preimage_mask(o_pi_by_join(qm.group, [p])))


def nilpotent_length_by_quotients(X) -> int:
    """Oracle for ``series.nilpotent_length``: the number of Fitting quotients
    taken, each the quotient group by the join of the O_p, until the unit
    group; X must be soluble."""
    from flab.subgroups import bits, closure_mask, prime_factors

    current, _ = _subgroup_group(X)
    length = 0
    while current.order > 1:
        fit = 0
        for p in prime_factors(current.order):
            fit |= o_pi_by_join(current, [p])
        current = _quotient_by(current, closure_mask(current, list(bits(fit)))).group
        length += 1
    return length


def chief_series_by_subgroup_group(X) -> list[int]:
    """Oracle for ``series.chief_series`` of a proper subgroup: the chief
    series of X as a group in its own right, mapped back to ambient masks."""
    from flab.series import chief_series

    sub, to_ambient = _subgroup_group(X)
    return [to_ambient(ref.mask) for ref in chief_series(sub)]


def commutator_subgroup_by_all_pairs(A, B) -> int:
    """Oracle for ``subgroups.commutator_subgroup``: the closure of the
    commutators of every element of A with every element of B; returns a mask."""
    from flab.subgroups import bits, closure_mask

    G = A.ambient
    comms = {G.comm(a, b) for a in bits(A.mask) for b in bits(B.mask)}
    return closure_mask(G, sorted(comms))


def product_mask_by_pairs(G, A, B) -> int:
    """Oracle for ``subgroups.product_mask``: every product ab, one pair at a time."""
    from flab.subgroups import bits

    out = 0
    for a in bits(A.mask):
        for b in bits(B.mask):
            out |= 1 << G.mul(a, b)
    return out


def fitting_subgroup_by_closure(X) -> int:
    """Oracle for ``series.fitting_subgroup`` without a floor: the closure of
    the join of the O_p(X) over the primes dividing |X|; returns a mask."""
    from flab.subgroups import as_ref, bits, closure_mask, prime_factors

    X = as_ref(X)
    joined = 1 << X.ambient.identity_idx
    for p in prime_factors(X.order):
        joined |= o_pi_by_join(X, [p])
    return closure_mask(X.ambient, list(bits(joined)))


def subgroups_by_all_joins(G) -> list[list[int]]:
    """Oracle for ``lattice._enumerate_subgroups``: every conjugacy-class
    representative is joined with every prime-power cyclic subgroup outside
    it, with no pruning by its normalizer.  Returns the classes, each as the
    masks of its members."""
    from flab.subgroups import bits, closure_mask, conjugacy_orbit, prime_factors

    n = G.order
    e = G.identity_idx
    largest_proper = max([d for d in range(1, n) if n % d == 0] or [1])
    cyclic: dict[int, int] = {}
    covered = 1 << e
    for x in range(n):
        if not (covered >> x) & 1:
            m = closure_mask(G, [x])
            cyclic[m] = x
            covered |= sum(1 << y for y in bits(m) if G.elt_order(y) == G.elt_order(x))
    atoms = [(m, x) for m, x in cyclic.items() if len(prime_factors(G.elt_order(x))) == 1]
    found = {1 << e}
    orbits = [[1 << e]]
    rep_gens: dict[int, tuple[int, ...]] = {}
    queue: list[int] = []

    def add_class(mask, gens):
        if mask not in found:
            orbit = conjugacy_orbit(G, mask)
            found.update(orbit)
            orbits.append(orbit)
            rep_gens[mask] = gens
            queue.append(mask)

    add_class((1 << n) - 1, G.gen_idxs())
    for m in sorted(cyclic):
        add_class(m, (cyclic[m],))
    while queue:
        rep = queue.pop()
        gens = rep_gens[rep]
        for amask, agen in atoms:
            if amask & ~rep:
                joined = closure_mask(G, list(gens) + [agen], stop_above=largest_proper, base=rep)
                add_class(joined, tuple(sorted(set(gens) | {agen})))
    return orbits


def elements_by_enumeration(G) -> tuple[Permutation, ...]:
    """Oracle for ``Group.elements`` of a group built from generators: the
    elements found by breadth-first search over Permutation products,
    sorted by image tuple, as the enumeration once kept them."""
    identity = G.identity()
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in G.generators:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def table_by_permutation_products(G):
    """Oracle for ``Group._enumerate`` with ``Group._build_table``: the
    elements of :func:`elements_by_enumeration`, each generator's row from
    one product per element, the other rows composed by right
    multiplication, and each inverse looked up by ``Permutation.inverse``.
    Returns (elements, rows, inverse map)."""
    from array import array

    elems = elements_by_enumeration(G)
    identity = G.identity()
    idx = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    typecode = "h" if n < 32768 else "l"
    rows: list = [None] * n
    e = idx[identity]
    rows[e] = array(typecode, range(n))
    gen_rows = [array(typecode, (idx[x * g] for x in elems)) for g in G.generators]
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for rg in gen_rows:
                b = rg[a]  # index of elem[a] * gen
                if rows[b] is None:
                    rows[b] = array(typecode, map(rg.__getitem__, rows[a]))
                    nxt.append(b)
        frontier = nxt
    inv = array(typecode, (idx[p.inverse()] for p in elems))
    return elems, rows, inv


def normal_subgroup_masks_by_classes(X) -> tuple[int, ...]:
    """Oracle for ``subgroups.normal_subgroup_masks``: one closure per
    conjugacy class of X, with no marking of the other generators of each
    element's cyclic subgroup; the atoms are closed under products, and
    nothing is cached."""
    from flab.subgroups import _set_product, as_ref, bits, closure_mask

    X = as_ref(X)
    G = X.ambient
    e = G.identity_idx
    atoms = set()
    seen = 1 << e
    conj_rows = [G.conj_row(g) for g in X.gen_idxs]
    for x in bits(X.mask):
        if (seen >> x) & 1:
            continue
        orbit = [x]
        orbit_mask = 1 << x
        for y in orbit:  # grows as new conjugates are found
            for row in conj_rows:
                c = row[y]
                if not (orbit_mask >> c) & 1:
                    orbit_mask |= 1 << c
                    orbit.append(c)
        seen |= orbit_mask
        atoms.add(closure_mask(G, orbit))
    result = {1 << e} | atoms
    frontier = sorted(atoms)
    while frontier:
        nxt = []
        for a in frontier:
            for b in sorted(result):
                joined = _set_product(G.table, a, b)
                if joined not in result:
                    result.add(joined)
                    nxt.append(joined)
        frontier = nxt
    return tuple(sorted(result, key=lambda m: (m.bit_count(), m)))


def semidirect_action_by_maps(N, H, action) -> bool:
    """Whether ``action`` (images of N's generators, one list per generator
    of H) extends to a homomorphism H -> Aut(N), by the maps themselves: each
    block is extended to a map on N's elements, checked against N's
    relations, for a bijection and on every pair for a homomorphism, and the
    automorphisms are then walked over H's Cayley graph.  The library
    decides this by the order of the group the action generates."""
    idx = N.element_index()
    n = N.order
    auto_maps = []
    for images in action:
        if any(img not in idx for img in images):
            return False
        fmap = [None] * n
        fmap[N.identity_idx] = N.identity_idx
        frontier = [N.identity_idx]
        pairs = [(idx[g], idx[img]) for g, img in zip(N.generators, images)]
        while frontier:
            nxt = []
            for x in frontier:
                for gi, fi in pairs:
                    y, fy = N.mul(x, gi), N.mul(fmap[x], fi)
                    if fmap[y] is None:
                        fmap[y] = fy
                        nxt.append(y)
                    elif fmap[y] != fy:
                        return False
            frontier = nxt
        if len(set(fmap)) != n:
            return False
        if any(fmap[N.mul(x, y)] != N.mul(fmap[x], fmap[y]) for x in range(n) for y in range(n)):
            return False
        auto_maps.append(fmap)
    phi = {H.identity_idx: tuple(range(n))}
    frontier = [H.identity_idx]
    while frontier:
        nxt = []
        for y in frontier:
            for g, fmap in zip(H.generators, auto_maps):
                z = H.mul(y, H.idx_of(g))
                pz = tuple(fmap[v] for v in phi[y])
                if z not in phi:
                    phi[z] = pz
                    nxt.append(z)
                elif phi[z] != pz:
                    return False
        frontier = nxt
    return True


def coset_group_by_full_rows(G, coset_of, reps, gen_idxs):
    """Oracle for ``groups.coset_group``: the section X/N's every table row
    and its inverse column, each read off G's table one coset
    representative at a time (``table[d][c]`` is the coset of
    ``reps[c] * reps[d]``, the inverse of c the coset of ``reps[c]``'s
    inverse).  Returns (rows, inverses, identity index, generator indices),
    the generators with the identity and repeats dropped."""
    from array import array

    from flab.groups import _typecode

    table = G.table
    typecode = _typecode(len(reps))
    rows = [array(typecode, [coset_of[table[b][a]] for a in reps]) for b in reps]
    inv = array(typecode, (coset_of[G.inv(a)] for a in reps))
    e = coset_of[G.identity_idx]
    gens = tuple(c for c in dict.fromkeys(coset_of[g] for g in gen_idxs) if c != e)
    return rows, inv, e, gens


def table_product_by_full_rows(G, factor, coset_of, reps, acting):
    """Oracle for ``hypercenter._table_product``: (H/K) x| A, A = G/C, with
    every row from (c1, a1)(c2, a2) = (c1 * c2^(a1^-1), a1 * a2), the action
    tabulated for every pair (a, c), and the inverse column
    (c, a)^-1 = ((c^-1)^a, a^-1).  Element (c, a) has index a*m + c.
    Returns (rows, inverses, identity index, generator indices)."""
    from array import array

    from flab.groups import _typecode

    table = G.table
    m = len(reps)
    factor_rows, factor_inv, c_e, factor_gens = coset_group_by_full_rows(
        G, coset_of, reps, factor.above.gen_idxs
    )
    a_table, a_inv, a_e, a_gens = coset_group_by_full_rows(G, acting.coset_of, acting.reps, G.gen_idxs())
    act = []  # act[a][c] = c^a, conjugation by a representative of a
    for g in acting.reps:
        ginv = G.inv(g)
        act.append([coset_of[table[g][table[r][ginv]]] for r in reps])
    order = len(acting.reps)
    typecode = _typecode(m * order)
    rows = []
    for a2 in range(order):
        for c2 in range(m):
            row: list[int] = []
            for a1 in range(order):
                row += [a_table[a2][a1] * m + x for x in factor_rows[act[a_inv[a1]][c2]]]
            rows.append(array(typecode, row))
    inv = array(typecode, (a_inv[a] * m + act[a][factor_inv[c]] for a in range(order) for c in range(m)))
    gens = [a_e * m + c for c in factor_gens] + [a * m + c_e for a in a_gens]
    return rows, inv, a_e * m + c_e, tuple(dict.fromkeys(gens))
