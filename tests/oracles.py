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
subnormality along any chain of step quotients, O_pi as the join of the
normal pi-subgroups, the section decisions made on quotient or subgroup
groups: the local class test, O_{p',p}, the Fitting length and the chief
series of a subgroup, and the constructions that now have one kernel each:
the commutator subgroup as the closure of all |A|·|B| commutators, the set
product one pair at a time, and the Fitting subgroup as the closure of the
join of the O_p), each the library's algorithm before its exact shortcut,
before the lattice became its source, before it read sections as masks in
the ambient group, or before one routine served every caller.
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
# and the element list, never through the multiplication table.
# ---------------------------------------------------------------------------


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
    from flab.formations import partition_blocks_for
    from flab.series import is_soluble
    from flab.subgroups import as_ref, o_pi, prime_factors

    X = as_ref(X)
    total = 1
    parts = []
    for primes, soluble in partition_blocks_for(F, prime_factors(X.order)):
        part = o_pi(X, primes)
        parts.append((part, soluble))
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
    from flab.groups import quotient
    from flab.lattice import all_subgroups
    from flab.subgroups import as_ref, core, gens_for_mask, subgroup_to_group, translate_mask

    X = as_ref(X)
    refs = all_subgroups(X.ambient).refs
    reached: dict[int, bool] = {}

    def step_ok(T, M) -> bool:
        sub = subgroup_to_group(T)
        kernel = translate_mask(T, core(T, M).mask)
        return formation_member(F, quotient(sub, kernel, gens_for_mask(sub, kernel)).group)

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
    """X as a group in its own right, and the map of its masks back to the ambient indexing."""
    from flab.subgroups import as_ref, bits, subgroup_to_group

    X = as_ref(X)
    sub = subgroup_to_group(X)
    if sub is X.ambient:
        return sub, lambda mask: mask
    return sub, lambda mask: sum(1 << sub.ambient_idxs[i] for i in bits(mask))


def _quotient_by(G, mask):
    from flab.groups import quotient
    from flab.subgroups import gens_for_mask

    return quotient(G, mask, gens_for_mask(G, mask))


def local_def_member_by_quotient(F, p, X) -> bool:
    """Oracle for ``formations.local_def_member``: for U, X/O_p(X) is built as
    a quotient group, and its element orders and generators are read; N and
    cross classes read the primes of |X|."""
    from flab.formations import Cross, Nil, cross_block_primes
    from flab.subgroups import as_ref, prime_factors

    X = as_ref(X)
    if isinstance(F, (Nil, Cross)):
        return set(prime_factors(X.order)) <= cross_block_primes(F, p)
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
