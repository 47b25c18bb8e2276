"""Full subgroup lattice of a small group, and the subgroup families read from it.

Enumeration seeds with all cyclic subgroups and closes under joins; joins are
only formed between conjugacy-class representatives and prime-power cyclic
"atoms" (every subgroup is generated by its prime-power cyclic subgroups, and
conjugating a representative's joins yields the joins of the whole class),
one atom per orbit of its normalizer, and each new subgroup is immediately
expanded to its conjugacy class.  A first sweep forms only the cyclic
extensions H<a> of prime index p over H (a normalizes H and a^p lies in H,
Neubüser's method): every subgroup K > 1 of a soluble group has a normal
subgroup of prime index, so this finds every subgroup of a soluble group,
and it reaches G iff G is soluble.  An atom inside a join already formed
from H is skipped, which is exact because no subgroup lies strictly between
H and a join of prime index over it.  Only an insoluble group gets a second
sweep that joins each representative with every atom orbit still unseen.
The result is exactly the set of all subgroups, found once each.

The hot loops work on whole masks.  The cyclic seeds are power walks along
the table, with no closure.  A representative alone in its class has
normalizer G, so no normalizer is computed for it.  Each representative's
seen atoms are one int, and a sweep iterates only the unseen ones.  A
normalizer generator central in G fixes every atom, so it is left out of
the orbit walk; when none is left, a join marks its atoms seen with one OR.
In an abelian group no conjugacy class is walked, as each has one member.
The containment row of a subgroup ANDs the columns of its atoms (the
subgroups holding each) and stops as soon as no subgroup of lower index is
left in the row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from . import config
from .errors import LatticeBudgetExceeded
from .groups import Group
from .subgroups import (
    SubgroupRef,
    as_ref,
    bits,
    closure_mask,
    conjugacy_orbit,
    normalizer,
    p_part,
    prime_factors,
    subgroup_from_mask,
    trivial_subgroup,
)


@dataclass
class SubgroupLattice:
    """All subgroups of the ambient group, with containment and conjugacy data."""

    ambient: Group
    refs: tuple[SubgroupRef, ...]
    index_of_mask: dict[int, int]
    class_id: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    sup_rows: list[int] = field(repr=False)  # bit j set: refs[i] <= refs[j]
    sub_rows: list[int] = field(repr=False)  # bit j set: refs[j] <= refs[i]
    memo: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.refs)

    def index_of(self, ref: SubgroupRef) -> int:
        return self.index_of_mask[ref.mask]

    def maximal_idxs(self, chosen: int) -> list[int]:
        """The containment-maximal indices among the lattice bits ``chosen``:
        those no other chosen subgroup contains."""
        sup_rows = self.sup_rows
        return [j for j in bits(chosen) if not sup_rows[j] & chosen & ~(1 << j)]

    def maximal_subgroup_idxs(self, i: int) -> list[int]:
        """Indices of the maximal proper subgroups of refs[i] (memoised in one
        list indexed by i)."""
        rows = self.memo.get("maximals")
        if rows is None:
            rows = self.memo["maximals"] = [None] * len(self.refs)
        if rows[i] is None:
            rows[i] = self.maximal_idxs(self.sub_rows[i] & ~(1 << i))
        return rows[i]


def _cyclic_subgroups(G: Group) -> dict[int, int]:
    """Mask of each nontrivial cyclic subgroup -> its lowest-index generator.

    Elements are scanned in index order.  For each x not yet covered, <x> is
    walked power by power along x's table row: each power is ORed into its
    mask, and those of x's order (the generators of <x>) are marked covered,
    so each cyclic subgroup is walked once, from its lowest-index generator,
    and no closure is formed.
    """
    e = G.identity_idx
    table, orders = G.table, G.elt_orders()
    out: dict[int, int] = {}
    covered = bytearray(G.order)
    covered[e] = 1
    for x in range(G.order):
        if covered[x]:
            continue
        o, row = orders[x], table[x]
        m, y = 1 << e, x
        while y != e:
            m |= 1 << y
            if orders[y] == o:
                covered[y] = 1
            y = row[y]
        out[m] = x
    return out


def _enumerate_subgroups(G: Group) -> tuple[list[list[int]], int]:
    """The conjugacy classes of subgroups of G, each as the masks of its
    members, and the mask of the atoms' names.

    A class representative H is joined with atoms a outside it, one per
    N_G(H)-orbit, as <H, a>^g = <H, a^g> for g in N_G(H) (Cannon, Cox & Holt,
    JSC 2001).  Two sweeps choose the atoms:

    - The extension sweep joins only the extension atoms of H: those a in
      N_G(H) outside H with a^p in H, p the prime of a, so that H<a> has
      index p over H.  An atom b inside a join H<a> already formed from H is
      skipped: H < <H, b> <= H<a> and the index p is prime, so <H, b> = H<a>.
      Every subgroup K > 1 of a soluble group has a normal subgroup H of
      prime index p, and K = H<a> for the p-part a of any element of K
      outside H, so by induction on |K| this sweep finds every subgroup of a
      soluble group.  It reaches G (forms a join that is G) iff G is
      soluble: every subgroup it forms is soluble, and a join H<a> = G makes
      H a normal subgroup of G of prime index.
    - Only if it did not reach G, the all-atom sweep joins every atom orbit
      still unseen from every representative, each representative keeping
      its normalizer and seen atoms from the first sweep.  Every subgroup is
      generated by atoms, so this finds the rest.

    N_G(H) is G, with G's generators, for a representative alone in its
    class; otherwise it is computed, and generated by H's generators and
    each element of it outside their closure.  The orbits are walked under
    those generators that are not central in G, as a central one fixes
    every atom; when G is abelian, no class is walked.
    """
    n = G.order
    e = G.identity_idx
    full_mask = (1 << n) - 1
    divisors = [d for d in range(1, n) if n % d == 0]
    largest_proper = max(divisors) if divisors else 1
    table, inv = G.table, G.inverses

    # seed: all cyclic subgroups; atoms: the prime-power ones, each with a^p
    cyclic_masks = _cyclic_subgroups(G)
    orders = G.elt_orders()
    owner = [e] * n  # each generator of an atom -> the atom's name
    atom_mask = 0
    pth_power = [e] * n
    for m, x in cyclic_masks.items():
        primes = prime_factors(orders[x])
        if len(primes) == 1:
            for y in bits(m):
                if orders[y] == orders[x]:
                    owner[y] = x
            atom_mask |= 1 << x
            row, y = table[x], x
            for _ in range(primes[0] - 1):
                y = row[y]
            pth_power[x] = y

    g_gens = G.gen_idxs()

    @cache
    def noncentral(g: int) -> bool:
        """Whether g fails to commute with a generator of G; conjugating by a
        central g fixes every subgroup."""
        return any(table[s][g] != table[g][s] for s in g_gens)

    abelian = not any(map(noncentral, g_gens))  # then every class has one member
    found: set[int] = {1 << e}
    orbits: list[list[int]] = [[1 << e]]
    rep_gens: dict[int, tuple[int, ...]] = {}
    normal: set[int] = set()  # representatives whose class has one member: N_G(H) = G
    queue: list[int] = []

    def add_class(mask: int, gens: tuple[int, ...]) -> None:
        if mask in found:
            return
        orbit = [mask] if abelian else conjugacy_orbit(G, mask)
        found.update(orbit)
        if len(found) > config.LATTICE_SUBGROUP_BUDGET:  # counts the whole class
            raise LatticeBudgetExceeded(
                f"more than {config.LATTICE_SUBGROUP_BUDGET} subgroups"
            )
        orbits.append(orbit)
        rep_gens[mask] = gens
        if len(orbit) == 1:
            normal.add(mask)
        queue.append(mask)

    add_class(full_mask, g_gens)
    for m in sorted(cyclic_masks):
        add_class(m, (cyclic_masks[m],))

    # rep -> (N_G(H), its noncentral generators' conjugation rows, atoms already joined or skipped)
    rep_state: dict[int, tuple[int, list, int]] = {}
    joins = 0

    def join_orbits(rep: int, extension_only: bool) -> bool:
        """Join rep with one atom of each unseen N_G(rep)-orbit, only its
        extension atoms if ``extension_only``; True if a join is G."""
        nonlocal joins
        gens = rep_gens[rep]
        state = rep_state.get(rep)
        if state is None:
            if rep in normal:
                norm_mask, norm_gens = full_mask, list(g_gens)
            else:
                # generators of N_G(H) < G: H's, then each element of N_G(H) outside
                # their closure (the orbits do not depend on the choice)
                norm_mask = normalizer(G, subgroup_from_mask(G, rep, gens)).mask
                norm_gens, have = list(gens), rep
                for x in bits(norm_mask & ~rep):
                    if have == norm_mask:
                        break
                    if not (have >> x) & 1:
                        norm_gens.append(x)
                        have = closure_mask(G, norm_gens, base=have)
            # x^g = table[g][table[x][inv[g]]]
            conj = [(table[g], inv[g]) for g in norm_gens if noncentral(g)]
            state = (norm_mask, conj, 0)
        norm_mask, conj, seen = state
        reached = False
        for a in bits((norm_mask if extension_only else full_mask) & atom_mask & ~rep & ~seen):
            if (seen >> a) & 1:  # in an orbit marked since the sweep began
                continue
            extension = (norm_mask >> a) & 1 and (rep >> pth_power[a]) & 1
            if extension_only and not extension:
                continue
            joins += 1
            if joins > config.LATTICE_JOIN_BUDGET:
                raise LatticeBudgetExceeded("join budget exhausted")
            joined = closure_mask(G, list(gens) + [a], stop_above=largest_proper, base=rep)
            add_class(joined, tuple(sorted(set(gens) | {a})))
            reached = reached or joined == full_mask
            # <H, b> = H<a> for every atom b of H<a> outside H: their orbits need no join
            marked = joined & atom_mask & ~rep if extension else 1 << a
            if not conj:  # every orbit is one atom
                seen |= marked
                continue
            for b in bits(marked & ~seen):
                if (seen >> b) & 1:
                    continue
                seen |= 1 << b
                pending = [b]
                while pending:  # the rest of b's orbit
                    row = table[pending.pop()]
                    for row_g, g_inv in conj:
                        c = owner[row_g[row[g_inv]]]
                        if not (seen >> c) & 1:
                            seen |= 1 << c
                            pending.append(c)
        rep_state[rep] = (norm_mask, conj, seen)
        return reached

    reached = n == 1  # the unit group is soluble
    while queue:
        rep = queue.pop()
        if rep != full_mask and join_orbits(rep, True):
            reached = True
    if not reached:  # G is insoluble
        queue.extend(rep_gens)  # every representative; those found now are appended
        while queue:
            rep = queue.pop()
            if rep != full_mask:
                join_orbits(rep, False)
    return orbits, atom_mask


def all_subgroups(G: Group | SubgroupRef) -> SubgroupLattice:
    """The full subgroup lattice (memoized on the ambient group)."""
    if isinstance(G, SubgroupRef):
        G = G.ambient
    if G._lattice is not None:
        return G._lattice
    orbits, atom_mask = _enumerate_subgroups(G)
    masks = sorted((m for orbit in orbits for m in orbit), key=lambda m: (m.bit_count(), m))
    refs = tuple(subgroup_from_mask(G, m) for m in masks)
    index_of_mask = {m: i for i, m in enumerate(masks)}

    count = len(refs)
    full_row = (1 << count) - 1
    cols = [0] * G.order  # bit i set: the atom named x (its lowest-index generator) lies in refs[i]
    for i, m in enumerate(masks):
        bit = 1 << i
        for x in bits(m & atom_mask):
            cols[x] |= bit
    # refs[i] is generated by its atoms, so the subgroups containing it are those
    # containing each atom; all lie at position i or after, as one of equal order
    # containing it is it.  The row can stop early: the atoms read so far generate
    # some K <= refs[i], and the row holds exactly the subgroups containing K, K
    # included.  Once no position below i is left, K's position is at least i, so
    # K is not smaller than refs[i] (refs is sorted by order) and K = refs[i].
    sup_rows = []
    for i, m in enumerate(masks):
        below = (1 << i) - 1
        row = full_row
        for x in bits(m & atom_mask):
            row &= cols[x]
            if not row & below:
                break
        sup_rows.append(row)
    sub_rows = [0] * count
    for i, row in enumerate(sup_rows):
        bit = 1 << i
        for j in bits(row):
            sub_rows[j] |= bit

    # numbered by lowest member index, the order in which the lemma checks sample classes
    classes = sorted(tuple(sorted(index_of_mask[m] for m in orbit)) for orbit in orbits)
    class_id = [0] * count
    for cid, members in enumerate(classes):
        for j in members:
            class_id[j] = cid

    lattice = SubgroupLattice(
        ambient=G,
        refs=refs,
        index_of_mask=index_of_mask,
        class_id=tuple(class_id),
        classes=tuple(classes),
        sup_rows=sup_rows,
        sub_rows=sub_rows,
    )
    G._lattice = lattice
    return lattice


def maximal_subgroups(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """The maximal proper subgroups of X (via the ambient lattice)."""
    X = as_ref(X)
    lat = all_subgroups(X.ambient)
    i = lat.index_of(X)
    return [lat.refs[j] for j in lat.maximal_subgroup_idxs(i)]


def frattini(X: Group | SubgroupRef) -> SubgroupRef:
    """Frattini subgroup: intersection of all maximal subgroups (X if trivial)."""
    X = as_ref(X)
    maxes = maximal_subgroups(X)
    mask = X.mask
    for m in maxes:
        mask &= m.mask
    return subgroup_from_mask(X.ambient, mask)


def sylow_subgroups(X: Group | SubgroupRef, p: int) -> list[SubgroupRef]:
    """All Sylow p-subgroups of X (the unit group alone when p does not divide |X|).

    By Sylow's theorem they are the subgroups of X of order |X|_p, read off
    the ambient lattice in (order, mask) order.
    """
    X = as_ref(X)
    lat = all_subgroups(X.ambient)
    target = p_part(X.order, p)
    return [lat.refs[j] for j in bits(lat.sub_rows[lat.index_of(X)]) if lat.refs[j].order == target]


def cyclic_primary_subgroups(X: Group | SubgroupRef) -> list[SubgroupRef]:
    """All cyclic subgroups of X of prime-power order, the unit group included.

    Read off the ambient lattice in (order, mask) order: a subgroup of
    prime-power order q is cyclic iff it has an element of order q, and its
    lowest-index such element is taken as its generator.
    """
    X = as_ref(X)
    G = X.ambient
    lat = all_subgroups(G)
    orders = G.elt_orders()
    out = [trivial_subgroup(G)]
    for j in bits(lat.sub_rows[lat.index_of(X)]):
        mask = lat.refs[j].mask
        q = mask.bit_count()
        if len(prime_factors(q)) == 1:  # the unit group, q = 1, is already in
            gen = next((x for x in bits(mask) if orders[x] == q), None)
            if gen is not None:
                out.append(subgroup_from_mask(G, mask, (gen,)))
    return out


def lattice_summary(G: Group) -> dict:
    """Subgroup counts by order and conjugacy-class counts (CLI support)."""
    lat = all_subgroups(G)
    by_order: dict[int, int] = {}
    for ref in lat.refs:
        by_order[ref.order] = by_order.get(ref.order, 0) + 1
    return {
        "order": G.order,
        "subgroups": len(lat.refs),
        "conjugacy_classes": len(lat.classes),
        "by_order": dict(sorted(by_order.items())),
    }
