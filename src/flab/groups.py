"""Finite groups: stabilizer chains, named constructors, products, quotients.

A :class:`Group` is an immutable value built one of two ways.  A group from
a spec (a named constructor, a product or ``perm(...)``) is given by its
degree and generator list: order and membership come from a deterministic
Schreier-Sims stabilizer chain, and its elements are enumerated on demand.
A group from :meth:`Group.from_table` (quotients, subgroups as groups in
their own right) is given by its multiplication table, built from its
parent's table: its order is the number of rows, it builds no stabilizer
chain, and permutations for its elements are made only if asked for.
Either way the index multiplication table and other caches are populated
lazily and written once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from . import config
from .errors import (
    ActionError,
    CapExceeded,
    InternalCheckFailure,
    NotNormal,
    OrderCapExceeded,
    SpecParseError,
)
from .perms import Permutation


# ---------------------------------------------------------------------------
# Prime arithmetic
# ---------------------------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    q = 1
    while n % p == 0:
        q *= p
        n //= p
    return q


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Stabilizer chain (deterministic Schreier-Sims)
# ---------------------------------------------------------------------------


class _Level:
    __slots__ = ("point", "own_gens", "transversal")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.own_gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {point: Permutation.identity(degree)}


class StabilizerChain:
    """Base and strong generating set for a permutation group.

    Transversal entries map the base point to the orbit point:
    ``transversal[p](base) == p``.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        self.degree = degree
        self.levels: list[_Level] = []
        for g in generators:
            self.extend(g)

    # generators valid at level i are those fixing the first i base points
    def _gens_at(self, i: int) -> list[Permutation]:
        out: list[Permutation] = []
        for lvl in self.levels[i:]:
            out.extend(lvl.own_gens)
        return out

    def _sift(self, g: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Reduce g through levels >= start; return (residue, stuck_level)."""
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            p = g(lvl.point)
            if p == lvl.point:
                continue
            u = lvl.transversal.get(p)
            if u is None:
                return g, i
            g = g * u.inverse()
        return g, len(self.levels)

    def extend(self, g: Permutation) -> bool:
        """Add a generator; returns True if the group grew."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        residue, level = self._sift(g)
        if residue.is_identity:
            return False
        self._install(level, residue)
        for i in range(level, -1, -1):
            if i < len(self.levels):
                self._close_level(i)
        return True

    def _install(self, level: int, g: Permutation) -> None:
        if level == len(self.levels):
            point = min(i for i, v in enumerate(g.images) if v != i)
            self.levels.append(_Level(point, self.degree))
        self.levels[level].own_gens.append(g)

    def _rebuild_orbit(self, i: int) -> None:
        lvl = self.levels[i]
        gens = self._gens_at(i)
        lvl.transversal = {lvl.point: Permutation.identity(self.degree)}
        frontier = [lvl.point]
        while frontier:
            nxt = []
            for p in frontier:
                u = lvl.transversal[p]
                for g in gens:
                    q = g(p)
                    if q not in lvl.transversal:
                        lvl.transversal[q] = u * g
                        nxt.append(q)
            frontier = nxt

    def _close_level(self, i: int) -> None:
        """Sift all Schreier generators of level i; install residues deeper."""
        pending = True
        while pending:
            pending = False
            self._rebuild_orbit(i)
            lvl = self.levels[i]
            gens = self._gens_at(i)
            for p in sorted(lvl.transversal):
                u_p = lvl.transversal[p]
                for g in gens:
                    q = g(p)
                    schreier = u_p * g * lvl.transversal[q].inverse()
                    if schreier.is_identity:
                        continue
                    residue, level = self._sift(schreier, i + 1)
                    if residue.is_identity:
                        continue
                    self._install(level, residue)
                    for k in range(level, i, -1):
                        if k < len(self.levels):
                            self._close_level(k)
                    pending = True
                    break
                if pending:
                    break

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        residue, _ = self._sift(g)
        return residue.is_identity


# ---------------------------------------------------------------------------
# Group
# ---------------------------------------------------------------------------


def _typecode(n: int) -> str:
    """Array typecode for the element indices of a group of order n."""
    return "h" if n < 32768 else "l"


class Group:
    """A finite group; its elements are the indices 0..order-1.

    A group built from generators acts on points 0..degree-1 and indexes its
    elements in sorted order of their image tuples.  A group built by
    :meth:`from_table` starts from its table and makes permutations only on
    request.  Instances are immutable; all lazy caches are write-once and
    idempotent, so sharing a Group between threads is safe in the
    benign-race sense.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation], name: str | None = None):
        gens: list[Permutation] = []
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity and g not in gens:
                gens.append(g)
        self.degree = degree
        self._generators: tuple[Permutation, ...] | None = tuple(gens)
        self.name = name
        self._gen_idxs: tuple[int, ...] | None = None
        self._perm_of: Callable[[int], Permutation] | None = None
        self.ambient_idxs: tuple[int, ...] | None = None
        self._chain: StabilizerChain | None = None
        self._order: int | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._index: dict[Permutation, int] | None = None
        self._identity_idx: int | None = None
        self._table: list[array] | None = None
        self._inv: array | None = None
        self._elt_orders: array | None = None
        self._conj_rows: dict[int, array] = {}
        self._lattice = None
        self._normal_masks: tuple[int, ...] | None = None
        self._subgroup_groups: dict[int, "Group"] = {}
        self._quotients: dict[int, "QuotientMap"] = {}
        self._hypercenters: dict = {}
        self._normal_masks_by_mask: dict[int, tuple[int, ...]] = {}
        self._factor_products: dict[tuple[int, int], "Group"] = {}
        self._central_verdicts: dict[tuple, bool] = {}
        self._minimal_above: dict[int, tuple[int, ...]] = {}
        self._class_memo: dict[tuple, dict[int, object]] = {}

    @classmethod
    def from_table(
        cls,
        rows: list[array],
        inv: array,
        identity_idx: int,
        gen_idxs: Iterable[int],
        name: str | None = None,
        perm_of: Callable[[int], Permutation] | None = None,
        degree: int | None = None,
    ) -> "Group":
        """A group given by its multiplication table; it builds no stabilizer chain.

        ``rows`` and ``inv`` follow the conventions of :attr:`table` and
        :meth:`inv`; the identity and repeats are dropped from ``gen_idxs``.
        Permutations are made only on request: ``perm_of(i)`` on ``degree``
        points if given, else the right regular representation, in which
        element i acts on the indices as ``rows[i]`` (``x -> x * i``).
        """
        order = len(rows)
        G = cls(order if perm_of is None else degree, (), name)
        G._generators = None
        G._perm_of = perm_of or (lambda i: Permutation._unsafe(tuple(rows[i])))
        G._gen_idxs = tuple(g for g in dict.fromkeys(gen_idxs) if g != identity_idx)
        G._order = order
        G._identity_idx = identity_idx
        G._table = rows
        G._inv = inv
        return G

    # -- basic structure ----------------------------------------------------

    @property
    def generators(self) -> tuple[Permutation, ...]:
        if self._generators is None:
            self._generators = tuple(map(self._perm_of, self._gen_idxs))  # type: ignore[arg-type]
        return self._generators

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = self.chain.order()
        return self._order

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __contains__(self, g: Permutation) -> bool:
        return self.chain.contains(g)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        return f"<Group {label}, order {self.order}>"

    # -- element enumeration -------------------------------------------------

    def elements(self, limit: int | None = None) -> tuple[Permutation, ...]:
        """All elements as permutations, in index order; errors if order exceeds the cap.

        For a group built from generators this enumerates the group and fixes
        its indexing (sorted by image tuple); a table group makes the
        permutations of its existing indices.
        """
        if self._elements is None:
            cap = config.ELEMENT_CAP if limit is None else limit
            if self.order > cap:
                raise CapExceeded(f"order {self.order} exceeds element cap {cap}")
            if self._perm_of is not None:
                self._elements = tuple(map(self._perm_of, range(self.order)))
            else:
                self._elements = self._enumerate()
            self._index = {p: i for i, p in enumerate(self._elements)}
            if self._identity_idx is None:
                self._identity_idx = self._index[self.identity()]
        elif limit is not None and len(self._elements) > limit:
            raise CapExceeded(f"order {self.order} exceeds element cap {limit}")
        return self._elements

    def _enumerate(self) -> tuple[Permutation, ...]:
        seen = {self.identity()}
        frontier = [self.identity()]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = x * g
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        if len(seen) != self.order:
            raise InternalCheckFailure("closure count disagrees with chain order")
        return tuple(sorted(seen))

    def element_index(self) -> dict[Permutation, int]:
        self.elements()
        assert self._index is not None
        return self._index

    @property
    def identity_idx(self) -> int:
        if self._identity_idx is None:
            self.elements()
        assert self._identity_idx is not None
        return self._identity_idx

    def idx_of(self, p: Permutation) -> int:
        return self.element_index()[p]

    def perm_at(self, i: int) -> Permutation:
        return self.elements()[i]

    # -- index arithmetic ------------------------------------------------------

    def _build_table(self) -> None:
        """Dense right-multiplication table via the regular representation.

        Row ``r_g`` satisfies ``r_g[x] == index(elem[x] * elem[g])``; rows for
        products compose as index arrays, so the whole table costs O(|G|^2)
        array lookups after the generator rows.  The inverse map is built
        alongside, with the same typecode.
        """
        elems = self.elements()
        n = len(elems)
        idx = self.element_index()
        typecode = _typecode(n)
        rows: list[array | None] = [None] * n
        e = self.identity_idx
        rows[e] = array(typecode, range(n))
        frontier = [e]
        gen_idx = self.gen_idxs()
        gen_rows = {}
        for gi in gen_idx:
            g = elems[gi]
            gen_rows[gi] = array(typecode, (idx[x * g] for x in elems))
        while frontier:
            nxt = []
            for a in frontier:
                ra = rows[a]
                assert ra is not None
                for gi in gen_idx:
                    rg = gen_rows[gi]
                    b = rg[a]  # index of elem[a] * gen
                    if rows[b] is None:
                        rows[b] = array(typecode, map(rg.__getitem__, ra))
                        nxt.append(b)
            frontier = nxt
        self._inv = array(typecode, (idx[p.inverse()] for p in elems))
        self._table = rows  # type: ignore[assignment]

    @property
    def table(self) -> list[array]:
        """The multiplication table: ``table[j][i]`` is the index of elements[i] * elements[j].

        Built on first use for every enumerated group; at the element cap
        (order 2000) it holds 2000 rows of 2000 two-byte entries, about 8 MB.
        """
        if self._table is None:
            self._build_table()
        return self._table  # type: ignore[return-value]

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        return self.table[j][i]

    def inv(self, i: int) -> int:
        if self._inv is None:
            self._build_table()
        return self._inv[i]  # type: ignore[index]

    def comm(self, a: int, b: int) -> int:
        """Index of the commutator [a, b] = a^-1 * b^-1 * a * b."""
        table = self.table
        inv = self._inv
        return table[table[b][a]][table[inv[b]][inv[a]]]  # type: ignore[index]

    def conj(self, h: int, g: int) -> int:
        """Index of g^-1 * h * g."""
        return self.mul(self.mul(self.inv(g), h), g)

    def conj_row(self, g: int) -> array:
        """Conjugation by g as an index map (cached)."""
        row = self._conj_rows.get(g)
        if row is None:
            table = self.table
            inv = self._inv
            assert inv is not None
            rg = table[g]
            row = array(inv.typecode, map(rg.__getitem__, map(itemgetter(inv[g]), table)))
            self._conj_rows[g] = row
        return row

    def elt_order(self, i: int) -> int:
        """Order of element i (see :meth:`elt_orders`)."""
        orders = self._elt_orders
        if orders is None:
            orders = self.elt_orders()
        return orders[i]

    def elt_orders(self) -> array:
        """The order of every element, by index, read from the table.

        Each walk through the powers of an element not yet seen fixes the
        orders of all those powers: ord(x^j) = ord(x) / gcd(j, ord(x)).
        """
        orders = self._elt_orders
        if orders is None:
            table = self.table
            e = self.identity_idx
            orders = array("l", [0]) * self.order
            orders[e] = 1
            for x in range(self.order):
                if orders[x]:
                    continue
                row = table[x]
                powers = [x]
                y = row[x]
                while y != e:
                    powers.append(y)
                    y = row[y]
                k = len(powers) + 1
                for j, y in enumerate(powers, 1):
                    if not orders[y]:
                        orders[y] = k // gcd(j, k)
            self._elt_orders = orders
        return orders

    def gen_idxs(self) -> tuple[int, ...]:
        if self._gen_idxs is None:
            idx = self.element_index()
            self._gen_idxs = tuple(idx[g] for g in self.generators)
        return self._gen_idxs


# ---------------------------------------------------------------------------
# Chain-level commutator subgroups (no element enumeration required)
# ---------------------------------------------------------------------------


def commutator_gens(
    a_gens: Sequence[Permutation], b_gens: Sequence[Permutation], degree: int
) -> tuple[list[Permutation], int]:
    """Generators and order of [A, B] for A = <a_gens> inside B = <b_gens>.

    [A, B] is the normal closure in <A, B> = B of the commutators of the two
    generator sets (Robinson, 5.1.7), grown by sifting into a stabilizer
    chain: each commutator or conjugate that enlarges the chain is kept and
    conjugated in turn by every generator of B.
    """
    chain = StabilizerChain(degree)
    gens: list[Permutation] = []
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


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------


def trivial_group() -> Group:
    return Group(1, [], name="1")


def cyclic(n: int) -> Group:
    """C_n acting on one cycle per prime-power part (minimal faithful degree)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial_group()
    parts = [p_part(n, p) for p in prime_factors(n)]
    degree = sum(parts)
    cycles = []
    offset = 0
    for q in parts:
        cycles.append(list(range(offset, offset + q)))
        offset += q
    return Group(degree, [Permutation.from_cycles(degree, cycles)], name=f"C{n}")


def dihedral(order: int) -> Group:
    """Dihedral group of the given (even, >= 4) order."""
    if order < 4 or order % 2:
        raise ValueError("dihedral order must be an even integer >= 4")
    n = order // 2
    if n == 2:
        gens = [Permutation.from_cycles(4, [[0, 1]]), Permutation.from_cycles(4, [[2, 3]])]
        return Group(4, gens, name="D4")
    parts = [p_part(n, p) for p in prime_factors(n)]
    degree = sum(parts)
    rot_cycles = []
    refl = list(range(degree))
    offset = 0
    for q in parts:
        rot_cycles.append(list(range(offset, offset + q)))
        for i in range(q):  # inversion x -> -x on each component
            refl[offset + i] = offset + (-i) % q
        offset += q
    r = Permutation.from_cycles(degree, rot_cycles)
    s = Permutation(refl)
    return Group(degree, [r, s], name=f"D{order}")


def symmetric(n: int) -> Group:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial_group()
    gens = [Permutation.from_cycles(n, [[0, 1]])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [list(range(n))]))
    return Group(n, gens, name=f"S{n}")


def alternating(n: int) -> Group:
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 2:
        return trivial_group()
    gens = [Permutation.from_cycles(n, [[i, i + 1, i + 2]]) for i in range(n - 2)]
    return Group(n, gens, name=f"A{n}")


def quaternion8() -> Group:
    """Q8 acting on {1,-1,i,-i,j,-j,k,-k} by right multiplication."""
    gi = Permutation([2, 3, 1, 0, 7, 6, 4, 5])
    gj = Permutation([4, 5, 6, 7, 1, 0, 3, 2])
    return Group(8, [gi, gj], name="Q8")


def special_linear_2_3() -> Group:
    """SL(2,3) acting on the 8 nonzero vectors of F_3^2."""
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def matrix_perm(a: int, b: int, c: int, d: int) -> Permutation:
        return Permutation(
            index[((a * x + b * y) % 3, (c * x + d * y) % 3)] for x, y in vectors
        )

    return Group(8, [matrix_perm(1, 1, 0, 1), matrix_perm(1, 0, 1, 1)], name="SL(2,3)")


def elementary_abelian(p: int, k: int) -> Group:
    """(C_p)^k on k disjoint p-cycles."""
    if k < 1 or p < 2:
        raise ValueError("need p >= 2 and k >= 1")
    degree = p * k
    gens = [
        Permutation.from_cycles(degree, [list(range(i * p, (i + 1) * p))])
        for i in range(k)
    ]
    return Group(degree, gens, name=f"E({p}^{k})")


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def direct_product(a: Group, b: Group, name: str | None = None) -> Group:
    """Direct product on deg(a) + deg(b) points."""
    degree = a.degree + b.degree
    gens = []
    for g in a.generators:
        gens.append(Permutation(list(g.images) + list(range(a.degree, degree))))
    for g in b.generators:
        gens.append(Permutation(list(range(a.degree)) + [a.degree + v for v in g.images]))
    out = Group(degree, gens, name=name or f"{a.name} x {b.name}")
    if out.order != a.order * b.order:
        raise InternalCheckFailure("direct product order mismatch")
    return out


def _extend_elementwise_map(
    N: Group, gen_images: Sequence[Permutation]
) -> list[int]:
    """Extend generator images to a map on all of N; verify it is an automorphism.

    Returns the map as a list over element indices.  Raises ActionError if the
    assignment does not define an automorphism.
    """
    elems = N.elements()
    idx = N.element_index()
    for img in gen_images:
        if img not in N:
            raise ActionError("generator image lies outside the target group")
    fmap: list[int | None] = [None] * len(elems)
    e = N.identity_idx
    fmap[e] = e
    frontier = [e]
    gen_pairs = [(idx[g], idx[img]) for g, img in zip(N.generators, gen_images)]
    while frontier:
        nxt = []
        for x in frontier:
            fx = fmap[x]
            assert fx is not None
            for gi, fi in gen_pairs:
                y = N.mul(x, gi)
                fy = N.mul(fx, fi)
                if fmap[y] is None:
                    fmap[y] = fy
                    nxt.append(y)
                elif fmap[y] != fy:
                    raise ActionError("images do not respect the relations of N")
        frontier = nxt
    result = [v for v in fmap if v is not None]
    if len(result) != len(elems) or len(set(result)) != len(elems):
        raise ActionError("image map is not a bijection of N")
    # full homomorphism check on the multiplication table (desk scale)
    out = [v for v in fmap]  # type: ignore[misc]
    n = len(elems)
    for x in range(n):
        for y in range(n):
            if out[N.mul(x, y)] != N.mul(out[x], out[y]):  # type: ignore[index,arg-type]
                raise ActionError("map is not a homomorphism of N")
    return out  # type: ignore[return-value]


def semidirect_product(
    N: Group,
    H: Group,
    action: Sequence[Sequence[Permutation]],
    name: str | None = None,
) -> Group:
    """Semidirect product N x| H.

    ``action[j][i]`` is the image of ``N.generators[i]`` under the automorphism
    attached to ``H.generators[j]``; the assignment must extend to a
    homomorphism H -> Aut(N), which is verified on the multiplication tables.
    The result acts faithfully on the disjoint union of the element sets of N
    and H; conjugation by the embedded H-generator j realises exactly
    ``action[j]`` on the embedded copy of N.
    """
    if len(action) != len(H.generators):
        raise ActionError("need one automorphism per generator of H")
    auto_maps = []
    for images in action:
        if len(images) != len(N.generators):
            raise ActionError("each automorphism must list one image per generator of N")
        auto_maps.append(_extend_elementwise_map(N, images))

    n_elems = N.elements()
    h_elems = H.elements()
    n_idx = N.element_index()
    h_idx = H.element_index()
    n_count, h_count = len(n_elems), len(h_elems)

    # verify the assignment extends to a homomorphism H -> Aut(N)
    phi: list[tuple[int, ...] | None] = [None] * h_count
    ident_map = tuple(range(n_count))
    phi[H.identity_idx] = ident_map
    frontier = [H.identity_idx]
    h_gen_pairs = [(h_idx[g], tuple(m)) for g, m in zip(H.generators, auto_maps)]
    while frontier:
        nxt = []
        for y in frontier:
            py = phi[y]
            assert py is not None
            for gj, fj in h_gen_pairs:
                z = H.mul(y, gj)
                pz = tuple(fj[v] for v in py)  # apply phi(y) then phi(gen)
                if phi[z] is None:
                    phi[z] = pz
                    nxt.append(z)
                elif phi[z] != pz:
                    raise ActionError("action does not extend to a homomorphism H -> Aut(N)")
        frontier = nxt

    degree = n_count + h_count
    gens = []
    for g in N.generators:
        gi = n_idx[g]
        images = [N.mul(x, gi) for x in range(n_count)]
        images += list(range(n_count, degree))
        gens.append(Permutation(images))
    for (gj, fj), g in zip(h_gen_pairs, H.generators):
        images = list(fj)
        images += [n_count + H.mul(y, gj) for y in range(h_count)]
        gens.append(Permutation(images))
    label = name or f"sd({N.name},{H.name})"
    out = Group(degree, gens, name=label)
    if out.order != N.order * H.order:
        raise InternalCheckFailure("semidirect product order mismatch")
    return out


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def right_cosets(G: Group, within_mask: int, sub_mask: int) -> tuple[list[int], list[int]]:
    """The right cosets Kx of the subgroup K = ``sub_mask`` that make up ``within_mask``.

    Returns the coset id of each element of G (-1 outside ``within_mask``)
    and the least element of each coset; ids follow the least elements.
    """
    table = G.table
    members = list(bits(sub_mask))
    n = G.order
    coset_of = [-1] * n
    reps: list[int] = []
    for i in range(n) if within_mask == (1 << n) - 1 else bits(within_mask):
        if coset_of[i] != -1:
            continue
        cid = len(reps)
        reps.append(i)
        for y in map(table[i].__getitem__, members):
            coset_of[y] = cid
    return coset_of, reps


@dataclass
class QuotientMap:
    """A quotient group together with the projection onto it.

    Element c of ``group`` is the coset with id c, so the projection of
    source element i is ``coset_of[i]``.
    """

    source: Group
    group: Group
    coset_of: tuple[int, ...]  # source element index -> coset id (= quotient element)
    reps: tuple[int, ...]  # coset id -> least source element index in the coset

    def image_index(self, i: int) -> int:
        return self.coset_of[i]

    def image_mask(self, mask: int) -> int:
        coset_of = self.coset_of
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= 1 << coset_of[low.bit_length() - 1]
            m ^= low
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for i, q in enumerate(self.coset_of):
            if (mask >> q) & 1:
                out |= 1 << i
        return out


def quotient(G: Group, normal_mask: int, normal_gen_idxs: Sequence[int]) -> QuotientMap:
    """Quotient of G by a normal subgroup given as an element-index mask.

    Coset ids are assigned in order of least contained element index, and
    element c of the quotient is coset c, so the construction is
    deterministic.  The quotient is a table group read off G's table:
    ``table[d][c]`` is the coset of ``reps[c] * reps[d]``.  Asked for
    permutations, its elements act on the cosets by right multiplication.
    Maps are cached on the source group per normal subgroup.
    """
    cached = G._quotients.get(normal_mask)
    if cached is not None:
        return cached
    gen_idxs = G.gen_idxs()
    for g in gen_idxs:
        for h in normal_gen_idxs:
            if not (normal_mask >> G.conj(h, g)) & 1:
                raise NotNormal("subgroup is not normal in the ambient group")
    coset_of, reps = right_cosets(G, (1 << G.order) - 1, normal_mask)
    count = len(reps)
    if count * normal_mask.bit_count() != G.order:
        raise InternalCheckFailure("quotient order mismatch")
    table = G.table
    typecode = _typecode(count)
    coset = coset_of.__getitem__
    rows = [array(typecode, map(coset, map(table[d].__getitem__, reps))) for d in reps]
    inv = array(typecode, map(coset, map(G.inv, reps)))
    quo = Group.from_table(
        rows,
        inv,
        coset_of[G.identity_idx],
        [coset_of[g] for g in gen_idxs],
        name=f"{G.name}/N" if G.name else None,
    )
    qm = QuotientMap(G, quo, tuple(coset_of), tuple(reps))
    G._quotients[normal_mask] = qm
    return qm


def restriction(G: Group, members: Sequence[int], gen_idxs: Iterable[int]) -> Group:
    """The subgroup of G on the given ascending element indices, as a table group.

    Its element i is G's element ``members[i]``, so its table is G's table
    restricted to the members, its element permutations are G's own and
    ``ambient_idxs`` records the members.  ``gen_idxs`` are G-indices of
    generators; the caller guarantees the members form a subgroup.
    """
    rank = [-1] * G.order
    for i, a in enumerate(members):
        rank[a] = i
    typecode = _typecode(len(members))
    table = G.table
    rank_of = rank.__getitem__
    rows = [array(typecode, map(rank_of, map(table[a].__getitem__, members))) for a in members]
    inv = array(typecode, map(rank_of, map(G.inv, members)))
    sub = Group.from_table(
        rows,
        inv,
        rank[G.identity_idx],
        [rank[g] for g in gen_idxs],
        perm_of=lambda i: G.perm_at(members[i]),
        degree=G.degree,
    )
    sub.ambient_idxs = tuple(members)
    return sub


# ---------------------------------------------------------------------------
# Group-spec mini-language
# ---------------------------------------------------------------------------
#
# spec    := atom (' x ' atom)*
# atom    := C<n> | D<2n> | S<n> | A<n> | Q8 | SL(2,3) | E(<p>^<k>)
#          | sd(<spec>,<spec>,<action>) | perm(<n>; <cycles>; ...)
# action  := block ('|' block)*          one block per H-generator
# block   := nI->word (',' nJ->word)*    one assignment per N-generator
# word    := '1' | factor ('*' factor)*  factor := n<i>('^'<int>)?


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split text at each occurrence of sep outside brackets."""
    parts = []
    depth = 0
    start = i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i = start = i + len(sep)
            continue
        i += 1
    parts.append(text[start:])
    return parts


def _parse_word(word: str, N: Group) -> Permutation:
    word = word.strip()
    ident = N.identity()
    if word == "1":
        return ident
    result = ident
    for factor in word.split("*"):
        factor = factor.strip()
        base, caret, exp = factor.partition("^")
        if not base.startswith("n"):
            raise SpecParseError(f"bad action factor {factor!r}")
        try:
            gi = int(base[1:])
            power = int(exp) if caret else 1
        except ValueError as exc:
            raise SpecParseError(f"bad action factor {factor!r}") from exc
        if not 0 <= gi < len(N.generators):
            raise SpecParseError(f"no generator n{gi} in the normal factor")
        result = result * (N.generators[gi] ** power)
    return result


def _parse_action(text: str, N: Group, H: Group) -> list[list[Permutation]]:
    blocks = [b for b in _split_top_level(text, "|")]
    if len(blocks) != len(H.generators):
        raise SpecParseError(
            f"action lists {len(blocks)} generator blocks, H has {len(H.generators)} generators"
        )
    action = []
    for block in blocks:
        images: dict[int, Permutation] = {}
        for assignment in _split_top_level(block, ","):
            lhs, arrow, rhs = assignment.partition("->")
            if not arrow:
                raise SpecParseError(f"bad action assignment {assignment!r}")
            lhs = lhs.strip()
            if not lhs.startswith("n"):
                raise SpecParseError(f"bad action assignment {assignment!r}")
            try:
                gi = int(lhs[1:])
            except ValueError as exc:
                raise SpecParseError(f"bad action assignment {assignment!r}") from exc
            if not 0 <= gi < len(N.generators):
                raise SpecParseError(f"no generator n{gi} in the normal factor")
            if gi in images:
                raise SpecParseError(f"generator n{gi} assigned twice")
            images[gi] = _parse_word(rhs, N)
        if len(images) != len(N.generators):
            raise SpecParseError("each action block must assign every N-generator")
        action.append([images[i] for i in range(len(N.generators))])
    return action


def _split_atom(text: str) -> tuple:
    """An atom spec as ``(kind, *arguments)``, numbers parsed; nothing is built."""
    text = text.strip()
    if text in ("Q8", "SL(2,3)"):
        return (text,)
    if text.startswith("E(") and text.endswith(")"):
        p_str, sep, k_str = text[2:-1].partition("^")
        if not sep:
            raise SpecParseError(f"bad elementary-abelian spec {text!r}")
        try:
            return ("E", int(p_str), int(k_str))
        except ValueError as exc:
            raise SpecParseError(f"bad elementary-abelian spec {text!r}") from exc
    if text.startswith("sd(") and text.endswith(")"):
        parts = _split_top_level(text[3:-1], ",")
        if len(parts) < 3:
            raise SpecParseError(f"sd(...) needs a normal factor, a complement and an action: {text!r}")
        return ("sd", parts[0], parts[1], ",".join(parts[2:]))
    if text.startswith("perm(") and text.endswith(")"):
        segments = _split_top_level(text[5:-1], ";")
        if len(segments) < 2:
            raise SpecParseError(f"perm(...) needs a degree and at least one generator: {text!r}")
        try:
            degree = int(segments[0])
        except ValueError as exc:
            raise SpecParseError(f"bad degree in {text!r}") from exc
        if degree < 0:
            raise SpecParseError(f"negative degree in {text!r}")
        if degree > config.PERM_DEGREE_CAP:
            raise SpecParseError(f"perm degree {degree} exceeds cap {config.PERM_DEGREE_CAP}")
        return ("perm", degree, segments[1:])
    if text[:1] in ("C", "D", "S", "A") and text[1:].isdigit():
        try:
            return (text[0], int(text[1:]))
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc
    raise SpecParseError(f"unrecognised group spec {text!r}")


_NAMED = {"C": cyclic, "D": dihedral, "S": symmetric, "A": alternating, "E": elementary_abelian}


def _parse_atom(text: str, cap: int) -> Group:
    text = text.strip()
    kind, *args = _split_atom(text)
    if kind == "Q8":
        return quaternion8()
    if kind == "SL(2,3)":
        return special_linear_2_3()
    if kind == "sd":
        n_spec, h_spec, action_text = args
        N = _parse_spec(n_spec, cap)
        H = _parse_spec(h_spec, cap)
        # factor orders come from their chains; refuse before the action check enumerates them
        if N.order * H.order > cap:
            raise OrderCapExceeded(f"group order {N.order * H.order} of {text!r} exceeds cap {cap}")
        action = _parse_action(action_text, N, H)
        return semidirect_product(N, H, action, name=text)
    if kind == "perm":
        degree, segments = args
        gens = [Permutation.parse(degree, seg) for seg in segments]
        return Group(degree, gens, name=text)
    if kind == "E" and prime_factors(args[0]) != [args[0]]:
        raise SpecParseError(f"{args[0]} is not prime in {text!r}")
    try:
        return _NAMED[kind](*args)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


def _split_factors(text: str) -> list[str]:
    """The direct factors of a spec: its atoms joined by ' x ' outside brackets."""
    if not text.strip():
        raise SpecParseError("empty group spec")
    return _split_top_level(text, " x ")


def _parse_spec(text: str, cap: int) -> Group:
    groups = [_parse_atom(f, cap) for f in _split_factors(text)]
    result = groups[0]
    for g in groups[1:]:
        result = direct_product(result, g)
    result.name = text.strip()
    return result


def _capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of the factors, or cap + 1 as soon as it passes the cap."""
    out = 1
    for f in factors:
        out *= f
        if out > cap:
            return cap + 1
    return out


def _order_bound(text: str, cap: int) -> int:
    """A lower bound on the order of the group a spec names, read from the text.

    Exact for C, D, S, A, E, Q8, SL(2,3), direct products and sd(...); a
    perm(...) atom counts as 1, since its order needs a stabilizer chain.
    Values above the cap come back as cap + 1.
    """
    return _capped_product((_atom_order_bound(f, cap) for f in _split_factors(text)), cap)


def _atom_order_bound(text: str, cap: int) -> int:
    kind, *args = _split_atom(text)
    if kind == "sd":
        return _capped_product((_order_bound(args[0], cap), _order_bound(args[1], cap)), cap)
    if kind == "E":
        p, k = args
        # p >= 2 passes the cap within cap.bit_length() + 1 factors; k may not fit a C size
        return _capped_product(repeat(p, min(k, cap.bit_length() + 1)), cap) if p >= 2 else 1
    if kind == "S":
        return _capped_product(range(2, args[0] + 1), cap)
    if kind == "A":
        return _capped_product(range(3, args[0] + 1), cap)
    if kind in ("C", "D"):
        return min(args[0], cap + 1)
    if kind == "perm":
        return 1
    return 8 if kind == "Q8" else 24


def make_group(spec: str, order_cap: int | None = None) -> Group:
    """Parse a group spec and construct the group; enforces the order cap.

    The cap is applied to the order read from the spec before anything is
    built, to each sd(...) once its two factors are built and before its
    action is checked, and again to the built group; each refusal is an
    :class:`OrderCapExceeded`.  perm(...) atoms have orders known only from
    their stabilizer chains, so the two later checks catch them; neither
    enumerates an element.
    """
    cap = config.ORDER_CAP if order_cap is None else order_cap
    if _order_bound(spec, cap) > cap:
        raise OrderCapExceeded(f"group order of {spec!r} exceeds cap {cap}")
    group = _parse_spec(spec, cap)
    if group.order > cap:
        raise OrderCapExceeded(f"group order {group.order} of {spec!r} exceeds cap {cap}")
    return group
