"""Finite groups: element enumeration, named constructors, products, quotients.

A :class:`Group` is an immutable value, and every group is the same facts:
its order, its identity's index, its generators' indices and its
generators' rows of the multiplication table.  A group from a spec (a
named constructor, a product or ``perm(...)``) is given by its degree and
generator list: a breadth-first enumeration, which stops as soon as it
passes the order cap, finds those facts, and its order is the number of
elements found; the image tuples are dropped.  A group from
:meth:`Group.from_gen_rows` (a quotient or any section X/N, read off the
parent's right cosets by :func:`coset_group`, or an oracle product) is
given the facts directly, and its generators are the right regular
permutations of their rows.  Either way the table is built from the
generators' rows, and permutations from the table, only if asked for;
caches are populated lazily and written once, except the working set
(the group's sections, conjugation rows, table and inverses), which is
freed after its checks and rebuilt the same if asked for again.
:class:`StabilizerChain` (a deterministic Schreier-Sims chain) is kept as
public API; no library path builds one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from math import gcd, prod
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
    """Array typecode for the element indices of a group of order n: one
    byte up to order 256, so that :meth:`Group._build_table` can compose
    rows with ``bytes.translate``, else two bytes, or more past 32767."""
    if n <= 256:
        return "B"
    return "h" if n < 32768 else "l"


class Group:
    """A finite group; its elements are the indices 0..order-1.

    Every group keeps its order, identity index, generator indices and
    generators' table rows, from which its table is built on first use and
    again after a release, and it makes permutations only on request.  A
    group built from generators acts on points 0..degree-1 and indexes its
    elements in sorted order of their image tuples, found by enumeration; a
    group built by :meth:`from_gen_rows` acts on its own indices.
    Instances are immutable; their lazy caches are idempotent, so sharing a
    Group between threads is safe in the benign-race sense.  Every cache is
    write-once except the working set :meth:`release_working_set` frees
    (``run_checks`` does so once every configuration has run on the group):
    the sections the group builds, its cached quotients and factor-action
    products, its conjugation rows, its table and inverses.  Each is
    rebuilt, the same, if asked for again.
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
        self._order: int | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._index: dict[Permutation, int] | None = None
        self._identity_idx: int | None = None
        self._table: list[array] | None = None
        self._inv: array | None = None
        self._gen_rows: list[array] | None = None
        self._elt_orders: array | None = None
        self._conj_rows: dict[int, array] = {}
        self._lattice = None
        self._normal_masks: tuple[int, ...] | None = None
        self._quotients: dict[int, "QuotientMap"] = {}
        self._hypercenters: dict = {}
        self._normal_masks_by_mask: dict[int, tuple[int, ...]] = {}
        self._factor_products: dict[tuple[int, int], "Group"] = {}
        self._central_verdicts: dict[tuple, bool] = {}
        self._minimal_above: dict[int, tuple[int, ...]] = {}
        self._class_memo: dict[tuple, dict[int, object]] = {}

    @classmethod
    def from_gen_rows(
        cls,
        order: int,
        identity_idx: int,
        gen_rows: dict[int, array],
        name: str | None = None,
    ) -> "Group":
        """A group given by its generators' rows of the multiplication table.

        ``gen_rows`` maps the index of each generator to its row, with the
        conventions of :attr:`table` (``row[x]`` is the index of x * g); the
        identity's row, if given, is dropped.  The generators are the right
        regular permutations of their rows (x -> x * g), so the group acts
        on its own indices; its table and permutations are built from those
        rows only on request.
        """
        G = cls(order, (), name)
        gen_rows = {g: row for g, row in gen_rows.items() if g != identity_idx}
        G._generators = None
        G._gen_idxs = tuple(gen_rows)
        G._gen_rows = list(gen_rows.values())
        G._order = order
        G._identity_idx = identity_idx
        return G

    def release_working_set(self) -> None:
        """Free what this group's checks built and can build again: its
        cached quotients X/N (with everything cached on them), its
        factor-action products and conjugation rows, and its table and
        inverses, which the next read rebuilds from its generators' rows.
        Its own lattice, hypercenters and class memos stay."""
        self._quotients.clear()
        self._factor_products.clear()
        self._conj_rows = {}
        self._table = self._inv = None

    # -- basic structure ----------------------------------------------------

    @property
    def generators(self) -> tuple[Permutation, ...]:
        if self._generators is None:  # a row group's: x -> x * g
            self._generators = tuple(Permutation._unsafe(tuple(row)) for row in self._gen_rows)  # type: ignore[union-attr]
        return self._generators

    @property
    def order(self) -> int:
        """The number of elements; a group given by generators is enumerated
        for it, and one above the order cap raises :class:`CapExceeded`."""
        if self._order is None:
            self._enumerate(config.ORDER_CAP)
        return self._order  # type: ignore[return-value]

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def __contains__(self, g: Permutation) -> bool:
        return g in self.element_index()

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        try:
            return f"<Group {label}, order {self.order}>"
        except CapExceeded:
            return f"<Group {label}, order above {config.ORDER_CAP}>"

    # -- element enumeration -------------------------------------------------

    def elements(self, limit: int | None = None) -> tuple[Permutation, ...]:
        """All elements as permutations, in index order, made on request and
        kept; errors if the order exceeds ``limit`` (default ``ORDER_CAP``).

        A group built from generators is enumerated first if it has not
        been, which fixes its order and its indexing (sorted by image
        tuple); either way the permutations are rebuilt from the table
        (:meth:`_walk_elements`).
        """
        cap = config.ORDER_CAP if limit is None else limit
        if self._order is None:
            self._enumerate(cap)
        if self._elements is None:
            if self._order > cap:  # type: ignore[operator]
                raise CapExceeded(f"order {self._order} exceeds cap {cap}")
            self._elements = self._walk_elements()
        elif limit is not None and self._order > limit:  # type: ignore[operator]
            raise CapExceeded(f"order {self._order} exceeds cap {limit}")
        return self._elements

    def _enumerate(self, cap: int) -> None:
        """Breadth-first search over image tuples that keeps each element's
        generator products as positions: once the elements are sorted by
        image tuple, these give the order, the identity's and generators'
        indices and the generators' table rows (``_gen_rows``, kept to
        build the table from), which is all the group keeps; the image
        tuples are dropped.  It raises :class:`CapExceeded` as soon as it
        has found cap + 1 elements, and then sets nothing."""
        gens = [g.images for g in self.generators]
        found = [tuple(range(self.degree))]
        position = {found[0]: 0}
        products: list[list[int]] = [[] for _ in gens]  # [j][k]: position of found[k] * gens[j]
        for x in found if gens else ():  # grows as new elements are found
            image_of = itemgetter(*x)  # q -> x * q; x has degree >= 2 when there are gens
            for q, out in zip(gens, products):
                y = image_of(q)
                k = position.setdefault(y, len(found))
                if k == len(found):
                    if k == cap:
                        raise CapExceeded(f"order exceeds cap {cap}")
                    found.append(y)
                out.append(k)
        n = self._order = len(found)
        order = sorted(range(n), key=found.__getitem__)
        rank = sorted(range(n), key=order.__getitem__)  # position -> index
        self._identity_idx = rank[0]
        self._gen_idxs = tuple(rank[out[0]] for out in products)
        typecode = _typecode(n)
        self._gen_rows = [array(typecode, (rank[out[k]] for k in order)) for out in products]

    def _walk_elements(self) -> tuple[Permutation, ...]:
        """The permutations of the group, by index, rebuilt by a
        breadth-first walk out from the identity over its table:
        ``perm(table[g][x]) = perm(x) * gen_g``."""
        table = self.table
        steps = [(table[g], p.images.__getitem__) for g, p in zip(self.gen_idxs(), self.generators)]
        e = self._identity_idx
        perms: list[Permutation | None] = [None] * self._order  # type: ignore[operator]
        perms[e] = self.identity()  # type: ignore[index]
        frontier = [e]
        while frontier:
            nxt = []
            for x in frontier:
                images = perms[x].images  # type: ignore[index,union-attr]
                for row, image in steps:
                    y = row[x]
                    if perms[y] is None:
                        perms[y] = Permutation._unsafe(tuple(map(image, images)))
                        nxt.append(y)
            frontier = nxt
        return tuple(perms)  # type: ignore[arg-type]

    def element_index(self) -> dict[Permutation, int]:
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.elements())}
        return self._index

    @property
    def identity_idx(self) -> int:
        if self._identity_idx is None:
            self._enumerate(config.ORDER_CAP)
        return self._identity_idx  # type: ignore[return-value]

    def idx_of(self, p: Permutation) -> int:
        return self.element_index()[p]

    def perm_at(self, i: int) -> Permutation:
        return self.elements()[i]

    # -- index arithmetic ------------------------------------------------------

    def _build_table(self) -> tuple[list[array], array]:
        """Dense right-multiplication table: ``r_a[x] == index(elem[x] * elem[a])``.

        From the generators' rows, the row of g * a is
        ``r_a`` gathered at ``r_g`` (x * g * a), and the inverse of a is the
        x with ``r_a[x]`` the identity.  Up to order 256 rows are one byte
        and the gather is ``bytes(r_g).translate(bytes(r_a) + pad)``, in C;
        above it, one ``itemgetter(*r_g)`` per generator.  Returns the
        table and the inverses it keeps.
        """
        n = self.order
        e = self.identity_idx
        typecode = _typecode(n)
        rows: list[array | None] = [None] * n
        rows[e] = array(typecode, range(n))
        for g, rg in zip(self.gen_idxs(), self._gen_rows):  # type: ignore[arg-type]
            rows[g] = rg
        byte_rows = typecode == "B"
        pad = bytes(256 - n) if byte_rows else b""
        gathers = [
            (g, rows[g].tobytes().translate if byte_rows else itemgetter(*rows[g]))  # type: ignore[union-attr,misc]
            for g in self.gen_idxs()
        ]
        frontier = [e, *self.gen_idxs()]
        while frontier:
            nxt = []
            for a in frontier:
                ra = rows[a]
                src = ra.tobytes() + pad if byte_rows else ra  # type: ignore[union-attr]
                for g, gather in gathers:
                    b = ra[g]  # index of elem[g] * elem[a]
                    if rows[b] is None:
                        rows[b] = array(typecode, gather(src))
                        nxt.append(b)
            frontier = nxt
        inv = self._inv = array(typecode, (row.index(e) for row in rows))  # type: ignore[union-attr]
        self._table = rows  # type: ignore[assignment]
        return rows, inv  # type: ignore[return-value]

    @property
    def table(self) -> list[array]:
        """The multiplication table: ``table[j][i]`` is the index of elements[i] * elements[j].

        Built from the generators' rows on first use, and again after a
        release (:meth:`release_working_set`).  Rows are ``array``
        objects of :func:`_typecode` entries: up to order 256 one byte each
        (at most 256 rows of 256 bytes, 64 KB of entries); at the order cap
        (order 2000) 2000 rows of 2000 two-byte entries, about 8 MB.
        """
        table = self._table
        if table is None:
            table = self._build_table()[0]
        return table

    @property
    def inverses(self) -> array:
        """The inverse of every element, by index: ``inverses[i]`` is the
        index of elements[i]^-1.  Kept and released with :attr:`table`."""
        inv = self._inv
        if inv is None:
            inv = self._build_table()[1]
        return inv

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        return self.table[j][i]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def comm(self, a: int, b: int) -> int:
        """Index of the commutator [a, b] = a^-1 * b^-1 * a * b."""
        table = self.table
        inv = self.inverses
        return table[table[b][a]][table[inv[b]][inv[a]]]

    def conj(self, h: int, g: int) -> int:
        """Index of g^-1 * h * g."""
        return self.mul(self.mul(self.inv(g), h), g)

    def conj_row(self, g: int) -> array:
        """Conjugation by g as an index map (cached)."""
        row = self._conj_rows.get(g)
        if row is None:
            table = self.table
            inv = self.inverses
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
        Orders are kept in two bytes each; no order exceeds the group's, and a
        group with a dense table is far below 65536 elements.
        """
        orders = self._elt_orders
        if orders is None:
            table = self.table
            e = self.identity_idx
            orders = array("H", [0]) * self.order
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
            self._enumerate(config.ORDER_CAP)
        return self._gen_idxs  # type: ignore[return-value]


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


def direct_product(*factors: Group, name: str | None = None, order: int | None = None) -> Group:
    """Direct product of the factors, each on its own block of points, in order.

    The product is enumerated and checked to have ``order``, by default the
    product of the factors' orders, which enumerates each factor; a caller
    that already knows the order passes it, and no factor is enumerated.
    """
    degree = sum(f.degree for f in factors)
    gens = []
    offset = 0
    for f in factors:
        fixed_below, fixed_above = list(range(offset)), list(range(offset + f.degree, degree))
        for g in f.generators:
            gens.append(Permutation(fixed_below + [offset + v for v in g.images] + fixed_above))
        offset += f.degree
    G = Group(degree, gens, name=name or " x ".join(str(f.name) for f in factors))
    return _with_order(G, prod(f.order for f in factors) if order is None else order)


def _with_order(G: Group, order: int) -> Group:
    """G, enumerated and checked to have the given order: the search stops
    past ``order`` elements, so a wrong product costs at most order + 1."""
    if _has_order(G, order):
        return G
    raise InternalCheckFailure(f"constructed group does not have order {order}")


def _has_order(G: Group, order: int) -> bool:
    """Whether G has the given order, enumerating at most order + 1 elements."""
    return _capped_order(G, order) == order


def _capped_order(G: Group, cap: int) -> int:
    """G's order, or cap + 1 if it passes the cap; a group not yet
    enumerated is enumerated with the cap as the limit."""
    if G._order is None:
        try:
            G._enumerate(cap)
        except CapExceeded:
            return cap + 1
    return min(G._order, cap + 1)  # type: ignore[type-var]


def semidirect_product(
    N: Group,
    H: Group,
    action: Sequence[Sequence[Permutation]],
    name: str | None = None,
) -> Group:
    """Semidirect product N x| H.

    ``action[j][i]`` is the image of ``N.generators[i]`` under the automorphism
    attached to ``H.generators[j]``.  The result G acts on the disjoint union
    of the element sets of N and H.  N-generator i acts as rho(n_i), right
    multiplication, on the N-points and fixes the H-points; H-generator j
    acts as sigma_j: on the N-points as the breadth-first extension of
    ``action[j]`` (x * n_i -> f(x) * image_i), on the H-points as rho(h_j).
    Conjugation by the embedded H-generator j realises ``action[j]`` on the
    embedded copy of N.

    The assignment extends to a homomorphism H -> Aut(N) iff |G| = |N||H|,
    so that is the one check: the enumeration stops at |N||H| + 1 elements,
    and every other case, a map that is not a bijection of N included,
    raises :class:`ActionError`.  Proof of the hard direction:

    - Restriction to the H-points maps G onto H's regular copy, with kernel
      K containing rho(N).  So |G| >= |N||H|, with equality iff K = rho(N).
    - Each sigma_j then normalizes the regular group rho(N) and fixes the
      identity point.  So on N it lies in Hol(N)_e = Aut(N) (Dixon &
      Mortimer, *Permutation Groups*, 1996), and it is the automorphism
      that sends n_i to ``action[j][i]``, which the extension agrees with.
    - <sigma_j> fixes that point and meets rho(N) trivially.  So it maps
      isomorphically onto H, and h_j -> sigma_j|_N extends to a homomorphism
      H -> Aut(N).

    Conversely, a valid action makes G the image of N x| H, acting
    faithfully, so |G| = |N||H|.
    """
    if len(action) != len(H.generators):
        raise ActionError("need one automorphism per generator of H")
    n_idx = N.element_index()
    n_count, h_count = N.order, H.order
    degree = n_count + h_count
    n_gens = N.gen_idxs()
    gens = [
        Permutation([N.mul(x, g) for x in range(n_count)] + list(range(n_count, degree)))
        for g in n_gens
    ]
    for images, hj in zip(action, H.gen_idxs()):
        if len(images) != len(n_gens):
            raise ActionError("each automorphism must list one image per generator of N")
        if any(img not in n_idx for img in images):
            raise ActionError("generator image lies outside the target group")
        pairs = [(g, n_idx[img]) for g, img in zip(n_gens, images)]
        f = [-1] * n_count
        f[N.identity_idx] = N.identity_idx
        frontier = [N.identity_idx]
        while frontier:
            nxt = []
            for x in frontier:
                for g, img in pairs:
                    y = N.mul(x, g)
                    if f[y] < 0:
                        f[y] = N.mul(f[x], img)
                        nxt.append(y)
            frontier = nxt
        try:
            gens.append(Permutation(f + [n_count + H.mul(y, hj) for y in range(h_count)]))
        except ValueError as exc:
            raise ActionError("image map is not a bijection of N") from exc
    G = Group(degree, gens, name=name or f"sd({N.name},{H.name})")
    if not _has_order(G, n_count * h_count):
        raise ActionError("action does not extend to a homomorphism H -> Aut(N)")
    return G


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


def coset_group(
    G: Group,
    coset_of: Sequence[int],
    reps: Sequence[int],
    gen_idxs: Iterable[int],
    name: str | None = None,
) -> Group:
    """The section X/N as a group of its generators' rows, read off G's table.

    ``coset_of`` and ``reps`` are :func:`right_cosets` of N within X, with N
    normal in X, and ``gen_idxs`` are G-indices of generators of X.  Element
    c is coset c, and the row of the coset of a generator g is
    ``row[c]`` = the coset of ``reps[c] * g``, which is the coset of
    ``reps[c] * reps[d]`` for g in coset d, as N is normal in X.
    """
    table = G.table
    typecode = _typecode(len(reps))
    gen_rows: dict[int, array] = {}
    for g in gen_idxs:
        c = coset_of[g]
        if c not in gen_rows:
            row = table[g]  # a -> a * g
            # a comprehension fills a row about twice as fast as a map chain
            gen_rows[c] = array(typecode, [coset_of[row[a]] for a in reps])
    return Group.from_gen_rows(len(reps), coset_of[G.identity_idx], gen_rows, name)


def quotient(G: Group, normal_mask: int, normal_gen_idxs: Sequence[int]) -> QuotientMap:
    """Quotient of G by a normal subgroup given as an element-index mask.

    Coset ids are assigned in order of least contained element index, and
    element c of the quotient is coset c (:func:`coset_group`), so the
    construction is deterministic.  Asked for permutations, its elements act
    on the cosets by right multiplication.  Maps are cached on the source
    group per normal subgroup.
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
    if len(reps) * normal_mask.bit_count() != G.order:
        raise InternalCheckFailure("quotient order mismatch")
    quo = coset_group(G, coset_of, reps, gen_idxs, name=f"{G.name}/N" if G.name else None)
    qm = QuotientMap(G, quo, tuple(coset_of), tuple(reps))
    G._quotients[normal_mask] = qm
    return qm


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
    """Split text at each occurrence of sep outside (), [] and {} brackets."""
    parts = []
    depth = 0
    start = i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
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
    """A stripped atom spec as ``(kind, *arguments)``, numbers parsed; nothing is built."""
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
        # every group within the cap acts faithfully on at most that many points
        if degree > config.ORDER_CAP:
            raise SpecParseError(f"perm degree {degree} exceeds cap {config.ORDER_CAP}")
        return ("perm", degree, segments[1:])
    if text[:1] in ("C", "D", "S", "A") and text[1:].isdigit():
        try:
            return (text[0], int(text[1:]))
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc
    raise SpecParseError(f"unrecognised group spec {text!r}")


_NAMED = {
    "C": cyclic,
    "D": dihedral,
    "S": symmetric,
    "A": alternating,
    "E": elementary_abelian,
    "Q8": quaternion8,
    "SL(2,3)": special_linear_2_3,
}


def _capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of the factors, or cap + 1 as soon as it passes the cap."""
    out = 1
    for f in factors:
        out *= f
        if out > cap:
            return cap + 1
    return out


def _read_spec(text: str, cap: int) -> tuple[int, Callable[[], Group]]:
    """The order of the group a spec names, cap + 1 once it passes the cap,
    and a function that builds the group, named by the stripped text.

    Each atom is split and checked once, and nothing named is built: the
    order of C, D, S, A, E, Q8, SL(2,3), direct products and sd(...) is read
    from the text.  A perm(...) atom is built and enumerated with the cap as
    the limit, so one above it costs at most cap + 1 elements, and its build
    returns that group.  Direct factors are joined in one product, which is
    checked against the order read, so no factor is enumerated for it.
    """
    if not text.strip():
        raise SpecParseError("empty group spec")
    name = text.strip()
    atoms = [_read_atom(atom, cap) for atom in _split_top_level(text, " x ")]
    order = _capped_product((atom_order for atom_order, _ in atoms), cap)

    def build() -> Group:
        if len(atoms) > 1:
            return direct_product(*(build_atom() for _, build_atom in atoms), name=name, order=order)
        G = atoms[0][1]()
        G.name = name
        return G

    return order, build


def _read_atom(text: str, cap: int) -> tuple[int, Callable[[], Group]]:
    text = text.strip()
    kind, *args = _split_atom(text)
    if kind == "sd":
        n_spec, h_spec, action_text = args
        n_order, build_n = _read_spec(n_spec, cap)
        h_order, build_h = _read_spec(h_spec, cap)

        def build_sd() -> Group:
            N, H = build_n(), build_h()
            return semidirect_product(N, H, _parse_action(action_text, N, H), name=text)

        return _capped_product((n_order, h_order), cap), build_sd
    if kind == "perm":
        degree, segments = args
        G = Group(degree, [Permutation.parse(degree, seg) for seg in segments], name=text)
        return _capped_order(G, cap), lambda: G
    if kind == "E":
        p, k = args
        # p >= 2 passes the cap within cap.bit_length() + 1 factors; k may not fit a C size
        order = _capped_product(repeat(p, min(k, cap.bit_length() + 1)), cap) if p >= 2 else 1
    elif kind == "S":
        order = _capped_product(range(2, args[0] + 1), cap)
    elif kind == "A":
        order = _capped_product(range(3, args[0] + 1), cap)
    elif kind in ("C", "D"):
        order = min(args[0], cap + 1)
    else:
        order = 8 if kind == "Q8" else 24

    def build_named() -> Group:
        if kind == "E" and prime_factors(args[0]) != [args[0]]:
            raise SpecParseError(f"{args[0]} is not prime in {text!r}")
        try:
            return _NAMED[kind](*args)
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc

    return order, build_named


def make_group(spec: str) -> Group:
    """Parse a group spec and construct the group; enforces the order cap.

    One walk over the spec (:func:`_read_spec`) reads its exact order and
    checks every atom before anything named is built; a spec above
    ``config.ORDER_CAP``, read at call time, is refused there with
    :class:`OrderCapExceeded`.  Only a perm(...) atom is enumerated for its
    order, once, with the cap as the limit.  The build then checks no cap:
    the group returned is enumerated and checked to have the order read.
    """
    cap = config.ORDER_CAP
    order, build = _read_spec(spec, cap)
    if order > cap:
        raise OrderCapExceeded(f"group order of {spec!r} exceeds cap {cap}")
    return _with_order(build(), order)
