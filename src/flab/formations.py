"""The group-class catalog: membership, residuals, local definitions.

Supported classes: pi-groups ``Gpi{..}``, nilpotent ``N``, bounded Fitting
length ``N^r``, soluble ``Sol``, supersoluble ``U``, and cross products
``cross[{..}:gpi;..]`` over a partition of the primes (unlisted primes act as
implicit singleton pi-blocks, so ``N`` is the cross product with no listed
blocks).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod
from typing import Any, Callable, Union

from .errors import (
    InternalCheckFailure,
    LocalDefinitionUnavailable,
    SpecParseError,
)
# perfbench's tracer test reads the quotient binding of this module
from .groups import Group, coset_group, quotient, right_cosets  # noqa: F401
from .lattice import SubgroupLattice, maximal_subgroups
from .series import derived_series, is_nilpotent, is_soluble
from .subgroups import (
    SubgroupRef,
    as_ref,
    bits,
    closure_mask,
    commutator_subgroup,
    normal_subgroup_masks,
    o_pi,
    o_pi_up,
    p_part,
    pi_element_mask,
    prime_factors,
    subgroup_from_mask,
)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gpi:
    """All pi-groups for an explicit finite prime set; also a cross block."""

    primes: frozenset[int]


@dataclass(frozen=True)
class Nil:
    """All nilpotent groups."""


@dataclass(frozen=True)
class NilPow:
    """Soluble groups of Fitting length at most r."""

    r: int


@dataclass(frozen=True)
class Sol:
    """All soluble groups."""


@dataclass(frozen=True)
class Supersoluble:
    """All supersoluble groups (every chief factor of prime order)."""


@dataclass(frozen=True)
class SolPi:
    """All soluble pi-groups; also a cross block."""

    primes: frozenset[int]


Block = Union[Gpi, SolPi]


@dataclass(frozen=True)
class Cross:
    """Direct products over a prime partition: G = product of its O_pi parts,
    the part of each block pi in that block's class (``Gpi`` or ``SolPi``).

    Primes not covered by a listed block act as implicit singleton ``Gpi``
    blocks.  A partition (``checks.parse_partition``) is a ``Cross`` too.
    """

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if seen & block.primes:
                raise SpecParseError("partition blocks must have disjoint prime sets")
            seen |= block.primes


FormationExpr = Union[Gpi, Nil, NilPow, Sol, Supersoluble, Cross, SolPi]

NIL = Nil()
SOL = Sol()
SUPERSOLUBLE = Supersoluble()


def _format_primeset(primes: frozenset[int]) -> str:
    return "{" + ",".join(map(str, sorted(primes))) + "}"


def format_formation(F: FormationExpr) -> str:
    if isinstance(F, Gpi):
        return "Gpi" + _format_primeset(F.primes)
    if isinstance(F, SolPi):
        return "Spi" + _format_primeset(F.primes)
    if isinstance(F, Nil):
        return "N"
    if isinstance(F, NilPow):
        return f"N^{F.r}"
    if isinstance(F, Sol):
        return "Sol"
    if isinstance(F, Supersoluble):
        return "U"
    if isinstance(F, Cross):
        parts = [
            _format_primeset(block.primes) + (":spi" if isinstance(block, SolPi) else ":gpi")
            for block in sorted(F.blocks, key=lambda b: min(b.primes))
        ]
        return "cross[" + ";".join(parts) + "]"
    raise TypeError(f"not a formation expression: {F!r}")


# at most 12 digits per prime, so that trial division stays well under a second
_PRIMESET_RE = re.compile(r"\{\s*(\d{1,12}(?:\s*,\s*\d{1,12})*)\s*\}")


def _parse_primeset(text: str) -> frozenset[int]:
    m = _PRIMESET_RE.fullmatch(text.strip())
    if not m:
        raise SpecParseError(f"bad prime set {text!r}")
    primes = frozenset(int(tok) for tok in m.group(1).split(","))
    for p in primes:
        if prime_factors(p) != [p]:
            raise SpecParseError(f"{p} is not prime")
    return primes


_BLOCK_KINDS = {"gpi": Gpi, "spi": SolPi}


def _parse_block(text: str) -> Block:
    """One block of a ``cross[...]`` or a partition: ``{..}`` with an optional
    ``:gpi`` (the default, all pi-groups) or ``:spi`` (soluble pi-groups)."""
    primes_text, colon, kind = text.partition(":")
    kind = kind.strip() if colon else "gpi"
    if kind not in _BLOCK_KINDS:
        raise SpecParseError(f"unknown block kind {kind!r}")
    return _BLOCK_KINDS[kind](_parse_primeset(primes_text))


def parse_formation(text: str) -> FormationExpr:
    text = text.strip()
    if text == "N":
        return NIL
    if text == "Sol":
        return SOL
    if text == "U":
        return SUPERSOLUBLE
    if text.startswith("N^"):
        try:
            r = int(text[2:])
        except ValueError as exc:
            raise SpecParseError(f"bad class expression {text!r}") from exc
        if r < 1:
            raise SpecParseError("N^r needs r >= 1")
        return NilPow(r)
    if text.startswith(("Gpi{", "Spi{")) and text.endswith("}"):
        return (Gpi if text[0] == "G" else SolPi)(_parse_primeset(text[3:]))
    if text.startswith("cross[") and text.endswith("]"):
        body = text[6:-1].strip()
        return Cross(tuple(_parse_block(part) for part in body.split(";")) if body else ())
    raise SpecParseError(f"unrecognised class expression {text!r}")


def formation_key(F: FormationExpr) -> FormationExpr:
    """The memo key of a class expression: the frozen expression itself."""
    return F


def pi_support(F: FormationExpr) -> frozenset[int] | None:
    """Primes of the class; None means "all primes"."""
    if isinstance(F, (Gpi, SolPi)):
        return F.primes
    return None


def partition_blocks_for(F: Cross | Nil, primes: list[int]) -> list[Block]:
    """The blocks meeting the given primes, each unlisted prime p as ``Gpi({p})``."""
    out: list[Block] = []
    remaining = set(primes)
    if isinstance(F, Cross):
        for block in F.blocks:
            if block.primes & remaining:
                out.append(block)
                remaining -= block.primes
    out += (Gpi(frozenset([p])) for p in sorted(remaining))
    return out


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def formation_member(F: FormationExpr, X: Group | SubgroupRef) -> bool:
    """Membership test for the catalog classes, memoised per ambient group, class and mask.

    This is the one rule per class for every caller: the counting test for
    ``N``; the iterated lower-central limit for ``N^r``; the derived series for
    ``Sol``; Huppert's criterion for ``U`` (supersoluble iff every maximal
    subgroup has prime index, read off the subgroup lattice); the primes of
    the order for ``Gpi``, and for ``Spi`` the derived series too unless
    the order has at most two primes (Burnside's p^a q^b theorem);
    pi-element counts for cross products, each part then decided by its
    block's rule.
    """
    return _memoised("member", F, as_ref(X), _member_ref)


def member_bits(F: FormationExpr, lat: SubgroupLattice, inside: int) -> int:
    """The bitmask of the lattice indices in ``inside`` whose subgroups belong
    to F, decided as :func:`formation_member` decides them, through its memo."""
    out = 0
    for i in bits(inside):
        out |= _memoised("member", F, lat.refs[i], _member_ref) << i
    return out


def _memoised(kind: str, F: FormationExpr, X: SubgroupRef, decide: Callable) -> Any:
    """``decide(F, X)``, memoised on the ambient group per decision kind, class and mask."""
    memo = X.ambient._class_memo.setdefault((kind, F), {})
    value = memo.get(X.mask)
    if value is None:
        value = memo[X.mask] = decide(F, X)
    return value


def _member_ref(F: FormationExpr, X: SubgroupRef) -> bool:
    if isinstance(F, Gpi):
        return all(p in F.primes for p in prime_factors(X.order))
    if isinstance(F, SolPi):
        primes = prime_factors(X.order)
        if any(p not in F.primes for p in primes):
            return False
        return len(primes) <= 2 or is_soluble(X)
    if isinstance(F, Nil):
        return is_nilpotent(X)
    if isinstance(F, Sol):
        return is_soluble(X)
    if isinstance(F, NilPow):
        return residual_mask(F, X).bit_count() == 1
    if isinstance(F, Supersoluble):
        return not _non_prime_index_maximals(X)
    if isinstance(F, Cross):
        return _cross_member_ref(F, X)
    raise TypeError(f"not a formation expression: {F!r}")


def _non_prime_index_maximals(X: SubgroupRef) -> list[int]:
    """Masks of the maximal subgroups of X whose index is not prime."""
    indices = {M.mask: X.order // M.order for M in maximal_subgroups(X)}
    return [m for m, index in indices.items() if prime_factors(index) != [index]]


def _cross_member_ref(F: Cross, X: SubgroupRef) -> bool:
    """X is the direct product of its O_pi parts over the partition blocks,
    each part in its block's class.

    Counting test: for each block pi, the pi-elements of X (the identity
    included) must number |X|_pi and be closed under multiplication.  They
    then form a normal Hall pi-subgroup, which is O_pi(X), and these parts of
    coprime orders multiply to X; conversely each pi-element of such a
    product lies in its pi-part.  Each part is then decided by its block's
    own rule.  The pi-elements are the solutions of x^(|X|_pi) = 1, so by the
    solved Frobenius conjecture (Iiyori and Yamaki, 1991) the count alone
    implies closure; closure is checked directly anyway, one
    ``closure_mask`` per block.  The O_pi construction this replaced is
    ``tests/oracles.py::cross_member_by_o_pi``.
    """
    order = X.order
    primes = prime_factors(order)
    blocks = partition_blocks_for(F, primes)
    if len(blocks) == 1:
        return formation_member(blocks[0], X)
    parts = []
    for block in blocks:
        pi = block.primes.intersection(primes)
        mask = pi_element_mask(X, pi)
        if mask.bit_count() != prod(p_part(order, p) for p in pi):
            return False
        parts.append((block, mask))
    G = X.ambient
    for block, mask in parts:
        if closure_mask(G, bits(mask), stop_above=mask.bit_count()) != mask:
            return False
        if not formation_member(block, subgroup_from_mask(G, mask)):
            return False
    return True


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def formation_residual(F: FormationExpr, X: Group | SubgroupRef) -> SubgroupRef:
    """Smallest normal subgroup with quotient in the class: the residual oracle.

    Computed as the intersection of all normal subgroups with member quotient;
    the quotient by the result is then re-verified to lie in the class.
    :func:`residual_mask` is the fast path and is tested against this one.
    """
    X = as_ref(X)
    G = X.ambient
    result = X.mask
    for m in normal_subgroup_masks(X):
        if _quotient_member(F, X, m):
            result &= m
    out = subgroup_from_mask(G, result)
    if not _quotient_member(F, X, result):
        raise InternalCheckFailure(
            f"residual verification failed for {format_formation(F)}"
        )
    return out


def _quotient_member(F: FormationExpr, X: SubgroupRef, normal_mask: int) -> bool:
    """Whether the section X / (subgroup with this mask) lies in the class."""
    if normal_mask == X.mask:
        return True  # trivial quotient is in every catalog class
    G = X.ambient
    coset_of, reps = right_cosets(G, X.mask, normal_mask)
    return formation_member(F, coset_group(G, coset_of, reps, X.gen_idxs))


def _iterated_nil_residual(X: SubgroupRef, r: int) -> int:
    """Mask of the N^r-residual: the memoised lower-central limit iterated r times.

    The iteration stops early at a fixed point: the unit group, or a perfect
    subgroup when X is not soluble.
    """
    ref = X
    for _ in range(r):
        mask = residual_mask(NIL, ref)
        if mask == ref.mask:
            break
        ref = subgroup_from_mask(X.ambient, mask)
    return ref.mask


def _nil_residual(X: SubgroupRef) -> int:
    """Mask of the lower-central-series limit of X: [X, X], [X, X, X], ...
    down to the stable term."""
    current = X
    while True:
        nxt = commutator_subgroup(current, X)
        if nxt.mask == current.mask:
            return current.mask
        current = nxt


def _supersoluble_residual(X: SubgroupRef) -> int:
    """Mask of the U-residual: by Huppert's criterion X/N is supersoluble iff N
    lies in no maximal subgroup of X of non-prime index, so the residual is the
    meet of the normal subgroups of X that lie in none of them."""
    bad = _non_prime_index_maximals(X)
    if not bad:
        return 1 << X.ambient.identity_idx
    mask = X.mask
    for m in normal_subgroup_masks(X):
        if all(m & ~b for b in bad):
            mask &= m
    return mask


def _cross_residual(F: Cross, X: SubgroupRef) -> int:
    """Mask of the cross residual: the join of the block residuals of the A_i.

    A_i = O^{pi_i'}(X) is generated by the pi_i-elements of X.  X/N lies in
    the cross class iff every A_iN/N lies in its block's class: the A_iN/N
    are normal, of coprime orders and generate X/N, so X/N is their direct
    product.  A_iN/N is A_i/(A_i meet N), so it lies in the class iff N
    contains the block residual R_i of A_i; each R_i is characteristic in
    A_i and so normal in X, and the residual is the closure of their union.
    """
    primes = prime_factors(X.order)
    pieces = 0
    for block in partition_blocks_for(F, primes):
        outside = [p for p in primes if p not in block.primes]
        pieces |= residual_mask(block, o_pi_up(X, outside) if outside else X)
    return closure_mask(X.ambient, list(bits(pieces)))


def residual_mask(F: FormationExpr, X: Group | SubgroupRef) -> int:
    """The residual's fast path, at index level, memoised per ambient group, class and mask.

    Cross-checked against :func:`formation_residual` by the test suite.
    """
    return _memoised("residual", F, as_ref(X), _residual_ref)


def _residual_ref(F: FormationExpr, X: SubgroupRef) -> int:
    G = X.ambient
    if isinstance(F, Gpi):
        return o_pi_up(X, F.primes).mask
    if isinstance(F, SolPi):
        piece = o_pi_up(X, F.primes).mask | derived_series(X)[-1].mask
        return closure_mask(G, list(bits(piece)))
    if isinstance(F, Nil):
        return _nil_residual(X)
    if isinstance(F, NilPow):
        return _iterated_nil_residual(X, F.r)
    if isinstance(F, Sol):
        return derived_series(X)[-1].mask
    if isinstance(F, Cross):
        return _cross_residual(F, X)
    if isinstance(F, Supersoluble):
        return _supersoluble_residual(X)
    raise TypeError(f"not a formation expression: {F!r}")


# ---------------------------------------------------------------------------
# Local membership and the boundary search
# ---------------------------------------------------------------------------


def supports_local_definition(F: FormationExpr) -> bool:
    if isinstance(F, (Nil, Supersoluble)):
        return True
    if isinstance(F, Cross):
        return all(isinstance(block, Gpi) for block in F.blocks)
    return False


def local_def_member(
    F: FormationExpr, p: int, X: Group | SubgroupRef, floor: SubgroupRef | None = None
) -> bool:
    """Membership of X, or of the section X/floor for an X-normal floor, in
    the canonical local class at the prime p.

    Supported: nilpotent (p-groups), all-pi cross products (block pi-groups),
    supersoluble (X / O_p(X) abelian of exponent dividing p - 1).  A section
    is decided in the ambient group: for U, with P the preimage of
    O_p(X/floor), each generator's (p-1)-th power and each commutator of two
    generators must lie in P.  The quotient-built test this replaced is
    ``tests/oracles.py::local_def_member_by_quotient``.
    """
    if not supports_local_definition(F):
        raise LocalDefinitionUnavailable(
            f"local definition unavailable for {format_formation(F)}"
        )
    X = as_ref(X)
    if isinstance(F, (Nil, Cross)):
        block = partition_blocks_for(F, [p])[0].primes
        index = X.order if floor is None else X.order // floor.order
        return all(q in block for q in prime_factors(index))
    G = X.ambient
    o_p = o_pi(X, [p], floor).mask
    gens = X.gen_idxs
    for x in gens:
        y, row = G.identity_idx, G.table[x]
        for _ in range((p - 1) % G.elt_order(x)):
            y = row[y]  # y * x
        if not (o_p >> y) & 1:
            return False
    return all((o_p >> G.comm(a, b)) & 1 for a_pos, a in enumerate(gens) for b in gens[a_pos + 1:])


def boundary_counterexample_search(
    F: FormationExpr, groups: list[tuple[str, Group]]
) -> list[tuple[str, int]]:
    """Find (group, p) with G outside the class whose maximal subgroups all
    lie in the local class at p.

    The prime p ranges over the primes dividing |G| (larger primes only relax
    the local class further for the supported catalog, and the report is
    corpus-bounded anyway).  Returns (name, p) pairs.
    """
    if not supports_local_definition(F):
        raise LocalDefinitionUnavailable(
            f"local definition unavailable for {format_formation(F)}"
        )
    out = []
    for name, G in groups:
        if G.order == 1 or formation_member(F, G):
            continue
        maxes = maximal_subgroups(G)
        for p in prime_factors(G.order):
            if all(local_def_member(F, p, M) for M in maxes):
                out.append((name, p))
    return out
