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
from typing import Any, Callable, Sequence, Union

from . import config
from .errors import (
    CapExceeded,
    InternalCheckFailure,
    LocalDefinitionUnavailable,
    SpecParseError,
)
from .groups import Group, commutator_gens, quotient
from .lattice import maximal_subgroups
from .perms import Permutation
from .series import derived_series, is_nilpotent, is_soluble
from .subgroups import (
    SubgroupRef,
    as_ref,
    bits,
    closure_mask,
    commutator_subgroup,
    gens_for_mask,
    normal_subgroup_masks,
    o_pi,
    o_pi_up,
    p_part,
    pi_elements,
    prime_factors,
    subgroup_from_mask,
    subgroup_to_group,
    translate_mask,
)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gpi:
    """All pi-groups for an explicit finite prime set."""

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
    """All soluble pi-groups (block kind; also usable standalone in probes)."""

    primes: frozenset[int]


@dataclass(frozen=True)
class CrossBlock:
    primes: frozenset[int]
    soluble: bool  # True: soluble pi-groups in this block; False: all pi-groups


@dataclass(frozen=True)
class Cross:
    """Direct products over a prime partition: G = product of its O_pi parts.

    Primes not covered by a listed block act as implicit singleton blocks of
    all-pi-group kind.
    """

    blocks: tuple[CrossBlock, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if seen & block.primes:
                raise SpecParseError("cross blocks must have disjoint prime sets")
            seen |= block.primes


FormationExpr = Union[Gpi, Nil, NilPow, Sol, Supersoluble, Cross, SolPi]

NIL = Nil()
SOL = Sol()
SUPERSOLUBLE = Supersoluble()


def format_formation(F: FormationExpr) -> str:
    if isinstance(F, Gpi):
        return "Gpi{" + ",".join(map(str, sorted(F.primes))) + "}"
    if isinstance(F, SolPi):
        return "Spi{" + ",".join(map(str, sorted(F.primes))) + "}"
    if isinstance(F, Nil):
        return "N"
    if isinstance(F, NilPow):
        return f"N^{F.r}"
    if isinstance(F, Sol):
        return "Sol"
    if isinstance(F, Supersoluble):
        return "U"
    if isinstance(F, Cross):
        parts = []
        for block in sorted(F.blocks, key=lambda b: min(b.primes)):
            primes = "{" + ",".join(map(str, sorted(block.primes))) + "}"
            parts.append(primes + (":spi" if block.soluble else ":gpi"))
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
    if text.startswith("Gpi{") and text.endswith("}"):
        return Gpi(_parse_primeset(text[3:]))
    if text.startswith("cross[") and text.endswith("]"):
        body = text[6:-1].strip()
        blocks = []
        if body:
            for part in body.split(";"):
                part = part.strip()
                primes_text, colon, kind = part.partition(":")
                kind = kind.strip() if colon else "gpi"
                if kind not in ("gpi", "spi"):
                    raise SpecParseError(f"unknown block kind {kind!r}")
                blocks.append(CrossBlock(_parse_primeset(primes_text), kind == "spi"))
        return Cross(tuple(blocks))
    raise SpecParseError(f"unrecognised class expression {text!r}")


def formation_key(F: FormationExpr) -> FormationExpr:
    """The memo key of a class expression: the frozen expression itself."""
    return F


def pi_support(F: FormationExpr) -> frozenset[int] | None:
    """Primes of the class; None means "all primes"."""
    if isinstance(F, (Gpi, SolPi)):
        return F.primes
    return None


def cross_block_primes(F: Cross | Nil, p: int) -> frozenset[int]:
    """The block of the partition containing p (implicit singleton if unlisted)."""
    if isinstance(F, Cross):
        for block in F.blocks:
            if p in block.primes:
                return block.primes
    return frozenset([p])


def partition_blocks_for(F: Cross | Nil, primes: list[int]) -> list[tuple[frozenset[int], bool]]:
    """The blocks (with kinds) meeting the given primes, implicit singletons included."""
    out: list[tuple[frozenset[int], bool]] = []
    remaining = set(primes)
    if isinstance(F, Cross):
        for block in F.blocks:
            if block.primes & remaining:
                out.append((block.primes, block.soluble))
                remaining -= block.primes
    for p in sorted(remaining):
        out.append((frozenset([p]), False))
    return out


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def _burnside_small(primes: frozenset[int]) -> bool:
    # every {p,q}-group is soluble, so insoluble members need >= 3 block primes
    return len(primes) <= 2


def formation_member(F: FormationExpr, X: Group | SubgroupRef) -> bool:
    """Membership test for the catalog classes, memoised per ambient group, class and mask.

    This is the one rule per class for every caller: the counting test for
    ``N``; the iterated lower-central limit for ``N^r``; the derived series for
    ``Sol``; Huppert's criterion for ``U`` (supersoluble iff every maximal
    subgroup has prime index, read off the subgroup lattice); pi-element
    counts for cross products.
    """
    if isinstance(X, Group) and X.order > config.ELEMENT_CAP:
        return _member_large_group(F, X)
    return _memoised("member", F, as_ref(X), _member_ref)


def _memoised(kind: str, F: FormationExpr, X: SubgroupRef, decide: Callable) -> Any:
    """``decide(F, X)``, memoised on the ambient group per decision kind, class and mask."""
    memos = X.ambient._class_memo
    memo = memos.get((kind, F))
    if memo is None:
        memo = memos[(kind, F)] = {}
    value = memo.get(X.mask)
    if value is None:
        value = memo[X.mask] = decide(F, X)
    return value


def _member_large_group(F: FormationExpr, G: Group) -> bool:
    """Membership without element enumeration (chain-based), where possible.

    Solubility and ``N^r`` are read from :func:`_chain_series_end`; ``U`` and
    cross classes are decided only when G is insoluble and a non-member.
    """
    if isinstance(F, Gpi):
        return all(p in F.primes for p in prime_factors(G.order))
    if isinstance(F, SolPi):
        return all(p in F.primes for p in prime_factors(G.order)) and _soluble_by_chain(G)
    if isinstance(F, Sol):
        return _soluble_by_chain(G)
    if isinstance(F, (Nil, NilPow)):
        gens = list(G.generators)
        for _ in range(F.r if isinstance(F, NilPow) else 1):
            gens = _chain_series_end(gens, G.degree, derived=False)
        return not gens
    if isinstance(F, Supersoluble):
        if not _soluble_by_chain(G):
            return False
        raise CapExceeded(
            f"supersolubility test needs element enumeration; order {G.order}"
        )
    if isinstance(F, Cross):
        relevant = partition_blocks_for(F, prime_factors(G.order))
        if all(_burnside_small(primes) for primes, _ in relevant):
            if not _soluble_by_chain(G):
                return False
        raise CapExceeded(f"cross membership needs element enumeration; order {G.order}")
    raise TypeError(f"not a formation expression: {F!r}")


def _soluble_by_chain(G: Group) -> bool:
    return not _chain_series_end(G.generators, G.degree, derived=True)


def _chain_series_end(gens: Sequence[Permutation], degree: int, derived: bool) -> list[Permutation]:
    """Generators of the last term of the derived series of <gens>, or of its
    lower central series when ``derived`` is false, from stabilizer chains.

    Each term is ``commutator_gens`` of the one before with itself (derived)
    or with the whole group (lower central); the walk stops at the first term
    whose order equals that of the term before.  The first term is always
    taken, so a perfect group costs one more step and no chain of <gens> is
    built.  The list is empty exactly when the last term is trivial.
    """
    current, order = list(gens), None
    while True:
        nxt, nxt_order = commutator_gens(current, current if derived else gens, degree)
        if nxt_order == order:
            return current
        current, order = nxt, nxt_order


def _member_ref(F: FormationExpr, X: SubgroupRef) -> bool:
    if isinstance(F, Gpi):
        return all(p in F.primes for p in prime_factors(X.order))
    if isinstance(F, SolPi):
        if any(p not in F.primes for p in prime_factors(X.order)):
            return False
        return is_soluble(X)
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
    """X is the direct product of its O_pi parts over the partition blocks.

    Counting test: for each block pi, the pi-elements of X (the identity
    included) must number |X|_pi and be closed under multiplication.  They
    then form a normal Hall pi-subgroup, which is O_pi(X), and these parts of
    coprime orders multiply to X; conversely each pi-element of such a
    product lies in its pi-part.  A soluble block also needs its part
    soluble.  The pi-elements are the solutions of x^(|X|_pi) = 1, so by the
    solved Frobenius conjecture (Iiyori and Yamaki, 1991) the count alone
    implies closure; closure is checked directly anyway, one
    ``closure_mask`` per block.  The O_pi construction this replaced is
    ``tests/oracles.py::cross_member_by_o_pi``.
    """
    order = X.order
    primes = prime_factors(order)
    blocks = partition_blocks_for(F, primes)
    if len(blocks) == 1:
        [(pi, soluble)] = blocks
        return not soluble or _burnside_small(pi.intersection(primes)) or is_soluble(X)
    parts = []
    for pi, soluble in blocks:
        pi = pi.intersection(primes)
        elements = pi_elements(X, pi)
        if len(elements) != prod(p_part(order, p) for p in pi):
            return False
        parts.append((elements, soluble and not _burnside_small(pi)))
    G = X.ambient
    for elements, check_soluble in parts:
        mask = 0
        for x in elements:
            mask |= 1 << x
        if closure_mask(G, elements, stop_above=len(elements)) != mask:
            return False
        if check_soluble and not is_soluble(subgroup_from_mask(G, mask)):
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
    """Whether X / (subgroup with this mask) lies in the class."""
    if normal_mask == X.mask:
        return True  # trivial quotient is in every catalog class
    sub = subgroup_to_group(X)
    sub_mask = translate_mask(X, normal_mask)
    qm = quotient(sub, sub_mask, gens_for_mask(sub, sub_mask))
    return formation_member(F, qm.group)


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
        # residual of an intersection of formations is the join of residuals;
        # each block contributes O^pi(O^pi'(X)) * O^pi'(O^pi(X)) (plus the
        # solubility residual of the pi-part for soluble-kind blocks)
        pieces = 0
        for primes, soluble in partition_blocks_for(F, prime_factors(X.order)):
            complement = frozenset(p for p in prime_factors(X.order) if p not in primes)
            a_ref = o_pi_up(X, complement)  # <pi-elements>
            b_ref = o_pi_up(X, primes)  # <pi'-elements>
            pieces |= o_pi_up(a_ref, primes).mask
            pieces |= o_pi_up(b_ref, complement).mask
            if soluble:
                pieces |= derived_series(a_ref)[-1].mask
        return closure_mask(G, list(bits(pieces)))
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
        return all(not block.soluble for block in F.blocks)
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
        block = cross_block_primes(F, p)
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
    F: FormationExpr,
    universe: frozenset[int] | None,
    groups: list[tuple[str, Group]],
) -> list[tuple[str, int]]:
    """Find (group, p) with G a universe-group outside the class whose maximal
    subgroups all lie in the local class at p.

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
        primes = prime_factors(G.order)
        if universe is not None and any(p not in universe for p in primes):
            continue
        if G.order == 1 or formation_member(F, G):
            continue
        maxes = maximal_subgroups(G)
        for p in primes:
            if all(local_def_member(F, p, M) for M in maxes):
                out.append((name, p))
    return out
