import itertools

import pytest

import flab.formations as formations_mod
from flab.corpus import build_corpus
from flab.errors import LocalDefinitionUnavailable, SpecParseError
from flab.formations import (
    Cross,
    Gpi,
    NIL,
    Nil,
    NilPow,
    SOL,
    SUPERSOLUBLE,
    Sol,
    SolPi,
    Supersoluble,
    boundary_counterexample_search,
    format_formation,
    formation_member,
    formation_residual,
    local_def_member,
    member_bits,
    parse_formation,
    pi_support,
    residual_mask,
    supports_local_definition,
)
from flab.groups import make_group, quotient
from flab.hypercenter import is_f_central_oracle
from flab.lattice import all_subgroups
from flab.series import chief_factors, is_soluble, normal_subgroups
from flab.subgroups import bits, full_subgroup, subgroup_from_mask

from .oracles import (
    elements_of,
    factor_action_product_by_permutations,
    is_nilpotent_bf,
    is_supersoluble_bf,
    local_def_member_by_quotient,
)


CROSS_235 = parse_formation("cross[{2,3}:gpi;{5}:gpi]")


# -- expressions --------------------------------------------------------------


def test_parse_format_roundtrip():
    # one expression of each kind, written as printed (cross blocks ascending)
    for text in ("N", "N^2", "Sol", "U", "Gpi{2,3}", "Spi{2,3}", "cross[{2,3}:gpi;{5}:spi]", "cross[]"):
        F = parse_formation(text)
        assert format_formation(F) == text
        assert parse_formation(format_formation(F)) == F
    assert parse_formation("Spi{2,3}") == SolPi(frozenset({2, 3}))


def test_parse_rejects_bad_expressions():
    for bad in ("X", "N^0", "Gpi{4}", "cross[{2,3}:gpi;{3,5}:gpi]", "Gpi{}"):
        with pytest.raises(SpecParseError):
            parse_formation(bad)


def test_pi_support():
    assert pi_support(Gpi(frozenset({2, 3}))) == {2, 3}
    assert pi_support(NIL) is None
    assert pi_support(CROSS_235) is None


# -- membership ---------------------------------------------------------------


def test_nilpotent_membership_matches_bruteforce():
    for spec in ("Q8", "C12", "S3", "S4", "D8", "D12", "C2 x Q8", "SL(2,3)", "Q8 x C3"):
        G = make_group(spec)
        assert formation_member(NIL, G) == is_nilpotent_bf(elements_of(G))


def test_supersoluble_membership_matches_bruteforce():
    for spec in ("S3", "S4", "A4", "D12", "C30", "Q8", "SL(2,3)", "C5:C4-frob"):
        if spec == "C5:C4-frob":
            G = make_group("sd(C5,C4,n0->n0^2)")
        else:
            G = make_group(spec)
        assert formation_member(SUPERSOLUBLE, G) == is_supersoluble_bf(elements_of(G))


def test_supersoluble_examples():
    assert not formation_member(SUPERSOLUBLE, make_group("S4"))
    assert not formation_member(SUPERSOLUBLE, make_group("A4"))
    assert formation_member(SUPERSOLUBLE, make_group("S3"))
    assert formation_member(SUPERSOLUBLE, make_group("D20"))


def test_gpi_membership():
    F = Gpi(frozenset({2, 3}))
    assert formation_member(F, make_group("S4"))
    assert not formation_member(F, make_group("C5"))
    assert formation_member(F, make_group("C1"))


def test_cross_membership():
    assert formation_member(CROSS_235, make_group("S3 x C5"))
    assert not formation_member(CROSS_235, make_group("sd(C5,C4,n0->n0^2)"))
    assert formation_member(NIL, make_group("Q8 x C3"))
    assert not formation_member(CROSS_235, make_group("A5"))
    # a {2,3,5}-block admits the insoluble A5
    wide = Cross((Gpi(frozenset({2, 3, 5})),))
    assert formation_member(wide, make_group("A5"))
    wide_soluble = Cross((SolPi(frozenset({2, 3, 5})),))
    assert not formation_member(wide_soluble, make_group("A5"))


def test_nilpow_membership():
    assert formation_member(NilPow(1), make_group("Q8"))
    assert not formation_member(NilPow(1), make_group("S3"))
    assert formation_member(NilPow(2), make_group("S3"))
    assert not formation_member(NilPow(2), make_group("S4"))
    assert formation_member(NilPow(3), make_group("S4"))
    assert not formation_member(NilPow(3), make_group("A5"))


def test_sol_membership():
    assert formation_member(SOL, make_group("S4"))
    assert not formation_member(SOL, make_group("A5"))


def test_solpi_membership():
    F = SolPi(frozenset({2, 3}))
    assert formation_member(F, make_group("S4"))
    assert not formation_member(F, make_group("C5"))
    assert not formation_member(F, make_group("S3 x C5"))
    assert not formation_member(SolPi(frozenset({2, 3, 5})), make_group("A5"))


# -- the oracle products of non-abelian chief factors --------------------------

_LARGE_CLASSES = (
    Gpi(frozenset({2, 3})),
    SolPi(frozenset({2, 3})),
    SOL,
    NIL,
    NilPow(2),
    NilPow(3),
    SUPERSOLUBLE,
    parse_formation("cross[{2,3}:gpi]"),
)
_WIDE_CLASSES = (
    Gpi(frozenset({2, 3, 5})),
    NilPow(10**9),
    parse_formation("cross[{2,3};{5}]"),
    parse_formation("cross[{2,3,5}:gpi]"),
    parse_formation("cross[{2,3,5}:spi]"),
    parse_formation("cross[{2,3,5};{7}:spi]"),
    parse_formation("cross[{2,3}:spi;{5}]"),
    parse_formation("cross[]"),
)


def test_non_abelian_factor_oracle_matches_product_membership():
    # the oracle decides a non-abelian factor's product without building it;
    # here the permutation-built product (orders 3600 and 7200) is enumerated
    # and decided exactly, except that a soluble class is decided by the
    # product's insolubility (U's lattice on S5's product is over budget)
    orders = []
    for spec in ("A5", "S5"):
        G = make_group(spec)
        for factor in chief_factors(G):
            if len(factor.primes()) == 1:
                continue
            W = factor_action_product_by_permutations(G, factor)
            orders.append(len(W.elements(limit=7200)))
            assert not is_soluble(W)
            for F in _LARGE_CLASSES + _WIDE_CLASSES:
                soluble_class = isinstance(F, (SolPi, Sol, Nil, NilPow, Supersoluble))
                expected = not soluble_class and formation_member(F, W)
                verdict = is_f_central_oracle(F, G, factor)
                assert verdict.product_order == W.order
                assert verdict.central is expected, (spec, format_formation(F))
    assert orders == [3600, 7200]


# -- closure properties (corpus-tested) ----------------------------------------


_SMALL_SPECS = ("S3", "S4", "Q8", "A4", "D12", "C12", "SL(2,3)", "C2 x C6")
_CATALOG = (NIL, SUPERSOLUBLE, Gpi(frozenset({2, 3})), CROSS_235, SOL, NilPow(2))


@pytest.mark.parametrize("F", _CATALOG, ids=format_formation)
def test_quotient_closure(F):
    for spec in _SMALL_SPECS:
        G = make_group(spec)
        if not formation_member(F, G):
            continue
        for N in normal_subgroups(G):
            qm = quotient(G, N.mask, N.gen_idxs)
            assert formation_member(F, qm.group), (spec, N.order)


@pytest.mark.parametrize("F", _CATALOG, ids=format_formation)
def test_intersection_closure(F):
    # G/A, G/B members implies G/(A cap B) member
    for spec in _SMALL_SPECS:
        G = make_group(spec)
        normals = normal_subgroups(G)
        member = {}
        for N in normals:
            qm = quotient(G, N.mask, N.gen_idxs)
            member[N.mask] = formation_member(F, qm.group)
        for A, B in itertools.combinations(normals, 2):
            if member[A.mask] and member[B.mask]:
                cap = subgroup_from_mask(G, A.mask & B.mask)
                qm = quotient(G, cap.mask, cap.gen_idxs)
                assert formation_member(F, qm.group), (spec, A.order, B.order)


@pytest.mark.parametrize("F", _CATALOG, ids=format_formation)
def test_hereditary(F):
    for spec in _SMALL_SPECS:
        G = make_group(spec)
        if not formation_member(F, G):
            continue
        for H in all_subgroups(G).refs:
            assert formation_member(F, H), (spec, H.order)


@pytest.mark.parametrize("F", _CATALOG, ids=format_formation)
def test_saturation(F):
    from flab.lattice import frattini

    for spec in _SMALL_SPECS:
        G = make_group(spec)
        phi = frattini(G)
        qm = quotient(G, phi.mask, phi.gen_idxs)
        if formation_member(F, qm.group):
            assert formation_member(F, G), spec


# -- residuals ----------------------------------------------------------------


def test_residual_examples():
    s3 = make_group("S3")
    assert formation_residual(NIL, s3).order == 3
    s4 = make_group("S4")
    assert formation_residual(SUPERSOLUBLE, s4).order == 4
    assert formation_residual(NIL, make_group("Q8")).order == 1
    assert formation_residual(SOL, make_group("A5")).order == 60


def test_member_iff_trivial_residual():
    for spec in _SMALL_SPECS:
        G = make_group(spec)
        for F in _CATALOG:
            assert (formation_residual(F, G).order == 1) == formation_member(F, G)


# cross classes with soluble-kind blocks and with no listed block
_CROSS_EXTRA = (
    parse_formation("cross[{2,5}:spi;{3,7}]"),
    parse_formation("cross[{2,3,5}:spi]"),
    parse_formation("cross[]"),
)


def test_fast_residual_agrees_with_normal_scan():
    specs = _SMALL_SPECS + (
        "D20",
        "S3 x C5",
        "A5",
        "sd(C5,C4,n0->n0^2)",
        "sd(C7,C6,n0->n0^3)",
        "A4 x A4",  # two classes of maximal subgroups of index 4, and a normal subgroup in one only
    )
    for spec in specs:
        G = make_group(spec)
        full = full_subgroup(G)
        for F in _CATALOG + _CROSS_EXTRA + (SolPi(frozenset({2, 3})), Gpi(frozenset({5})), NilPow(1), NilPow(3)):
            assert residual_mask(F, full) == formation_residual(F, G).mask, (spec, format_formation(F))


def test_residual_on_subgroups():
    for spec in ("S4", "A5"):
        for ref in all_subgroups(make_group(spec)).refs:
            for F in (NIL, SUPERSOLUBLE, CROSS_235) + _CROSS_EXTRA:
                assert residual_mask(F, ref) == formation_residual(F, ref).mask, (spec, ref.order, format_formation(F))


def test_fast_residual_agrees_with_oracle_on_corpus():
    # the lemma check reads residual_mask, so the quotient-based oracle is compared here
    for entry in build_corpus(120):
        G = entry.group
        for F in (NIL, SUPERSOLUBLE, Gpi(frozenset({2, 3})), NilPow(2), CROSS_235) + _CROSS_EXTRA:
            assert residual_mask(F, G) == formation_residual(F, G).mask, (entry.name, format_formation(F))


# -- local definitions ----------------------------------------------------------


def test_local_membership_nil():
    assert local_def_member(NIL, 2, make_group("C2"))
    assert not local_def_member(NIL, 2, make_group("C3"))
    assert local_def_member(NIL, 3, make_group("E(3^2)"))


def test_local_membership_cross():
    F = CROSS_235
    assert local_def_member(F, 2, make_group("S3"))
    assert local_def_member(F, 3, make_group("S3"))
    assert not local_def_member(F, 5, make_group("S3"))
    assert local_def_member(F, 5, make_group("C5"))
    assert local_def_member(F, 7, make_group("C7"))
    assert not local_def_member(F, 7, make_group("C14"))


def test_local_membership_supersoluble():
    # V4 at p=3: the quotient by its 3-radical is abelian of exponent 2 | 3-1
    assert local_def_member(SUPERSOLUBLE, 3, make_group("E(2^2)"))
    assert not local_def_member(SUPERSOLUBLE, 2, make_group("C3"))
    assert local_def_member(SUPERSOLUBLE, 2, make_group("Q8"))
    assert local_def_member(SUPERSOLUBLE, 3, make_group("C3"))
    # S3 is nonabelian with trivial 7-radical, but its Sylow subgroups do lie
    # in the local class at 7 (cyclic of exponent dividing 6)
    assert not local_def_member(SUPERSOLUBLE, 7, make_group("S3"))
    assert local_def_member(SUPERSOLUBLE, 7, make_group("C6"))
    assert local_def_member(SUPERSOLUBLE, 7, make_group("C2"))
    assert local_def_member(SUPERSOLUBLE, 7, make_group("C3"))
    assert not local_def_member(SUPERSOLUBLE, 5, make_group("C6"))
    assert not local_def_member(SUPERSOLUBLE, 7, make_group("Q8"))


def test_local_integrated():
    # members of the local class at p are members of the parent class
    for F in (NIL, CROSS_235, SUPERSOLUBLE):
        for spec in _SMALL_SPECS:
            G = make_group(spec)
            from flab.subgroups import prime_factors

            for p in prime_factors(G.order):
                if local_def_member(F, p, G):
                    assert formation_member(F, G), (format_formation(F), spec, p)


def test_local_full():
    # the local class at p is closed under adjoining a normal p-radical:
    # membership of G is equivalent to membership of G / O_p(G)
    from flab.subgroups import o_pi, gens_for_mask, prime_factors

    for F in (NIL, CROSS_235, SUPERSOLUBLE):
        for spec in _SMALL_SPECS:
            G = make_group(spec)
            for p in prime_factors(G.order):
                op = o_pi(G, [p])
                qm = quotient(G, op.mask, op.gen_idxs)
                assert local_def_member(F, p, G) == local_def_member(F, p, qm.group)


def test_local_def_member_agrees_with_quotient_oracle_on_subgroups():
    from flab.subgroups import prime_factors

    for entry in build_corpus(60):
        G = entry.group
        primes = prime_factors(G.order)
        for X in all_subgroups(G).refs:
            for F in (NIL, SUPERSOLUBLE, CROSS_235):
                for p in primes:
                    expected = local_def_member_by_quotient(F, p, X)
                    assert local_def_member(F, p, X) == expected, (entry.name, X.order, format_formation(F), p)


def test_local_unavailable():
    with pytest.raises(LocalDefinitionUnavailable):
        local_def_member(NilPow(2), 2, make_group("S3"))
    with pytest.raises(LocalDefinitionUnavailable):
        local_def_member(SOL, 2, make_group("S3"))
    assert not supports_local_definition(parse_formation("cross[{2,3}:spi]"))
    assert supports_local_definition(CROSS_235)


# -- boundary search ------------------------------------------------------------


def test_boundary_search_finds_a4_at_3():
    groups = [(s, make_group(s)) for s in ("C6", "S3", "A4", "S4", "Q8", "D12")]
    found = boundary_counterexample_search(SUPERSOLUBLE, groups)
    assert ("A4", 3) in found
    # A4 is the only witness among these, and only at p=3
    assert found == [("A4", 3)]


def test_boundary_search_nil_small():
    groups = [(s, make_group(s)) for s in ("S3", "S4", "A4", "Q8", "C6", "D8", "C12", "SL(2,3)")]
    assert boundary_counterexample_search(NIL, groups) == []


@pytest.mark.parametrize("expr", ["N", "U", "Gpi{2,3}"])
def test_member_bits_agrees_with_formation_member(expr, monkeypatch):
    F = parse_formation(expr)
    for spec in ("S4", "SL(2,3)", "A5", "C3 x S3", "D20", "sd(C7,C3,n0->n0^2)"):
        # decided cold by each route, on two copies of the group
        lat = all_subgroups(make_group(spec))
        other = all_subgroups(make_group(spec))
        for X in (lat.refs[-1], lat.refs[len(lat) // 2]):
            inside = lat.sub_rows[lat.index_of(X)]
            expected = sum(1 << i for i in bits(inside) if formation_member(F, other.refs[i]))
            assert member_bits(F, lat, inside) == expected, (spec, expr, X.order)
        # and warm: every member decided above is read back from the one memo
        full = lat.sub_rows[-1]
        with monkeypatch.context() as m:
            m.setattr(formations_mod, "_member_ref", None)
            assert member_bits(F, lat, full) == sum(
                1 << i for i in bits(full) if formation_member(F, lat.refs[i])
            )
