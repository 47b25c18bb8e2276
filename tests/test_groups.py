import time

import pytest
from hypothesis import given, settings, strategies as st

import flab.groups as groups_mod
from flab import config
from flab.corpus import build_corpus
from flab.errors import ActionError, CapExceeded, NotNormal, SpecParseError
from flab.groups import (
    Group,
    cyclic,
    dihedral,
    commutator_gens,
    direct_product,
    make_group,
    quaternion8,
    quotient,
    semidirect_product,
    special_linear_2_3,
)
from flab.perms import Permutation
from flab.lattice import all_subgroups
from flab.subgroups import commutator_subgroup, full_subgroup, subgroup_from_idxs

from .oracles import closure, element_order_histogram, elements_of


# -- stabilizer chain ---------------------------------------------------------


@pytest.mark.parametrize(
    "spec,order",
    [
        ("S4", 24),
        ("C6", 6),
        ("SL(2,3)", 24),
        ("Q8", 8),
        ("A5", 60),
        ("S5", 120),
        ("D8", 8),
        ("D4", 4),
        ("E(2^3)", 8),
        ("E(3^2)", 9),
        ("C2 x C6", 12),
        ("C1", 1),
        ("A3", 3),
        ("S2", 2),
    ],
)
def test_make_group_orders(spec, order):
    assert make_group(spec).order == order


def test_chain_order_matches_bruteforce_closure():
    for spec in ("S4", "D12", "Q8", "SL(2,3)", "C2 x S3", "A4"):
        G = make_group(spec)
        assert G.order == len(elements_of(G))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.permutations(range(5)), min_size=1, max_size=3))
def test_chain_order_matches_closure_random_gens(image_lists):
    gens = [Permutation(imgs) for imgs in image_lists]
    G = Group(5, gens)
    assert G.order == len(closure(gens))


def test_membership_via_sifting():
    G = make_group("A4")
    assert Permutation.from_cycles(4, [[0, 1, 2]]) in G
    assert Permutation.from_cycles(4, [[0, 1]]) not in G


def test_elements_cap():
    G = make_group("S5")
    with pytest.raises(CapExceeded):
        G.elements(limit=100)


def test_order_cap():
    with pytest.raises(CapExceeded):
        make_group("C999", order_cap=500)


@pytest.mark.parametrize(
    "spec",
    [
        "C1000003",
        "D4000",
        "S100",
        "A1000",
        "E(170141183460469231731687303715884105727^1)",  # a Mersenne prime
        "S6 x S6 x S6",
        "sd(C1000,C1000,n0->n0)",
        "E(2^9223372036854775808)",
    ],
)
def test_order_cap_refuses_before_building(spec, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("group built or primality tested before the cap check")

    monkeypatch.setattr(groups_mod.Group, "__init__", refuse)
    monkeypatch.setattr(groups_mod, "prime_factors", refuse)
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        make_group(spec)
    assert time.perf_counter() - start < 1.0


def test_perm_degree_cap_refuses_before_allocating(monkeypatch):
    cap = config.PERM_DEGREE_CAP
    assert make_group(f"perm({cap}; ({cap - 1} 0))").order == 2

    def refuse(*args, **kwargs):
        raise AssertionError("points allocated before the degree check")

    monkeypatch.setattr(groups_mod.Permutation, "parse", refuse)
    monkeypatch.setattr(groups_mod.Permutation, "__init__", refuse)
    for spec in (
        f"perm({cap + 1}; (0 1))",
        "perm(100000000000000; (0 1))",
        "C2 x perm(5000; (0 1))",
        "sd(perm(5000; (0 1)),C2,n0->n0)",
    ):
        with pytest.raises(SpecParseError, match="exceeds cap"):
            make_group(spec)


@pytest.mark.parametrize(
    "spec",
    [
        "sd(perm(6; (0 1 2 3 4 5); (0 1)),C2,n0->n0,n1->n1)",
        "sd(C2,perm(6; (0 1 2 3 4 5); (0 1)),n0->n0|n0->n0)",
        "C2 x sd(C3 x perm(5; (0 1 2 3 4); (0 1)),C2,n0->n0,n1->n1)",
    ],
)
def test_order_cap_refuses_perm_factor_before_enumerating(spec, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("elements enumerated before the cap check")

    monkeypatch.setattr(groups_mod.Group, "elements", refuse)
    with pytest.raises(CapExceeded):
        make_group(spec, order_cap=200)


def test_order_read_from_spec_matches_built_order():
    for entry in build_corpus():
        assert groups_mod._order_bound(entry.spec, 10**9) == entry.group.order, entry.spec
    assert groups_mod._order_bound("perm(4; (0,1,2,3)) x C5", 10**9) == 5  # perm counts as 1


# -- index arithmetic ---------------------------------------------------------


def test_mul_table_agrees_with_composition():
    G = make_group("S4")
    elems = G.elements()
    for i in (0, 5, 11, 17, 23):
        for j in (1, 7, 13, 20):
            assert elems[G.mul(i, j)] == elems[i] * elems[j]
            assert G.mul(i, G.inv(i)) == G.identity_idx


def test_conj_row():
    G = make_group("S4")
    elems = G.elements()
    row = G.conj_row(3)
    g = elems[3]
    for x in (0, 4, 9, 15):
        assert elems[row[x]] == elems[x].conjugate(g)


# -- named constructors -------------------------------------------------------


def test_quaternion_has_unique_involution():
    hist = element_order_histogram(quaternion8())
    assert hist == {1: 1, 2: 1, 4: 6}


def test_sl23_structure():
    G = special_linear_2_3()
    hist = element_order_histogram(G)
    # 1 identity, 1 central involution, 8 of order 3, 6 of order 4, 8 of order 6
    assert hist == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


def test_dihedral_relations():
    G = dihedral(20)
    r, s = G.generators
    assert r.order() == 10 and s.order() == 2
    assert s * r * s == r.inverse()


def test_cyclic_reduced_degree():
    G = cyclic(12)
    assert G.degree == 4 + 3
    assert G.order == 12
    assert sorted(p.order() for p in G.elements())[-1] == 12


# -- products -----------------------------------------------------------------


def test_direct_product_degree_and_order():
    A, B = make_group("S3"), make_group("C5")
    P = direct_product(A, B)
    assert P.degree == A.degree + B.degree
    assert P.order == 30


def test_direct_product_with_trivial_factor():
    A = make_group("S4")
    P = direct_product(A, make_group("C1"))
    assert P.order == A.order
    assert element_order_histogram(P) == element_order_histogram(A)


def test_semidirect_inversion_gives_s3():
    G = make_group("sd(C3,C2,n0->n0^-1)")
    assert G.order == 6
    elems = elements_of(G)
    center = [p for p in elems if all(p * q == q * p for q in elems)]
    assert len(center) == 1


def test_semidirect_trivial_action_is_direct_product():
    G = make_group("sd(C3,C2,n0->n0)")
    D = make_group("C3 x C2")
    assert G.order == D.order == 6
    assert element_order_histogram(G) == element_order_histogram(D)


def test_semidirect_q8_c3_is_sl23():
    G = make_group("sd(Q8,C3,n0->n1,n1->n0*n1)")
    assert G.order == 24
    assert element_order_histogram(G) == element_order_histogram(special_linear_2_3())
    # the normal factor embeds as the first generators
    from flab.subgroups import is_normal_in, subgroup_from_idxs

    n_gens = [G.idx_of(g) for g in G.generators[:2]]
    q8 = subgroup_from_idxs(G, n_gens)
    assert q8.order == 8
    assert is_normal_in(q8, full_subgroup(G))


def test_semidirect_conjugation_realises_action():
    N, H = cyclic(5), cyclic(4)
    auto = [[N.generators[0] ** 2]]
    G = semidirect_product(N, H, auto)
    assert G.order == 20
    r = G.generators[0]  # image of the C5 generator
    t = G.generators[1]  # image of the C4 generator
    assert r.conjugate(t) in closure([r])
    assert r.conjugate(t) != r


def test_semidirect_rejects_non_automorphism():
    N, H = cyclic(4), cyclic(2)
    bad = [[N.generators[0] ** 2]]  # x -> x^2 is not injective on C4
    with pytest.raises(ActionError):
        semidirect_product(N, H, bad)


def test_semidirect_rejects_non_homomorphism():
    # C2 cannot act as an order-4 automorphism: x -> x^2 on C5 has order 4
    N, H = cyclic(5), cyclic(2)
    bad = [[N.generators[0] ** 2]]
    with pytest.raises(ActionError):
        semidirect_product(N, H, bad)


# -- quotient -----------------------------------------------------------------


def _v4_in_s4(G):
    idx = G.element_index()
    members = [
        i
        for p, i in idx.items()
        if p.order() == 2 and len(p.cycles()) == 2
    ]
    return subgroup_from_idxs(G, members)


def test_quotient_s4_by_v4_is_s3():
    G = make_group("S4")
    v4 = _v4_in_s4(G)
    qm = quotient(G, v4.mask, v4.gen_idxs)
    Q = qm.group
    assert Q.order == 6
    hist = element_order_histogram(Q)
    assert hist == {1: 1, 2: 3, 3: 2}  # the S3 signature


def test_quotient_by_whole_group_is_trivial():
    G = make_group("S4")
    full = full_subgroup(G)
    qm = quotient(G, full.mask, full.gen_idxs)
    assert qm.group.order == 1


def test_quotient_by_trivial_preserves_structure():
    G = make_group("S4")
    from flab.subgroups import trivial_subgroup

    t = trivial_subgroup(G)
    qm = quotient(G, t.mask, t.gen_idxs)
    assert qm.group.order == 24
    assert element_order_histogram(qm.group) == element_order_histogram(G)


def test_quotient_rejects_non_normal():
    G = make_group("S4")
    idx = G.element_index()
    transposition = next(i for p, i in idx.items() if p.order() == 2 and len(p.cycles()) == 1)
    H = subgroup_from_idxs(G, [transposition])
    with pytest.raises(NotNormal):
        quotient(G, H.mask, H.gen_idxs)


def test_quotient_kernel_is_exactly_n():
    G = make_group("S4")
    v4 = _v4_in_s4(G)
    qm = quotient(G, v4.mask, v4.gen_idxs)
    kernel = [i for i in range(G.order) if qm.image_index(i) == qm.group.identity_idx]
    assert sum(1 << i for i in kernel) == v4.mask


# -- spec parsing -------------------------------------------------------------


def test_parse_roundtrip_stability():
    spec = "sd(C5,C4,n0->n0^2)"
    G1 = make_group(spec)
    G2 = make_group(spec)
    assert G1.order == G2.order == 20
    assert [g.images for g in G1.generators] == [g.images for g in G2.generators]


def test_parse_perm_spec():
    G = make_group("perm(4; (0 1)(2 3); (0 2))")
    assert G.order == 8  # dihedral on 4 points


def test_parse_nested_product():
    G = make_group("C2 x sd(C3,C2,n0->n0^-1)")
    assert G.order == 12
    assert make_group("C2 x C3 x C2").order == 12


def test_parse_errors():
    for bad in ("", "X7", "E(4^2)", "sd(C3,C2)", "C0", "perm(3)", "perm(-1; ())", "sd(C3,C2,n5->n0)"):
        with pytest.raises(SpecParseError):
            make_group(bad)


@pytest.mark.parametrize("spec", ["S4", "SL(2,3)", "D16", "A5"])
def test_chain_commutator_matches_table_commutator(spec):
    # [A, B] for A <= B, grown in a stabilizer chain, against the table kernel
    G = make_group(spec)
    refs = all_subgroups(G).refs
    for B in refs:
        b_gens = [G.perm_at(i) for i in B.gen_idxs]
        for A in refs:
            if not B.contains(A):
                continue
            table = commutator_subgroup(A, B)
            gens, order = commutator_gens([G.perm_at(i) for i in A.gen_idxs], b_gens, G.degree)
            assert order == table.order, (A.order, B.order)
            assert all((table.mask >> G.idx_of(g)) & 1 for g in gens)
