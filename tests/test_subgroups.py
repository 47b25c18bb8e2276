import pytest

from flab.errors import NotASubgroup
from flab.groups import make_group
from flab.lattice import cyclic_primary_subgroups, sylow_subgroups
from flab.subgroups import (
    bits,
    centralizer,
    centralizer_of_factor,
    closure_mask,
    commutator_subgroup,
    core,
    full_subgroup,
    is_normal_in,
    normal_subgroup_masks,
    normalizer,
    o_pi,
    o_pi_up,
    o_pp,
    prime_factors,
    product_mask,
    subgroup_from_idxs,
    subgroup_from_mask,
    trivial_subgroup,
)

from flab.lattice import all_subgroups

from .oracles import (
    centralizer_bf,
    commutator_bf,
    commutator_subgroup_by_all_pairs,
    core_bf,
    elements_of,
    normal_subgroup_masks_by_classes,
    normalizer_bf,
    o_pi_by_join,
    o_pi_up_by_normal_subgroups,
    o_pp_by_quotient,
    product_mask_by_pairs,
)


def _ref_to_set(ref):
    elems = ref.ambient.elements()
    return frozenset(elems[i] for i in bits(ref.mask))


def _set_to_ref(G, perms):
    idx = G.element_index()
    return subgroup_from_idxs(G, [idx[p] for p in perms])


def _subgroup_where(G, predicate):
    idx = G.element_index()
    return subgroup_from_idxs(G, [i for p, i in idx.items() if predicate(p)])


@pytest.fixture(scope="module")
def s3():
    return make_group("S3")


@pytest.fixture(scope="module")
def s4():
    return make_group("S4")


@pytest.fixture(scope="module")
def q8():
    return make_group("Q8")


def test_closure_matches_oracle(s4):
    idx = s4.element_index()
    elems = sorted(idx, key=idx.get)
    for seed_idxs in ([1], [2, 5], [3, 7, 11]):
        mask = closure_mask(s4, seed_idxs)
        expected = elements_of_closure([elems[i] for i in seed_idxs])
        got = {elems[i] for i in bits(mask)}
        assert got == expected


def elements_of_closure(perms):
    from .oracles import closure

    return set(closure(perms))


def test_normalizer_against_bruteforce(s3, s4):
    for G in (s3, s4):
        ambient = elements_of(G)
        idx = G.element_index()
        # all cyclic subgroups
        for p in sorted(ambient):
            H = _set_to_ref(G, elements_of_closure([p]))
            expected = normalizer_bf(ambient, _ref_to_set(H))
            assert _ref_to_set(normalizer(G, H)) == expected
    # a proper subgroup X as the ambient of the normalizer, over every H <= X
    refs = all_subgroups(s4).refs
    for X in refs:
        for H in refs:
            if X.contains(H):
                expected = normalizer_bf(frozenset(_ref_to_set(X)), _ref_to_set(H))
                assert _ref_to_set(normalizer(X, H)) == expected


def test_normalizer_of_transposition_in_s3(s3):
    t = _subgroup_where(s3, lambda p: p.order() == 2 and p(2) == 2)
    n = normalizer(s3, t)
    assert n.mask == t.mask


def test_sylow2_selfnormalizing_in_s4(s4):
    P = sylow_subgroups(s4, 2)[0]
    assert P.order == 8
    assert normalizer(s4, P).mask == P.mask


def test_normal_subgroup_is_normalized_by_all(s4):
    v4 = _subgroup_where(s4, lambda p: p.order() == 2 and len(p.cycles()) == 2)
    assert normalizer(s4, v4).order == 24


def test_centralizer_examples(s3, s4):
    a3 = _subgroup_where(s3, lambda p: p.order() in (1, 3))
    assert centralizer(s3, a3).mask == a3.mask
    ambient = elements_of(s4)
    v4 = _subgroup_where(s4, lambda p: p.order() == 2 and len(p.cycles()) == 2)
    assert _ref_to_set(centralizer(s4, v4)) == centralizer_bf(ambient, _ref_to_set(v4))
    for spec in ("S4", "SL(2,3)", "D12"):
        refs = all_subgroups(make_group(spec)).refs
        for X in refs:
            for H in refs:
                expected = centralizer_bf(_ref_to_set(X), _ref_to_set(H))
                assert _ref_to_set(centralizer(X, H)) == expected, (spec, X.order, H.order)


def test_factor_centralizer_v4_in_s4(s4):
    v4 = _subgroup_where(s4, lambda p: p.order() == 2 and len(p.cycles()) == 2)
    c = centralizer_of_factor(s4, v4, trivial_subgroup(s4))
    assert c.mask == v4.mask


def test_centralizer_of_center_is_whole_group(q8):
    center = _subgroup_where(q8, lambda p: all(p * x == x * p for x in q8.elements()))
    assert center.order == 2
    assert centralizer(q8, center).order == 8


def test_core_examples(s3, s4):
    ambient3 = elements_of(s3)
    t = _subgroup_where(s3, lambda p: p.order() == 2 and p(2) == 2)
    assert core(s3, t).order == 1
    assert core_bf(ambient3, _ref_to_set(t)) == _ref_to_set(core(s3, t))
    s3_in_s4 = _subgroup_where(s4, lambda p: p(3) == 3)
    assert s3_in_s4.order == 6
    assert core(s4, s3_in_s4).order == 1
    v4 = _subgroup_where(s4, lambda p: p.order() == 2 and len(p.cycles()) == 2)
    assert core(s4, v4).mask == v4.mask


def test_commutator_subgroup(s3, q8):
    full3 = full_subgroup(s3)
    derived = commutator_subgroup(full3, full3)
    assert derived.order == 3
    assert _ref_to_set(derived) == commutator_bf(elements_of(s3), elements_of(s3))
    fullq = full_subgroup(q8)
    assert commutator_subgroup(fullq, fullq).order == 2
    assert commutator_subgroup(full3, trivial_subgroup(s3)).order == 1


def test_sylow_subgroups(s4, q8):
    twos = sylow_subgroups(s4, 2)
    assert len(twos) == 3 and all(P.order == 8 for P in twos)
    threes = sylow_subgroups(s4, 3)
    assert len(threes) == 4 and all(P.order == 3 for P in threes)
    assert len(threes) % 3 == 1 and s4.order % len(threes) == 0
    assert [P.order for P in sylow_subgroups(q8, 2)] == [8]


def test_sylow_for_non_dividing_prime_is_unit(s3):
    # the unit group counts as the Sylow subgroup for primes outside the order
    assert [P.order for P in sylow_subgroups(s3, 5)] == [1]


def test_cyclic_primary_subgroups():
    c6 = make_group("C6")
    refs = cyclic_primary_subgroups(c6)
    assert sorted(r.order for r in refs) == [1, 2, 3]
    q8 = make_group("Q8")
    refs = cyclic_primary_subgroups(q8)
    assert sorted(r.order for r in refs) == [1, 2, 4, 4, 4]
    c5 = make_group("C5")
    assert sorted(r.order for r in cyclic_primary_subgroups(c5)) == [1, 5]


def test_o_pi_examples(s4):
    assert o_pi(s4, [2]).order == 4  # the normal V4
    assert o_pi(s4, [3]).order == 1
    assert o_pi(s4, [2, 3]).order == 24
    assert o_pi_up(s4, [p for p in prime_factors(24) if p != 2]).order == 24
    # O^{2'}: smallest normal subgroup with odd-order quotient
    odd = o_pi_up(s4, [2])
    assert odd.order == 12  # A4: S4/A4 = C2 is a 2-group


def test_o_pi_up_fast_agrees(s4):
    # O^pi from the pi'-elements against the intersection of normal subgroups
    for spec in ("S4", "SL(2,3)", "D12"):
        for X in all_subgroups(make_group(spec)).refs:
            for pi in ([2], [3], [2, 3], []):
                assert o_pi_up(X, pi).mask == o_pi_up_by_normal_subgroups(X, pi), (spec, X.order, pi)


def test_o_pp_s4(s4):
    # 3'-radical is V4; above it sits A4 whose image is the 3-radical of S3
    assert o_pp(s4, 3).order == 12
    assert o_pp(s4, 2).order == 4


def test_o_pp_on_subgroup_ref():
    # the embedded S4 factor of C2 x S4 (generators after the C2 part)
    G = make_group("C2 x S4")
    idx = G.element_index()
    s4_ref = subgroup_from_idxs(G, [idx[g] for g in G.generators[1:]])
    assert s4_ref.order == 24
    assert o_pp(s4_ref, 3).order == 12
    assert o_pp(s4_ref, 2).order == 4


def test_o_pi_and_o_pp_agree_with_quotient_oracles():
    # O_pi is the largest normal pi-subgroup; O_{p',p} is O_p over the floor O_{p'}
    from flab.corpus import build_corpus

    for entry in build_corpus(60):
        G = entry.group
        for X in all_subgroups(G).refs:
            for p in prime_factors(G.order):
                assert o_pi(X, [p]).mask == o_pi_by_join(X, [p]), (entry.name, X.order, p)
                assert o_pp(X, p).mask == o_pp_by_quotient(X, p), (entry.name, X.order, p)


def test_commutators_and_products_agree_with_pair_oracles():
    # [A, B] is conjugated by one generator set when one operand contains the
    # other and by both otherwise (pairs with a normal operand, either way
    # round); AB is a union of right cosets of A
    from flab.corpus import build_corpus

    for entry in build_corpus(60):
        G = entry.group
        refs = all_subgroups(G).refs
        normals = [ref for ref in refs if is_normal_in(ref, G)]
        pairs = [(A, B) for A in refs for B in refs if A.contains(B) or B.contains(A)]
        apart = [(A, B) for A in normals for B in refs if not (A.contains(B) or B.contains(A))]
        pairs += apart + [(B, A) for A, B in apart]
        for A, B in pairs:
            assert commutator_subgroup(A, B).mask == commutator_subgroup_by_all_pairs(A, B), (
                entry.name, A.order, B.order)
        for A in refs:
            for B in refs:
                assert product_mask(G, A, B) == product_mask_by_pairs(G, A, B), (entry.name, A.order, B.order)


def test_normal_subgroups_agree_with_class_oracle():
    # the normal subgroups read off the lattice are those of the class
    # closures closed under products, for the whole group and every proper X
    from flab.corpus import build_corpus

    for entry in build_corpus(150):
        G = entry.group
        assert normal_subgroup_masks(G) == normal_subgroup_masks_by_classes(G), entry.name
        if G.order <= 60:
            for X in all_subgroups(G).refs:
                assert normal_subgroup_masks(X) == normal_subgroup_masks_by_classes(X), (entry.name, X.order)


@pytest.mark.parametrize("spec", ["E(2^6)", "E(3^4)", "S4", "C12"])
def test_normal_subgroups_are_read_off_the_lattice(monkeypatch, spec):
    # once the lattice is built, reading the normal subgroups forms no
    # closure; in E(p^n) every subgroup is normal, so they are the whole
    # lattice in its (order, mask) order (the class oracle's product
    # closure is too slow there, so it is the reference only for S4 and C12)
    import flab.lattice
    import flab.subgroups

    G = make_group(spec)
    lat = all_subgroups(G)
    calls = []
    real = flab.subgroups.closure_mask

    def counted(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(flab.subgroups, "closure_mask", counted)
    monkeypatch.setattr(flab.lattice, "closure_mask", counted)
    got = normal_subgroup_masks(G)
    assert calls == []
    if spec.startswith("E("):
        assert got == tuple(ref.mask for ref in lat.refs)
    else:
        assert got == normal_subgroup_masks_by_classes(G)


def test_orbit_stabilizer_invariant(s4):
    from flab.subgroups import conjugacy_orbit

    for P in (sylow_subgroups(s4, 2)[0], sylow_subgroups(s4, 3)[0]):
        orbit = conjugacy_orbit(s4, P.mask)
        assert normalizer(s4, P).order * len(orbit) == s4.order


def test_subgroup_ref_identity(s4):
    v4 = _subgroup_where(s4, lambda p: p.order() == 2 and len(p.cycles()) == 2)
    same = subgroup_from_mask(s4, v4.mask)
    assert v4 == same and hash(v4) == hash(same)
    assert v4.fingerprint == tuple(sorted(bits(v4.mask)))


def test_cross_ambient_rejected(s3, s4):
    with pytest.raises(NotASubgroup):
        normalizer(s4, trivial_subgroup(s3))
