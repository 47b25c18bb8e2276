import random

from flab.corpus import build_corpus
from flab.formations import NIL, SUPERSOLUBLE, Gpi, format_formation, formation_member, parse_formation
from flab.groups import make_group
from flab.hypercenter import hypercenter
from flab.intersections import (
    CYCLIC_PRIMARY,
    MAXIMAL,
    SYLOW,
    abnormal_maximal_intersection,
    all_sigma_f_subnormal,
    f_maximal_intersection,
    f_maximal_normalizer_intersection,
    f_maximal_subgroups,
    f_subnormalizers,
    is_f_subnormal,
    subnormalizer_intersection,
    sylow_normalizer_intersection,
)
from flab.lattice import all_subgroups
from flab.subgroups import bits, full_subgroup, normalizer

from .oracles import is_f_subnormal_by_any_chain, is_nilpotent_by_sylow, is_supersoluble_by_chief_factors

CROSS_235 = parse_formation("cross[{2,3}:gpi;{5}:gpi]")
GPI_23 = parse_formation("Gpi{2,3}")


def _subgroups_of_order(G, n):
    return [r for r in all_subgroups(G).refs if r.order == n]


# -- f-maximal families ---------------------------------------------------------


def test_f_maximal_nilpotent_s3():
    G = make_group("S3")
    fam = f_maximal_subgroups(NIL, G)
    assert sorted(r.order for r in fam) == [2, 2, 2, 3]


def test_f_maximal_nilpotent_s4():
    G = make_group("S4")
    fam = f_maximal_subgroups(NIL, G)
    assert sorted(r.order for r in fam) == [3, 3, 3, 3, 8, 8, 8]


def test_f_maximal_member_group_is_itself():
    G = make_group("Q8")
    fam = f_maximal_subgroups(NIL, G)
    assert len(fam) == 1 and fam[0].order == 8


def test_f_maximal_family_is_conjugation_closed():
    from flab.subgroups import conjugacy_orbit

    G = make_group("S4")
    for F in (NIL, SUPERSOLUBLE):
        fam = {r.mask for r in f_maximal_subgroups(F, G)}
        for m in list(fam):
            assert set(conjugacy_orbit(G, m)) <= fam


# -- intersections -----------------------------------------------------------------


def test_member_intersection_examples():
    assert f_maximal_intersection(NIL, make_group("S4")).order == 1
    assert f_maximal_intersection(NIL, make_group("Q8")).order == 8
    sl = make_group("SL(2,3)")
    ref = f_maximal_intersection(NIL, sl)
    assert ref.order == 2
    assert ref.mask == hypercenter(NIL, sl).mask


def test_normalizer_intersection_examples():
    assert f_maximal_normalizer_intersection(NIL, make_group("S3")).order == 1
    assert f_maximal_normalizer_intersection(NIL, make_group("Q8")).order == 8
    assert f_maximal_normalizer_intersection(NIL, make_group("SL(2,3)")).order == 2


def test_normalizer_intersection_bruteforce_cross_check():
    # recompute NI directly from the definition, one normalizer per member
    for spec in ("S4", "SL(2,3)", "D12", "A4"):
        G = make_group(spec)
        for F in (NIL, SUPERSOLUBLE):
            expected = full_subgroup(G).mask
            for M in f_maximal_subgroups(F, G):
                expected &= normalizer(G, M).mask
            assert f_maximal_normalizer_intersection(F, G).mask == expected


def test_sylow_normalizer_intersection_examples():
    assert sylow_normalizer_intersection(make_group("S3")).order == 1
    assert sylow_normalizer_intersection(make_group("C2 x Q8")).order == 16
    assert sylow_normalizer_intersection(make_group("SL(2,3)")).order == 2


def test_sylow_normalizer_intersection_bruteforce():
    from flab.lattice import sylow_subgroups
    from flab.subgroups import prime_factors

    for spec in ("S4", "SL(2,3)", "D20", "A5"):
        G = make_group(spec)
        expected = full_subgroup(G).mask
        for p in prime_factors(G.order):
            for P in sylow_subgroups(G, p):
                expected &= normalizer(G, P).mask
        assert sylow_normalizer_intersection(G).mask == expected


# -- subnormality ---------------------------------------------------------------


def test_subnormal_examples_s3():
    G = make_group("S3")
    a3 = _subgroups_of_order(G, 3)[0]
    c2 = _subgroups_of_order(G, 2)[0]
    assert is_f_subnormal(NIL, a3, G)
    assert not is_f_subnormal(NIL, c2, G)


def test_subnormal_in_member_group():
    G = make_group("D8")  # nilpotent, hence everything subnormal for N
    for H in all_subgroups(G).refs:
        assert is_f_subnormal(NIL, H, G)


def test_subnormal_chain_variant_agrees_on_corpus():
    # maximal chains versus any chain of proper subgroups, steps decided on the quotient
    for spec in ("S3", "S4", "Q8", "SL(2,3)", "A4", "D12", "A5"):
        G = make_group(spec)
        lat = all_subgroups(G)
        for F in (NIL, SUPERSOLUBLE, GPI_23):
            for H in lat.refs:
                assert is_f_subnormal(F, H, G) == is_f_subnormal_by_any_chain(F, H, G), (
                    spec,
                    H.order,
                    format_formation(F),
                )


def test_subnormal_memo_answers_as_a_cold_decision():
    # the memo keeps one bit row per chain top (the subgroups subnormal in it);
    # read back in any order, it gives what a decision from an empty memo gives
    rng = random.Random(23)
    for entry in build_corpus(60):
        lat = all_subgroups(entry.group)
        pairs = [(H, lat.refs[t]) for h, H in enumerate(lat.refs) for t in bits(lat.sup_rows[h])]
        for F in (NIL, SUPERSOLUBLE, GPI_23):
            cold = []
            for H, T in pairs:
                lat.memo.clear()
                cold.append(is_f_subnormal(F, H, T))
            lat.memo.clear()
            shuffled = rng.sample(range(len(pairs)), len(pairs))
            for i in shuffled + shuffled:
                assert is_f_subnormal(F, *pairs[i]) == cold[i], (entry.name, format_formation(F), i)


def test_step_quotient_matches_definition():
    # the library tests T^F <= M; the oracle builds T/Core_T(M) and decides it
    from flab.groups import Group, quotient
    from flab.subgroups import core, gens_for_mask

    classes = (NIL, SUPERSOLUBLE, GPI_23, parse_formation("N^2"), parse_formation("Sol"), CROSS_235)
    for spec in ("S4", "SL(2,3)", "D12", "A5", "C2 x S4"):
        G = make_group(spec)
        lat = all_subgroups(G)
        for F in classes:
            for t_ref in lat.refs:
                if t_ref.order <= 2:
                    continue
                ti = lat.index_of(t_ref)
                for mj in lat.maximal_subgroup_idxs(ti):
                    m_ref = lat.refs[mj]
                    from flab.intersections import _step_ok

                    fast = _step_ok(lat, F, ti, mj)
                    sub = Group(G.degree, [G.perm_at(g) for g in t_ref.gen_idxs])
                    cr = core(t_ref, m_ref)
                    trans = {i: sub.idx_of(G.perm_at(i)) for i in bits(t_ref.mask)}
                    sub_mask = 0
                    for i in bits(cr.mask):
                        sub_mask |= 1 << trans[i]
                    qm = quotient(sub, sub_mask, gens_for_mask(sub, sub_mask))
                    assert fast == formation_member(F, qm.group), (spec, t_ref.order, m_ref.order)


def test_subnormalizers_of_transposition_in_s3():
    G = make_group("S3")
    c2 = _subgroups_of_order(G, 2)[0]
    sn = f_subnormalizers(NIL, c2, G)
    assert [c.mask for c in sn.carriers] == [c2.mask]
    assert sn.carriers[0].mask == normalizer(G, c2).mask


def test_subnormalizers_whole_group_when_subnormal():
    G = make_group("S3")
    a3 = _subgroups_of_order(G, 3)[0]
    sn = f_subnormalizers(NIL, a3, G)
    assert [c.order for c in sn.carriers] == [6]


def test_u_subnormalizers_of_c3_in_s4():
    G = make_group("S4")
    c3 = _subgroups_of_order(G, 3)[0]
    sn = f_subnormalizers(SUPERSOLUBLE, c3, G)
    assert [c.order for c in sn.carriers] == [6]
    assert all(c.contains(c3) for c in sn.carriers)


def test_nil_subnormalizer_of_sylow_is_normalizer_in_soluble():
    # in a soluble group the nilpotent-class subnormalizer of a Sylow subgroup
    # is its normalizer
    from flab.lattice import sylow_subgroups
    from flab.subgroups import prime_factors

    for spec in ("S3", "S4", "D12", "SL(2,3)", "C12", "sd(C5,C4,n0->n0^2)"):
        G = make_group(spec)
        for p in prime_factors(G.order):
            for P in sylow_subgroups(G, p):
                sn = f_subnormalizers(NIL, P, G)
                assert len(sn.carriers) == 1
                assert sn.carriers[0].mask == normalizer(G, P).mask, (spec, p)


# -- subnormalizer intersections ---------------------------------------------------


def test_si_examples():
    assert subnormalizer_intersection(NIL, SYLOW, make_group("S3")).order == 1
    q8 = make_group("Q8")
    assert subnormalizer_intersection(NIL, SYLOW, q8).order == 8
    sl = make_group("SL(2,3)")
    ref = subnormalizer_intersection(NIL, CYCLIC_PRIMARY, sl)
    assert ref.order == 2
    assert ref.mask == hypercenter(NIL, sl).mask


def test_si_maximal_functor_is_abnormal_intersection():
    # over the maximal-subgroup functor the carriers of M are exactly M or G
    # and the intersection matches the abnormal-maximal intersection
    for spec in ("S3", "S4", "SL(2,3)", "D12", "Q8", "A4"):
        G = make_group(spec)
        for F in (NIL, SUPERSOLUBLE):
            si = subnormalizer_intersection(F, MAXIMAL, G)
            delta = abnormal_maximal_intersection(F, G)
            assert si.mask == delta.mask, (spec, format_formation(F))


def test_delta_examples():
    assert abnormal_maximal_intersection(NIL, make_group("S3")).order == 1
    q8 = make_group("Q8")
    assert abnormal_maximal_intersection(NIL, q8).order == 8


def test_delta_phi_identity_on_q8():
    from flab.groups import quotient
    from flab.lattice import frattini

    q8 = make_group("Q8")
    phi = frattini(q8)
    delta = abnormal_maximal_intersection(NIL, q8)
    qm = quotient(q8, phi.mask, phi.gen_idxs)
    image = qm.image_mask(delta.mask)
    assert image == hypercenter(NIL, qm.group).mask


def test_wf_vf_membership():
    assert all_sigma_f_subnormal(NIL, make_group("Q8"), "w")
    assert not all_sigma_f_subnormal(NIL, make_group("S3"), "w")
    assert all_sigma_f_subnormal(Gpi(frozenset({2, 3})), make_group("S3"), "w")
    assert all_sigma_f_subnormal(NIL, make_group("C12"), "v")
    assert not all_sigma_f_subnormal(NIL, make_group("S4"), "v")


def test_sigma_families_include_unit_group():
    G = make_group("S3")
    assert any(r.is_trivial for r in SYLOW(G))
    assert any(r.is_trivial for r in CYCLIC_PRIMARY(G))
    assert not any(r.is_full for r in MAXIMAL(G))
    assert MAXIMAL(make_group("C1")) == []


def test_intersection_results_are_normal():
    from flab.subgroups import is_normal_in

    for spec in ("S4", "SL(2,3)", "D12", "A4", "sd(C5,C4,n0->n0^2)"):
        G = make_group(spec)
        full = full_subgroup(G)
        for F in (NIL, SUPERSOLUBLE):
            for ref in (
                f_maximal_intersection(F, G),
                f_maximal_normalizer_intersection(F, G),
                abnormal_maximal_intersection(F, G),
                subnormalizer_intersection(F, SYLOW, G),
                subnormalizer_intersection(F, CYCLIC_PRIMARY, G),
            ):
                assert is_normal_in(ref, full), (spec, format_formation(F))


def test_member_intersection_le_normalizer_intersection():
    for spec in ("S3", "S4", "SL(2,3)", "A4", "D20", "S3 x C5"):
        G = make_group(spec)
        for F in (NIL, SUPERSOLUBLE, Gpi(frozenset({2, 3})), CROSS_235):
            int_f = f_maximal_intersection(F, G)
            ni_f = f_maximal_normalizer_intersection(F, G)
            assert int_f.mask & ~ni_f.mask == 0


def test_wf_hypercenter_lower_bound():
    # the hypercenter of the "all Sylow subgroups subnormal" class lies inside
    # the subnormalizer intersection over Sylow subgroups
    from flab.formations import formation_member
    from flab.hypercenter import hypercenter as hc

    for spec in ("S3", "S4", "Q8", "SL(2,3)", "A4"):
        G = make_group(spec)
        for F, mode in ((NIL, "w"), (NIL, "v")):
            pred = lambda W: all_sigma_f_subnormal(F, W, mode)
            z = hc(pred, G)
            sigma = SYLOW if mode == "w" else CYCLIC_PRIMARY
            si = subnormalizer_intersection(F, sigma, G)
            assert z.mask & ~si.mask == 0, (spec, mode)


def test_lattice_member_verdicts_agree_with_oracles():
    # formation_member on every lattice member, against rules it does not use
    from flab.formations import NilPow, Sol
    from flab.series import is_soluble, nilpotent_length

    oracles = {
        NIL: is_nilpotent_by_sylow,
        SUPERSOLUBLE: is_supersoluble_by_chief_factors,
        NilPow(2): lambda X: is_soluble(X) and nilpotent_length(X) <= 2,
        Sol(): is_soluble,
    }
    for spec in (
        "S4",
        "SL(2,3)",
        "D12",
        "A5",
        "C2 x C6",
        "sd(C5,C4,n0->n0^2)",
        "sd(C7,C6,n0->n0^3)",
        "sd(E(3^2),C2,n0->n0^2,n1->n1^2)",
    ):
        G = make_group(spec)
        for F, oracle in oracles.items():
            for ref in all_subgroups(G).refs:
                assert formation_member(F, ref) == oracle(ref), (
                    spec,
                    ref.order,
                    format_formation(F),
                )
