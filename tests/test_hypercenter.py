from collections import Counter

import pytest

from flab.corpus import build_corpus
from flab.errors import OracleCapExceeded
from flab.formations import (
    NIL,
    SUPERSOLUBLE,
    Gpi,
    NilPow,
    format_formation,
    local_def_member,
    parse_formation,
)
from flab.groups import make_group, quotient
from flab.hypercenter import (
    build_factor_action_product,
    hypercenter,
    is_f_central,
    is_f_central_local,
    is_f_central_oracle,
)
from flab.series import ChiefFactor, chief_factors, upper_central_series
from flab.subgroups import centralizer_of_factor, prime_factors, subgroup_from_mask, trivial_subgroup

from .oracles import local_def_member_by_quotient

CROSS_235 = parse_formation("cross[{2,3}:gpi;{5}:gpi]")


def _factor(G, below_order, above_order):
    for f in chief_factors(G):
        if f.below.order == below_order and f.above.order == above_order:
            return f
    raise AssertionError("factor not found")


def test_oracle_product_structure():
    # V4 under S4: acting quotient S3, product of order 24, not nilpotent
    G = make_group("S4")
    f = _factor(G, 1, 4)
    W = build_factor_action_product(G, f)
    assert W.order == 24
    v = is_f_central_oracle(NIL, G, f)
    assert not v.central and v.acting_order == 6 and v.product_order == 24
    # same factor is central for the {2,3}-group class
    assert is_f_central_oracle(Gpi(frozenset({2, 3})), G, f).central


def test_oracle_central_factor_in_q8():
    G = make_group("Q8")
    f = _factor(G, 1, 2)
    v = is_f_central_oracle(NIL, G, f)
    assert v.central and v.acting_order == 1 and v.product_order == 2


def test_local_centrality_examples():
    G = make_group("S4")
    assert not is_f_central_local(NIL, G, _factor(G, 1, 4)).central
    assert is_f_central_local(CROSS_235, G, _factor(G, 4, 12)).central
    q8 = make_group("Q8")
    assert is_f_central_local(NIL, q8, _factor(q8, 1, 2)).central


def test_oracle_cap():
    G = make_group("A5")
    f = chief_factors(G)[0]
    with pytest.raises(OracleCapExceeded):
        is_f_central_oracle(NIL, G, f, cap=100)


def test_cached_oracle_product_skips_the_centralizer_scan(monkeypatch):
    # the second class reads each product from the cache, before C_G(H/K)
    import sys

    hc = sys.modules["flab.hypercenter"]  # the package exports a function of that name
    scans = []
    scan = hc.centralizer_of_factor

    def counting_scan(X, H, K):
        scans.append((H.mask, K.mask))
        return scan(X, H, K)

    monkeypatch.setattr(hc, "centralizer_of_factor", counting_scan)
    G = make_group("S4")
    factors = chief_factors(G)
    for F in (NIL, SUPERSOLUBLE):
        for f in factors:
            is_f_central_oracle(F, G, f)
    assert len(scans) == len(factors)
    # a cached product above a smaller cap is still refused
    W = build_factor_action_product(G, factors[-1])
    with pytest.raises(OracleCapExceeded):
        build_factor_action_product(G, factors[-1], cap=W.order - 1)
    assert len(scans) == len(factors)


def test_method_both_enforces_agreement():
    G = make_group("S4")
    for f in chief_factors(G):
        v = is_f_central(NIL, G, f, method="both")
        assert v.method == "both"


def test_oracle_agrees_with_local_on_sample():
    for spec in ("S3", "S4", "Q8", "SL(2,3)", "A4", "D12", "C2 x C6", "S3 x C5"):
        G = make_group(spec)
        for f in chief_factors(G):
            for F in (NIL, SUPERSOLUBLE, CROSS_235):
                o = is_f_central_oracle(F, G, f)
                l = is_f_central_local(F, G, f)
                assert o.central == l.central, (spec, f.order, format_formation(F))


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("S4", 1),
        ("Q8", 8),
        ("SL(2,3)", 2),
        ("S3", 1),
        ("C12", 12),
        ("D8", 8),
        ("A5", 1),
    ],
)
def test_nilpotent_hypercenter(spec, expected):
    G = make_group(spec)
    assert hypercenter(NIL, G).order == expected


def test_hypercenter_examples_other_classes():
    s4 = make_group("S4")
    assert hypercenter(SUPERSOLUBLE, s4).order == 1
    assert hypercenter(Gpi(frozenset({2, 3})), s4).order == 24
    # D12 = C2 x S3 is supersoluble, so the whole group
    assert hypercenter(SUPERSOLUBLE, make_group("D12")).order == 12


def test_hypercenter_matches_ucs_limit():
    for spec in ("S3", "S4", "Q8", "SL(2,3)", "D20", "C2 x C6", "A4", "A5"):
        G = make_group(spec)
        assert hypercenter(NIL, G).mask == upper_central_series(G)[-1].mask


def test_hypercenter_oracle_and_local_paths_agree():
    for spec in ("S4", "SL(2,3)", "D12", "C30"):
        G = make_group(spec)
        for F in (NIL, SUPERSOLUBLE, CROSS_235):
            a = hypercenter(F, G, method="local")
            b = hypercenter(F, G, method="oracle")
            assert a.mask == b.mask


def test_hypercenter_both_methods_agree_on_corpus():
    # includes A5 and S5, whose oracle products lie above the element cap
    for entry in build_corpus(120):
        for F in (NIL, SUPERSOLUBLE, CROSS_235):
            assert hypercenter(F, entry.group, method="both").mask == hypercenter(F, entry.group).mask


def test_local_hypercenter_builds_no_quotient():
    for spec in ("S4", "SL(2,3)", "D12", "A5", "S5", "sd(C5,C4,n0->n0^2)", "C2 x S4"):
        G = make_group(spec)
        for F in (NIL, SUPERSOLUBLE, CROSS_235):
            hypercenter(F, G, method="local")
        assert not G._quotients, spec


def test_local_section_test_agrees_with_quotient_oracle_on_corpus():
    # G/C_G(H/K) decided in G with the centralizer as floor, against the quotient group
    for entry in build_corpus(120):
        G = entry.group
        primes = prime_factors(G.order)
        for f in chief_factors(G):
            cent = centralizer_of_factor(G, f.above, f.below)
            acting = quotient(G, cent.mask, cent.gen_idxs).group
            for F in (NIL, SUPERSOLUBLE, CROSS_235):
                for p in primes:
                    expected = local_def_member_by_quotient(F, p, acting)
                    assert local_def_member(F, p, G, cent) == expected, (entry.name, f.order, format_formation(F), p)


def test_hypercenter_greedy_choice_independence():
    # re-run the ascent along randomly chosen central minimal normal factors
    import random

    from flab.series import _minimal_normal_above

    rng = random.Random(11)
    for spec in ("Q8", "SL(2,3)", "C2 x C6", "E(2^3)", "C2 x Q8"):
        G = make_group(spec)
        for F in (NIL, SUPERSOLUBLE):
            expected = hypercenter(F, G)
            for _ in range(3):
                current = trivial_subgroup(G)
                while True:
                    candidates = [
                        subgroup_from_mask(G, m)
                        for m in _minimal_normal_above(G, current.mask)
                    ]
                    rng.shuffle(candidates)
                    step = None
                    for cand in candidates:
                        f = ChiefFactor(G, current, cand)
                        if is_f_central(F, G, f).central:
                            step = cand
                            break
                    if step is None:
                        break
                    current = step
                assert current.mask == expected.mask, (spec, format_formation(F))


def test_hypercenter_with_membership_predicate():
    # predicate classes use the oracle path; for the nilpotent predicate the
    # result must match the expression-based computation
    from flab.formations import formation_member

    for spec in ("S4", "Q8", "SL(2,3)"):
        G = make_group(spec)
        pred = lambda W: formation_member(NIL, W)
        assert hypercenter(pred, G).mask == hypercenter(NIL, G).mask


def test_hypercenter_nilpow_sidorov_examples():
    s4 = make_group("S4")
    # members of Fitting length <= 2 pick up the V4 and A4 layers of S4
    z2 = hypercenter(NilPow(2), s4, method="oracle")
    from flab.intersections import f_maximal_intersection

    assert z2.mask == f_maximal_intersection(NilPow(2), s4).mask


def test_each_chief_factor_decided_once(monkeypatch):
    # the ascent and its self-check read one cached verdict per factor and class
    import sys

    from flab.formations import formation_member

    hc = sys.modules["flab.hypercenter"]  # the package exports a function of that name

    products: Counter = Counter()
    local: Counter = Counter()
    build, decide_local = hc.build_factor_action_product, hc.is_f_central_local

    def counting_build(G, factor, cap=None):
        products[factor.below.mask, factor.above.mask] += 1
        return build(G, factor, cap)

    def counting_local(F, G, factor):
        local[factor.below.mask, factor.above.mask] += 1
        return decide_local(F, G, factor)

    monkeypatch.setattr(hc, "build_factor_action_product", counting_build)
    monkeypatch.setattr(hc, "is_f_central_local", counting_local)
    for spec in ("S4", "SL(2,3)", "D12"):
        G = make_group(spec)
        for F in (NIL, SUPERSOLUBLE, CROSS_235):
            products.clear()
            local.clear()
            hypercenter(F, G, method="both")
            assert products and set(products.values()) == {1}, (spec, format_formation(F))
            assert local == products, (spec, format_formation(F))
    # a callable predicate is decided afresh each time and matches the expression
    G = make_group("S4")
    pred = lambda W: formation_member(NIL, W)
    products.clear()
    assert hypercenter(pred, G, method="oracle").mask == hypercenter(NIL, G, method="oracle").mask
    assert max(products.values()) > 1
    assert not any(callable(key[2]) for key in G._central_verdicts)
