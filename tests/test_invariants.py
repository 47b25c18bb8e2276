"""Cross-module invariant sweeps over a small group sample."""

import pytest

from flab.formations import NIL, SUPERSOLUBLE, Gpi, NilPow, format_formation, parse_formation
from flab.groups import cyclic, direct_product, make_group, semidirect_product
from flab.hypercenter import hypercenter
from flab.intersections import f_maximal_intersection
from flab.lattice import all_subgroups, sylow_subgroups
from flab.subgroups import (
    full_subgroup,
    is_normal_in,
    o_pi,
    o_pi_up,
    o_pp,
    prime_factors,
)

SPECS = ("S3", "S4", "A4", "Q8", "SL(2,3)", "D12", "D20", "C12", "C2 x C6", "S3 x C5", "A5")

CATALOG = (
    NIL,
    SUPERSOLUBLE,
    Gpi(frozenset({2, 3})),
    parse_formation("cross[{2,3}:gpi;{5}:gpi]"),
    NilPow(2),
)


@pytest.mark.parametrize("spec", SPECS)
def test_sylow_counting_congruence(spec):
    G = make_group(spec)
    for p in prime_factors(G.order):
        count = len(sylow_subgroups(G, p))
        assert count % p == 1
        assert G.order % count == 0


@pytest.mark.parametrize("spec", SPECS)
def test_o_pi_containments(spec):
    G = make_group(spec)
    full = full_subgroup(G)
    for p in prime_factors(G.order):
        assert o_pi(G, [p]).mask & ~o_pp(G, p).mask == 0
    for pi in ([2], [3], [2, 3], [2, 5]):
        up = o_pi_up(G, pi)
        assert is_normal_in(up, full)
        quotient_order = G.order // up.order
        assert all(q in pi for q in prime_factors(quotient_order))


@pytest.mark.parametrize("spec", SPECS)
def test_hypercenter_inside_member_intersection(spec):
    G = make_group(spec)
    for F in CATALOG:
        method = "oracle" if isinstance(F, (Gpi, NilPow)) else "auto"
        z = hypercenter(F, G, method=method)
        int_f = f_maximal_intersection(F, G)
        assert z.mask & ~int_f.mask == 0, (spec, format_formation(F))


def test_trivial_action_semidirect_matches_direct_product_fingerprint():
    # order, element-order histogram, and subgroup counts by order all agree
    from collections import Counter

    from .oracles import element_order_histogram

    N, H = cyclic(6), cyclic(2)
    triv = semidirect_product(N, H, [[g for g in N.generators]])
    prod = direct_product(cyclic(6), cyclic(2))
    assert triv.order == prod.order
    assert element_order_histogram(triv) == element_order_histogram(prod)
    counts = lambda G: Counter(r.order for r in all_subgroups(G).refs)
    assert counts(triv) == counts(prod)


def test_nontrivial_semidirect_differs_from_direct_product():
    from collections import Counter

    G = make_group("sd(C3,C2,n0->n0^-1)")
    D = make_group("C3 x C2")
    counts = lambda X: Counter(r.order for r in all_subgroups(X).refs)
    assert counts(G) != counts(D)
