"""The counting, table-built and lattice-read decisions against the algorithms they replaced.

Nilpotency by counting p-elements, cross membership by pi-element sets, the
table-built centrality-oracle product, the per-class subnormalizer and
normalizer intersections, and the Sylow and cyclic primary subgroups read off
the lattice are each compared with their former algorithm in ``oracles.py``.
"""

from collections import Counter

import pytest

from flab.corpus import _FIXED_PRODUCTS, build_corpus
from flab.errors import OracleCapExceeded
from flab.formations import NIL, formation_member, parse_formation
from flab.groups import StabilizerChain, make_group
from flab.hypercenter import build_factor_action_product, is_f_central_oracle
from flab.intersections import (
    CYCLIC_PRIMARY,
    SYLOW,
    f_maximal_normalizer_intersection,
    f_maximal_subgroups,
    subnormalizer_intersection,
    sylow_normalizer_intersection,
)
from flab import lattice
from flab.lattice import all_subgroups, cyclic_primary_subgroups, maximal_subgroups, sylow_subgroups
from flab.series import chief_factors, is_nilpotent
from flab.subgroups import centralizer_of_factor, conjugacy_orbit, prime_factors

from .oracles import (
    chain_series_end,
    cross_member_by_o_pi,
    cyclic_primary_by_closure,
    factor_action_product_by_permutations,
    is_nilpotent_by_sylow,
    member_by_chain,
    normalizer_intersection_per_member,
    subnormalizer_intersection_per_member,
    sylow_subgroup_by_growth,
)

_CROSS = [
    parse_formation(text)
    for text in ("cross[{2,3};{5}]", "cross[{2,5}:spi;{3,7}]", "cross[{2,3}:spi]", "cross[{2,3,5}:spi]", "cross[]")
]
_PRODUCT_CLASSES = [
    parse_formation(text)
    for text in ("N", "U", "N^2", "Gpi{2,3}", "cross[{2,3};{5}]", "cross[{2,5}:spi;{3,7}]")
]


def _corpus(max_order):
    return [entry.group for entry in build_corpus(max_order)]


def test_nilpotency_by_counting_matches_sylow_oracle():
    for G in _corpus(120):
        for ref in all_subgroups(G).refs:
            assert is_nilpotent(ref) == is_nilpotent_by_sylow(ref), (G.name, ref.order)


def test_cross_membership_by_pi_elements_matches_o_pi_oracle():
    for G in _corpus(120):
        for ref in all_subgroups(G).refs:
            for F in _CROSS:
                assert formation_member(F, ref) == cross_member_by_o_pi(F, ref), (G.name, ref.order, F)


def test_table_product_matches_permutation_oracle():
    # an abelian factor's table product against the permutation-built one; a
    # non-abelian factor's product is not built, and the permutation-built
    # one is insoluble of order |H/K|·|G/C|, decided as the old chain rule did
    abelian, non_abelian = 0, []
    for G in _corpus(150):
        for factor in chief_factors(G):
            oracle = factor_action_product_by_permutations(G, factor)
            if len(factor.primes()) > 1:
                with pytest.raises(OracleCapExceeded):
                    build_factor_action_product(G, factor)
                gens, degree = list(oracle.generators), oracle.degree
                acting = G.order // centralizer_of_factor(G, factor.above, factor.below).order
                assert StabilizerChain(degree, gens).order() == factor.order * acting, G.name
                assert chain_series_end(gens, degree, derived=True)[0], G.name  # insoluble
                for F in _PRODUCT_CLASSES:
                    verdict = is_f_central_oracle(F, G, factor)
                    assert verdict.product_order == factor.order * acting
                    assert verdict.central == member_by_chain(F, gens, degree), (G.name, F)
                non_abelian.append((G.name, factor.order * acting))
                continue
            W = build_factor_action_product(G, factor)
            assert W.order == oracle.order <= G.order // factor.below.order, (G.name, factor.order)
            _assert_group_table(W)
            assert Counter(W.elt_orders()) == Counter(oracle.elt_orders()), (G.name, factor.order)
            for F in _PRODUCT_CLASSES:
                assert formation_member(F, W) == formation_member(F, oracle), (G.name, factor.order, F)
            abelian += 1
    assert abelian > 600 and non_abelian == [("A5", 3600), ("S5", 7200)]


def _assert_group_table(W):
    """Right multiplications by generators compose as the table says: (x*g)*h = x*(g*h)."""
    rows = W.table
    for g in W.gen_idxs():
        for h in W.gen_idxs():
            gh = rows[h][g]
            assert all(rows[h][rows[g][x]] == rows[gh][x] for x in range(W.order))


def test_subnormalizer_intersection_per_class_matches_per_member_oracle():
    classes = [NIL, parse_formation("U"), parse_formation("cross[{2,3};{5}]")]
    for G in _corpus(80):
        tops = [G] + maximal_subgroups(G)
        for X in tops:
            for F in classes:
                for sigma in (SYLOW, CYCLIC_PRIMARY):
                    got = subnormalizer_intersection(F, sigma, X).mask
                    assert got == subnormalizer_intersection_per_member(F, sigma, X), (G.name, F, sigma.tag)


def test_normalizer_intersections_per_class_match_per_member_oracle():
    fixed = {name for name, _ in _FIXED_PRODUCTS}
    groups = [e.group for e in build_corpus(324) if e.group.order <= 60 or e.name in fixed]
    classes = [NIL, parse_formation("U"), parse_formation("Gpi{2,3}")]
    for G in groups:
        for X in all_subgroups(G).refs:
            sylows = [P for p in prime_factors(X.order) for P in sylow_subgroups(X, p)]
            expected = normalizer_intersection_per_member(X, sylows)
            assert sylow_normalizer_intersection(X).mask == expected, (G.name, X.order)
            for F in classes:
                expected = normalizer_intersection_per_member(X, f_maximal_subgroups(F, X))
                assert f_maximal_normalizer_intersection(F, X).mask == expected, (G.name, X.order, F)


def test_sylow_subgroups_from_lattice_match_grown_oracle():
    for G in _corpus(120):
        for ref in all_subgroups(G).refs:
            for p in prime_factors(ref.order):
                got = [P.mask for P in sylow_subgroups(ref, p)]
                assert got == conjugacy_orbit(ref, sylow_subgroup_by_growth(ref, p).mask), (G.name, ref.order, p)


def test_cyclic_primary_subgroups_from_lattice_match_closure_oracle():
    for G in _corpus(120):
        for ref in all_subgroups(G).refs:
            got = [(H.mask, H.gen_idxs) for H in cyclic_primary_subgroups(ref)]
            expected = [(H.mask, H.gen_idxs) for H in cyclic_primary_by_closure(ref)]
            assert got == expected, (G.name, ref.order)


def test_lattice_walks_each_conjugacy_class_once(monkeypatch):
    calls = Counter()

    def counting_orbit(X, mask):
        calls[mask] += 1
        return conjugacy_orbit(X, mask)

    monkeypatch.setattr(lattice, "conjugacy_orbit", counting_orbit)
    for spec in ("S4", "SL(2,3)", "C2 x S4", "D24"):
        calls.clear()
        lat = all_subgroups(make_group(spec))
        assert sum(calls.values()) <= len(lat.classes), spec
        assert max(calls.values()) == 1, spec
