"""Table groups: quotients and subgroups built from the parent's table.

``quotient`` is compared with the permutation-group construction it
replaced (``oracles.quotient_by_permutations``) on corpus groups of order at
most 60; ``subgroup_to_group`` and ``translate_mask`` are checked against the
ambient group's own elements and table.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from flab.corpus import build_corpus
from flab.groups import Group, StabilizerChain, make_group, quotient
from flab.lattice import all_subgroups, lattice_summary
from flab.subgroups import (
    bits,
    centralizer,
    closure_mask,
    full_subgroup,
    gens_for_mask,
    normal_subgroup_masks,
    subgroup_to_group,
    translate_mask,
)

from .oracles import center_bf, element_order_histogram, elements_of, quotient_by_permutations


@functools.lru_cache(maxsize=None)
def _corpus60():
    return tuple(build_corpus(60))


def _order_histogram(G) -> dict[int, int]:
    hist: dict[int, int] = {}
    for i in range(G.order):
        o = G.elt_order(i)
        hist[o] = hist.get(o, 0) + 1
    return hist


# -- quotient against the permutation oracle ----------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_matches_permutation_oracle(data):
    entry = data.draw(st.sampled_from(_corpus60()), label="group")
    G = entry.group
    n_mask = data.draw(st.sampled_from(normal_subgroup_masks(G)), label="normal subgroup")
    qm = quotient(G, n_mask, gens_for_mask(G, n_mask))
    Q = qm.group
    oracle, coset_of, coset_perms = quotient_by_permutations(G, n_mask)

    assert Q.order == oracle.order == G.order // n_mask.bit_count()
    assert list(qm.coset_of) == coset_of
    assert _order_histogram(Q) == element_order_histogram(oracle)
    assert lattice_summary(Q)["by_order"] == lattice_summary(oracle)["by_order"]
    assert centralizer(Q, full_subgroup(Q)).order == len(center_bf(elements_of(oracle)))
    # coset_of is a homomorphism onto the new table
    table, qtable = G.table, Q.table
    for j in range(G.order):
        row, qrow = table[j], qtable[coset_of[j]]
        for i in range(G.order):
            assert coset_of[row[i]] == qrow[coset_of[i]]
    # asked for permutations, quotient element c is the coset action of coset c
    assert Q.degree == oracle.degree
    assert [Q.perm_at(c) for c in coset_of] == coset_perms
    assert set(Q.elements()) == set(oracle.elements())


def test_quotient_image_and_preimage_masks():
    G = make_group("S4")
    for n_mask in normal_subgroup_masks(G):
        qm = quotient(G, n_mask, gens_for_mask(G, n_mask))
        for c in range(qm.group.order):
            coset = qm.preimage_mask(1 << c)
            assert coset.bit_count() == n_mask.bit_count()
            assert qm.image_mask(coset) == 1 << c
        assert qm.preimage_mask(1 << qm.group.identity_idx) == n_mask


# -- no Schreier-Sims for table groups -----------------------------------------


def test_quotient_and_subgroup_build_no_stabilizer_chain(monkeypatch):
    groups = [make_group(spec) for spec in ("S4", "SL(2,3)", "C2 x D8", "sd(C7,C3,n0->n0^2)")]
    for G in groups:
        G.table  # enumerate the parents while chains may still be built
        all_subgroups(G)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a StabilizerChain was built")

    monkeypatch.setattr(StabilizerChain, "__init__", refuse)
    for G in groups:
        for n_mask in normal_subgroup_masks(G):
            Q = quotient(G, n_mask, gens_for_mask(G, n_mask)).group
            assert Q.order * n_mask.bit_count() == G.order
            _order_histogram(Q)
            lattice_summary(Q)
        for ref in all_subgroups(G).refs:
            sub = subgroup_to_group(ref)
            assert sub.order == ref.order
            _order_histogram(sub)
            normal_subgroup_masks(sub)


# -- subgroups as groups ----------------------------------------------------------


def test_subgroup_group_is_the_restricted_table():
    G = make_group("SL(2,3)")
    for ref in all_subgroups(G).refs:
        sub = subgroup_to_group(ref)
        if ref.is_full:
            assert sub is G
            continue
        members = list(bits(ref.mask))
        assert sub.ambient_idxs == tuple(members)
        assert [sub.perm_at(i) for i in range(sub.order)] == [G.perm_at(a) for a in members]
        for i, a in enumerate(members):
            assert sub.inv(i) == members.index(G.inv(a))
            assert sub.elt_order(i) == G.elt_order(a)
            for j, b in enumerate(members):
                assert members[sub.mul(i, j)] == G.mul(a, b)
        assert sub.identity_idx == members.index(G.identity_idx)
        assert closure_mask(sub, sub.gen_idxs()) == (1 << sub.order) - 1


def test_translate_mask_round_trips_every_lattice_member():
    for entry in _corpus60():
        G = entry.group
        lat = all_subgroups(G)
        for i, X in enumerate(lat.refs):
            sub = subgroup_to_group(X)
            members = sub.ambient_idxs or range(G.order)  # the full group is its own subgroup group

            def back(inner: int) -> int:
                return sum(1 << members[k] for k in bits(inner))

            full = (1 << sub.order) - 1
            assert translate_mask(X, X.mask) == full
            assert back(full) == X.mask
            for j in lat.maximal_subgroup_idxs(i):
                m = lat.refs[j].mask
                inner = translate_mask(X, m)
                assert inner.bit_count() == m.bit_count()
                assert closure_mask(sub, bits(inner)) == inner  # still a subgroup of sub
                assert back(inner) == m


# -- element orders and the table of enumerated groups ---------------------------


def test_element_orders_from_the_table_match_permutation_orders():
    for entry in _corpus60():
        G = entry.group
        assert [G.elt_order(i) for i in range(G.order)] == [p.order() for p in G.elements()]


@pytest.mark.parametrize("spec", ["S4", "SL(2,3)", "C3 x S3", "sd(C5,C4,n0->n0^2)", "Q8 x C3"])
def test_table_and_conjugation_rows_match_permutation_products(spec):
    G = make_group(spec)
    elems = G.elements()
    idx = G.element_index()
    for j, b in enumerate(elems):
        assert list(G.table[j]) == [idx[a * b] for a in elems]
        assert list(G.conj_row(j)) == [idx[a.conjugate(b)] for a in elems]
    assert [G.inv(i) for i in range(G.order)] == [idx[a.inverse()] for a in elems]


def test_from_table_regular_representation():
    G = make_group("D10")
    Q = quotient(G, 1 << G.identity_idx, ()).group
    assert isinstance(Q, Group) and Q.order == 10 and Q.degree == 10
    # the right regular permutations multiply as the elements do
    for i in range(Q.order):
        for j in range(Q.order):
            assert Q.perm_at(i) * Q.perm_at(j) == Q.perm_at(Q.mul(i, j))
    assert Q.generators == tuple(Q.perm_at(g) for g in Q.gen_idxs())
    assert Q.identity_idx not in Q.gen_idxs()
