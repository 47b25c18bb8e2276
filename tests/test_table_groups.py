"""Groups built from rows: quotients, sections and oracle products read off
the parent's table.

``quotient`` is compared with the permutation-group construction it
replaced (``oracles.quotient_by_permutations``) on corpus groups of order at
most 60; ``coset_group``'s sections X/N are compared with the quotient of X
built as a permutation group from its generators, and with the section
whose every row was read off the parent (``oracles.coset_group_by_full_rows``);
the oracle product of each abelian chief factor is compared with the one
built row by row (``oracles.table_product_by_full_rows``).  Enumerated
groups keep their table too: their permutations, made on request, are
compared with the enumeration that once kept them
(``oracles.elements_by_enumeration``), and no group keeps them after the
default suite.  Every group keeps its generators' rows, so a release frees
every group's table, and the next read rebuilds it.
"""

import functools
import gc

import pytest
from hypothesis import given, settings, strategies as st

from flab.checks import CHECKS, DEFAULT_SUITE, run_checks
from flab.corpus import build_corpus
from flab.formations import Gpi, formation_member
from flab.groups import Group, StabilizerChain, coset_group, make_group, quotient, right_cosets
from flab.hypercenter import _table_product, build_factor_action_product
from flab.lattice import all_subgroups, lattice_summary
from flab.perms import Permutation
from flab.series import chief_factors
from flab.subgroups import (
    bits,
    centralizer,
    centralizer_of_factor,
    full_subgroup,
    gens_for_mask,
    normal_subgroup_masks,
)

from .oracles import (
    center_bf,
    coset_group_by_full_rows,
    element_order_histogram,
    elements_by_enumeration,
    elements_of,
    quotient_by_permutations,
    table_by_permutation_products,
    table_product_by_full_rows,
)


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


# -- no Schreier-Sims on the library path ---------------------------------------


def test_quotient_and_subgroup_build_no_stabilizer_chain(monkeypatch):
    # spec groups, quotients, sections and a default-suite run over a corpus
    # holding A5 and S5, whose non-abelian chief factors reach the centrality
    # oracle through delta-phi and lemmas, all build no chain
    def refuse(self, *args, **kwargs):
        raise AssertionError("a StabilizerChain was built")

    monkeypatch.setattr(StabilizerChain, "__init__", refuse)
    groups = [make_group(spec) for spec in ("S4", "SL(2,3)", "C2 x D8", "sd(C7,C3,n0->n0^2)")]
    for G in groups:
        for n_mask in normal_subgroup_masks(G):
            Q = quotient(G, n_mask, gens_for_mask(G, n_mask)).group
            assert Q.order * n_mask.bit_count() == G.order
            _order_histogram(Q)
            lattice_summary(Q)
        for ref in all_subgroups(G).refs:
            for n_mask in normal_subgroup_masks(ref):
                section = coset_group(G, *right_cosets(G, ref.mask, n_mask), ref.gen_idxs)
                assert section.order * n_mask.bit_count() == ref.order
                _order_histogram(section)
                normal_subgroup_masks(section)
    corpus = build_corpus(120)
    assert {"A5", "S5"} <= set(corpus.names())
    reports = run_checks(DEFAULT_SUITE, corpus)
    assert len(reports) == len(DEFAULT_SUITE) and all(report.ok for report in reports)


# -- sections X/N ------------------------------------------------------------------


def test_coset_group_matches_quotient_of_the_permutation_built_subgroup():
    # X built from its generators keeps G's relative index order (both sort by
    # image tuple), so X/N read off G's cosets is that group's quotient, table
    # for table, and the section read off G a row at a time; and the coset
    # map carries G's products and inverses in X to X/N
    for entry in _corpus60():
        G = entry.group
        for X in all_subgroups(G).refs:
            members = list(bits(X.mask))
            P = Group(G.degree, [G.perm_at(g) for g in X.gen_idxs])
            assert [P.idx_of(G.perm_at(a)) for a in members] == list(range(P.order))
            for n_mask in normal_subgroup_masks(X):
                coset_of, reps = right_cosets(G, X.mask, n_mask)
                S = coset_group(G, coset_of, reps, X.gen_idxs)
                p_mask = sum(1 << members.index(a) for a in bits(n_mask))
                Q = quotient(P, p_mask, gens_for_mask(P, p_mask)).group
                assert (S.table, S.inverses, S.identity_idx, S.gen_idxs()) == (
                    Q.table,
                    Q.inverses,
                    Q.identity_idx,
                    Q.gen_idxs(),
                ), (entry.name, X.order, n_mask.bit_count())
                full_rows = coset_group_by_full_rows(G, coset_of, reps, X.gen_idxs)
                assert (S.table, S.inverses, S.identity_idx, S.gen_idxs()) == full_rows
                for a in members:
                    assert S.inv(coset_of[a]) == coset_of[G.inv(a)]
                    for b in members:
                        assert S.mul(coset_of[a], coset_of[b]) == coset_of[G.mul(a, b)]


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


def test_table_matches_permutation_product_oracle_on_corpus():
    # groups from specs: the indexing, generators, table and inverse map read
    # off the enumeration equal those built from Permutation products; rows
    # are one byte up to order 256 (D256: the largest, with no pad) and two
    # bytes above it (S4 x D12, order 288)
    boundary = [make_group("D256"), make_group("S4 x D12")]
    assert [(G.order, G.table[0].typecode) for G in boundary] == [(256, "B"), (288, "h")]
    groups = [entry.group for entry in build_corpus(200)] + [make_group("perm(0; ())")] + boundary
    for G in groups:
        elems, rows, inv = table_by_permutation_products(G)
        assert G.elements() == elems, G.name
        assert G.table == rows, G.name
        assert G.inverses == inv, G.name
        idx = {p: i for i, p in enumerate(elems)}
        assert G.identity_idx == idx[G.identity()]
        assert G.gen_idxs() == tuple(idx[g] for g in G.generators), G.name


def test_permutations_on_request_match_the_enumeration_oracle():
    # an enumerated group keeps its table, not its permutations; asked for
    # them, it rebuilds them from the table in the enumeration's index order
    specs = ["perm(7; (0 1 2 3 4 5 6); (1 2)(3 6))", "sd(C7,C3,n0->n0^2)", "C2 x S3 x sd(C7,C3,n0->n0^2)"]
    groups = [entry.group for entry in build_corpus(120)] + [make_group(spec) for spec in specs]
    for G in groups:
        assert G._elements is None, G.name
        assert G.elements() == elements_by_enumeration(G), G.name
        for i in range(G.order):
            p = G.perm_at(i)
            assert G.idx_of(p) == i and p in G, (G.name, i)


def test_groups_hold_no_permutations_after_the_default_suite():
    # every check works on element indices through the table, so after the
    # whole suite the only permutations the corpus keeps alive are the
    # generators its groups were built from: no group, cached quotient or
    # factor product among them, holds its elements.  run_checks frees each
    # group's sections once its checks are done, so each configuration's
    # per-group rows run here, and the sections are inspected while held
    def live_permutations() -> int:
        gc.collect()
        return sum(isinstance(obj, Permutation) for obj in gc.get_objects())

    before = live_permutations()
    corpus = build_corpus(60)
    plan = [(CHECKS[name], *CHECKS[name].configure(params)) for name, params in DEFAULT_SUITE]
    sections = 0
    for entry in corpus:
        G = entry.group
        for check, resolved, _, assertive in plan:
            rows = check.rows(entry, resolved)
            assert not assertive or all(row["pass"] for row in rows), (entry.name, rows)
        held = (*(qm.group for qm in G._quotients.values()), *G._factor_products.values())
        sections += len(held)
        for H in (G, *held):
            assert H._elements is None and H._index is None, (entry.name, H.name)
    assert sections > 0
    generators = sum(len(entry.group.generators) for entry in corpus)
    assert live_permutations() - before <= generators


def test_row_group_regular_representation():
    G = make_group("D10")
    Q = quotient(G, 1 << G.identity_idx, ()).group
    assert isinstance(Q, Group) and Q.order == 10 and Q.degree == 10
    # the right regular permutations multiply as the elements do
    for i in range(Q.order):
        for j in range(Q.order):
            assert Q.perm_at(i) * Q.perm_at(j) == Q.perm_at(Q.mul(i, j))
    assert Q.generators == tuple(Q.perm_at(g) for g in Q.gen_idxs())
    # each generator is the permutation of its table row, x -> x * g
    assert Q.generators == tuple(Permutation(Q.table[g]) for g in Q.gen_idxs())
    assert Q.identity_idx not in Q.gen_idxs()


def test_release_frees_the_table_of_every_group():
    # every group keeps its generators' rows, so a release frees the table,
    # inverses and conjugation rows of an enumerated group, a quotient, a
    # coset_group section and an oracle product alike, and the next read
    # rebuilds them equal
    G = make_group("S4")
    V4 = next(m for m in normal_subgroup_masks(G) if m.bit_count() == 4)
    Q = quotient(G, V4, gens_for_mask(G, V4)).group
    X = next(ref for ref in all_subgroups(G).refs if ref.order == 12)
    S = coset_group(G, *right_cosets(G, X.mask, V4), X.gen_idxs)
    factor = next(f for f in chief_factors(G) if f.below.order == 1 and f.above.order == 4)
    W = build_factor_action_product(G, factor)
    assert (Q.order, S.order, W.order) == (6, 3, 24)
    for H in (G, Q, S, W):
        table, inverses = list(H.table), H.inverses
        conj_rows = [H.conj_row(g) for g in range(H.order)]
        H.release_working_set()
        assert H._table is None and H._inv is None and not H._conj_rows, H.name
        assert H.inverses == inverses and H.table == table, H.name
        assert [H.conj_row(g) for g in range(H.order)] == conj_rows, H.name


# -- oracle products, and a section that builds no table --------------------------


def test_factor_product_matches_the_full_row_oracle():
    # every abelian chief factor H/K of every group up to order 150
    products = 0
    for entry in build_corpus(150):
        G = entry.group
        for factor in chief_factors(G):
            if len(factor.primes()) > 1:
                continue
            cent = centralizer_of_factor(G, factor.above, factor.below)
            coset_of, reps = right_cosets(G, factor.above.mask, factor.below.mask)
            acting = quotient(G, cent.mask, cent.gen_idxs)
            W = _table_product(G, factor, coset_of, reps, acting)
            expected = table_product_by_full_rows(G, factor, coset_of, reps, acting)
            assert (W.table, W.inverses, W.identity_idx, W.gen_idxs()) == expected, (
                entry.name,
                factor.below.order,
                factor.above.order,
            )
            products += 1
    assert products > 500


def test_membership_by_primes_builds_no_section_table():
    # a class decided by the primes of the order reads no table, so a
    # section made for it holds only its generators' rows
    G = make_group("S4")
    V4 = next(m for m in normal_subgroup_masks(G) if m.bit_count() == 4)
    for X in all_subgroups(G).refs:
        if X.mask & V4 == V4:
            S = coset_group(G, *right_cosets(G, X.mask, V4), X.gen_idxs)
            assert formation_member(Gpi(frozenset({2, 3})), S)
            assert formation_member(Gpi(frozenset({2})), S) == (S.order & (S.order - 1) == 0)
            assert S._table is None and S._inv is None, X.order
