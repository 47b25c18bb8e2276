import pytest

from flab.errors import FlabError
from flab.groups import make_group
from flab.lattice import all_subgroups
from flab.series import (
    chief_factors,
    chief_series,
    derived_series,
    fitting_subgroup,
    is_nilpotent,
    is_soluble,
    minimal_normal_subgroups,
    nilpotent_length,
    normal_subgroups,
    upper_central_series,
)
from flab.corpus import build_corpus
from flab.subgroups import bits, conjugacy_orbit

from .oracles import (
    chief_series_by_subgroup_group,
    fitting_subgroup_by_closure,
    nilpotent_length_by_quotients,
)


def test_normal_subgroups_s4():
    G = make_group("S4")
    orders = sorted(n.order for n in normal_subgroups(G))
    assert orders == [1, 4, 12, 24]


def test_normal_subgroups_match_lattice_filter():
    for spec in ("S4", "D12", "SL(2,3)", "C2 x C6", "A4", "Q8"):
        G = make_group(spec)
        lat = all_subgroups(G)
        from_lattice = {
            ref.mask
            for ref in lat.refs
            if conjugacy_orbit(G, ref.mask) == [ref.mask]
        }
        direct = {n.mask for n in normal_subgroups(G)}
        assert direct == from_lattice


def test_normal_subgroups_are_listed_by_order_then_integer_mask():
    # the lemma check samples positions in this list, so its order is pinned;
    # on E(3^2) the (order, fingerprint) key would list the order-3 ones differently
    masks = [ref.mask for ref in normal_subgroups(make_group("E(3^2)"))]
    assert masks == sorted(masks, key=lambda m: (m.bit_count(), m))
    assert masks != sorted(masks, key=lambda m: (m.bit_count(), tuple(bits(m))))


def test_abelian_groups_have_all_subgroups_normal():
    G = make_group("C2 x C6")
    assert len(normal_subgroups(G)) == len(all_subgroups(G))


def test_a5_is_simple():
    G = make_group("A5")
    assert sorted(n.order for n in normal_subgroups(G)) == [1, 60]
    assert [n.order for n in minimal_normal_subgroups(G)] == [60]


def test_minimal_normal_subgroups():
    assert [n.order for n in minimal_normal_subgroups(make_group("S4"))] == [4]
    # sorted by (order, fingerprint); the first is the chief series' first step
    for spec in ("C2 x C6", "E(3^2)", "A4 x C3"):
        G = make_group(spec)
        minimal = [ref.mask for ref in minimal_normal_subgroups(G)]
        nontrivial = [ref.mask for ref in normal_subgroups(G) if ref.order > 1]
        expected = [m for m in nontrivial if not any(o != m and o & ~m == 0 for o in nontrivial)]
        assert minimal == sorted(expected, key=lambda m: (m.bit_count(), tuple(bits(m))))
        assert chief_series(G)[1].mask == minimal[0]
    v4 = make_group("E(2^2)")
    assert [n.order for n in minimal_normal_subgroups(v4)] == [2, 2, 2]
    with pytest.raises(FlabError):
        minimal_normal_subgroups(make_group("C1"))


def test_chief_series_s4():
    G = make_group("S4")
    series = chief_series(G)
    assert [s.order for s in series] == [1, 4, 12, 24]
    factors = chief_factors(G)
    assert [f.order for f in factors] == [4, 3, 2]
    for f in factors:
        f.verify()


def test_chief_series_q8_deterministic():
    G = make_group("Q8")
    series = chief_series(G)
    assert [s.order for s in series] == [1, 2, 4, 8]
    assert [f.order for f in chief_factors(G)] == [2, 2, 2]
    again = chief_series(G)
    assert [s.mask for s in series] == [s.mask for s in again]


def test_chief_factor_orders_invariant_under_choice():
    # all chief series share the multiset of factor orders
    import random

    G = make_group("SL(2,3)")
    expected = sorted(f.order for f in chief_factors(G))
    from flab.series import _minimal_normal_above
    from flab.subgroups import subgroup_from_mask, trivial_subgroup

    rng = random.Random(7)
    for _ in range(5):
        orders = []
        current = trivial_subgroup(G)
        while current.order < G.order:
            candidates = _minimal_normal_above(G, current.mask)
            pick = rng.choice(candidates)
            orders.append(pick.bit_count() // current.order)
            current = subgroup_from_mask(G, pick)
        assert sorted(orders) == expected


def test_chief_series_cp():
    assert [s.order for s in chief_series(make_group("C7"))] == [1, 7]


def test_upper_central_series():
    s3 = make_group("S3")
    assert [z.order for z in upper_central_series(s3)] == [1]
    q8 = make_group("Q8")
    assert [z.order for z in upper_central_series(q8)] == [1, 2, 8]
    ab = make_group("C2 x C6")
    assert [z.order for z in upper_central_series(ab)] == [1, 12]


def test_ucs_limit_is_nilpotent_hypercenter():
    from flab.formations import NIL
    from flab.hypercenter import hypercenter

    for spec in ("S3", "S4", "Q8", "SL(2,3)", "D12", "C2 x C6", "A5"):
        G = make_group(spec)
        assert upper_central_series(G)[-1].mask == hypercenter(NIL, G).mask


def test_derived_series_and_solubility():
    s4 = make_group("S4")
    assert [d.order for d in derived_series(s4)] == [24, 12, 4, 1]
    assert is_soluble(s4)
    assert not is_soluble(make_group("A5"))
    assert not is_soluble(make_group("S5"))
    assert is_soluble(make_group("D20"))


def test_soluble_iff_all_chief_factors_abelian():
    from flab.subgroups import prime_factors

    for spec in ("S4", "A5", "D12", "SL(2,3)", "C30"):
        G = make_group(spec)
        factors = chief_factors(G)
        all_abelian = all(len(prime_factors(f.order)) == 1 for f in factors)
        assert all_abelian == is_soluble(G)


def test_nilpotent_length():
    assert nilpotent_length(make_group("C6")) == 1
    assert nilpotent_length(make_group("Q8")) == 1
    assert nilpotent_length(make_group("S3")) == 2
    assert nilpotent_length(make_group("S4")) == 3
    assert nilpotent_length(make_group("C1")) == 0
    with pytest.raises(FlabError):
        nilpotent_length(make_group("A5"))


def test_subgroup_sections_agree_with_subgroup_group_oracles():
    # a proper subgroup's chief series and Fitting length are read in the
    # ambient group; the oracles build X and its quotients as groups
    for entry in build_corpus(60):
        for X in all_subgroups(entry.group).refs:
            assert [ref.mask for ref in chief_series(X)] == chief_series_by_subgroup_group(X), entry.name
            if is_soluble(X):
                assert nilpotent_length(X) == nilpotent_length_by_quotients(X), (entry.name, X.order)


def test_fitting_subgroup():
    assert fitting_subgroup(make_group("S4")).order == 4
    assert fitting_subgroup(make_group("S3")).order == 3
    assert fitting_subgroup(make_group("SL(2,3)")).order == 8


def test_fitting_subgroup_agrees_with_closure_oracle():
    # the smallest X-normal subgroup above the O_p(X) is their join
    for entry in build_corpus(60):
        for X in all_subgroups(entry.group).refs:
            assert fitting_subgroup(X).mask == fitting_subgroup_by_closure(X), (entry.name, X.order)


def test_is_nilpotent():
    assert is_nilpotent(make_group("Q8"))
    assert is_nilpotent(make_group("C2 x Q8"))
    assert not is_nilpotent(make_group("S3"))
    assert not is_nilpotent(make_group("D12"))
