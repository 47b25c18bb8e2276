import pytest
from hypothesis import given, settings, strategies as st

import flab.lattice as lattice_mod
from flab.corpus import _FIXED_PRODUCTS, build_corpus
from flab.errors import LatticeBudgetExceeded
from flab.groups import Group, make_group
from flab.lattice import all_subgroups, frattini, lattice_summary, maximal_subgroups
from flab.perms import Permutation
from flab.series import is_soluble
from flab.subgroups import bits, closure_mask, conjugacy_orbit, normalizer, prime_factors

from .oracles import subgroups_by_all_joins, subgroups_by_cyclic_extension, subgroups_by_small_subsets


def _as_sets(G, lat):
    elems = G.elements()
    return {frozenset(elems[i] for i in bits(ref.mask)) for ref in lat.refs}


def test_s3_subgroups_match_subset_oracle():
    G = make_group("S3")
    lat = all_subgroups(G)
    assert len(lat) == 6
    oracle = subgroups_by_small_subsets(G, 2)
    assert _as_sets(G, lat) == oracle


def test_s4_subgroups_match_cyclic_extension_oracle():
    G = make_group("S4")
    lat = all_subgroups(G)
    assert len(lat) == 30
    oracle = subgroups_by_cyclic_extension(G)
    assert _as_sets(G, lat) == oracle


def test_d12_and_q8_against_oracle():
    for spec, count in (("D12", 16), ("Q8", 6), ("A4", 10)):
        G = make_group(spec)
        lat = all_subgroups(G)
        assert len(lat) == count
        assert _as_sets(G, lat) == subgroups_by_cyclic_extension(G)


def test_cp_has_two_subgroups():
    for p in (2, 3, 5, 7):
        assert len(all_subgroups(make_group(f"C{p}"))) == 2


def test_s5_and_a5_counts():
    assert len(all_subgroups(make_group("S5"))) == 156
    assert len(all_subgroups(make_group("A5"))) == 59


def test_lattice_contains_trivial_and_full():
    G = make_group("D20")
    lat = all_subgroups(G)
    orders = [r.order for r in lat.refs]
    assert orders[0] == 1 and orders[-1] == G.order


def test_conjugation_closure():
    G = make_group("S4")
    lat = all_subgroups(G)
    masks = set(lat.index_of_mask)
    for ref in lat.refs:
        for cm in conjugacy_orbit(G, ref.mask):
            assert cm in masks


def test_containment_consistency():
    G = make_group("SL(2,3)")
    lat = all_subgroups(G)
    for i, a in enumerate(lat.refs):
        for j, b in enumerate(lat.refs):
            contained = a.mask & ~b.mask == 0
            assert contained == bool((lat.sup_rows[i] >> j) & 1)


def test_orbit_stabilizer_across_lattice():
    G = make_group("S4")
    lat = all_subgroups(G)
    for cls in lat.classes:
        ref = lat.refs[cls[0]]
        assert normalizer(G, ref).order * len(cls) == G.order


def test_maximal_subgroups_s4():
    G = make_group("S4")
    orders = sorted(m.order for m in maximal_subgroups(G))
    assert orders == [6, 6, 6, 6, 8, 8, 8, 12]


def test_maximal_subgroups_cp_and_q8():
    assert [m.order for m in maximal_subgroups(make_group("C7"))] == [1]
    assert sorted(m.order for m in maximal_subgroups(make_group("Q8"))) == [4, 4, 4]


def test_frattini_values():
    assert frattini(make_group("S4")).order == 1
    assert frattini(make_group("C4")).order == 2
    assert frattini(make_group("Q8")).order == 2
    t = make_group("C1")
    assert frattini(t).order == 1  # intersection over no maximals is the group


def test_budget_guard():
    from flab import config

    G = make_group("S4")
    G._lattice = None
    old = config.LATTICE_SUBGROUP_BUDGET
    config.LATTICE_SUBGROUP_BUDGET = 5
    try:
        with pytest.raises(LatticeBudgetExceeded):
            all_subgroups(G)
    finally:
        config.LATTICE_SUBGROUP_BUDGET = old
        G._lattice = None


@pytest.mark.parametrize("spec, count", [("S4", 30), ("A5", 59)])
def test_budget_counts_whole_conjugacy_classes(spec, count, monkeypatch):
    from flab import config

    monkeypatch.setattr(config, "LATTICE_SUBGROUP_BUDGET", count - 1)
    with pytest.raises(LatticeBudgetExceeded):
        all_subgroups(make_group(spec))
    monkeypatch.setattr(config, "LATTICE_SUBGROUP_BUDGET", count)
    assert len(all_subgroups(make_group(spec))) == count


def test_lattice_summary():
    summary = lattice_summary(make_group("D12"))
    assert summary["subgroups"] == 16
    assert summary["by_order"] == {1: 1, 2: 7, 3: 1, 4: 3, 6: 3, 12: 1}


def _tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 18, 24, 30, 36])
def test_cyclic_subgroup_count_is_divisor_count(n):
    assert len(all_subgroups(make_group(f"C{n}"))) == _tau(n)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 10, 12, 15])
def test_dihedral_subgroup_count_formula(n):
    # subgroups of the dihedral group of order 2n number tau(n) + sigma(n)
    assert len(all_subgroups(make_group(f"D{2 * n}"))) == _tau(n) + _sigma(n)


def test_isomorphic_constructions_share_subgroup_counts():
    from collections import Counter

    a = all_subgroups(make_group("SL(2,3)"))
    b = all_subgroups(make_group("sd(Q8,C3,n0->n1,n1->n0*n1)"))
    assert Counter(r.order for r in a.refs) == Counter(r.order for r in b.refs)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.permutations(range(4)), min_size=1, max_size=2))
def test_random_small_groups_match_subset_oracle(image_lists):
    gens = [Permutation(imgs) for imgs in image_lists]
    G = Group(4, gens)
    lat = all_subgroups(G)
    oracle = subgroups_by_small_subsets(G, 3)  # subgroups of S4-subgroups are 3-generated
    assert _as_sets(G, lat) == oracle


def _classes(lat):
    return {frozenset(lat.refs[j].mask for j in cls) for cls in lat.classes}


def test_lattice_classes_match_all_joins_oracle():
    # every group of build_corpus(120) (A5 and S5 among them) and every fixed product,
    # and insoluble products whose lattices mix soluble and insoluble subgroups
    groups = [entry.group for entry in build_corpus(120)]
    groups += [G for G in (make_group(spec) for _, spec in _FIXED_PRODUCTS) if G.order > 120]
    groups += [make_group(spec) for spec in ("C2 x S5", "A5 x C3")]
    assert {"A5", "S5"} <= {G.name for G in groups}
    for G in groups:
        oracle = {frozenset(orbit) for orbit in subgroups_by_all_joins(G)}
        assert _classes(all_subgroups(G)) == oracle, G.name


def _normalizer_mask(G, mask):
    return sum(1 << g for g in range(G.order) if all((mask >> G.conj(h, g)) & 1 for h in bits(mask)))


def _is_extension(rep, norm, atom):
    """Whether the cyclic p-group ``atom`` lies in N(rep) and meets rep in its subgroup of index p."""
    q = atom.bit_count()
    return atom & ~norm == 0 and (atom & rep).bit_count() * prime_factors(q)[0] == q


def _record_joins(G, monkeypatch):
    """Each join all_subgroups(G) forms, in order, as (representative, atom,
    join, whether the atom is an extension atom), and each representative's
    normalizer."""
    raw = []

    def recording_closure(G_, seeds, stop_above=None, base=None):
        joined = closure_mask(G_, seeds, stop_above=stop_above, base=base)
        if stop_above is not None:  # a join of a representative with one atom
            raw.append((base, closure_mask(G_, [list(seeds)[-1]]), joined))
        return joined

    monkeypatch.setattr(lattice_mod, "closure_mask", recording_closure)
    all_subgroups(G)
    monkeypatch.undo()
    norms = {rep: _normalizer_mask(G, rep) for rep, _, _ in raw}
    return [(rep, atom, joined, _is_extension(rep, norms[rep], atom)) for rep, atom, joined in raw], norms


@pytest.mark.parametrize("spec", ["S4", "A5", "SL(2,3)"])
def test_each_representative_joins_one_atom_per_normalizer_orbit(spec, monkeypatch):
    G = make_group(spec)
    joins, norms = _record_joins(G, monkeypatch)
    soluble = is_soluble(G)
    atoms = {closure_mask(G, [x]) for x in range(G.order) if len(prime_factors(G.elt_order(x))) == 1}
    atoms.discard(1 << G.identity_idx)
    # the extension sweep joins only extension atoms; the all-atom sweep runs iff G is insoluble
    first_all_atom = next((k for k, join in enumerate(joins) if not join[3]), len(joins))
    assert (first_all_atom == len(joins)) == soluble
    for rep, norm in norms.items():

        def orbit(mask):
            return frozenset(sum(1 << G.conj(x, g) for x in bits(mask)) for g in bits(norm))

        def accounted(rep_joins):
            """Orbits joined from rep, and those inside one of its extension joins."""
            out = set()
            for _, atom, joined, extension in rep_joins:
                assert orbit(atom) not in out, (spec, rep)  # no orbit twice, nor one already accounted
                out.add(orbit(atom))
                if extension:  # <H, b> = <H, a> for an atom b of <H, a> outside H
                    out.update(orbit(b) for b in atoms if b & ~rep and b & ~joined == 0)
            return out

        swept = accounted([join for join in joins if join[0] == rep])
        extension_orbits = {orbit(b) for b in atoms if _is_extension(rep, norm, b)}
        assert extension_orbits <= swept, (spec, rep)
        if not soluble:
            # the extension sweep finishes a representative before the all-atom sweep
            first_sweep = [join for join in joins[:first_all_atom] if join[0] == rep]
            if first_sweep:
                assert extension_orbits <= accounted(first_sweep), (spec, rep)
            assert swept == {orbit(b) for b in atoms if b & ~rep}, (spec, rep)  # every orbit outside H
    if not soluble:  # every class but G's and the unit group's has a representative that joins
        classes = {frozenset(conjugacy_orbit(G, rep)) for rep in norms}
        assert len(classes) == len(all_subgroups(G).classes) - 2


@pytest.mark.parametrize("spec, most_joins", [("D200", 40), ("A5", None)])
def test_all_atom_sweep_runs_only_for_insoluble_groups(spec, most_joins, monkeypatch):
    G = make_group(spec)
    joins, _ = _record_joins(G, monkeypatch)
    soluble = is_soluble(G)
    assert all(extension for *_, extension in joins) == soluble
    # the extension sweep reaches G iff G is soluble
    full = (1 << G.order) - 1
    assert any(joined == full and extension for _, _, joined, extension in joins) == soluble
    if most_joins is not None:
        assert len(joins) <= most_joins
