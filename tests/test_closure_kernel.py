"""The coset-based closure kernel and the routines built on it, against the
plain reference algorithms in ``tests/oracles.py``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flab.subgroups as subgroups_mod
from flab.corpus import build_corpus
from flab.groups import make_group
from flab.lattice import _cyclic_subgroups, all_subgroups
from flab.subgroups import (
    SubgroupRef,
    closure_mask,
    gens_for_mask,
    normal_subgroup_masks,
    subgroup_from_mask,
)

from .oracles import (
    closure_mask_bfs,
    gens_for_mask_maxscan,
    normal_subgroups_bf,
    subgroups_by_cyclic_extension,
)

_SMALL = [entry.group for entry in build_corpus(60)]
_LARGE = make_group("C31 x C31")  # order 961, in the 901-2000 band
_GROUPS = _SMALL + [_LARGE]


def _masks(G, subsets) -> set[int]:
    index = G.element_index()
    out = set()
    for elems in subsets:
        mask = 0
        for p in elems:
            mask |= 1 << index[p]
        out.add(mask)
    return out


@pytest.mark.parametrize("spec", ["C31 x C31", "D2000"])
def test_groups_above_order_900_get_a_table(spec):
    G = _LARGE if spec == _LARGE.name else make_group(spec)
    assert G.order in (961, 2000)
    elems = G.elements()
    assert len(G.table) == G.order
    rng = random.Random(spec)
    for _ in range(200):
        i, j = rng.randrange(G.order), rng.randrange(G.order)
        assert elems[G.mul(i, j)] == elems[i] * elems[j]
        assert elems[G.inv(i)] == elems[i].inverse()
        assert elems[G.conj_row(j)[i]] == elems[j].inverse() * elems[i] * elems[j]


@st.composite
def _closure_case(draw):
    G = draw(st.sampled_from(_GROUPS))
    idx = st.integers(0, G.order - 1)
    seeds = draw(st.lists(idx, max_size=4))
    base_seeds = draw(st.lists(idx, max_size=3))
    stop_above = draw(st.one_of(st.none(), st.integers(1, G.order)))
    order = draw(st.permutations(range(len(base_seeds) + len(seeds))))
    return G, seeds, base_seeds, stop_above, order


@settings(max_examples=300, deadline=None)
@given(_closure_case())
def test_closure_matches_bfs_oracle(case):
    G, seeds, base_seeds, stop_above, order = case
    expected = closure_mask_bfs(G, seeds, stop_above)
    assert closure_mask(G, seeds, stop_above) == expected
    # from a closed base generated by base_seeds, seeds in any order
    base = closure_mask_bfs(G, base_seeds)
    combined = base_seeds + seeds
    shuffled = [combined[i] for i in order]
    expected = closure_mask_bfs(G, shuffled, stop_above)
    assert closure_mask(G, shuffled, stop_above, base=base) == expected


@pytest.mark.parametrize("spec", ["S4", "D12", "Q8", "SL(2,3)", "C2 x C2 x C2", "A5", "C2 x S4"])
def test_gens_for_mask_matches_oracle_on_every_subgroup(spec):
    G = make_group(spec)
    for ref in all_subgroups(G).refs:
        assert gens_for_mask(G, ref.mask) == gens_for_mask_maxscan(G, ref.mask)


def test_gens_for_mask_matches_oracle_above_order_900():
    G = _LARGE
    for seeds in ([1], [5, 900], [37, 74, 111], [2, 3]):
        mask = closure_mask_bfs(G, seeds)
        assert gens_for_mask(G, mask) == gens_for_mask_maxscan(G, mask)


@pytest.mark.parametrize("spec", ["S4", "D12", "Q8", "SL(2,3)", "C2 x C2 x C2"])
def test_normal_subgroup_masks_match_bruteforce(spec):
    G = make_group(spec)
    expected = _masks(G, normal_subgroups_bf(G))
    got = normal_subgroup_masks(G)
    assert set(got) == expected
    assert len(got) == len(expected)
    assert list(got) == sorted(got, key=lambda m: (m.bit_count(), m))


@pytest.mark.parametrize("spec", ["S4", "D12", "Q8", "SL(2,3)", "C2 x C2 x C2", "C3 x S3"])
def test_cyclic_seeds_record_lowest_index_generator(spec):
    G = make_group(spec)
    expected: dict[int, int] = {}
    for x in range(G.order):
        if x != G.identity_idx:
            expected.setdefault(closure_mask_bfs(G, [x]), x)
    got = _cyclic_subgroups(G)
    assert got == expected
    assert list(got) == list(expected)  # discovery order too
    lattice_masks = {ref.mask for ref in all_subgroups(G).refs}
    assert lattice_masks == _masks(G, subgroups_by_cyclic_extension(G))


def test_lattice_builds_no_generators(monkeypatch):
    calls = []
    real = subgroups_mod.gens_for_mask

    def counting(G, mask):
        calls.append(mask)
        return real(G, mask)

    monkeypatch.setattr(subgroups_mod, "gens_for_mask", counting)
    G = make_group("S4")
    lattice = all_subgroups(G)
    assert calls == []
    for ref in lattice.refs:
        assert ref.gen_idxs == real(G, ref.mask)
        assert closure_mask(G, ref.gen_idxs) == ref.mask
    assert len(calls) == len(lattice.refs)
    calls.clear()
    for ref in lattice.refs:
        ref.gen_idxs
    assert calls == []  # cached


def test_equality_and_hash_ignore_generators():
    G = make_group("S4")
    mask = all_subgroups(G).refs[5].mask
    lazy = subgroup_from_mask(G, mask)
    built = SubgroupRef(G, mask, gens_for_mask(G, mask))
    other = SubgroupRef(G, mask, (0,))
    assert lazy == built == other
    assert hash(lazy) == hash(built) == hash(other)
    lazy.gen_idxs
    assert lazy == built and hash(lazy) == hash(built)
    assert SubgroupRef(make_group("S4"), mask) != lazy
