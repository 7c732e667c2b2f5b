"""Group layer: algebra, encoding, causal structure."""

from __future__ import annotations

import random

import numpy as np
import pytest

from cayleywalk import (CayleyGroup, CyclicGroup, EncodingError, HypercubeGroup, LatticeGroup,
                        LineGroup, SpecError, WalkState, apply_shift, brute_force_causal,
                        make_group, parse_group_spec)

from conftest import GROUP_IDS, all_groups, oracle_add, oracle_law, sampler


@pytest.mark.parametrize("group", all_groups(), ids=GROUP_IDS)
def test_group_axioms_sampled(group, rng):
    xs = group.random_elements(sampler(rng), 12)
    e = group.identity
    for x in xs:
        assert group.mul(x, e) == x
        assert group.mul(e, x) == x
        assert group.mul(x, group.inv(x)) == e
    for x, y in zip(xs, reversed(xs)):
        z = group.mul(x, y)
        assert group.validate(z) == z


@pytest.mark.parametrize("group", all_groups(), ids=GROUP_IDS)
def test_encode_decode_roundtrip(group, rng):
    xs = group.random_elements(sampler(rng), 12)
    keys = group.keys(xs)
    assert keys.dtype == np.int64 and keys.shape == (12,)
    assert group.elements_of(keys) == xs
    assert np.array_equal(group.pack(group.unpack(keys)), keys)


def sampled_groups():
    """(group, its moduli, its element type): the test groups, and two built
    directly whose axes have different ranges."""
    cases = [(g, oracle_law(g)[0], tuple if g.describe()["kind"] in ("lattice", "hypercube")
              else int) for g in all_groups()]
    return cases + [(CayleyGroup((0, 3), [(1, 0), (0, 1)]), (0, 3), tuple),
                    (CayleyGroup((2, 3), [(1, 0), (0, 1)]), (2, 3), tuple)]


@pytest.mark.parametrize("group, moduli, kind", sampled_groups(),
                         ids=GROUP_IDS + ["z_x_z3", "z2_x_z3"])
def test_random_elements_repeat_per_seed_and_stay_in_range(group, moduli, kind):
    xs = group.random_elements(random.Random(5), 200, span=3)
    assert xs == group.random_elements(random.Random(5), 200, span=3)
    assert xs != group.random_elements(random.Random(6), 200, span=3)
    assert all(type(x) is kind for x in xs)
    rows = [x if kind is tuple else (x,) for x in xs]
    assert all(type(v) is int for row in rows for v in row)
    for axis, m in enumerate(moduli):
        # 200 draws reach both ends of every range
        assert {row[axis] for row in rows} == set(range(m) if m else range(-3, 4))


@pytest.mark.parametrize("group", all_groups(), ids=GROUP_IDS)
def test_shift_rows_matches_mul(group, rng):
    moduli, gens = oracle_law(group)
    xs = group.random_elements(sampler(rng), 8)
    keys = group.keys(xs)
    for idx, s in enumerate(gens):
        shifted = group.shift_rows(keys, idx)
        assert group.elements_of(shifted) == [oracle_add(moduli, x, s) for x in xs]
        assert [group.mul(x, group.generators[idx]) for x in xs] == group.elements_of(shifted)
        # the shift by an inverse generator, where the set has it, undoes it
        inverse = group.inv(group.generators[idx])
        if inverse in group.generators:
            back = group.shift_rows(shifted, group.generators.index(inverse))
            assert np.array_equal(back, keys)


def key_order_groups():
    return all_groups() + [LatticeGroup(1), LatticeGroup(3), LatticeGroup(2, period=5),
                            HypercubeGroup(5)]


@pytest.mark.parametrize("group", key_order_groups(), ids=lambda g: str(g.describe()))
def test_key_order_is_sort_key_order(group, rng):
    xs = group.random_elements(sampler(rng), 40)
    keys = group.keys(xs)
    by_key = [x for _, x in sorted(zip(keys.tolist(), xs))]
    assert by_key == sorted(xs, key=group.encode)
    state = WalkState.from_terms(group, [(x, 0, 1.0) for x in xs])
    assert np.all(np.diff(state.positions) > 0)
    assert state.elements() == sorted(set(by_key), key=group.encode)


def test_hypercube_key_is_bitmask():
    group = HypercubeGroup(4)
    assert group.keys([(1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 1, 1)]).tolist() == [8, 1, 11]


def test_lattice_shift_at_coordinate_bound_raises():
    group = LatticeGroup(2)
    top = group.hi
    assert top == 2 ** 30 - 1 and group.lo == -2 ** 30
    for x, c in [((0, top), 2), ((top, 0), 0), ((group.lo, 5), 1), ((3, group.lo), 3)]:
        state = WalkState.localized(group, x, np.eye(4)[c])
        with pytest.raises(EncodingError):
            apply_shift(state)
    # one step inside the bound still moves, also in the other coin blocks
    inside = WalkState.localized(group, (0, top - 1), [0, 0, 1, 0])
    assert apply_shift(inside).support() == [(0, top)]
    with pytest.raises(EncodingError):
        group.encode((0, top + 1))
    with pytest.raises(EncodingError):
        WalkState.localized(group, (group.lo - 1, 0), [1, 0, 0, 0])
    # Z^1 has no next axis to carry into: like the line, it shifts unchecked
    line = LatticeGroup(1)
    assert (line.lo, line.hi) == (-2 ** 61, 2 ** 61 - 1)
    state = WalkState.localized(line, (line.hi,), [1, 0])
    assert apply_shift(state).support() == [(2 ** 61,)]


def test_line_encodes_within_bounds_and_shifts_without_wrapping():
    group = LineGroup()
    assert (group.lo, group.hi) == (-2 ** 62, 2 ** 62 - 1)
    for x in (group.hi + 1, group.lo - 1):
        with pytest.raises(EncodingError):
            group.encode(x)
    state = WalkState.localized(group, group.hi, [1, 0])
    assert apply_shift(state).support() == [2 ** 62]
    state = WalkState.localized(group, group.hi, [0, 1])
    assert apply_shift(state).support() == [2 ** 62 - 2]


def test_key_size_limits_rejected_at_construction():
    with pytest.raises(SpecError):
        LatticeGroup(2, period=2 ** 32)
    with pytest.raises(SpecError):
        LatticeGroup(3, period=2 ** 21)
    assert LatticeGroup(2, period=2 ** 31).order == 2 ** 62
    with pytest.raises(SpecError):
        HypercubeGroup(63)
    assert HypercubeGroup(62).keys([(1,) + (0,) * 61]).tolist() == [2 ** 61]
    with pytest.raises(SpecError):
        LatticeGroup(32)


@pytest.mark.parametrize("group", all_groups(), ids=GROUP_IDS)
def test_decompose_roundtrip(group, rng):
    for x in group.random_elements(sampler(rng), 12):
        xt, k = group.decompose(x)
        assert group.coset_index(xt) == 0
        assert group.mul(xt, group.pow_c0(k)) == x


@pytest.mark.parametrize("group", all_groups() + [
    make_group("line", generators=(-1,)), CyclicGroup(12, generators=(1, 4, 7)),
    LatticeGroup(2, period=5), LatticeGroup(3, c0_index=3), HypercubeGroup(3, c0_index=1)],
    ids=repr)
def test_batched_decompose_matches_scalar(group, rng):
    xs = group.random_elements(sampler(rng), 12)
    keys = group.keys(xs)
    xt_keys, ks = group.decompose_keys(keys)
    assert list(zip(group.elements_of(xt_keys), ks.tolist())) == [group.decompose(x) for x in xs]
    assert group.coset_indices(keys).tolist() == [group.coset_index(x) for x in xs]


def test_cyclic_causal_structure():
    causal = brute_force_causal(CyclicGroup(8))
    assert causal.subgroup == {0, 2, 4, 6}
    assert causal.chi == 2
    assert causal.nonseparating


def test_cyclic_single_generator_causal():
    group = CyclicGroup(8, generators=(1,))
    causal = brute_force_causal(group)
    assert causal.chi == 8
    assert causal.subgroup == {0}
    assert group.chi == 8


def test_hypercube_causal():
    causal = brute_force_causal(HypercubeGroup(2))
    assert causal.subgroup == {(0, 0), (1, 1)}
    assert causal.chi == 2


def test_torus_causal_even_and_odd():
    even = brute_force_causal(LatticeGroup(2, period=6))
    assert even.chi == 2
    assert len(even.subgroup) == 18
    odd = brute_force_causal(LatticeGroup(2, period=5))
    assert odd.chi == 1
    assert len(odd.subgroup) == 25


def test_declared_matches_brute_force():
    for group in [CyclicGroup(8), CyclicGroup(12, generators=(1,)),
                  HypercubeGroup(3), LatticeGroup(2, period=4)]:
        causal = brute_force_causal(group)
        assert group.chi == causal.chi
        assert group.nonseparating == causal.nonseparating


# -- a set-based reference for brute_force_causal ---------------------------------
#
# The chains S^n S^-n and S^-n S^n as sets of elements, each grown by whole
# products S F S^-1 through the scalar group law until it stops changing, and
# each union closed under the group operations one product at a time.


def _product_set(group, left, middle, right):
    return {group.mul(group.mul(a, m), b) for a in left for m in middle for b in right}


def _generated_subgroup(group, seed):
    gens = set(seed) | {group.inv(s) for s in seed}
    members = {group.identity} | gens
    frontier = set(members)
    while frontier:
        fresh = set()
        for a in frontier:
            for g in gens:
                p = group.mul(a, g)
                if p not in members:
                    members.add(p)
                    fresh.add(p)
        frontier = fresh
    return members


def _reference_causal(group):
    S = list(group.generators)
    Sinv = [group.inv(s) for s in S]
    chains = []
    for first, second in ((S, Sinv), (Sinv, S)):
        chain = {group.mul(a, b) for a in first for b in second}
        while True:
            grown = _product_set(group, first, chain, second)
            if grown == chain:
                break
            chain = grown
        chains.append(chain)
    future = frozenset(_generated_subgroup(group, chains[0]))
    full = frozenset(_generated_subgroup(group, chains[0] | chains[1]))
    return full, future, group.order // len(full), future == full


@pytest.mark.parametrize("group", [g for g in all_groups() if g.is_finite]
                         + [HypercubeGroup(6), CyclicGroup(64)], ids=repr)
def test_brute_force_causal_matches_the_set_based_reference(group):
    causal = brute_force_causal(group)
    assert (causal.subgroup, causal.future_subgroup, causal.chi,
            causal.nonseparating) == _reference_causal(group)


def test_self_check_rejects_wrong_causal_data():
    with pytest.raises(SpecError, match="declared chi 4 disagrees with brute force 2"):
        CayleyGroup((8,), (1, 7))._set_causal(4, (1,))
    with pytest.raises(SpecError, match="coset_index disagrees with brute force at 1"):
        CayleyGroup((8,), (1, 7))._set_causal(2, (0,))
    # order 1024: past the self-check's scope, so wrong data goes unchecked
    CayleyGroup((2,) * 10, map(tuple, np.eye(10, dtype=int).tolist()))._set_causal(4, (0,) * 10)


def test_coset_index_is_homomorphism(rng):
    group = LatticeGroup(2, period=6)
    for x, y in zip(group.random_elements(sampler(rng), 10), group.random_elements(sampler(rng), 10)):
        lhs = group.coset_index(group.mul(x, y))
        assert lhs == (group.coset_index(x) + group.coset_index(y)) % group.chi


def test_halfline_has_no_finite_coset_count():
    group = make_group("line", generators=(1,))
    assert group.chi is None
    assert group.coin_dim == 1


def test_make_group_factory():
    assert make_group("cyclic", N=8).order == 8
    assert make_group("hypercube", d=4).coin_dim == 4
    assert make_group("lattice", d=2).is_finite is False
    with pytest.raises(SpecError):
        make_group("dihedral")


def test_validate_rejects_garbage():
    group = CyclicGroup(8)
    with pytest.raises(SpecError):
        group.validate((1, 2))
    with pytest.raises(EncodingError):
        HypercubeGroup(3).validate((0, 1, 2))


def test_lattice_period_bounds():
    with pytest.raises(SpecError):
        LatticeGroup(2, period=2)


def test_sort_and_format():
    group = LatticeGroup(2, period=4)
    elems = sorted(group.elements(), key=group.encode)
    assert elems[0] == (0, 0)
    assert group.label_template % group.encode((1, 3)) == "(1,3)"
    line = LineGroup()
    assert line.label_template % line.encode(-4) == "-4"


def test_generator_index():
    group = LineGroup()
    assert group.generators[group.generator_index(1)] == 1
    assert group.generators[group.generator_index(-1)] == -1
    with pytest.raises(SpecError):
        group.generator_index(2)


def test_group_identity_survives_describe_and_parse():
    described = [
        {"kind": "line", "generators": [1, -1], "c0_index": 0},
        {"kind": "cyclic", "N": 8, "generators": [1, 7], "c0_index": 0},
        {"kind": "cyclic", "N": 8, "generators": [1], "c0_index": 0},
        {"kind": "lattice", "d": 2, "c0_index": 0},
        {"kind": "lattice", "d": 2, "c0_index": 0, "N": 6},
        {"kind": "hypercube", "d": 3, "c0_index": 0},
        {"kind": "line", "generators": [1], "c0_index": 0},
        {"kind": "line", "generators": [-1, 1], "c0_index": 1},
        {"kind": "cyclic", "N": 9, "generators": [2, 5], "c0_index": 1},
        {"kind": "lattice", "d": 3, "c0_index": 0, "N": 5},
        {"kind": "lattice", "d": 2, "c0_index": 3, "N": 6},
    ]
    groups = all_groups()
    # key order too: it is the order of the JSON fields
    assert [list(g.describe().items()) for g in groups] == [list(d.items()) for d in described]
    for g in groups:
        again = parse_group_spec(g.describe())
        assert again == g and hash(again) == hash(g)
        assert [h for h in groups if h == g] == [g]
    # kinds that share a law stay distinct groups
    assert LineGroup() != LatticeGroup(1)
    assert CyclicGroup(2) != HypercubeGroup(1)


@pytest.mark.parametrize("spec, field", [
    ({"kind": "cyclic", "N": 8.5}, "N"),
    ({"kind": "lattice", "d": 2.7}, "d"),
    ({"kind": "lattice", "d": 2, "N": 6.5}, "period"),
    ({"kind": "line", "generators": [1.5]}, "generators"),
    ({"kind": "cyclic", "N": 8, "generators": [1, 2.5]}, "generators"),
    ({"kind": "hypercube", "d": 3, "c0_index": 1.9}, "c0_index"),
    ({"kind": "hypercube", "d": True}, "d"),
    ({"kind": "line", "c0_index": False}, "c0_index"),
])
def test_non_integer_group_parameters_are_rejected(spec, field):
    with pytest.raises(SpecError, match=field):
        parse_group_spec(spec)
