"""Group layer: algebra, encoding, causal structure."""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, EncodingError, HypercubeGroup, LatticeGroup,
                        LineGroup, SpecError, WalkState, apply_shift, brute_force_causal,
                        make_group)


def all_groups():
    return [LineGroup(), CyclicGroup(8), CyclicGroup(8, generators=(1,)),
            LatticeGroup(2), LatticeGroup(2, period=6), HypercubeGroup(3)]


@pytest.mark.parametrize("group", all_groups(), ids=lambda g: g.describe()["kind"])
def test_group_axioms_sampled(group, rng):
    xs = group.random_elements(rng, 12)
    e = group.identity
    for x in xs:
        assert group.mul(x, e) == x
        assert group.mul(e, x) == x
        assert group.mul(x, group.inv(x)) == e
    for x, y in zip(xs, reversed(xs)):
        z = group.mul(x, y)
        assert group.validate(z) == z


@pytest.mark.parametrize("group", all_groups(), ids=lambda g: g.describe()["kind"])
def test_encode_decode_roundtrip(group, rng):
    xs = group.random_elements(rng, 12)
    keys = group.keys(xs)
    assert keys.dtype == np.int64 and keys.shape == (12,)
    assert group.elements_of(keys) == xs
    assert np.array_equal(group.pack(group.unpack(keys)), keys)


@pytest.mark.parametrize("group", all_groups(), ids=lambda g: g.describe()["kind"])
def test_shift_rows_matches_mul(group, rng):
    xs = group.random_elements(rng, 8)
    keys = group.keys(xs)
    for idx, s in enumerate(group.generators):
        shifted = group.shift_rows(keys, idx)
        assert group.elements_of(shifted) == [group.mul(x, s) for x in xs]
        back = group.shift_rows(shifted, idx, adjoint=True)
        assert np.array_equal(back, keys)


def key_order_groups():
    return all_groups() + [LatticeGroup(1), LatticeGroup(3), LatticeGroup(2, period=5),
                            HypercubeGroup(5)]


@pytest.mark.parametrize("group", key_order_groups(), ids=lambda g: str(g.describe()))
def test_key_order_is_sort_key_order(group, rng):
    xs = group.random_elements(rng, 40)
    keys = group.keys(xs)
    by_key = [x for _, x in sorted(zip(keys.tolist(), xs))]
    assert by_key == sorted(xs, key=group.sort_key)
    state = WalkState.from_terms(group, [(x, 0, 1.0) for x in xs])
    assert np.all(np.diff(state.positions) > 0)
    assert state.elements() == sorted(set(by_key), key=group.sort_key)


def test_hypercube_key_is_bitmask():
    group = HypercubeGroup(4)
    assert group.keys([(1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 1, 1)]).tolist() == [8, 1, 11]


def test_lattice_shift_at_coordinate_bound_raises():
    group = LatticeGroup(2)
    top = group.hi
    assert top == 2 ** 30 - 1 and group.lo == -2 ** 30
    for x, c in [((0, top), 2), ((top, 0), 0), ((group.lo, 5), 1), ((3, group.lo), 3)]:
        state = WalkState.basis_state(group, x, c)
        with pytest.raises(EncodingError):
            apply_shift(state)
    # one step inside the bound still moves, also in the other coin blocks
    inside = WalkState.basis_state(group, (0, top - 1), 2)
    assert apply_shift(inside).support() == [(0, top)]
    with pytest.raises(EncodingError):
        group.encode((0, top + 1))
    with pytest.raises(EncodingError):
        WalkState.localized(group, (group.lo - 1, 0), [1, 0, 0, 0])


def test_line_encodes_within_bounds_and_shifts_without_wrapping():
    group = LineGroup()
    assert (group.lo, group.hi) == (-2 ** 62, 2 ** 62 - 1)
    for x in (group.hi + 1, group.lo - 1):
        with pytest.raises(EncodingError):
            group.encode(x)
    state = WalkState.basis_state(group, group.hi, 0)
    assert apply_shift(state).support() == [2 ** 62]
    assert apply_shift(state, adjoint=True).support() == [2 ** 62 - 2]


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


@pytest.mark.parametrize("group", all_groups(), ids=lambda g: g.describe()["kind"])
def test_decompose_roundtrip(group, rng):
    for x in group.random_elements(rng, 12):
        xt, k = group.decompose(x)
        assert group.coset_index(xt) == 0
        assert group.mul(xt, group.pow_c0(k)) == x


@pytest.mark.parametrize("group", all_groups() + [
    make_group("line", generators=(-1,)), CyclicGroup(12, generators=(1, 4, 7)),
    LatticeGroup(2, period=5), LatticeGroup(3, c0_index=3), HypercubeGroup(3, c0_index=1)],
    ids=repr)
def test_batched_decompose_matches_scalar(group, rng):
    xs = group.random_elements(rng, 12)
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


def test_coset_index_is_homomorphism(rng):
    group = LatticeGroup(2, period=6)
    for x, y in zip(group.random_elements(rng, 10), group.random_elements(rng, 10)):
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
    elems = sorted(group.elements(), key=group.sort_key)
    assert elems[0] == (0, 0)
    assert group.format_element((1, 3)) == "(1,3)"
    assert LineGroup().format_element(-4) == "-4"


def test_generator_index():
    group = LineGroup()
    assert group.generators[group.generator_index(1)] == 1
    assert group.generators[group.generator_index(-1)] == -1
    with pytest.raises(SpecError):
        group.generator_index(2)
