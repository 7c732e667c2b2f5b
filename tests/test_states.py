"""Sparse state container and local unitaries."""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup, LocalUnitary,
                        WalkState)
from cayleywalk.linalg import hadamard_matrix, random_unitary
from cayleywalk.states import nonzero_rows

from conftest import random_state


def test_from_terms_accumulates_duplicates():
    group = LineGroup()
    state = WalkState.from_terms(group, [(0, 0, 0.5), (0, 0, 0.5), (2, 1, 1.0)])
    assert state.amplitude(0, 0) == pytest.approx(1.0)
    assert state.amplitude(2, 1) == pytest.approx(1.0)
    assert state.n_positions == 2


def test_localized_and_support():
    group = HypercubeGroup(3)
    state = WalkState.localized(group, (1, 0, 1), [1, 0, 0])
    assert state.support() == [(1, 0, 1)]
    assert state.amplitude((1, 0, 1), 0) == 1.0
    assert state.norm() == pytest.approx(1.0)


def test_zero_amplitude_rows_are_pruned():
    group = LineGroup()
    a = WalkState.from_terms(group, [(0, 0, 1.0), (1, 1, 1.0)])
    b = WalkState.from_terms(group, [(1, 1, 1.0)])
    diff = a - b
    assert diff.support() == [0]


def test_inner_product_conjugate_linear(rng):
    group = CyclicGroup(8)
    a = random_state(group, rng)
    b = random_state(group, rng)
    lhs = a.inner(b.scale(1j))
    assert lhs == pytest.approx(1j * a.inner(b))
    assert a.scale(1j).inner(b) == pytest.approx(-1j * a.inner(b))
    assert a.inner(a) == pytest.approx(a.norm() ** 2)


def test_distance_and_arithmetic(rng):
    group = LineGroup()
    a = random_state(group, rng)
    assert a.distance(a) == pytest.approx(0.0)
    doubled = a + a
    assert doubled.distance(a.scale(2.0)) == pytest.approx(0.0)
    assert (a - a).norm() == pytest.approx(0.0)


def test_position_distribution_sums_to_one(rng):
    group = HypercubeGroup(3)
    state = random_state(group, rng)
    dist = state.position_distribution()
    assert sum(dist.values()) == pytest.approx(1.0)
    assert all(p >= 0 for p in dist.values())


def test_position_distribution_warns_when_unnormalized():
    group = LineGroup()
    state = WalkState.from_terms(group, [(0, 0, 2.0)])
    with pytest.warns(UserWarning):
        state.position_distribution()


def test_nan_rows_stay_visible():
    state = WalkState.from_terms(LineGroup(), [(0, 0, float("nan")), (1, 0, 1.0)])
    assert state.support() == [0, 1]
    with pytest.warns(UserWarning):
        dist = state.position_distribution()
    assert list(dist) == [0, 1] and np.isnan(dist[0]) and dist[1] == 1.0


def test_records_roundtrip(rng):
    group = CyclicGroup(8)
    state = random_state(group, rng)
    again = WalkState.from_records(group, state.to_records())
    assert state.distance(again) == pytest.approx(0.0)


def test_positions_stay_sorted(rng):
    group = LineGroup()
    state = WalkState.from_terms(group, [(5, 0, 1.0), (-3, 1, 1.0), (2, 0, 1.0)])
    assert state.support() == [-3, 2, 5]


def test_uniform_local_unitary_matches_rule(rng):
    group = CyclicGroup(8)
    mat = random_unitary(2, rng)
    state = random_state(group, rng)
    uniform = LocalUnitary.uniform(group, mat)
    ruled = LocalUnitary.from_rule(group, lambda x: mat)
    assert uniform.apply(state).distance(ruled.apply(state)) < 1e-14
    assert uniform.block(state.positions).shape == (1, 2, 2)
    assert ruled.block(state.positions).shape == (state.n_positions, 2, 2)


def test_diagonal_local_unitary(rng):
    group = LineGroup()
    state = random_state(group, rng)
    diag = LocalUnitary.diagonal(group, lambda x: np.array([1.0, -1.0 + 0j]))
    out = diag.apply(state)
    for x in state.support():
        assert out.amplitude(x, 0) == pytest.approx(state.amplitude(x, 0))
        assert out.amplitude(x, 1) == pytest.approx(-state.amplitude(x, 1))


def test_local_unitary_preserves_norm(rng):
    group = HypercubeGroup(3)
    state = random_state(group, rng)
    op = LocalUnitary.from_rule(group, lambda x: random_unitary(3, np.random.default_rng(sum(x))))
    assert op.apply(state).norm() == pytest.approx(state.norm())


def test_component_lookup():
    group = LineGroup()
    op = LocalUnitary.uniform(group, hadamard_matrix())
    assert np.allclose(op.component(7), hadamard_matrix())


def _dense(state, elements):
    """Reference vector of a state over a fixed element list."""
    index = {x: i for i, x in enumerate(elements)}
    vec = np.zeros((len(elements), state.group.coin_dim), dtype=complex)
    for (x, c), amp in state.terms().items():
        vec[index[x], c] = amp
    return vec


@pytest.mark.parametrize("group", [LineGroup(), CyclicGroup(8), HypercubeGroup(3),
                                   LatticeGroup(2), LatticeGroup(2, period=5)],
                         ids=lambda g: str(g.describe()))
def test_inner_and_amplitude_match_dense_reference(group, rng):
    pool = list(dict.fromkeys(group.random_elements(rng, 30)))[:10]
    a = WalkState.from_terms(group, [(x, c, rng.normal() + 1j * rng.normal())
                                     for x in pool[:6] for c in range(group.coin_dim)])
    b = WalkState.from_terms(group, [(x, c, rng.normal() + 1j * rng.normal())
                                     for x in pool[3:] for c in range(group.coin_dim)])
    da, db = _dense(a, pool), _dense(b, pool)
    assert a.inner(b) == pytest.approx(np.vdot(da, db), rel=1e-13)
    assert b.inner(a) == pytest.approx(np.vdot(db, da), rel=1e-13)
    assert a.inner(WalkState.zero(group)) == 0j
    for i, x in enumerate(pool):
        for c in range(group.coin_dim):
            assert a.amplitude(x, c) == da[i, c]
            assert b.amplitude(x, c) == db[i, c]
    assert (a - b).distance(WalkState.zero(group)) == pytest.approx(
        np.linalg.norm(da - db), rel=1e-13)


def test_nonzero_rows_keeps_nan_rows_and_drops_signed_zeros():
    amps = np.array([[np.nan, 0], [0, 0], [0, -0.0], [1e-300, 0], [0, 1j]], dtype=complex)
    assert nonzero_rows(amps).tolist() == [True, False, False, True, True]
    assert nonzero_rows(amps[:0]).tolist() == []
