"""Walk engine: coin, conditional shift, evolution."""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup,
                        NonUnitaryError, NumericDriftError, QuantumCoin, SpecError,
                        WalkInstance, WalkState, apply_coin, apply_shift, evolve,
                        evolve_final, grover_coin, hadamard_coin, identity_coin, step)
from cayleywalk.linalg import random_unitary, require_unit

from conftest import random_state

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_hadamard_single_step_amplitudes():
    group = LineGroup()
    start = WalkState.localized(group, 0, [1.0, 0.0])
    out = step(hadamard_coin(group), start, 0)
    assert out.amplitude(1, 0) == pytest.approx(INV_SQRT2)
    assert out.amplitude(-1, 1) == pytest.approx(INV_SQRT2)
    assert out.support() == [-1, 1]


def test_hadamard_three_step_distribution():
    group = LineGroup()
    start = WalkState.localized(group, 0, [1.0, 0.0])
    final = evolve_final(WalkInstance(group, hadamard_coin(group), start), 3)
    dist = final.position_distribution()
    assert dist[1] == pytest.approx(0.625)
    assert dist[-1] == pytest.approx(0.125)
    assert dist[3] == pytest.approx(0.125)
    assert dist[-3] == pytest.approx(0.125)


def test_identity_coin_is_ballistic():
    group = LineGroup()
    start = WalkState.localized(group, 0, [1.0, 0.0])
    final = evolve_final(WalkInstance(group, identity_coin(group), start), 25)
    assert final.support() == [25]
    assert final.amplitude(25, 0) == pytest.approx(1.0)


def test_shift_is_a_permutation(rng):
    group = CyclicGroup(8)
    state = random_state(group, rng)
    shifted = apply_shift(state)
    assert shifted.norm() == pytest.approx(state.norm())
    back = apply_shift(shifted, adjoint=True)
    assert back.distance(state) < 1e-14


def test_shift_moves_each_chirality():
    group = LineGroup()
    state = WalkState.from_terms(group, [(0, 0, 0.6), (0, 1, 0.8)])
    out = apply_shift(state)
    assert out.amplitude(1, 0) == pytest.approx(0.6)
    assert out.amplitude(-1, 1) == pytest.approx(0.8)


def test_evolution_history_and_norms(rng):
    group = HypercubeGroup(3)
    start = random_state(group, rng)
    history = evolve(WalkInstance(group, grover_coin(group), start), 10)
    assert len(history) == 11
    for state in history:
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_cyclic_wraparound():
    group = CyclicGroup(4)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    final = evolve_final(WalkInstance(group, identity_coin(group), start), 6)
    assert final.support() == [2]


def test_coin_probe_rejects_false_flags():
    group = LineGroup()
    with pytest.raises(SpecError):
        QuantumCoin.from_rule(
            group, lambda n, x: np.eye(2) * (1 if n == 0 else 1j),
            time_homogeneous=True, space_homogeneous=True)
    with pytest.raises(SpecError):
        QuantumCoin.from_rule(
            group, lambda n, x: np.diag([1, 1j ** (x % 4)]).astype(complex),
            time_homogeneous=True, space_homogeneous=True)


def test_coin_rejects_non_unitary_matrix():
    group = LineGroup()
    with pytest.raises(SpecError):
        QuantumCoin.uniform(group, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_table_coin_schedule():
    group = LineGroup()
    mats = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]
    coin = QuantumCoin.table(group, mats)
    assert np.allclose(coin.matrix_at(0), mats[0])
    assert np.allclose(coin.matrix_at(1), mats[1])
    assert np.allclose(coin.matrix_at(7), mats[1])


def test_norm_drift_is_detected():
    group = LineGroup()
    bad = QuantumCoin.from_rule(group, lambda n, x: np.eye(2) * 1.01,
                                time_homogeneous=True, space_homogeneous=True,
                                validate=False)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    with pytest.raises(NumericDriftError):
        evolve(WalkInstance(group, bad, start), 5)


def test_apply_coin_positionwise(rng):
    group = LineGroup()
    state = random_state(group, rng)
    mat = random_unitary(2, rng)
    coin = QuantumCoin.uniform(group, mat)
    out = apply_coin(coin, state, 0)
    for x in state.support():
        expect = mat @ np.array([state.amplitude(x, 0), state.amplitude(x, 1)])
        assert out.amplitude(x, 0) == pytest.approx(expect[0])
        assert out.amplitude(x, 1) == pytest.approx(expect[1])


def test_instance_requires_normalized_start():
    group = LineGroup()
    with pytest.raises(SpecError):
        WalkInstance(group, hadamard_coin(group),
                     WalkState.from_terms(group, [(0, 0, 2.0)]))


def test_walk_spreads_linearly():
    group = LineGroup()
    start = WalkState.localized(group, 0, [INV_SQRT2, 1j * INV_SQRT2])
    final = evolve_final(WalkInstance(group, hadamard_coin(group), start), 40)
    support = final.support()
    assert min(support) == -40
    assert max(support) == 40


def test_probe_catches_coin_varying_along_another_generator():
    # the coin flips sign with coordinate 1, which e, c0 and c0*c0 never reach
    cube = HypercubeGroup(3)
    with pytest.raises(SpecError):
        QuantumCoin.from_rule(cube, lambda n, x: np.diag([1, (-1) ** x[1], 1]).astype(complex),
                              space_homogeneous=True)
    plane = LatticeGroup(2)
    with pytest.raises(SpecError):
        QuantumCoin.from_rule(plane,
                              lambda n, x: np.diag([1, 1, 1, (-1) ** x[1]]).astype(complex),
                              space_homogeneous=True)
    # an honest declaration is still accepted
    QuantumCoin.from_rule(plane, lambda n, x: np.diag([1, 1, 1, (-1) ** n]).astype(complex),
                          space_homogeneous=True)


def test_probe_catches_coin_varying_at_a_later_step():
    group = LineGroup()
    with pytest.raises(SpecError):
        QuantumCoin.from_rule(group, lambda n, x: np.eye(2) * (1j if n >= 5 else 1),
                              time_homogeneous=True)


def test_nan_coin_is_rejected():
    group = LineGroup()
    with pytest.raises(NonUnitaryError):
        QuantumCoin.uniform(group, np.full((2, 2), np.nan))
    with pytest.raises(NonUnitaryError):
        require_unit(float("nan"))


def test_nan_amplitude_aborts_evolution():
    group = LineGroup()
    coin = QuantumCoin.from_rule(group, lambda n, x: np.eye(2) * (np.nan if n == 3 else 1),
                                 validate=False)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    with pytest.raises(NumericDriftError):
        evolve(WalkInstance(group, coin, start), 5)
