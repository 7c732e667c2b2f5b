"""Walk engine: coin, conditional shift, evolution."""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup,
                        NonUnitaryError, NumericDriftError, QuantumCoin, SpecError,
                        WalkInstance, WalkState, apply_coin, apply_shift, evolve,
                        evolve_final, evolve_iter, grover_coin, hadamard_coin, identity_coin, step)
from cayleywalk.linalg import random_unitary, require_unit
from cayleywalk.states import merge_keys, nonzero_rows

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


def _memo_free_shift(state: WalkState, adjoint: bool = False) -> WalkState:
    """apply_shift with its shifted keys merged afresh on every call."""
    group, dim, npos = state.group, state.group.coin_dim, state.n_positions
    keys, inverse = merge_keys(np.concatenate(
        [group.shift_rows(state.positions, c, adjoint=adjoint) for c in range(dim)]))
    amps = np.zeros((keys.shape[0], dim), dtype=complex)
    for c in range(dim):
        amps[inverse[c * npos:(c + 1) * npos], c] = state.amps[:, c]
    keep = nonzero_rows(amps)
    return WalkState(group, np.compress(keep, keys), np.compress(keep, amps, axis=0))


@pytest.mark.parametrize("group, steps", [(LineGroup(), 60), (LatticeGroup(2), 12),
                                          (HypercubeGroup(4), 12), (CyclicGroup(6), 12)],
                         ids=["line", "lattice2", "hypercube4", "cyclic6"])
def test_histories_match_a_memo_free_shift(group, steps, rng):
    # supports repeat on the finite groups, and on the line once its edge
    # amplitudes are pruned, so some plans are served again
    coin = QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))
    start = random_state(group, rng, count=2)
    history = evolve(WalkInstance(group, coin, start), steps)
    state = start
    for n, got in enumerate(history):
        assert np.array_equal(got.positions, state.positions)
        assert np.array_equal(got.amps, state.amps)
        state = _memo_free_shift(apply_coin(coin, state, n))
        back = apply_shift(state, adjoint=True)
        assert back.distance(_memo_free_shift(state, adjoint=True)) == 0.0


def test_evolution_history_and_norms(rng):
    group = HypercubeGroup(3)
    start = random_state(group, rng)
    history = evolve(WalkInstance(group, grover_coin(group), start), 10)
    assert len(history) == 11
    for state in history:
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_evolve_iter_draws_each_step_on_demand(rng):
    group = LineGroup()
    steps_taken = []

    def blocks(n, keys):
        steps_taken.append(n)
        return hadamard_coin(group).block(n, keys)

    coin = QuantumCoin(group, blocks, validate=False)
    start = random_state(group, rng)
    instance = WalkInstance(group, coin, start)
    states = evolve_iter(instance, 1000)
    assert steps_taken == []
    first = [next(states) for _ in range(3)]
    assert steps_taken == [0, 1]
    history = evolve(instance, 6)
    for a, b in zip(first, history):
        assert a.distance(b) == 0.0
    assert evolve_final(instance, 6).distance(history[-1]) == 0.0
    with pytest.raises(SpecError):
        next(evolve_iter(instance, -1))


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


def test_nan_start_state_is_invalid_input():
    group = LineGroup()
    nan_state = WalkState.localized(group, 0, [np.nan, 0.0])
    with pytest.raises(SpecError):
        nan_state.normalized()
    with pytest.raises(SpecError):
        WalkInstance(group, hadamard_coin(group), nan_state)


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
