"""Line toolkit: factorization, canonical form, mirror data."""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (DegenerateCoinError, LineCoinParams, LineGroup, NonUnitaryError,
                        QuantumCoin, WalkInstance, WalkState, build_line_coin,
                        canonicalize_line_coin, check_symmetry_relation,
                        decompose_line_coin, evolve,
                        mirror_chirality_map, mirror_generalized_symmetry,
                        mirror_inner_symmetry, symmetric_initial_states,
                        transform_coin, transform_state)
from cayleywalk.linalg import hadamard_matrix, rotation_matrix

from conftest import pauli_x, random_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_hadamard_factorization():
    p = decompose_line_coin(hadamard_matrix())
    assert p.omega == pytest.approx(1j)
    assert p.mu == pytest.approx(-1j)
    assert p.nu == pytest.approx(1.0)
    assert p.psi == pytest.approx(np.pi / 4)


def test_sign_twin_also_builds_hadamard():
    twin = LineCoinParams(-1j, 1j, 1.0, np.pi / 4)
    assert np.abs(build_line_coin(twin) - hadamard_matrix()).max() < 1e-15


def test_factorization_roundtrip(rng):
    for _ in range(50):
        mat = random_unitary(2, rng)
        p = decompose_line_coin(mat)
        assert p.nu.real >= 0
        assert np.abs(build_line_coin(p) - mat).max() < 1e-12


def test_factorization_breaks_the_nu_tie_toward_positive_imaginary_part():
    # p / q is -1 with a -0.0 imaginary part, whose angle reads -pi
    tie = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
    p = decompose_line_coin(tie)
    assert p.nu.real >= 0 and p.nu.imag > 0
    assert np.abs(build_line_coin(p) - tie).max() <= 1e-10


def test_factorization_checks_unitarity_as_any_coin_input():
    # defect 2e-11, and unit factors: only the unitarity check can refuse it
    off = hadamard_matrix() @ np.diag([1 + 1e-11, 1 / (1 + 1e-11)])
    with pytest.raises(NonUnitaryError, match="line coin is not unitary"):
        decompose_line_coin(off)
    with pytest.raises(NonUnitaryError, match="coin matrix is not unitary"):
        QuantumCoin.uniform(LineGroup(), off)


def test_factorization_diagonal_branch():
    mat = np.diag([np.exp(0.4j), np.exp(-0.1j)])
    p = decompose_line_coin(mat)
    assert p.psi == pytest.approx(0.0)
    assert p.nu == pytest.approx(1.0)
    assert np.abs(build_line_coin(p) - mat).max() < 1e-12


def test_factorization_antidiagonal_branch():
    mat = np.array([[0, 1], [-1, 0]], dtype=complex)
    p = decompose_line_coin(mat)
    assert p.psi == pytest.approx(np.pi / 2)
    assert np.abs(build_line_coin(p) - mat).max() < 1e-12


def test_params_must_be_units():
    with pytest.raises(Exception):
        LineCoinParams(2.0, 1.0, 1.0, 0.3)


def test_canonicalize_hadamard():
    group = LineGroup()
    psi, t = canonicalize_line_coin(hadamard_matrix(), group)
    assert psi == pytest.approx(np.pi / 4)
    new_coin = transform_coin(t, QuantumCoin.uniform(group, hadamard_matrix()))
    assert np.abs(new_coin.matrix_at(5) - rotation_matrix(psi)).max() < 1e-12
    assert np.abs(new_coin.matrix_at(0) - rotation_matrix(psi)).max() < 1e-12


def test_canonicalize_random_coins(rng):
    group = LineGroup()
    for _ in range(20):
        mat = random_unitary(2, rng)
        psi, t = canonicalize_line_coin(mat, group)
        new_coin = transform_coin(t, QuantumCoin.uniform(group, mat))
        for n in (0, 1, 4):
            assert np.abs(new_coin.matrix_at(n) - rotation_matrix(psi)).max() < 1e-11
            assert np.abs(new_coin.matrix_at(n).imag).max() < 1e-11


def test_canonical_walk_keeps_real_amplitudes(rng):
    group = LineGroup()
    mat = random_unitary(2, rng)
    psi, t = canonicalize_line_coin(mat, group)
    coin = QuantumCoin.uniform(group, mat)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    new_state = transform_state(t, start)
    phase = new_state.amplitude(0, 0) + new_state.amplitude(0, 1)
    aligned = WalkState(group, new_state.positions,
                        new_state.amps * (np.conj(phase) / abs(phase)))
    history = evolve(WalkInstance(group, transform_coin(t, coin), aligned), 30)
    for state in history:
        assert np.abs(state.amps.imag).max() < 1e-10


def test_mirror_inner_conjugates_reflected_coin(rng):
    for _ in range(10):
        mat = random_unitary(2, rng)
        p = decompose_line_coin(mat)
        group = LineGroup()
        inner = mirror_inner_symmetry(p, group)
        new_coin = transform_coin(inner, QuantumCoin.uniform(group, mat))
        target = pauli_x() @ mat @ pauli_x()
        for n in (0, 2):
            assert np.abs(new_coin.matrix_at(n) - target).max() < 1e-11


def test_mirror_generalized_fixes_coin(rng):
    group = LineGroup()
    for _ in range(10):
        mat = random_unitary(2, rng)
        p = decompose_line_coin(mat)
        gs = mirror_generalized_symmetry(p, group)
        coin = QuantumCoin.uniform(group, mat)
        from cayleywalk import generalized_transform
        new_coin, _ = generalized_transform(
            gs, coin, WalkState.localized(group, 0, [1.0, 0.0]))
        for n in (0, 3):
            assert np.abs(new_coin.matrix_at(n) - mat).max() < 1e-11


def test_chirality_map_oracle():
    p = LineCoinParams(1.0, 1.0, 1.0, np.pi / 4)
    q = mirror_chirality_map(p)
    assert np.allclose(q, np.array([[0, -1j], [1j, 0]]))
    assert np.allclose(q @ q, np.eye(2))
    vals = np.sort(np.linalg.eigvalsh(q))
    assert np.allclose(vals, [-1.0, 1.0])


def test_chirality_map_general(rng):
    for _ in range(10):
        p = decompose_line_coin(random_unitary(2, rng))
        q = mirror_chirality_map(p)
        assert np.abs(q @ q.conj().T - np.eye(2)).max() < 1e-12
        assert np.abs(q - q.conj().T).max() < 1e-12
        plus, minus = symmetric_initial_states(p)
        assert np.abs(q @ plus - plus).max() < 1e-12
        assert np.abs(q @ minus + minus).max() < 1e-12


def test_symmetric_states_oracle():
    p = LineCoinParams(1.0, 1.0, 1.0, 0.5)
    plus, minus = symmetric_initial_states(p)
    assert np.allclose(plus, np.array([1.0, 1j]) * INV_SQRT2)
    assert np.allclose(minus, np.array([1.0, -1j]) * INV_SQRT2)


def test_symmetric_states_give_mirror_symmetric_walks(rng):
    group = LineGroup()
    for _ in range(5):
        mat = random_unitary(2, rng)
        p = decompose_line_coin(mat)
        plus, _ = symmetric_initial_states(p)
        start = WalkState.localized(group, 0, plus)
        history = evolve(WalkInstance(group, QuantumCoin.uniform(group, mat), start), 25)
        for state in history:
            dist = state.position_distribution()
            for x, prob in dist.items():
                assert dist.get(-x, 0.0) == pytest.approx(prob, abs=1e-10)


def test_degenerate_coin_error():
    p = LineCoinParams(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DegenerateCoinError):
        symmetric_initial_states(p)
    with pytest.raises(DegenerateCoinError):
        symmetric_initial_states(LineCoinParams(1.0, 1.0, 1.0, np.pi))


def test_mirror_relation_end_to_end(rng):
    group = LineGroup()
    mat = random_unitary(2, rng)
    p = decompose_line_coin(mat)
    gs = mirror_generalized_symmetry(p, group)
    plus, minus = symmetric_initial_states(p)
    coin = QuantumCoin.uniform(group, mat)
    for vec in (plus, minus):
        start = WalkState.localized(group, 0, vec)
        report = check_symmetry_relation(coin, start, gs, n_max=25)
        assert report.passed, report


def test_line_coin_from_its_parameters():
    group = LineGroup()
    p = decompose_line_coin(hadamard_matrix())
    coin = QuantumCoin.uniform(group, build_line_coin(p))
    assert np.abs(coin.matrix_at(0) - hadamard_matrix()).max() < 1e-12
