"""The batched local-operator kernel against dense reference matrices."""

from __future__ import annotations

import re

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LocalUnitary, NonUnitaryError,
                        QuantumCoin, WalkState, apply_coin, apply_dressing, transform_coin,
                        transform_state)
from conftest import assemble_local_matrix, basis_labels, random_phases, random_unitary
from test_acceptance import FAMILIES, _draw_symmetry

GROUPS = pytest.mark.parametrize("group", [CyclicGroup(8), HypercubeGroup(3)],
                                 ids=["cyclic8", "hypercube3"])


def _full_state(group, rng) -> WalkState:
    terms = [(x, c, rng.normal() + 1j * rng.normal())
             for x in group.elements() for c in range(group.coin_dim)]
    return WalkState.from_terms(group, terms).normalized()


def _dense(state) -> np.ndarray:
    return np.array([state.amplitude(x, c) for x, c in basis_labels(state.group)])


def _position_coin(group, seed: int) -> QuantumCoin:
    """A seeded random unitary at every (step, position)."""
    return QuantumCoin.from_rule(group, lambda n, x: random_unitary(
        group.coin_dim, np.random.default_rng([seed, n, int(group.keys([x])[0])])))


def _assert_close(state, dense) -> None:
    assert np.abs(_dense(state) - dense).max() < 1e-12


@GROUPS
def test_position_dependent_coin_matches_dense(group, rng):
    state = _full_state(group, rng)
    coin = _position_coin(group, 11)
    for n in (0, 3):
        _assert_close(apply_coin(coin, state, n), assemble_local_matrix(coin, n) @ _dense(state))


@GROUPS
@pytest.mark.parametrize("family", FAMILIES)
def test_family_coin_and_dressing_match_dense(group, family, rng):
    state = _full_state(group, rng)
    t = _draw_symmetry(family, group, rng)
    new_coin = transform_coin(t, _position_coin(group, 12))
    for n in (0, 3):
        vec = _dense(state)
        _assert_close(apply_coin(new_coin, state, n), assemble_local_matrix(new_coin, n) @ vec)
        _assert_close(apply_dressing(t, n, state), assemble_local_matrix(t.phases, n) @ vec)
    _assert_close(transform_state(t, state), assemble_local_matrix(t.phases) @ _dense(state))


@GROUPS
def test_local_unitaries_match_dense(group, rng):
    state = _full_state(group, rng)
    dim = group.coin_dim
    diagonal = LocalUnitary(group, lambda n, x, c: random_phases(
        dim, np.random.default_rng(int(group.keys([x])[0])))[c])
    rule = LocalUnitary.from_rule(group, lambda n, x: random_unitary(
        dim, np.random.default_rng(int(group.keys([x])[0]))))
    for op in (diagonal, rule):
        _assert_close(op.apply(state), assemble_local_matrix(op) @ _dense(state))


@GROUPS
def test_non_unitary_component_names_its_position(group, rng):
    state = _full_state(group, rng)
    bad = group.elements_of(state.positions[5:6])[0]
    eye = np.eye(group.coin_dim)
    op = LocalUnitary.from_rule(group, lambda n, x: 2 * eye if x == bad else eye)
    with pytest.raises(NonUnitaryError, match=re.escape(f"at {bad!r} ")):
        op.apply(state)
    coin = QuantumCoin.from_rule(group, lambda n, x: eye * (1.01 if x == bad else 1))
    with pytest.raises(NonUnitaryError, match=re.escape(f"step-2 coin at {bad!r} ")):
        apply_coin(coin, state, 2)
