"""Operator-level certificate of a symmetry on finite groups.

A relation check certifies one start state, but a symmetry is a claim about
the evolution operator. On a finite group it reads, on the whole walk space,

    T C'(n) D(n) = D(n+1) T C(n)    for n = 0..N_MAX,

with T the conditional shift, C(n) the coin, C'(n) the transformed coin and
D(n) the dressing, D(0) = U0; for a generalized symmetry P D(n) stands for
D(n), with P the permutation operator. One identity certifies every start
state at once, coin components and positions that a start never reaches
included. The matrices come from the dense assembly of conftest: T and P
from the group law (group.mul), not from the state kernel's shift, and the
local operators from their blocks.
"""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, QuantumCoin,
                        ShiftedAutomorphism, WalkState, check_symmetry_relation,
                        corrupted_phases, enumerate_automorphisms, identity_coin,
                        make_generalized_symmetry, make_time_homog_symmetry, transform_coin)
from cayleywalk.automorphisms import transform_pair
from conftest import (assemble_local_matrix, assemble_permutation_matrix, assemble_step_matrix,
                      random_phases, random_unitary, sampler)
from test_acceptance import FAMILIES, _draw_symmetry

N_MAX = 10
TOL = 1e-12

GROUPS = {"cyclic8": lambda: CyclicGroup(8), "hypercube3": lambda: HypercubeGroup(3),
          "torus6": lambda: LatticeGroup(2, period=6)}


def operator_residual(coin, new_coin, dressing, perm=None) -> float:
    """Worst entry of T C'(n) P D(n) - P D(n+1) T C(n) over n = 0..N_MAX,
    P the permutation operator of `perm` (the identity when None)."""
    t_mat = assemble_step_matrix(coin.group)
    p_mat = np.eye(len(t_mat)) if perm is None else assemble_permutation_matrix(perm)
    d = [p_mat @ assemble_local_matrix(dressing, n) for n in range(N_MAX + 2)]
    return max(float(np.abs(t_mat @ assemble_local_matrix(new_coin, n) @ d[n]
                            - d[n + 1] @ t_mat @ assemble_local_matrix(coin, n)).max())
               for n in range(N_MAX + 1))


def _uniform_coin(group, rng) -> QuantumCoin:
    return QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))


def _rule_coin(group, rng) -> QuantumCoin:
    """A seeded unitary per element, its columns turned by a phase per step:
    a coin that varies with the position and the step."""
    mats = {group.encode(x): random_unitary(group.coin_dim, rng) for x in group.elements()}
    turns = np.angle(random_phases(group.coin_dim, rng))
    return QuantumCoin.from_rule(
        group, lambda n, x: mats[group.encode(x)] * np.exp(1j * n * turns))


COINS = {"uniform": _uniform_coin, "rule": _rule_coin}
# a family, or "generalized-<family>": that family composed with a seeded
# automorphism of the group
SYMMETRIES = FAMILIES + [f"generalized-{f}" for f in FAMILIES]


def _case(group_id, coin_kind, symmetry):
    """(coin, transformed coin, dressing, permutation or None) of a seeded
    case."""
    group = GROUPS[group_id]()
    rng = np.random.default_rng([4, list(GROUPS).index(group_id), list(COINS).index(coin_kind),
                                 SYMMETRIES.index(symmetry)])
    coin = COINS[coin_kind](group, rng)
    family = symmetry.removeprefix("generalized-")
    t = _draw_symmetry(family, group, rng)
    if family == symmetry:
        return coin, transform_coin(t, coin), t.phases, None
    auts = [a for a in enumerate_automorphisms(group) if not a.is_identity]
    perm = ShiftedAutomorphism(group, group.random_elements(sampler(rng), 1)[0],
                               auts[rng.integers(len(auts))].perm)
    start = WalkState.localized(group, group.identity, np.eye(group.coin_dim)[0])
    new_coin, _ = transform_pair(make_generalized_symmetry(perm, t), coin, start)
    return coin, new_coin, t.phases, perm


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("coin_kind", COINS)
@pytest.mark.parametrize("group_id", GROUPS)
def test_a_symmetry_intertwines_the_step_operators(group_id, coin_kind, symmetry):
    coin, new_coin, dressing, perm = _case(group_id, coin_kind, symmetry)
    assert operator_residual(coin, new_coin, dressing, perm) <= TOL


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("group_id", GROUPS)
def test_a_corrupted_dressing_fails_the_operator_identity(group_id, family):
    coin, new_coin, dressing, _ = _case(group_id, "uniform", family)
    group = coin.group
    rng = np.random.default_rng([5, list(GROUPS).index(group_id), FAMILIES.index(family)])
    at = (int(rng.integers(1, N_MAX + 1)), group.random_elements(sampler(rng), 1)[0],
          int(rng.integers(group.coin_dim)))
    # the flipped phase flips row (x, c) of D(n) T C(n - 1), a row of a unitary
    # block: some entry of it has magnitude at least 1/sqrt(dim)
    worst = operator_residual(coin, new_coin, corrupted_phases(dressing, at))
    assert worst >= 2 / np.sqrt(group.coin_dim) - TOL


def test_a_control_that_no_start_reaches_fails_only_the_operator_identity():
    # with the identity coin a walk from 0 keeps its coin and so never visits
    # (0, 1) at step 5, where the dressing is corrupted
    group = CyclicGroup(8)
    coin = identity_coin(group)
    t = make_time_homog_symmetry(group, epsilon=1j)
    bad = corrupted_phases(t.phases, (5, 0, 1))
    for vector in ([1.0, 0.0], [0.6, 0.8]):
        start = WalkState.localized(group, 0, vector)
        report = check_symmetry_relation(coin, start, t, n_max=N_MAX, dressing=bad)
        assert report.passed and report.max_residual == 0.0
    new_coin = transform_coin(t, coin)
    assert operator_residual(coin, new_coin, t.phases) <= TOL
    assert operator_residual(coin, new_coin, bad) == pytest.approx(2.0, abs=TOL)
