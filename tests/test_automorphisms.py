"""Graph automorphisms and generalized symmetries."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup,
                        NotAutomorphismError, WalkState, apply_shift,
                        check_probability_map, check_symmetry_relation,
                        conjugate_local, enumerate_automorphisms,
                        generalized_transform, grover_coin, hadamard_coin,
                        identity_symmetry, LocalUnitary, make_generalized_symmetry,
                        permutation_apply, QuantumCoin, ShiftedAutomorphism)
from cayleywalk.automorphisms import compose, invert
from cayleywalk.linalg import grover_matrix
from cayleywalk.verify import assemble_permutation_matrix, assemble_step_matrix

from conftest import all_groups, oracle_add, oracle_law, random_state, random_unitary, sampler


def test_line_reflection():
    group = LineGroup()
    a = ShiftedAutomorphism(group, 0, (1, 0))
    assert a.apply_element(5) == -5
    assert a.apply_element(-3) == 3


def test_line_translation():
    group = LineGroup()
    a = ShiftedAutomorphism(group, 7, (0, 1))
    assert a.apply_element(1) == 8


def test_cyclic_multiplier_found():
    group = CyclicGroup(8)
    a = ShiftedAutomorphism(group, 0, (1, 0))
    assert a.apply_element(3) == 5


def test_non_automorphism_rejected():
    group = CyclicGroup(8, generators=(1, 2))
    with pytest.raises(NotAutomorphismError):
        ShiftedAutomorphism(group, 0, (1, 0))


def test_inverse_pairing_precheck():
    group = LatticeGroup(2)
    # Maps +e1 to itself but -e1 to +e2, splitting an inverse pair.
    with pytest.raises(NotAutomorphismError):
        ShiftedAutomorphism(group, (0, 0), (0, 2, 1, 3))


def test_axis_sign_flip_is_an_automorphism():
    group = LatticeGroup(2)
    a = ShiftedAutomorphism(group, (0, 0), (1, 0, 2, 3))
    assert a.apply_element((3, 5)) == (-3, 5)


def test_lattice_axis_swap():
    group = LatticeGroup(2, period=6)
    a = ShiftedAutomorphism(group, (0, 0), (2, 3, 0, 1))
    assert a.apply_element((1, 4)) == (4, 1)


def test_hypercube_axis_permutation():
    group = HypercubeGroup(3)
    a = ShiftedAutomorphism(group, (0, 0, 0), (1, 2, 0))
    assert a.apply_element((1, 0, 0)) == (0, 1, 0)


def test_compose_and_invert_group_laws(rng):
    group = CyclicGroup(8)
    auts = enumerate_automorphisms(group)
    shifts = [0, 1, 5]
    pool = [ShiftedAutomorphism(group, s, a.perm)
            for s in shifts for a in auts]
    e = ShiftedAutomorphism(group, group.identity, range(group.coin_dim))
    xs = group.random_elements(sampler(rng), 6)
    for a in pool:
        ai = invert(a)
        for x in xs:
            assert compose(a, ai).apply_element(x) == e.apply_element(x) == x or \
                compose(a, ai).apply_element(x) == x
            assert compose(ai, a).apply_element(x) == x
    for a in pool[:4]:
        for b in pool[4:8]:
            ab = compose(a, b)
            for x in xs:
                assert ab.apply_element(x) == a.apply_element(b.apply_element(x))


def oracle_phi(group, perm):
    """The automorphism that permutes the generators by perm, written out per
    kind from the group's spec (a sign flip, a unit multiplier, a signed axis
    permutation or an axis permutation), or None when there is none."""
    spec = group.describe()
    kind, gens = spec["kind"], group.generators
    if kind == "line":
        sign = gens[perm[0]] * gens[0]
        if any(sign * g != gens[p] for g, p in zip(gens, perm)):
            return None
        return lambda x: sign * x
    if kind == "cyclic":
        n = spec["N"]
        u = next((u for u in range(1, n) if math.gcd(u, n) == 1
                  and all(u * g % n == gens[p] for g, p in zip(gens, perm))), None)
        return None if u is None else lambda x: u * x % n
    d = spec["d"]
    if kind == "lattice":
        # +e_a and -e_a must go to one inverse pair
        if any(perm[2 * axis + 1] != perm[2 * axis] ^ 1 for axis in range(d)):
            return None
        period = spec.get("N")

        def signed_axis_permutation(x):
            out = [0] * d
            for axis in range(d):
                target, minus = divmod(perm[2 * axis], 2)
                out[target] = -x[axis] if minus else x[axis]
            return tuple(v % period for v in out) if period else tuple(out)
        return signed_axis_permutation

    def axis_permutation(x):
        out = [0] * d
        for axis in range(d):
            out[perm[axis]] = x[axis]
        return tuple(out)
    return axis_permutation


def test_apply_rows_matches_elementwise(rng):
    for group in all_groups():
        moduli, _ = oracle_law(group)
        perms = [p for p in itertools.permutations(range(group.coin_dim))
                 if oracle_phi(group, p) is not None]
        auts = enumerate_automorphisms(group)
        assert [a.perm for a in auts] == perms
        xs = group.random_elements(sampler(rng), 8)
        keys = group.keys(xs)
        for shift in (group.identity, group.random_elements(sampler(rng), 1)[0]):
            vec = shift if isinstance(shift, tuple) else (shift,)
            for a in auts:
                b = ShiftedAutomorphism(group, shift, a.perm)
                phi = oracle_phi(group, a.perm)
                want = [oracle_add(moduli, phi(x), vec) for x in xs]
                assert [b.phi(x) for x in xs] == [phi(x) for x in xs]
                assert [b.apply_element(x) for x in xs] == want
                assert group.elements_of(b.apply_keys(keys)) == want


def test_step_commutes_with_automorphism_matrix():
    for group in [CyclicGroup(8), HypercubeGroup(3)]:
        t_mat = assemble_step_matrix(group)
        for a in enumerate_automorphisms(group):
            for shift in [group.identity, group.generators[0]]:
                b = ShiftedAutomorphism(group, shift, a.perm)
                p_mat = assemble_permutation_matrix(b)
                assert np.array_equal(t_mat @ p_mat, p_mat @ t_mat)


def test_shift_commutes_on_states(rng):
    group = LineGroup()
    state = random_state(group, rng)
    refl = ShiftedAutomorphism(group, 0, (1, 0))
    lhs = permutation_apply(refl, apply_shift(state))
    rhs = apply_shift(permutation_apply(refl, state))
    assert (lhs - rhs).norm() < 1e-14


def test_permutation_apply_relabels_probabilities(rng):
    group = CyclicGroup(8)
    state = random_state(group, rng)
    a = ShiftedAutomorphism(group, 3, (1, 0))
    moved = permutation_apply(a, state)
    dist = state.position_distribution()
    moved_dist = moved.position_distribution()
    for x, p in dist.items():
        assert moved_dist[a.apply_element(x)] == pytest.approx(p)


def test_conjugate_local_uniform(rng):
    group = LineGroup()
    mat = random_unitary(2, rng)
    op = LocalUnitary.uniform(group, mat)
    refl = ShiftedAutomorphism(group, 0, (1, 0))
    conj = conjugate_local(refl, op)
    pc = assemble_coin_permutation(refl)
    assert np.allclose(conj.component(0), pc.conj().T @ mat @ pc)


def assemble_coin_permutation(a):
    """Pc with Pc e_c = e_perm[c]."""
    return np.eye(a.group.coin_dim, dtype=complex)[list(a.perm)].T


def test_generalized_symmetry_relation(rng):
    group = LineGroup()
    coin = hadamard_coin(group)
    refl = ShiftedAutomorphism(group, 0, (1, 0))
    gs = make_generalized_symmetry(refl)
    start = random_state(group, rng)
    report = check_symmetry_relation(coin, start, gs, n_max=20)
    assert report.passed, report
    prob = check_probability_map(coin, start, gs, n_max=20)
    assert prob.passed, prob


@pytest.mark.parametrize("make, flags", [
    (grover_coin, (True, True)),
    (lambda g: QuantumCoin.table(g, [grover_matrix(3), np.eye(3)[[1, 2, 0]]]), (False, True)),
    (lambda g: QuantumCoin.from_rule(g, lambda n, x: random_unitary(
        3, np.random.default_rng([n, *x]))), (False, False)),
], ids=["grover", "table", "per position"])
def test_generalized_transform_flags(make, flags):
    group = HypercubeGroup(3)
    coin = make(group)
    a = ShiftedAutomorphism(group, (0, 0, 0), (2, 0, 1))
    gs = make_generalized_symmetry(a)
    new_coin, new_state = generalized_transform(
        gs, coin, WalkState.localized(group, (0, 0, 0), [1, 0, 0]))
    assert isinstance(new_coin, QuantumCoin)
    assert (new_coin.time_homogeneous, new_coin.space_homogeneous) == flags
    assert new_state.support() == [(0, 0, 0)]
    # Pc C(n, a^-1(y)) Pc^dag
    pc = assemble_coin_permutation(a)
    for n, y in ((0, (0, 0, 0)), (3, (1, 0, 1))):
        want = pc @ coin.matrix_at(n, invert(a).apply_element(y)) @ pc.conj().T
        assert np.allclose(new_coin.matrix_at(n, y), want)


def test_generalized_with_inner_identity_is_plain_relabeling(rng):
    group = CyclicGroup(8)
    coin = hadamard_coin(group)
    a = ShiftedAutomorphism(group, 2, (0, 1))
    gs = make_generalized_symmetry(a, identity_symmetry(group))
    start = random_state(group, rng)
    report = check_symmetry_relation(coin, start, gs, n_max=16)
    assert report.passed, report


def test_enumerate_counts():
    assert len(enumerate_automorphisms(LineGroup())) == 2
    assert len(enumerate_automorphisms(CyclicGroup(8))) == 2
    assert len(enumerate_automorphisms(HypercubeGroup(3))) == 6
    assert len(enumerate_automorphisms(CyclicGroup(8, generators=(1, 2)))) == 1
