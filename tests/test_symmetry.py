"""Symmetry families and the coin transformation law."""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, FamilyPreconditionError, HypercubeGroup,
                        LineGroup, LocalUnitary, NonUnitaryError, PhaseField, SpecError,
                        WalkState, apply_dressing, check_symmetry_relation, cyclic_character,
                        exp_character, grover_coin, hadamard_coin, identity_symmetry,
                        make_full_homog_symmetry, make_general_symmetry, make_group,
                        make_space_homog_symmetry, make_time_homog_symmetry,
                        sign_character, transform_coin, transform_state, trivial_character)
from cayleywalk.linalg import random_phases, random_unitary
from cayleywalk.verify import homogeneity_spreads

from conftest import random_state


def test_phase_field_rejects_step_zero():
    group = LineGroup()
    field = PhaseField.ones(group)
    with pytest.raises(SpecError):
        field.at(0, 0, 0)
    assert field.at(1, 0, 0) == 1.0


def test_phase_field_requires_unit_values():
    group = LineGroup()
    field = PhaseField(group, lambda n, x, c: 2.0)
    with pytest.raises(SpecError):
        field.at(1, 0, 0)


def test_nan_phases_are_rejected(rng):
    group = LineGroup()
    with pytest.raises(NonUnitaryError):
        PhaseField(group, lambda n, x, c: float("nan")).at(1, 0, 0)
    diag = LocalUnitary.diagonal(group, lambda x: [float("nan"), 1.0])
    with pytest.raises(NonUnitaryError):
        diag.apply(random_state(group, rng))


def test_phase_field_table_with_default():
    group = LineGroup()
    field = PhaseField.from_table(group, {(1, 0, 0): -1.0}, default=1.0)
    assert field.at(1, 0, 0) == pytest.approx(-1.0)
    assert field.at(1, 2, 1) == pytest.approx(1.0)


def test_identity_symmetry_residual_is_exactly_zero():
    group = LineGroup()
    coin = hadamard_coin(group)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    report = check_symmetry_relation(coin, start, identity_symmetry(group), n_max=12)
    assert report.max_residual == 0.0
    assert report.passed


def test_constant_phase_shifts_only_the_first_coin():
    group = LineGroup()
    theta = 0.7
    phase = np.exp(1j * theta)
    t = make_general_symmetry(
        LocalUnitary.uniform(group, phase * np.eye(2)),
        PhaseField(group, lambda n, x, c: 1.0 + 0j))
    coin = hadamard_coin(group)
    new_coin = transform_coin(t, coin)
    assert np.allclose(new_coin.matrix_at(0), np.conj(phase) * coin.matrix_at(0))
    assert np.allclose(new_coin.matrix_at(3), coin.matrix_at(3))


@pytest.mark.parametrize("group", [LineGroup(), CyclicGroup(8), HypercubeGroup(3)],
                         ids=["line", "cyclic8", "hypercube3"])
def test_general_symmetry_relation(group, rng):
    coin = grover_coin(group) if group.coin_dim != 2 else hadamard_coin(group)
    u0 = LocalUnitary.uniform(group, random_unitary(group.coin_dim, rng))
    seed = int(rng.integers(1 << 30))
    def phase(n, x, c):
        local = np.random.default_rng([seed, n, hash(group.encode(x)) & 0xffff, c])
        return np.exp(2j * np.pi * local.random())
    t = make_general_symmetry(u0, PhaseField(group, phase))
    start = random_state(group, rng)
    report = check_symmetry_relation(coin, start, t, n_max=12)
    assert report.passed, report


def test_space_homog_phase_oracle():
    group = LineGroup()
    phi = 0.3
    rho = exp_character(group, phi, domain="causal_subgroup")
    t = make_space_homog_symmetry(group, rho=rho)
    assert t.phases.at(1, 4, 0) == pytest.approx(np.exp(4j * phi))
    eta = t.params["eta"]
    for n in (2, 5):
        assert t.phases.at(n, 4, 1) == pytest.approx(
            np.exp(4j * phi) * eta(n))


def test_time_homog_phase_oracle():
    group = CyclicGroup(8)
    eps = np.exp(1j * np.pi / 2)
    t = make_time_homog_symmetry(group, epsilon=eps)
    for n in (1, 2, 5):
        assert t.phases.at(n, 0, 0) == pytest.approx(eps ** n)


def test_epsilon_needs_finite_coset_count():
    halfline = make_group("line", generators=(1,))
    with pytest.raises(FamilyPreconditionError):
        make_time_homog_symmetry(halfline, epsilon=1j)
    with pytest.raises(FamilyPreconditionError):
        make_full_homog_symmetry(halfline, epsilon=-1.0)
    t = make_time_homog_symmetry(halfline, epsilon=1.0)
    assert t.family == "time_homog"


def test_space_homog_needs_subgroup_character():
    group = LineGroup()
    with pytest.raises(FamilyPreconditionError):
        make_space_homog_symmetry(group, rho=trivial_character(group, "full_group"))


def test_full_homog_needs_full_group_character():
    group = LineGroup()
    with pytest.raises(FamilyPreconditionError):
        make_full_homog_symmetry(
            group, gamma=trivial_character(group, "causal_subgroup"))


def test_uprime_tail_must_be_diagonal():
    group = LineGroup()
    bad_tail = lambda n: np.eye(2) if n == 0 else np.array([[0, 1], [1, 0]])
    with pytest.raises(FamilyPreconditionError):
        t = make_space_homog_symmetry(group, uprime=bad_tail)
        t.phases.at(1, 0, 0)


def test_exp_character_commensurability():
    group = CyclicGroup(8)
    with pytest.raises(SpecError):
        exp_character(group, 0.1)
    chi = cyclic_character(group, 3)
    assert chi(2) == pytest.approx(np.exp(2j * np.pi * 3 * 2 / 8))


def test_sign_character_parity_guard():
    with pytest.raises(SpecError):
        sign_character(CyclicGroup(5), 1)
    rho = sign_character(HypercubeGroup(3), (1, 1, 0))
    assert rho((1, 1, 0)) == pytest.approx(1.0)
    assert rho((1, 0, 0)) == pytest.approx(-1.0)


def test_character_multiplicativity_is_validated():
    group = CyclicGroup(8)
    from cayleywalk import UnitaryCharacter
    with pytest.raises(SpecError):
        UnitaryCharacter(group, "full_group",
                         lambda x: np.exp(1j * 0.1 * x), descriptor=None)


@pytest.mark.parametrize("group", [LineGroup(), CyclicGroup(8), HypercubeGroup(3)],
                         ids=["line", "cyclic8", "hypercube3"])
def test_time_homog_relation_random(group, rng):
    coin = grover_coin(group) if group.coin_dim != 2 else hadamard_coin(group)
    eps = np.exp(2j * np.pi * rng.random())
    eta = list(random_phases(group.chi, rng))
    table = {}
    for x in group.random_elements(rng, 6):
        for c in range(group.coin_dim):
            table[(x, c)] = np.exp(2j * np.pi * rng.random())
    t = make_time_homog_symmetry(group, epsilon=eps, eta=eta, delta=table)
    report = check_symmetry_relation(coin, random_state(group, rng), t, n_max=15)
    assert report.passed, report


def test_time_homog_transformed_coin_is_time_homogeneous(rng):
    group = CyclicGroup(8)
    coin = hadamard_coin(group)
    delta = {(x, c): np.exp(2j * np.pi * rng.random())
             for x in range(8) for c in range(2)}
    t = make_time_homog_symmetry(group, epsilon=1j, delta=delta)
    new_coin = transform_coin(t, coin)
    assert new_coin.time_homogeneous
    for x in range(8):
        m0 = new_coin.matrix_at(0, x)
        for n in (1, 4, 9):
            assert np.abs(new_coin.matrix_at(n, x) - m0).max() < 1e-12


def test_space_homog_transformed_coin_stays_uniform_across_wrap():
    group = CyclicGroup(8)
    coin = hadamard_coin(group)
    t = make_space_homog_symmetry(group, rho=cyclic_character(group, 1,
                                                              domain="causal_subgroup"))
    new_coin = transform_coin(t, coin)
    assert new_coin.space_homogeneous
    time_spread, space_spread = homogeneity_spreads(new_coin)
    assert space_spread < 1e-12


def test_full_homog_preserves_both_homogeneities(rng):
    group = HypercubeGroup(3)
    coin = grover_coin(group)
    gamma = sign_character(group, (1, 0, 1))
    uvec = random_phases(3, rng)
    t = make_full_homog_symmetry(group, epsilon=-1.0, gamma=gamma, uprime=uvec)
    new_coin = transform_coin(t, coin)
    time_spread, space_spread = homogeneity_spreads(new_coin)
    assert time_spread < 1e-12
    assert space_spread < 1e-12
    report = check_symmetry_relation(coin, random_state(group, rng), t, n_max=15)
    assert report.passed, report


def test_eta_window_length_is_checked():
    group = CyclicGroup(8)
    with pytest.raises(SpecError):
        make_time_homog_symmetry(group, eta=[1.0, 1.0, 1.0])


def test_eta_quasi_periodic_extension():
    group = CyclicGroup(8)
    rho = cyclic_character(group, 1, domain="causal_subgroup")
    t = make_space_homog_symmetry(group, rho=rho)
    eta = t.params["eta"]
    rho0 = t.params["rho0"]
    for m in (-3, -1, 0, 2, 5):
        assert eta(m - 2) == pytest.approx(eta(m) * rho0)


def test_transform_state_applies_step_zero_unitary(rng):
    group = LineGroup()
    u0 = LocalUnitary.uniform(group, random_unitary(2, rng))
    t = make_general_symmetry(u0, PhaseField.ones(group))
    state = random_state(group, rng)
    assert transform_state(t, state).distance(u0.apply(state)) < 1e-14


def test_apply_dressing_step_zero_vs_later(rng):
    group = LineGroup()
    t = make_time_homog_symmetry(group, eta=[1.0, -1.0])
    state = random_state(group, rng)
    dressed0 = apply_dressing(t, 0, state)
    assert dressed0.norm() == pytest.approx(state.norm())
    dressed3 = apply_dressing(t, 3, state)
    for x in state.support():
        k = group.coset_index(x)
        expect = (-1.0) ** ((3 - k) % 2)
        assert dressed3.amplitude(x, 0) == pytest.approx(
            expect * state.amplitude(x, 0))


def test_phase_well_defined_across_redecomposition():
    group = CyclicGroup(8)
    rho = cyclic_character(group, 1, domain="causal_subgroup")
    eta = [1.0, 1j]
    t = make_space_homog_symmetry(group, eta=eta, rho=rho)
    eta_fn, rho_fn = t.params["eta"], t.params["rho"]
    for x in range(8):
        xt, k = group.decompose(x)
        canonical = eta_fn(5 - k) * rho_fn(xt)
        # Same element re-expressed with k + chi and xt shifted down by c0^chi.
        alt_xt = group.mul(xt, group.inv(group.pow_c0(2)))
        shifted_rep = eta_fn(5 - (k + 2)) * rho_fn(alt_xt)
        assert canonical == pytest.approx(shifted_rep)
