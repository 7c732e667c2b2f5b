"""Symmetry families and the coin transformation law."""

from __future__ import annotations

import ast
import cmath
from collections import Counter

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, FamilyPreconditionError, HypercubeGroup, LatticeGroup,
                        LineGroup, LocalUnitary, NonUnitaryError, PhaseField, SpecError,
                        UnitaryCharacter, WalkState, apply_dressing, check_symmetry_relation,
                        cyclic_character, exp_character, grover_coin, hadamard_coin,
                        identity_symmetry, make_full_homog_symmetry, make_general_symmetry,
                        make_group, make_space_homog_symmetry, make_time_homog_symmetry,
                        sign_character, transform_coin, transform_state, trivial_character)
from cayleywalk.linalg import random_phases, random_unitary
from cayleywalk.verify import homogeneity_spreads

from conftest import random_state, sampler
from test_acceptance import FAMILIES, _draw_symmetry


def test_phase_field_is_local_unitary_with_a_step_zero_block(rng):
    assert PhaseField is LocalUnitary  # both as exported by cayleywalk
    group = LineGroup()
    field = LocalUnitary.identity(group)
    assert field.at(0, 0, 0) == 1.0
    assert field.at(1, 0, 0) == 1.0
    u0 = random_unitary(2, rng)
    t = make_general_symmetry(LocalUnitary.uniform(group, u0),
                              PhaseField(group, lambda n, x, c: 1j))
    assert np.array_equal(t.phases.component(3, 0), u0)
    assert np.array_equal(t.phases.component(3, 2), 1j * np.eye(2))


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
    # each finite axis is checked on its own, also without the sampled
    # multiplicativity check
    for group, bad, good in [
            (CyclicGroup(8), 0.1, np.pi / 4),
            (LatticeGroup(2, period=6), [np.pi / 3, 0.1], [np.pi / 3, np.pi]),
            (HypercubeGroup(3), [np.pi, 0.0, 0.5], [np.pi, 0.0, np.pi])]:
        with pytest.raises(SpecError, match="multiple of 2\\*pi"):
            exp_character(group, bad, validate=False)
        exp_character(group, good, validate=False)
    for group, phi in [(LineGroup(), 0.1), (LatticeGroup(2), [0.1, 0.7])]:
        exp_character(group, phi, validate=False)


def test_sign_character_parity_guard():
    with pytest.raises(SpecError):
        sign_character(CyclicGroup(5), 1)
    for group, bad, good in [(CyclicGroup(5), 3, 2), (LatticeGroup(2, period=5), (0, 1), (0, 0))]:
        with pytest.raises(SpecError, match="even period"):
            sign_character(group, bad, validate=False)
        assert sign_character(group, good, validate=False).descriptor["mask"] == \
            (list(good) if isinstance(good, tuple) else good)
    rho = sign_character(HypercubeGroup(3), (1, 1, 0))
    assert rho((1, 1, 0)) == pytest.approx(1.0)
    assert rho((1, 0, 0)) == pytest.approx(-1.0)


def test_character_multiplicativity_is_validated():
    group = CyclicGroup(8)
    from cayleywalk import UnitaryCharacter
    with pytest.raises(SpecError):
        UnitaryCharacter(group, "full_group",
                         lambda x: np.exp(1j * 0.1 * x), descriptor=None)


@pytest.mark.parametrize("group, domain", [
    (HypercubeGroup(3), "full_group"), (HypercubeGroup(3), "causal_subgroup"),
    (LineGroup(), "full_group"), (LineGroup(), "causal_subgroup")])
def test_batched_non_multiplicative_character_is_rejected(group, domain):
    from cayleywalk import UnitaryCharacter

    def values(keys):  # exp(0.3i |x|^2): not multiplicative on either group
        return np.exp(0.3j * np.sum(group.unpack(keys) ** 2, axis=1))

    with pytest.raises(SpecError, match="not multiplicative at") as info:
        UnitaryCharacter.batched(group, domain, values)
    a, b = ast.literal_eval(str(info.value).split(" at ", 1)[1])
    assert abs(values(group.keys([group.mul(a, b)]))[0]
               - values(group.keys([a]))[0] * values(group.keys([b]))[0]) > 1e-12
    if group.is_finite:
        # the first failing pair of the all-pairs scan
        pool = [x for x in group.elements()
                if domain == "full_group" or group.coset_index(x) == 0]
        first = next((x, y) for x in pool for y in pool
                     if abs(values(group.keys([group.mul(x, y)]))[0]
                            - values(group.keys([x]))[0] * values(group.keys([y]))[0]) > 1e-12)
        assert (a, b) == first


@pytest.mark.parametrize("group", [LineGroup(), CyclicGroup(8), HypercubeGroup(3)],
                         ids=["line", "cyclic8", "hypercube3"])
def test_time_homog_relation_random(group, rng):
    coin = grover_coin(group) if group.coin_dim != 2 else hadamard_coin(group)
    eps = np.exp(2j * np.pi * rng.random())
    eta = list(random_phases(group.chi, rng))
    table = {}
    for x in group.random_elements(sampler(rng), 6):
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
    t = make_general_symmetry(u0, LocalUnitary.identity(group))
    state = random_state(group, rng)
    assert transform_state(t, state).distance(u0.apply(state)) < 1e-14
    # unit phases after step 0: the coin changes only at step 0
    coin = hadamard_coin(group)
    new_coin = transform_coin(t, coin)
    assert np.allclose(new_coin.matrix_at(0), coin.matrix_at(0) @ u0.component(0).conj().T)
    assert np.array_equal(new_coin.matrix_at(2, 5), coin.matrix_at(2, 5))


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


@pytest.mark.parametrize("family", FAMILIES)
def test_step_zero_dressing_is_the_state_transform(family, rng):
    group = CyclicGroup(8)
    t = _draw_symmetry(family, group, rng)
    state = random_state(group, rng)
    assert apply_dressing(t, 0, state).distance(transform_state(t, state)) == 0.0


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


# -- family phases are checked at their factors -----------------------------------


def test_time_homog_delta_runs_once_per_position():
    group = LineGroup()
    calls = Counter()

    def delta(x, c):
        calls[(x, c)] += 1
        return cmath.exp(1j * (0.3 * x + 0.7 * c))

    t = make_time_homog_symmetry(group, epsilon=1j, delta=delta)
    coin, start = hadamard_coin(group), WalkState.basis_state(group, 0, 0)
    first = check_symmetry_relation(coin, start, t, n_max=100)
    assert first.passed
    assert sum(calls.values()) == len(calls) > 400
    # a second check of the same transform evaluates nothing again
    calls.clear()
    second = check_symmetry_relation(coin, start, t, n_max=100)
    assert sum(calls.values()) == 0
    assert second.per_step_residuals == first.per_step_residuals


def test_uprime_callable_runs_once_per_step():
    group = LineGroup()
    calls = Counter()

    def uprime(n):
        calls[n] += 1
        return np.diag(np.exp([0.2j * n, -0.5j * n])) if n else np.eye(2)

    t = make_space_homog_symmetry(group, eta=[1j, -1], uprime=uprime)
    coin, start = hadamard_coin(group), WalkState.basis_state(group, 0, 0)
    assert check_symmetry_relation(coin, start, t, n_max=100).passed
    # the transformed coin asks for U'(n + 1) and U'(n) at each step and the
    # dressing for U'(n); its flag probe asked for steps 0..6 when it was built
    assert calls == Counter(range(101))


def test_eta_callable_runs_once_per_distinct_m_in_a_batch():
    group = LineGroup()
    calls = Counter()

    def eta(m):
        calls[m] += 1
        return cmath.exp(0.3j * m)

    t = make_time_homog_symmetry(group, eta=eta)
    keys = group.keys(range(-20, 21))
    block = t.phases.block(5, keys)
    m = 5 - group.coset_indices(keys)
    assert calls == Counter(set(m.tolist()))
    assert np.allclose(block[:, 0], np.exp(0.3j * m))
    calls.clear()
    t.phases.block(6, keys[::-1])  # an unsorted batch
    assert calls == Counter(set((6 - group.coset_indices(keys)).tolist()))


def _bad_eta(m):
    return 2.0 if m == 3 else 1.0


@pytest.mark.parametrize("make", [
    lambda g: make_space_homog_symmetry(g, eta=_bad_eta),
    lambda g: make_time_homog_symmetry(g, eta=_bad_eta)], ids=["space_homog", "time_homog"])
def test_non_unit_eta_callable_is_named(make):
    group = LineGroup()
    t = make(group)
    t.phases.block(2, group.keys([0, 1]))  # m = 2, 1
    with pytest.raises(NonUnitaryError, match="eta at m = 3 "):
        t.phases.block(4, group.keys([0, 1]))  # m = 4, 3


def test_non_unit_delta_is_named_on_every_check():
    group = LineGroup()
    t = make_time_homog_symmetry(group, delta=lambda x, c: 2.0 if (x, c) == (1, 0) else 1.0)
    coin, start = hadamard_coin(group), WalkState.basis_state(group, 0, 0)
    for _ in range(2):
        with pytest.raises(NonUnitaryError, match="delta at 1 "):
            check_symmetry_relation(coin, start, t, n_max=5)


def test_non_unit_uprime_callable_is_named():
    group = LineGroup()
    t = make_space_homog_symmetry(
        group, uprime=lambda n: np.eye(2) if n != 4 else np.array([1.0, 2.0]))
    t.phases.block(3, group.keys([0]))
    with pytest.raises(NonUnitaryError, match=r"U' diagonal entry .*n = 4"):
        t.phases.block(4, group.keys([0]))


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
def test_non_unit_user_character_is_named(batched):
    group = LineGroup()
    if batched:
        rho = UnitaryCharacter.batched(
            group, "causal_subgroup",
            lambda keys: np.where(group.unpack(keys)[:, 0] == 4, 2.0, 1.0).astype(complex),
            validate=False)
        gamma = UnitaryCharacter.batched(
            group, "full_group",
            lambda keys: np.where(group.unpack(keys)[:, 0] == 4, 2.0, 1.0).astype(complex),
            validate=False)
    else:
        rho = UnitaryCharacter(group, "causal_subgroup", lambda x: 2.0 if x == 4 else 1.0,
                               validate=False)
        gamma = UnitaryCharacter(group, "full_group", lambda x: 2.0 if x == 4 else 1.0,
                                 validate=False)
    space = make_space_homog_symmetry(group, rho=rho)
    full = make_full_homog_symmetry(group, gamma=gamma)
    for t in (space, full):
        t.phases.block(1, group.keys([0, 1, -1]))
        with pytest.raises(NonUnitaryError, match="character value at 4 "):
            t.phases.block(1, group.keys([0, 4]))


def test_built_in_characters_reject_a_non_finite_phase():
    with pytest.raises(SpecError, match="finite"):
        exp_character(LineGroup(), float("nan"), validate=False)
    with pytest.raises(SpecError, match="finite"):
        exp_character(LatticeGroup(2), [0.1, float("inf")], validate=False)
    for j in (float("nan"), float("inf")):
        with pytest.raises(SpecError, match="finite"):
            cyclic_character(CyclicGroup(8), j)
