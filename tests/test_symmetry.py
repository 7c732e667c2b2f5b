"""Symmetry families and the coin transformation law."""

from __future__ import annotations

import ast
import cmath
from collections import Counter

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, FamilyPreconditionError, HypercubeGroup, LatticeGroup,
                        LineGroup, LocalUnitary, NonUnitaryError, PhaseField, QuantumCoin,
                        SpecError, UnitaryCharacter, WalkState, apply_dressing,
                        check_symmetry_relation, cyclic_character, exp_character, grover_coin,
                        hadamard_coin, identity_symmetry, make_full_homog_symmetry,
                        make_general_symmetry, make_group, make_space_homog_symmetry,
                        make_time_homog_symmetry, sign_character, transform_coin,
                        transform_state, trivial_character)
from cayleywalk.linalg import hadamard_matrix
from cayleywalk.states import PRUNE_TOL
from cayleywalk.verify import check_homogeneity, homogeneity_spreads

from conftest import random_phases, random_state, random_unitary, sampler
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
    diag = LocalUnitary(group, lambda n, x, c: [float("nan"), 1.0][c])
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
    # each finite axis is checked on its own, by the commensurability test
    # alone: a built-in character is not sampled for multiplicativity
    for group, bad, good in [
            (CyclicGroup(8), 0.1, np.pi / 4),
            (LatticeGroup(2, period=6), [np.pi / 3, 0.1], [np.pi / 3, np.pi]),
            (HypercubeGroup(3), [np.pi, 0.0, 0.5], [np.pi, 0.0, np.pi])]:
        with pytest.raises(SpecError, match="multiple of 2\\*pi"):
            exp_character(group, bad)
        exp_character(group, good)
    for group, phi in [(LineGroup(), 0.1), (LatticeGroup(2), [0.1, 0.7])]:
        exp_character(group, phi)


@pytest.mark.parametrize("n, j", [(10 ** 5, 33333), (10 ** 6, 499999), (10 ** 7, 3333333)])
def test_a_cyclic_character_is_exact_on_a_large_group(n, j):
    """j * x is reduced modulo N in integers: phi * x in floats was not a
    homomorphism at these sizes (the first two failed the sampled check, the
    third the commensurability test)."""
    group = CyclicGroup(n)
    chi = cyclic_character(group, j)
    # the check a user's character passes: units on every batch, and
    # multiplicative on 1000 seeded random pairs
    UnitaryCharacter.batched(group, "full_group", chi.values)
    x = n - 1
    assert chi(x) == pytest.approx(np.exp(2j * np.pi * (j * x % n) / n), abs=1e-12)
    # exp_character rounds phi * N / (2 pi) to the same integer
    phi = 2 * np.pi * 33 / n
    assert exp_character(group, phi)(x) == pytest.approx(cyclic_character(group, 33)(x),
                                                         abs=1e-15)


def test_a_character_with_a_period_beyond_two_to_the_31_is_rejected():
    """k * x, reduced modulo the period, must fit an int64."""
    group = CyclicGroup(2 ** 31 + 2)
    for build in (lambda: cyclic_character(group, 1), lambda: exp_character(group, 0.0)):
        with pytest.raises(SpecError, match="2\\*\\*31"):
            build()
    cyclic_character(CyclicGroup(2 ** 31), 2 ** 31 - 1)


def test_built_in_characters_are_not_sampled(monkeypatch):
    """The built-in closed forms are homomorphisms by construction once
    their parameters pass their checks; a user's character is sampled."""

    def sampled(self):
        raise AssertionError("sampled for multiplicativity")

    monkeypatch.setattr(UnitaryCharacter, "_check_multiplicative", sampled)
    for domain in ("full_group", "causal_subgroup"):
        exp_character(LineGroup(), 0.3, domain)
        exp_character(LatticeGroup(2, period=6), [np.pi / 3, np.pi], domain)
        sign_character(HypercubeGroup(3), (1, 0, 1), domain)
        sign_character(CyclicGroup(8), 1, domain)
        cyclic_character(CyclicGroup(8), 3, domain)
    with pytest.raises(AssertionError, match="sampled"):
        UnitaryCharacter(LineGroup(), "full_group", lambda x: 1.0)
    with pytest.raises(AssertionError, match="sampled"):
        UnitaryCharacter.batched(LineGroup(), "full_group",
                                 lambda keys: np.ones(len(keys), dtype=complex))


def test_sign_character_parity_guard():
    with pytest.raises(SpecError):
        sign_character(CyclicGroup(5), 1)
    for group, bad, good in [(CyclicGroup(5), 3, 2), (LatticeGroup(2, period=5), (0, 1), (0, 0))]:
        with pytest.raises(SpecError, match="even period"):
            sign_character(group, bad)
        assert sign_character(group, good).descriptor["mask"] == \
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
    assert check_homogeneity(new_coin)[0]
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
    assert check_homogeneity(new_coin)[1]
    time_spread, space_spread = homogeneity_spreads(new_coin)
    assert space_spread < 1e-12


def test_full_homog_transformed_coin_of_a_uniform_coin_is_one_block(rng, monkeypatch):
    group = HypercubeGroup(3)
    t = make_full_homog_symmetry(group, epsilon=-1.0, gamma=sign_character(group, (1, 0, 1)),
                                 uprime=random_phases(3, rng))
    new_coin = transform_coin(t, grover_coin(group))
    assert new_coin.time_homogeneous and new_coin.space_homogeneous
    first = new_coin.block(0, group.keys([(0, 0, 0)]))
    assert first.shape == (1, 3, 3)

    def compared(*args, **kwargs):
        raise AssertionError("the memo compared key arrays")

    monkeypatch.setattr(np, "array_equal", compared)
    for n, xs in ((0, [(0, 0, 0)]), (1, [(1, 0, 0)]), (7, [(0, 1, 1), (1, 1, 1)]),
                  (40, list(group.elements()))):
        assert new_coin.block(n, group.keys(xs)) is first


@pytest.mark.parametrize("family", ["space_homog", "time_homog", "full_homog"])
def test_a_partially_homogeneous_transformed_coin_declares_no_flag(family):
    group = LineGroup()
    coin = QuantumCoin.table(group, [hadamard_matrix(), np.eye(2)])  # space-homogeneous only
    t = {"space_homog": lambda: make_space_homog_symmetry(group, eta=[1j, -1]),
         "time_homog": lambda: make_time_homog_symmetry(
             group, epsilon=1j, delta=lambda x, c: cmath.exp(0.3j * x * (c + 1))),
         "full_homog": lambda: make_full_homog_symmetry(group, epsilon=1j)}[family]()
    new_coin = transform_coin(t, coin)
    assert not (new_coin.time_homogeneous or new_coin.space_homogeneous)
    # the homogeneity the family preserves is there to be probed
    assert check_homogeneity(new_coin)[1] == (family != "time_homog")
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    assert check_symmetry_relation(coin, start, t, n_max=20).passed


def test_space_homog_relation_holds_far_from_the_origin():
    """The eta twist across wraps is a unit phase: a complex power drifts in
    magnitude by about 1e-16 per factor, which made this check fail its
    tolerance from step 2455 on."""
    group = LineGroup()
    rho = exp_character(group, 0.3, "causal_subgroup")
    t = make_space_homog_symmetry(group, eta=[1, 1j], rho=rho, uprime=np.eye(2))
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    report = check_symmetry_relation(hadamard_coin(group), start, t, n_max=2500)
    assert report.max_residual < 1e-12, report


@pytest.mark.parametrize("make", [make_time_homog_symmetry, make_full_homog_symmetry],
                         ids=["time_homog", "full_homog"])
def test_epsilon_power_is_a_unit_far_from_step_0(make):
    """epsilon^n is the unit phase exp(i n arg epsilon). A complex power of
    this epsilon, whose modulus is 1 - 1.1e-16, leaves the unit circle by
    3.3e-13 at n = 3,000 and by 1.1e-11 at n = 100,000."""
    group = CyclicGroup(8)
    t = make(group, epsilon=0.33876206769118294 - 0.9408720749887278j)
    keys = group.keys(group.elements())
    for n in (3_000, 100_000):
        assert np.abs(np.abs(t.phases.block(n, keys)) - 1.0).max() <= 1e-15, n


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
    assert (transform_state(t, state) - u0.apply(state)).norm() < 1e-14
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


def test_apply_dressing_prunes_on_the_states_own_rows():
    """The dressed state keeps the state's rows, a row left empty included,
    and zeroes the entries below PRUNE_TOL as a coin product's prune does."""
    group = LineGroup()
    t = make_time_homog_symmetry(group, eta=[1.0, -1.0])
    state = WalkState.from_terms(group, [(-1, 0, 1e-16), (-1, 1, 1e-16j), (0, 0, 0.6),
                                         (0, 1, 0.8j), (2, 0, 0.5), (2, 1, 1e-16)])
    dressed = apply_dressing(t, 3, state)
    assert dressed.positions is state.positions
    want = t.phases.block(3, state.positions) * state.amps
    want[np.abs(want) < PRUNE_TOL] = 0.0
    assert dressed.amps.tobytes() == want.tobytes()
    assert not dressed.amps[0].any()
    # the same state as the operator's own action, which drops the empty row
    assert (dressed - t.phases.apply(state, 3)).norm() == 0.0
    with pytest.raises(SpecError, match="different groups"):
        apply_dressing(t, 3, WalkState.localized(CyclicGroup(8), 0, [1.0, 0.0]))


@pytest.mark.parametrize("family", FAMILIES)
def test_step_zero_dressing_is_the_state_transform(family, rng):
    group = CyclicGroup(8)
    t = _draw_symmetry(family, group, rng)
    state = random_state(group, rng)
    assert (apply_dressing(t, 0, state) - transform_state(t, state)).norm() == 0.0


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
    coin, start = hadamard_coin(group), WalkState.localized(group, 0, [1, 0])
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
    coin, start = hadamard_coin(group), WalkState.localized(group, 0, [1, 0])
    assert check_symmetry_relation(coin, start, t, n_max=100).passed
    # the transformed coin asks for U'(n + 1) and U'(n) at each step and the
    # dressing for U'(n)
    assert calls == Counter(range(101))


def test_eta_callable_runs_once_per_distinct_m_in_a_batch():
    # on an infinite coset count a callable eta is evaluated lazily
    group = LineGroup((1,))
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
    group = LineGroup((1,))
    t = make(group)
    t.phases.block(2, group.keys([0, 1]))  # m = 2, 1
    with pytest.raises(NonUnitaryError, match="eta at m = 3 "):
        t.phases.block(4, group.keys([0, 1]))  # m = 4, 3


ETA_FAMILIES = {
    "space_homog": make_space_homog_symmetry,
    "time_homog": make_time_homog_symmetry,
    "full_homog": make_full_homog_symmetry,
}


@pytest.mark.parametrize("group", [LineGroup(), CyclicGroup(8)], ids=["line", "cyclic8"])
@pytest.mark.parametrize("make", ETA_FAMILIES.values(), ids=ETA_FAMILIES)
def test_a_callable_eta_on_a_finite_coset_count_is_read_on_its_window(make, group):
    """A callable eta follows the family's window rule, as the list of its
    window values does, so the family's C' keeps both homogeneities."""
    eta = lambda m: cmath.exp(0.3j * m)
    t = make(group, eta=eta)
    window = make(group, eta=[eta(m) for m in range(group.chi)])
    keys = group.keys(group.random_elements(sampler(np.random.default_rng(3)), 12))
    for n in range(6):
        assert np.array_equal(t.phases.block(n, keys), window.phases.block(n, keys))
    assert check_homogeneity(transform_coin(t, hadamard_coin(group))) == (True, True)


def test_non_unit_delta_is_named_on_every_check():
    group = LineGroup()
    t = make_time_homog_symmetry(group, delta=lambda x, c: 2.0 if (x, c) == (1, 0) else 1.0)
    coin, start = hadamard_coin(group), WalkState.localized(group, 0, [1, 0])
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


def test_a_ragged_uprime_is_named():
    """numpy cannot read a ragged U' as an array; the error names U'."""
    group = LineGroup()
    ragged = (np.eye(2), np.ones(2))
    tail = make_space_homog_symmetry(group, uprime=lambda n: ragged if n else np.eye(2))
    for build in (lambda: make_space_homog_symmetry(group, uprime=ragged),
                  lambda: make_space_homog_symmetry(group, uprime=lambda n: ragged),
                  lambda: tail.phases.block(1, group.keys([0])),
                  lambda: make_full_homog_symmetry(group, uprime=[1, [1, 1]])):
        with pytest.raises(SpecError, match="U' must be a vector or a matrix"):
            build()


@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
def test_non_unit_user_character_is_named(batched):
    """The non-unit value lies at x = 100, outside the elements the
    multiplicativity check samples (products of two draws from [-16, 16]),
    so the character is built and the per-batch check names it later."""
    group = LineGroup()
    if batched:
        def values(keys):
            return np.where(group.unpack(keys)[:, 0] == 100, 2.0, 1.0).astype(complex)

        rho = UnitaryCharacter.batched(group, "causal_subgroup", values)
        gamma = UnitaryCharacter.batched(group, "full_group", values)
    else:
        rho = UnitaryCharacter(group, "causal_subgroup", lambda x: 2.0 if x == 100 else 1.0)
        gamma = UnitaryCharacter(group, "full_group", lambda x: 2.0 if x == 100 else 1.0)
    space = make_space_homog_symmetry(group, rho=rho)
    full = make_full_homog_symmetry(group, gamma=gamma)
    for t in (space, full):
        t.phases.block(1, group.keys([0, 1, -1]))
        with pytest.raises(NonUnitaryError, match="character value at 100 "):
            t.phases.block(1, group.keys([0, 100]))


def test_built_in_characters_reject_a_non_finite_phase():
    with pytest.raises(SpecError, match="finite"):
        exp_character(LineGroup(), float("nan"))
    with pytest.raises(SpecError, match="finite"):
        exp_character(LatticeGroup(2), [0.1, float("inf")])
    for j in (float("nan"), float("inf")):
        with pytest.raises(SpecError, match="finite"):
            cyclic_character(CyclicGroup(8), j)
