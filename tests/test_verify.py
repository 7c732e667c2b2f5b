"""Verification reports, negative controls, invariant suites."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup, LocalUnitary,
                        NonUnitaryError, SpecError, SymmetryTransform, VerificationReport,
                        WalkState, check_homogeneity, check_probability_map,
                        check_symmetry_relation, corrupted_phases, grover_coin,
                        hadamard_coin, identity_symmetry,
                        ShiftedAutomorphism, make_generalized_symmetry,
                        make_full_homog_symmetry, make_general_symmetry,
                        make_time_homog_symmetry, parse_symmetry_spec, run_invariant_suite,
                        transform_coin)
from cayleywalk.linalg import hadamard_matrix
from cayleywalk.verify import (_report, _stream, assemble_local_matrix, assemble_step_matrix,
                               homogeneity_spreads)
from cayleywalk.walk import QuantumCoin, WalkInstance, evolve

from conftest import random_state, random_unitary
from test_acceptance import FAMILIES, _draw_symmetry


def test_report_json_shape():
    report = VerificationReport("demo", 5e-11, (0.0, 5e-11), 1e-10)
    data = json.loads(report.to_json())
    assert data == {"case": "demo", "max_residual": 5e-11, "passed": True,
                    "steps": [0.0, 5e-11], "tol": 1e-10}
    assert "[PASS]" in str(report)
    failing = VerificationReport("demo", 2e-3, (2e-3,), 1e-10)
    assert not failing.passed
    assert "[FAIL]" in str(failing)


def test_report_names_its_first_failing_step():
    passing = VerificationReport("demo", 5e-11, (0.0, 5e-11), 1e-10)
    assert passing.first_failing_step is None
    failing = VerificationReport("demo", float("nan"), (0.0, 1e-11, float("nan"), 1.0), 1e-10)
    assert failing.first_failing_step == 2
    assert str(failing).endswith(", first failing step 2")
    assert set(json.loads(failing.to_json())) == {"case", "max_residual", "passed", "steps",
                                                  "tol"}


@pytest.mark.parametrize("family", ["general", "space_homog", "time_homog", "full_homog"])
def test_corrupted_control_reports_its_step(family):
    group = LineGroup()
    coin = hadamard_coin(group)
    start = WalkState.localized(group, 0, np.array([1.0, 1j]) / np.sqrt(2))
    t = _draw_symmetry(family, group, np.random.default_rng(7))
    n0 = 6
    psi = evolve(WalkInstance(group, coin, start), n0)[n0]
    (x, c), amp = max(psi.terms().items(), key=lambda item: abs(item[1]))
    assert abs(amp) > 1e-3
    clean = check_symmetry_relation(coin, start, t, n_max=12)
    assert clean.first_failing_step is None
    bad = check_symmetry_relation(coin, start, t, n_max=12,
                                  dressing=corrupted_phases(t.phases, (n0, x, c)))
    assert bad.first_failing_step == n0
    assert f"first failing step {n0}" in str(bad)


def test_corrupted_phase_fails_check():
    group = LineGroup()
    coin = hadamard_coin(group)
    t = make_time_homog_symmetry(group, epsilon=1j)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    clean = check_symmetry_relation(coin, start, t, n_max=10)
    assert clean.passed
    # Step 1 puts amplitude 1/sqrt(2) on (x=1, c=0); flipping its dressing
    # phase must show up as a residual of 2/sqrt(2) at that step only.
    bad = corrupted_phases(t.phases, at=(1, 1, 0))
    dressed = check_symmetry_relation(coin, start, t, n_max=10, dressing=bad)
    assert not dressed.passed
    assert dressed.per_step_residuals[1] == pytest.approx(np.sqrt(2.0))
    assert dressed.per_step_residuals[0] == 0.0
    assert max(dressed.per_step_residuals[2:]) < 1e-12


def test_corruption_leaves_other_entries_alone():
    group = LineGroup()
    t = make_time_homog_symmetry(group, epsilon=1j)
    bad = corrupted_phases(t.phases, at=(4, 1, 0), factor=-1.0)
    assert bad.at(4, 1, 0) == pytest.approx(-t.phases.at(4, 1, 0))
    assert bad.at(4, 1, 1) == pytest.approx(t.phases.at(4, 1, 1))
    assert bad.at(3, 1, 0) == pytest.approx(t.phases.at(3, 1, 0))


def test_step_zero_corruption_fails_and_negative_step_is_rejected():
    group = LineGroup()
    coin = hadamard_coin(group)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    t, bad = parse_symmetry_spec(group, {"family": "general",
                                         "corrupt_phase": {"n": 0, "x": 0, "c": 0}})
    report = check_symmetry_relation(coin, start, t, n_max=6, dressing=bad)
    assert not report.passed
    assert report.per_step_residuals[0] == pytest.approx(2.0)
    # a shared U0 matrix is corrupted at x only
    assert np.array_equal(bad.component(1, 0), t.phases.component(1, 0))
    with pytest.raises(SpecError):
        corrupted_phases(t.phases, (-1, 0, 0))
    with pytest.raises(SpecError):
        parse_symmetry_spec(group, {"family": "time_homog",
                                    "corrupt_phase": {"n": -1, "x": 0, "c": 0}})


def test_probability_map_detects_wrong_pair(rng):
    group = CyclicGroup(8)
    coin = hadamard_coin(group)
    start = random_state(group, rng)
    refl = ShiftedAutomorphism(group, 0, (1, 0))
    gs = make_generalized_symmetry(refl)
    good = check_probability_map(coin, start, gs, n_max=12)
    assert good.passed
    wrong_pair = (coin, start)
    bad = check_probability_map(coin, start, gs, n_max=12, transformed=wrong_pair)
    assert not bad.passed


def test_homogeneity_spreads_flag_inhomogeneous_coins():
    group = LineGroup()
    uniform = hadamard_coin(group)
    t_spread, s_spread = homogeneity_spreads(uniform)
    assert t_spread < 1e-15 and s_spread < 1e-15
    staggered = QuantumCoin.from_rule(
        group, lambda n, x: np.diag([1.0, (-1.0) ** n]).astype(complex))
    t_spread, s_spread = homogeneity_spreads(staggered)
    assert t_spread > 0.5 and s_spread < 1e-15
    assert check_homogeneity(staggered) == (False, True)


def test_step_matrix_is_exact_permutation():
    for group in [CyclicGroup(6), HypercubeGroup(3)]:
        t_mat = assemble_step_matrix(group)
        assert t_mat.dtype.kind == "i"
        assert np.array_equal(t_mat @ t_mat.T, np.eye(t_mat.shape[0], dtype=t_mat.dtype))
        assert np.all(t_mat.sum(axis=0) == 1)
        assert np.all(t_mat.sum(axis=1) == 1)


def test_dressing_matrix_matches_state_action(rng):
    group = CyclicGroup(8)
    t = make_time_homog_symmetry(group, epsilon=1j,
                                 delta={(x, c): np.exp(1j * 0.1 * (x + c))
                                        for x in range(8) for c in range(2)})
    state = random_state(group, rng)
    from cayleywalk import apply_dressing
    from cayleywalk.verify import basis_labels
    labels = basis_labels(group)
    vec = np.array([state.amplitude(x, c) for x, c in labels])
    for n in (0, 3):
        mat = assemble_local_matrix(t.phases, n)
        dressed = apply_dressing(t, n, state)
        expect = mat @ vec
        got = np.array([dressed.amplitude(x, c) for x, c in labels])
        assert np.abs(expect - got).max() < 1e-12


def test_coin_matrix_assembly_is_block_diagonal():
    group = CyclicGroup(4)
    mat = assemble_local_matrix(hadamard_coin(group), 0)
    assert mat.shape == (8, 8)
    assert np.abs(mat @ mat.conj().T - np.eye(8)).max() < 1e-12


@pytest.mark.parametrize("group", [LineGroup(), CyclicGroup(8), HypercubeGroup(3),
                                   LatticeGroup(2, period=6), LatticeGroup(3, period=5)],
                         ids=["line", "cyclic8", "hypercube3", "torus6", "torus3_5"])
def test_invariant_suite_passes(group):
    reports = run_invariant_suite(group, seed=7)
    assert reports
    for report in reports:
        assert report.passed, report


def test_invariant_suite_takes_any_integer_seed():
    for seed in (-1, 1, -(2 ** 70)):
        reports = run_invariant_suite(LineGroup(), seed=seed)
        assert reports and all(r.passed for r in reports)
    # seeded from text: -1 does not replay 1, as an int seed's absolute value would
    assert _stream(-1, 1).random() != _stream(1, 1).random()


def test_invariant_suite_reports_parse_as_json():
    for report in run_invariant_suite(CyclicGroup(8), seed=1):
        data = json.loads(report.to_json())
        assert set(data) == {"case", "passed", "max_residual", "tol", "steps"}


def test_identity_symmetry_relation_zero_on_every_group():
    for group in [LineGroup(), CyclicGroup(8), HypercubeGroup(3)]:
        coin = hadamard_coin(group) if group.coin_dim == 2 else grover_coin(group)
        start = WalkState.localized(group, group.identity, np.eye(group.coin_dim)[0])
        report = check_symmetry_relation(coin, start, identity_symmetry(group),
                                         n_max=8)
        assert report.max_residual == 0.0


def test_nan_corrupted_control_fails_with_nan_residual():
    # a NaN dressing phase is rejected as a non-unit where it is evaluated
    group = LineGroup()
    coin = hadamard_coin(group)
    t = make_full_homog_symmetry(group, epsilon=1j)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    assert check_symmetry_relation(coin, start, t, n_max=8).passed
    bad = corrupted_phases(t.phases, (5, 1, 0), factor=float("nan"))
    with pytest.raises(NonUnitaryError, match="step-5 phase at 1 "):
        check_symmetry_relation(coin, start, t, n_max=8, dressing=bad)


def test_a_dressing_from_another_group_is_rejected():
    group = CyclicGroup(8)
    coin = hadamard_coin(group)
    t = make_full_homog_symmetry(group, epsilon=1j)
    start = WalkState.localized(group, 3, [0.6, 0.8j])
    # the same coin dimension and key range, so only the group check can tell
    other = make_full_homog_symmetry(CyclicGroup(9), epsilon=1j)
    with pytest.raises(SpecError, match="different groups"):
        check_symmetry_relation(coin, start, t, n_max=4, dressing=other.phases)


def test_nan_residual_fails_the_report():
    report = _report("nan", [0.0, float("nan"), 1e-16], 1e-10)
    assert np.isnan(report.max_residual)
    assert not report.passed
    assert "[FAIL]" in str(report)


def test_homogeneity_probe_does_not_skip_nan():
    # the key of x on the line is x
    coin = QuantumCoin._built(
        LineGroup(), lambda n, keys: np.eye(2) * np.where(keys == 1, np.nan, 1)[:, None, None])
    time_spread, space_spread = homogeneity_spreads(coin)
    assert np.isnan(time_spread) and np.isnan(space_spread)
    assert check_homogeneity(coin) == (False, False)


def _counted_general_symmetry(group, calls: Counter):
    """A general-family symmetry whose scalar phase rule counts its calls."""
    def rule(n, x, c):
        calls[(n, x, c)] += 1
        return np.exp(1j * (0.4 * n + 0.9 * x + 1.3 * c))

    return make_general_symmetry(LocalUnitary.uniform(group, hadamard_matrix()),
                                 LocalUnitary(group, rule))


def test_relation_check_evaluates_each_phase_about_once():
    group = LineGroup()
    calls = Counter()
    t = _counted_general_symmetry(group, calls)
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    for _ in range(2):  # a second check of the same transform starts afresh
        calls.clear()
        report = check_symmetry_relation(hadamard_coin(group), start, t, n_max=40)
        assert report.passed
        # without the block memo each (n, x, c) was evaluated three times
        assert sum(calls.values()) <= 1.1 * len(calls), (sum(calls.values()), len(calls))


@pytest.mark.parametrize("family", ["general", "time_homog"])
def test_lockstepped_relation_check_merges_each_shifted_support_once(family, monkeypatch):
    from cayleywalk import states
    group = LineGroup()
    merges = Counter()
    merge_keys = states.merge_keys

    def counted(keys):
        merges[len(keys)] += 1
        return merge_keys(keys)

    # counts shift_plan's merges, and any of states' other callers
    monkeypatch.setattr(states, "merge_keys", counted)
    t = (_counted_general_symmetry(group, Counter()) if family == "general"
         else make_time_homog_symmetry(group, epsilon=1j, eta=[1j, -1]))
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    assert check_symmetry_relation(hadamard_coin(group), start, t, n_max=40).passed
    # both walks and the transformed coin's shifted phases share one plan per
    # step: steps 0..39 shift supports of 1..40 positions, merged from twice
    # as many keys
    # (a time_homog transformed coin declares no flag, so nothing is probed)
    assert merges == Counter({2 * (n + 1): 1 for n in range(40)})


@pytest.mark.parametrize("at", ["identity", "off identity"])
@pytest.mark.parametrize("group, n_max, off", [(LineGroup(), 100, 3), (CyclicGroup(8), 30, 3),
                                               (HypercubeGroup(3), 30, (1, 0, 1))],
                         ids=["line", "cyclic8", "hypercube3"])
def test_relation_checks_evaluate_each_dressing_once_per_step(group, n_max, off, at,
                                                              monkeypatch):
    """A count guard: a warm relation check of every family, from the
    identity or elsewhere, evaluates its dressing about once per step, and
    merges keys at most once per step, as often as a general check does: the
    two walks and the transformed coin's shifted phases share one shift plan
    per step, which a finite group's repeating supports find again. The
    allowance of 12 evaluations covers the flag probe of a uniform
    transformed coin (10 evaluations) and its one block, which a warm check
    no longer needs (its transform keeps the coin it built)."""
    from cayleywalk import states
    counts = Counter()
    merge_keys = states.merge_keys

    def counted_merge(keys):
        counts["merge"] += 1
        return merge_keys(keys)

    monkeypatch.setattr(states, "merge_keys", counted_merge)
    rng = np.random.default_rng([4242, group.coin_dim])
    coin = hadamard_coin(group) if group.coin_dim == 2 else grover_coin(group)
    psi0 = [0.6, 0.8j] + [0] * (group.coin_dim - 2)
    start = WalkState.localized(group, group.identity if at == "identity" else off, psi0)
    merges = {}
    for family in FAMILIES:
        t = _draw_symmetry(family, group, rng)
        check_symmetry_relation(coin, start, t, n_max=n_max)
        # every evaluation of the dressing's rule, by its memo or a probe
        rule = t.phases._blocks

        def counted_rule(n, keys, rule=rule):
            counts["evaluate"] += 1
            return rule(n, keys)

        t.phases._blocks = counted_rule
        counts.clear()
        report = check_symmetry_relation(coin, start, t, n_max=n_max)
        assert report.passed, (family, report)
        assert counts["evaluate"] <= n_max + 12, (family, counts)
        merges[family] = counts["merge"]
    assert set(merges.values()) == {merges["general"]}, merges
    # every step's support is new on the line
    assert merges["general"] == n_max if group.kind == "line" else merges["general"] <= n_max


def test_a_warm_check_builds_and_probes_a_uniform_transformed_coin_once(monkeypatch):
    group = LineGroup()
    coin = hadamard_coin(group)
    t = make_full_homog_symmetry(group, epsilon=1j, uprime=[1j, -1])
    probes = Counter()
    probe = QuantumCoin._probe_flags

    def counted(self):
        probes[type(self)] += 1
        return probe(self)

    monkeypatch.setattr(QuantumCoin, "_probe_flags", counted)
    new_coin = transform_coin(t, coin)
    assert transform_coin(t, coin) is new_coin
    start = WalkState.localized(group, 3, [0.6, 0.8j])
    for _ in range(2):
        assert check_symmetry_relation(coin, start, t, n_max=10).passed
    assert probes == Counter({QuantumCoin: 1})
    # another coin gets its own transformed coin
    other = QuantumCoin.uniform(group, hadamard_matrix() @ np.diag([1, 1j]))
    assert transform_coin(t, other) is not new_coin
    assert probes == Counter({QuantumCoin: 2})


def test_a_general_symmetry_keeps_each_dressing_block_once(monkeypatch):
    """The general family's dressing evaluates its parts through their
    checked evaluation, so only the dressing's own memo keeps a block: its
    U0 and phase field keep none, and a warm check stores three memo
    entries a step (the shift plan, the transformed coin's block and the
    dressing's step-(n+1) block), not four."""
    from cayleywalk import states
    group = LineGroup()
    u0 = LocalUnitary.uniform(group, hadamard_matrix())
    phases = LocalUnitary(group, lambda n, x, c: np.exp(1j * (0.4 * n + 0.9 * x + 1.3 * c)))
    t = make_general_symmetry(u0, phases)
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    coin = hadamard_coin(group)
    n_max = 40
    assert check_symmetry_relation(coin, start, t, n_max=n_max).passed
    stored = Counter()
    memo_keys = states.memo_keys

    def counted(keys):
        stored["memo"] += 1
        return memo_keys(keys)

    monkeypatch.setattr(states, "memo_keys", counted)
    assert check_symmetry_relation(coin, start, t, n_max=n_max).passed
    assert u0._memo == [] and phases._memo == []
    assert stored["memo"] <= 3 * n_max + 2, stored
    # the dressing still honours its parts' flags: a uniform U0 is one shared matrix
    assert t.phases.block(0, group.keys([0, 1, 2])).shape == (1, 2, 2)


# Bound of the drift guard below. Over its 3,000 steps the largest residual
# is 1.3e-12 (cyclic(8) full_homog) and the next 5.3e-13 (hypercube(3)
# full_homog); general stays near 1e-14. 1e-11 is about 7x that maximum and
# 10x inside the checks' 1e-10 tolerance, so a residual that grows faster
# than about linearly in the step count fails here before it fails a check.
DRIFT_BOUND = 1e-11


@pytest.mark.parametrize("group", [CyclicGroup(8), HypercubeGroup(3)], ids=["cyclic8", "hypercube3"])
def test_relation_residuals_stay_small_over_3000_steps(group):
    dim = group.coin_dim
    rng = np.random.default_rng([3, dim])
    coin = QuantumCoin.uniform(group, random_unitary(dim, rng))
    start = WalkState.localized(group, group.identity, [0.6, 0.8j] + [0] * (dim - 2))
    worst = {family: check_symmetry_relation(coin, start, _draw_symmetry(family, group, rng),
                                             n_max=3000).max_residual
             for family in FAMILIES}
    assert max(worst.values()) <= DRIFT_BOUND, worst


def test_corrupted_control_on_a_memoized_dressing_fails_at_its_site():
    group = LineGroup()
    t = _counted_general_symmetry(group, Counter())
    coin = hadamard_coin(group)
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    assert check_symmetry_relation(coin, start, t, n_max=8).passed  # fills the memo
    n0, x0, c0 = 5, 1, 0
    amp = evolve(WalkInstance(group, coin, start), n0)[n0].amplitude(x0, c0)
    report = check_symmetry_relation(coin, start, t, n_max=8,
                                     dressing=corrupted_phases(t.phases, (n0, x0, c0)))
    assert not report.passed
    assert report.per_step_residuals[n0] == pytest.approx(2 * abs(amp))
    assert max(r for n, r in enumerate(report.per_step_residuals) if n != n0) < 1e-12
    # the corruption did not leak into the memoized base
    assert check_symmetry_relation(coin, start, t, n_max=8).passed


def test_a_non_unit_phase_is_caught_where_it_is_made():
    group = LineGroup()
    rule = lambda n, x, c: 2.0 if (n, x, c) == (3, 1, 0) else 1.0
    t = make_general_symmetry(LocalUnitary.identity(group), LocalUnitary(group, rule))
    start = WalkState.localized(group, 0, [1.0, 0.0])
    with pytest.raises(NonUnitaryError, match="step-3 phase at 1 "):
        check_symmetry_relation(hadamard_coin(group), start, t, n_max=6)


def test_transformed_coin_flags_are_probed_when_it_is_built():
    group = LineGroup()
    # u(n) = exp(0.1i n^2) makes C'(n) vary with n despite the family label
    phases = LocalUnitary.batched(
        group, lambda n, keys: np.full((len(keys), 2), np.exp(0.1j * n * n)))
    # a uniform transformed coin declares both flags, which are probed
    with pytest.raises(SpecError, match="time-homogeneous"):
        transform_coin(SymmetryTransform(group, phases, "full_homog"), hadamard_coin(group))
    # a partially homogeneous one declares none, and probing shows the claim false
    new_coin = transform_coin(SymmetryTransform(group, phases, "time_homog"),
                              hadamard_coin(group))
    assert not (new_coin.time_homogeneous or new_coin.space_homogeneous)
    assert check_homogeneity(new_coin) == (False, True)


def test_a_non_unitary_user_coin_is_caught_inside_the_transformed_coin():
    group = LineGroup()
    h = hadamard_matrix()
    coin = QuantumCoin.from_rule(group, lambda n, x: 2 * h if x == 2 else h)
    new_coin = transform_coin(make_time_homog_symmetry(group, epsilon=1j), coin)
    new_coin.block(2, group.keys([0]))
    with pytest.raises(NonUnitaryError, match="step-2 coin at 2 "):
        new_coin.block(2, group.keys([0, 2]))
    start = WalkState.localized(group, 0, [1.0, 0.0])
    with pytest.raises(NonUnitaryError, match="step-2 coin at 2 "):
        check_symmetry_relation(coin, start, make_time_homog_symmetry(group), n_max=4)
