"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line with its measured margin."""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, DegenerateCoinError, FamilyPreconditionError,
                        HypercubeGroup, LatticeGroup, LineCoinParams, LineGroup,
                        LocalUnitary, NotAutomorphismError, PhaseField, QuantumCoin,
                        ShiftedAutomorphism, WalkInstance, WalkState, brute_force_causal,
                        build_line_coin, canonicalize_line_coin,
                        check_probability_map, check_symmetry_relation,
                        corrupted_phases, cyclic_character, evolve, evolve_final,
                        exp_character, grover_coin, hadamard_coin,
                        make_full_homog_symmetry, make_general_symmetry,
                        make_generalized_symmetry, make_space_homog_symmetry,
                        make_time_homog_symmetry, mirror_chirality_map, mirror_generalized_symmetry,
                        sign_character, symmetric_initial_states, transform_coin)
from cayleywalk.linalg import hadamard_matrix
from cayleywalk.verify import homogeneity_spreads

from conftest import (assemble_permutation_matrix, assemble_step_matrix, random_phases,
                      random_unitary, sampler)


def _line(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def _standard_groups():
    return [LineGroup(), CyclicGroup(8), HypercubeGroup(3)]


def _coin_for(group, rng, kind: int) -> QuantumCoin:
    if kind == 0:
        return hadamard_coin(group) if group.coin_dim == 2 else grover_coin(group)
    if kind == 1:
        return grover_coin(group)
    return QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))


def _random_causal_character(group, rng):
    if group.kind == "line":
        return exp_character(group, float(rng.uniform(0, 2 * np.pi)),
                             domain="causal_subgroup")
    if group.kind == "cyclic":
        return cyclic_character(group, int(rng.integers(group.n)),
                                domain="causal_subgroup")
    mask = rng.integers(0, 2, size=group.d)
    if not mask.any():
        mask[0] = 1
    return sign_character(group, tuple(int(v) for v in mask),
                          domain="causal_subgroup")


def _random_full_character(group, rng):
    if group.kind == "line":
        return exp_character(group, float(rng.uniform(0, 2 * np.pi)))
    if group.kind == "cyclic":
        return cyclic_character(group, int(rng.integers(group.n)))
    mask = rng.integers(0, 2, size=group.d)
    return sign_character(group, tuple(int(v) for v in mask))


def _draw_symmetry(family: str, group, rng):
    chi = group.chi
    eta = list(random_phases(chi, rng))
    if family == "general":
        u0 = LocalUnitary.uniform(group, random_unitary(group.coin_dim, rng))
        seed = int(rng.integers(1 << 30))
        def phase(n, x, c):
            local = np.random.default_rng(
                [seed, n, hash(group.encode(x)) & 0xFFFFFF, c])
            return np.exp(2j * np.pi * local.random())
        return make_general_symmetry(u0, PhaseField(group, phase))
    if family == "space_homog":
        rho = _random_causal_character(group, rng)
        u0_mat = random_unitary(group.coin_dim, rng)
        tail = random_phases(group.coin_dim, rng)
        return make_space_homog_symmetry(group, eta=eta, rho=rho,
                                         uprime=lambda n: tail if n else u0_mat)
    if family == "time_homog":
        eps = np.exp(2j * np.pi * rng.random())
        seed = int(rng.integers(1 << 30))
        def delta(x, c):
            local = np.random.default_rng(
                [seed, hash(group.encode(x)) & 0xFFFFFF, c])
            return np.exp(2j * np.pi * local.random())
        return make_time_homog_symmetry(group, epsilon=eps, eta=eta, delta=delta)
    eps = np.exp(2j * np.pi * rng.random())
    gamma = _random_full_character(group, rng)
    uvec = random_phases(group.coin_dim, rng)
    return make_full_homog_symmetry(group, eta=eta, epsilon=eps, gamma=gamma,
                                    uprime=uvec)


def _random_start(group, rng) -> WalkState:
    xs = group.random_elements(sampler(rng), 3)
    terms = [(x, c, rng.normal() + 1j * rng.normal())
             for x in xs for c in range(group.coin_dim)]
    return WalkState.from_terms(group, terms).normalized()


def test_criterion_1_step_operator_is_exact_permutation():
    start = time.perf_counter()
    for group in [CyclicGroup(8), HypercubeGroup(3)]:
        t_mat = assemble_step_matrix(group)
        dim = t_mat.shape[0]
        assert t_mat.dtype.kind == "i"
        assert np.all((t_mat == 0) | (t_mat == 1))
        assert np.all(t_mat.sum(axis=0) == 1)
        assert np.all(t_mat.sum(axis=1) == 1)
        assert np.array_equal(t_mat.T @ t_mat, np.eye(dim, dtype=t_mat.dtype))
    elapsed = time.perf_counter() - start
    _line(1, "step operator is an exact permutation with T*T = I",
          elapsed < 1.0, f"runtime {elapsed * 1e3:.1f} ms < 1 s")


def test_criterion_2_causal_subgroup_brute_force():
    start = time.perf_counter()
    cases = [
        (CyclicGroup(8), {0, 2, 4, 6}, 2),
        (CyclicGroup(8, generators=(1,)), {0}, 8),
        (HypercubeGroup(2), {(0, 0), (1, 1)}, 2),
        (HypercubeGroup(3), {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}, 2),
        (LatticeGroup(2, period=6),
         {(a, b) for a in range(6) for b in range(6) if (a + b) % 2 == 0}, 2),
    ]
    ok = True
    for group, subgroup, chi in cases:
        causal = brute_force_causal(group)
        ok &= causal.subgroup == subgroup
        ok &= causal.chi == chi == group.chi
    ok &= LineGroup().chi == 2
    elapsed = time.perf_counter() - start
    _line(2, "brute-force causal subgroups match declared structure",
          ok and elapsed < 5.0, f"runtime {elapsed * 1e3:.0f} ms < 5 s")


FAMILIES = ["general", "space_homog", "time_homog", "full_homog"]


@pytest.mark.parametrize("family", FAMILIES)
def test_criterion_3_defining_relation(family):
    start = time.perf_counter()
    groups = _standard_groups()
    worst_state = 0.0
    worst_prob = 0.0
    # Seed by the family's list index: str hashes are salted per process.
    for draw in range(20):
        rng = np.random.default_rng([314159, FAMILIES.index(family), draw])
        group = groups[draw % len(groups)]
        coin = _coin_for(group, rng, draw % 3)
        t = _draw_symmetry(family, group, rng)
        psi0 = _random_start(group, rng)
        n_max = 50 if group.kind == "line" else 30
        relation = check_symmetry_relation(coin, psi0, t, n_max=n_max)
        prob = check_probability_map(coin, psi0, t, n_max=n_max)
        worst_state = max(worst_state, relation.max_residual)
        worst_prob = max(worst_prob, prob.max_residual)
    elapsed = time.perf_counter() - start
    _line(3, f"defining relation holds for 20 random {family} draws",
          worst_state < 1e-10 and worst_prob < 1e-10 and elapsed < 60.0,
          f"state residual {worst_state:.2e}, probability {worst_prob:.2e}, "
          f"{elapsed:.1f} s < 60 s")


def test_criterion_4_homogeneity_preservation():
    worst = 0.0
    for group in _standard_groups():
        rng = np.random.default_rng([271828, group.coin_dim])
        coin = _coin_for(group, rng, 2)
        cases = [
            ("space_homog", _draw_symmetry("space_homog", group, rng), "space"),
            ("time_homog", _draw_symmetry("time_homog", group, rng), "time"),
            ("full_homog", _draw_symmetry("full_homog", group, rng), "both"),
        ]
        for family, t, expect in cases:
            new_coin = transform_coin(t, coin)
            t_spread, s_spread = homogeneity_spreads(new_coin)
            if expect in ("time", "both"):
                worst = max(worst, t_spread)
            if expect in ("space", "both"):
                worst = max(worst, s_spread)
    _line(4, "family constructors preserve the advertised homogeneity",
          worst < 1e-12, f"max component spread {worst:.2e} < 1e-12")


def test_criterion_5_permutation_commutation_and_probability_law():
    worst_tp = 0.0
    for group in [CyclicGroup(8), HypercubeGroup(3)]:
        t_mat = assemble_step_matrix(group)
        from cayleywalk import enumerate_automorphisms
        for aut in enumerate_automorphisms(group):
            for shift in sorted(group.elements(), key=group.encode):
                a = ShiftedAutomorphism(group, shift, aut.perm)
                p_mat = assemble_permutation_matrix(a)
                worst_tp = max(worst_tp,
                               float(np.abs(t_mat @ p_mat - p_mat @ t_mat).max()))
    line_group = LineGroup()
    rng = np.random.default_rng(161803)
    from cayleywalk import apply_shift, permutation_apply
    for trial in range(10):
        xs = [int(v) for v in rng.integers(-64, 65, size=6)]
        terms = [(x, c, rng.normal() + 1j * rng.normal())
                 for x in xs for c in range(2)]
        state = WalkState.from_terms(line_group, terms).normalized()
        for a in [ShiftedAutomorphism(line_group, 0, (1, 0)),
                  ShiftedAutomorphism(line_group, 9, (0, 1)),
                  ShiftedAutomorphism(line_group, -4, (1, 0))]:
            lhs = permutation_apply(a, apply_shift(state))
            rhs = apply_shift(permutation_apply(a, state))
            worst_tp = max(worst_tp, (lhs - rhs).norm())

    worst_prob = 0.0
    line_cases = [(line_group, ShiftedAutomorphism(line_group, 0, (1, 0))),
                  (line_group, ShiftedAutomorphism(line_group, 5, (0, 1)))]
    cube = HypercubeGroup(3)
    cube_cases = [(cube, ShiftedAutomorphism(cube, (0, 0, 0), perm))
                  for perm in [(1, 2, 0), (2, 1, 0)]]
    for group, a in line_cases + cube_cases:
        coin = hadamard_coin(group) if group.coin_dim == 2 else grover_coin(group)
        psi0 = _random_start(group, np.random.default_rng(999))
        gs = make_generalized_symmetry(a)
        report = check_probability_map(coin, psi0, gs, n_max=50)
        worst_prob = max(worst_prob, report.max_residual)
    _line(5, "permutation operators commute with T and relabel probabilities",
          worst_tp < 1e-14 and worst_prob < 1e-10,
          f"TP-PT {worst_tp:.2e} < 1e-14, probability {worst_prob:.2e} < 1e-10")


def test_criterion_6_line_canonicalization():
    group = LineGroup()
    rng = np.random.default_rng(577215)
    worst_imag = 0.0
    worst_prob = 0.0
    worst_real_evo = 0.0
    start = WalkState.localized(group, 0, [1.0, 0.0])
    for draw in range(100):
        omega, mu, nu = random_phases(3, rng)
        psi = float(rng.uniform(0.0, np.pi / 2))
        mat = build_line_coin(LineCoinParams(omega, mu, nu, psi))
        coin = QuantumCoin.uniform(group, mat)
        angle, t = canonicalize_line_coin(mat, group)
        new_coin = transform_coin(t, coin)
        for n in (0, 1, 5):
            worst_imag = max(worst_imag,
                             float(np.abs(new_coin.matrix_at(n).imag).max()))
        if draw < 10:
            history = evolve(WalkInstance(group, new_coin, start), 100)
            worst_real_evo = max(worst_real_evo,
                                 max(float(np.abs(s.amps.imag).max())
                                     for s in history))
        if draw < 25:
            report = check_probability_map(coin, start, t, n_max=50)
            worst_prob = max(worst_prob, report.max_residual)
    _line(6, "canonicalized line coins are real and walk-equivalent",
          worst_imag < 1e-12 and worst_real_evo < 1e-12 and worst_prob < 1e-10,
          f"coin imag {worst_imag:.2e}, evolution imag {worst_real_evo:.2e}, "
          f"distribution deviation {worst_prob:.2e}")


def test_criterion_7_mirror_example():
    group = LineGroup()
    rng = np.random.default_rng(141421)
    ok = True
    detail = []

    p1 = LineCoinParams(1.0, 1.0, 1.0, np.pi / 3)
    q1 = mirror_chirality_map(p1)
    plus1, minus1 = symmetric_initial_states(p1)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    ok &= np.abs(q1 - np.array([[0, -1j], [1j, 0]])).max() < 1e-12
    ok &= np.abs(plus1 - inv_sqrt2 * np.array([1.0, 1j])).max() < 1e-12
    ok &= np.abs(minus1 - inv_sqrt2 * np.array([1.0, -1j])).max() < 1e-12

    worst_eig = 0.0
    worst_orth = 0.0
    worst_sym = 0.0
    for _ in range(10):
        params = decompose_params(rng)
        q = mirror_chirality_map(params)
        vals = np.sort(np.linalg.eigvalsh(q))
        worst_eig = max(worst_eig, float(np.abs(vals - [-1.0, 1.0]).max()))
        plus, minus = symmetric_initial_states(params)
        gram = np.array([[np.vdot(plus, plus), np.vdot(plus, minus)],
                         [np.vdot(minus, plus), np.vdot(minus, minus)]])
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(2)).max()))
        coin = QuantumCoin.uniform(group, build_line_coin(params))
        for chi0 in (plus, minus):
            state = WalkState.localized(group, 0, chi0)
            history = evolve(WalkInstance(group, coin, state), 50)
            for st in history:
                dist = st.position_distribution()
                for x, prob in dist.items():
                    worst_sym = max(worst_sym, abs(dist.get(-x, 0.0) - prob))
    ok &= worst_eig < 1e-12 and worst_orth < 1e-12 and worst_sym < 1e-10
    detail.append(f"eig {worst_eig:.2e}, gram {worst_orth:.2e}, "
                  f"walk symmetry {worst_sym:.2e}")

    h_params = LineCoinParams(1j, -1j, 1.0, np.pi / 4)
    gs = mirror_generalized_symmetry(h_params, group)
    coin = QuantumCoin.uniform(group, hadamard_matrix())
    psi0 = WalkState.localized(group, 0, [1.0, 0.0])
    report = check_probability_map(coin, psi0, gs, n_max=50)
    ok &= report.passed
    detail.append(f"reflected distribution {report.max_residual:.2e}")
    _line(7, "mirror data matches the closed-form example", ok,
          "; ".join(detail))


def decompose_params(rng) -> LineCoinParams:
    omega, mu, nu = random_phases(3, rng)
    psi = float(rng.uniform(0.05, np.pi / 2 - 0.05))
    return LineCoinParams(omega, mu, nu, psi)


def test_criterion_8_negative_controls():
    group = LineGroup()
    coin = hadamard_coin(group)
    psi0 = WalkState.localized(group, 0, [1.0, 0.0])

    t = make_time_homog_symmetry(group, epsilon=1j)
    bad = corrupted_phases(t.phases, at=(1, 1, 0))
    report = check_symmetry_relation(coin, psi0, t, n_max=8, dressing=bad)
    corrupted_fails = not report.passed

    cli = [sys.executable, "-m", "cayleywalk"]
    r1 = subprocess.run(cli + [
        "verify", "--group", "line", "--coin", "hadamard", "--start", "0:(1,0)",
        "--steps", "8", "--symmetry",
        '{"family": "time_homog", "epsilon": [0, 1],'
        ' "corrupt_phase": {"n": 1, "x": 1, "c": 0}}'],
        capture_output=True, text=True, timeout=120)

    try:
        ShiftedAutomorphism(CyclicGroup(8, generators=(1, 2)), 0, (1, 0))
        non_automorphism_raises = False
    except NotAutomorphismError:
        non_automorphism_raises = True
    r2 = subprocess.run(cli + [
        "verify", "--group", '{"kind": "cyclic", "N": 8, "generators": [1, 2]}',
        "--coin", "hadamard", "--start", "0:(1,0)", "--symmetry",
        '{"family": "generalized", "perm": {"shift": 0, "perm": [1, 0]}}'],
        capture_output=True, text=True, timeout=120)

    try:
        symmetric_initial_states(LineCoinParams(1.0, 1.0, 1.0, 0.0))
        degenerate_raises = False
    except DegenerateCoinError:
        degenerate_raises = True
    r3 = subprocess.run(cli + ["line", "symmetric-states", "--nu", "1+0i",
                               "--psi", "0"],
                        capture_output=True, text=True, timeout=120)

    try:
        make_time_homog_symmetry(LineGroup(generators=(1,)), epsilon=1j)
        precondition_raises = False
    except FamilyPreconditionError:
        precondition_raises = True

    ok = (corrupted_fails and r1.returncode == 1
          and non_automorphism_raises and r2.returncode == 2
          and degenerate_raises and r3.returncode == 5
          and precondition_raises)
    _line(8, "negative controls fail with the promised codes", ok,
          f"corrupt exit {r1.returncode}, non-automorphism exit {r2.returncode}, "
          f"degenerate exit {r3.returncode}")


def test_criterion_9_performance():
    group = LineGroup()
    coin = hadamard_coin(group)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    evolve_final(WalkInstance(group, coin, start), 5)
    t0 = time.perf_counter()
    final = evolve_final(WalkInstance(group, coin, start), 200)
    line_ms = (time.perf_counter() - t0) * 1e3
    assert final.n_positions > 100

    cube = HypercubeGroup(10)
    cube_coin = grover_coin(cube)
    cube_start = WalkState.localized(cube, (0,) * 10, [1.0] + [0.0] * 9)
    t0 = time.perf_counter()
    evolve_final(WalkInstance(cube, cube_coin, cube_start), 50)
    cube_s = time.perf_counter() - t0
    _line(9, "simulation meets the stated runtime budgets",
          line_ms < 100.0 and cube_s < 10.0,
          f"line 200 steps {line_ms:.1f} ms < 100 ms, "
          f"hypercube(10) 50 steps {cube_s:.2f} s < 10 s")
