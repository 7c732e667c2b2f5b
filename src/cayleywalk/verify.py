"""Numerical certification of walk-symmetry claims on concrete instances.

Each check simulates or assembles the objects on both sides of a claimed
identity and reports the worst residual as a VerificationReport. Residuals
use the vector 2-norm for state relations and max-abs for probability and
matrix relations. Structural (set/group-law) cases report 0.0 or 1.0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .automorphisms import (GeneralizedSymmetry, ShiftedAutomorphism, compose,
                            enumerate_automorphisms, generalized_transform,
                            invert, permutation_apply)
from .errors import SpecError
from .groups import CayleyGroup, brute_force_causal
from .states import LocalUnitary, WalkState
from .symmetry import PhaseField, SymmetryTransform, apply_dressing, transform_coin, transform_state
# evolve is not called here but stays importable from verify, where the span
# tracer of perfbench/spans.py finds it
from .walk import (PROBE_STEPS, QuantumCoin, WalkInstance, evolve, evolve_iter,
                   homogeneity_spreads)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: residuals against a tolerance."""

    case_id: str
    max_residual: float
    per_step_residuals: list = field(default_factory=list)
    tolerance: float = 1e-10

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_json(self) -> str:
        return json.dumps({
            "case": self.case_id,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tol": self.tolerance,
            "steps": list(self.per_step_residuals),
        }, sort_keys=True)

    def __str__(self):
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.case_id}: max residual {self.max_residual:.3e} (tol {self.tolerance:.1e})"


def _report(case_id, residuals, tol) -> VerificationReport:
    residuals = [float(r) for r in residuals]
    # np.max propagates a NaN residual, which then fails `passed`; the
    # builtin max would skip a NaN that is not first
    return VerificationReport(case_id, float(np.max(residuals)) if residuals else 0.0,
                              residuals, float(tol))


def corrupted_phases(base: PhaseField, at, factor: complex = -1.0) -> PhaseField:
    """Copy of a phase field with the unit at one (n, x, c) multiplied by
    `factor`, a deliberately wrong dressing for negative controls."""
    n0, key0, c0 = int(at[0]), base.group.keys([at[1]])[0], int(at[2])

    def phases(n, keys):
        u = base.phases(n, keys)
        if n == n0:
            u = u.copy()
            u[keys == key0, c0] *= factor
        return u

    return PhaseField.batched(base.group, phases)


def _split_transform(transform):
    if isinstance(transform, GeneralizedSymmetry):
        return transform.inner, transform
    if isinstance(transform, SymmetryTransform):
        return transform, None
    raise SpecError(f"not a symmetry transform: {transform!r}")


def check_symmetry_relation(coin: QuantumCoin, psi0: WalkState, transform,
                            n_max: int = 50, tol: float = 1e-10,
                            dressing: PhaseField | None = None,
                            case_id: str = "symmetry_relation") -> VerificationReport:
    """Certify the defining relation of a (possibly generalized) symmetry.

    Runs the original and the transformed walk side by side and compares the
    transformed state at each step against the dressed original. `dressing`
    overrides the phase field used on the original trajectory, which is how a
    corrupted-dressing negative control is expressed.
    """
    inner, generalized = _split_transform(transform)
    group = inner.group
    if coin.group != group or psi0.group != group:
        raise SpecError("coin, state and symmetry must share one group")
    if n_max < 1:
        raise SpecError("relation checks need n_max >= 1")
    if generalized is not None:
        new_coin, new_state = generalized_transform(generalized, coin, psi0)
    else:
        new_coin = transform_coin(inner, coin)
        new_state = transform_state(inner, psi0)
    original = evolve_iter(WalkInstance(group, coin, psi0), n_max)
    transformed = evolve_iter(WalkInstance(group, new_coin, new_state), n_max)
    dress = inner if dressing is None else SymmetryTransform(
        group, inner.u0, dressing, inner.family, inner.params)
    residuals = []
    for n, (psi_n, phi_n) in enumerate(zip(original, transformed)):
        expected = apply_dressing(dress, n, psi_n)
        if generalized is not None:
            expected = permutation_apply(generalized.perm, expected)
        residuals.append((phi_n - expected).norm())
    return _report(case_id, residuals, tol)


def check_probability_map(coin: QuantumCoin, psi0: WalkState, transform,
                          n_max: int = 50, tol: float = 1e-10,
                          transformed: tuple | None = None,
                          case_id: str = "probability_map") -> VerificationReport:
    """Certify that measured distributions map as the symmetry dictates.

    Ordinary symmetries must leave distributions unchanged; generalized ones
    relabel them by x -> shift * phi(x). `transformed` optionally supplies
    the claimed (coin, state) pair instead of deriving it, so a wrong claim
    can be exhibited as a failing report.
    """
    inner, generalized = _split_transform(transform)
    group = inner.group
    if transformed is not None:
        new_coin, new_state = transformed
    elif generalized is not None:
        new_coin, new_state = generalized_transform(generalized, coin, psi0)
    else:
        new_coin = transform_coin(inner, coin)
        new_state = transform_state(inner, psi0)
    relabel = (generalized.perm.apply_element if generalized is not None
               else lambda x: x)
    original = evolve_iter(WalkInstance(group, coin, psi0), n_max)
    new = evolve_iter(WalkInstance(group, new_coin, new_state), n_max)
    residuals = []
    for a, b in zip(original, new):
        pa = {relabel(x): p for x, p in a.position_distribution().items()}
        pb = b.position_distribution()
        keys = set(pa) | set(pb)
        residuals.append(max(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys))
    return _report(case_id, residuals, tol)


def check_homogeneity(coin: QuantumCoin, n_probe=PROBE_STEPS,
                      positions_probe=None, tol: float = 1e-12) -> tuple[bool, bool]:
    """(time-homogeneous, space-homogeneous) by probing the coin rule."""
    time_spread, space_spread = homogeneity_spreads(coin, n_probe, positions_probe)
    return time_spread <= tol, space_spread <= tol


# -- dense assembly on finite groups -------------------------------------------


def basis_labels(group: CayleyGroup) -> list:
    """Ordered (element, coin index) basis of the full finite walk space."""
    return [(x, c) for x in group.elements() for c in range(group.coin_dim)]


def _basis_index(group: CayleyGroup, labels) -> dict:
    return {(group.encode(x), c): i for i, (x, c) in enumerate(labels)}


def assemble_step_matrix(group: CayleyGroup) -> np.ndarray:
    """Conditional shift as an integer permutation matrix."""
    labels = basis_labels(group)
    index = _basis_index(group, labels)
    dim = len(labels)
    mat = np.zeros((dim, dim), dtype=np.int64)
    for j, (x, c) in enumerate(labels):
        target = group.mul(x, group.generators[c])
        mat[index[(group.encode(target), c)], j] = 1
    return mat


def assemble_permutation_matrix(a: ShiftedAutomorphism) -> np.ndarray:
    """Total permutation operator of a shifted automorphism (integer matrix)."""
    group = a.group
    labels = basis_labels(group)
    index = _basis_index(group, labels)
    dim = len(labels)
    mat = np.zeros((dim, dim), dtype=np.int64)
    for j, (x, c) in enumerate(labels):
        mat[index[(group.encode(a.apply_element(x)), a.perm[c])], j] = 1
    return mat


def assemble_local_matrix(op: LocalUnitary) -> np.ndarray:
    """Block-diagonal matrix of a local operator on a finite group."""
    group = op.group
    labels = basis_labels(group)
    index = _basis_index(group, labels)
    dim = len(labels)
    mat = np.zeros((dim, dim), dtype=complex)
    for x in group.elements():
        block = op.component(x)
        for c in range(group.coin_dim):
            for d in range(group.coin_dim):
                mat[index[(group.encode(x), c)], index[(group.encode(x), d)]] = block[c, d]
    return mat


def assemble_coin_matrix(coin: QuantumCoin, n: int) -> np.ndarray:
    op = LocalUnitary.from_rule(coin.group, lambda x: coin.matrix_at(n, x),
                                validate=False)
    return assemble_local_matrix(op)


def assemble_dressing_matrix(t: SymmetryTransform, n: int) -> np.ndarray:
    """Dense step-n dressing: U0 for n = 0, diagonal phases for n >= 1."""
    if int(n) == 0:
        return assemble_local_matrix(t.u0)
    group = t.group
    labels = basis_labels(group)
    diag = np.array([t.phases.at(n, x, c) for x, c in labels], dtype=complex)
    return np.diag(diag)


# -- fixed invariant battery ----------------------------------------------------


def _sample_elements(group: CayleyGroup, rng, count: int) -> list:
    if group.is_finite and group.order <= count:
        return list(group.elements())
    return group.random_elements(rng, count)


def run_invariant_suite(group: CayleyGroup, seed: int = 0,
                        tol: float = 1e-12) -> list[VerificationReport]:
    """Fixed battery of structural checks for one group.

    Covers step-operator unitarity (finite groups, exact), commutation of the
    step with every generator permutation, automorphism group laws, normality
    of the pure-shift subgroup, agreement with the brute-force causal
    subgroup, the coset-index homomorphism law, and decomposition round-trips.
    """
    reports = []
    finite = group.is_finite
    auts = enumerate_automorphisms(group)

    if finite:
        t_mat = assemble_step_matrix(group)
        gram = t_mat.T @ t_mat
        residual = float(np.abs(gram - np.eye(gram.shape[0], dtype=np.int64)).max())
        reports.append(_report("step_operator_unitarity", [residual], 0.0))

    rng = np.random.default_rng([int(seed), 1])
    if finite:
        residuals = []
        shifts = _sample_elements(group, rng, 4)
        for aut in auts:
            for shift in shifts:
                shifted = ShiftedAutomorphism(group, shift, aut.perm)
                p_mat = assemble_permutation_matrix(shifted)
                residuals.append(float(np.abs(t_mat @ p_mat - p_mat @ t_mat).max()))
        reports.append(_report("step_permutation_commutation", residuals, 1e-14))
    else:
        from .walk import apply_shift
        residuals = []
        xs = group.random_elements(rng, 24)
        amps = rng.normal(size=(len(xs), group.coin_dim)) * (1 + 0j)
        terms = {}
        for x, row in zip(xs, amps):
            for c in range(group.coin_dim):
                terms[(x, c)] = terms.get((x, c), 0j) + row[c]
        state = WalkState.from_terms(group, terms)
        shifts = group.random_elements(rng, 2)
        for aut in auts:
            for shift in shifts:
                shifted = ShiftedAutomorphism(group, shift, aut.perm)
                lhs = apply_shift(permutation_apply(shifted, state))
                rhs = permutation_apply(shifted, apply_shift(state))
                residuals.append((lhs - rhs).norm())
        reports.append(_report("step_permutation_commutation", residuals, 1e-14))

    rng = np.random.default_rng([int(seed), 2])
    residuals = []
    shifts = _sample_elements(group, rng, 3)
    pool = [ShiftedAutomorphism(group, s, a.perm) for s in shifts for a in auts]
    probe_xs = _sample_elements(group, rng, 8)
    for _ in range(16):
        a, b, c = (pool[rng.integers(len(pool))] for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        ok = (left.perm == right.perm and left.shift == right.shift
              and all(left.apply_element(x) == right.apply_element(x) for x in probe_xs))
        inv_ok = compose(a, invert(a)).is_identity and compose(invert(a), a).is_identity
        residuals.append(0.0 if ok and inv_ok else 1.0)
    reports.append(_report("automorphism_group_laws", residuals, 0.0))

    rng = np.random.default_rng([int(seed), 3])
    residuals = []
    for shift in _sample_elements(group, rng, 4):
        pure = ShiftedAutomorphism(group, shift, range(group.coin_dim))
        for a in pool[:6]:
            conj = compose(a, compose(pure, invert(a)))
            residuals.append(0.0 if conj.perm == tuple(range(group.coin_dim)) else 1.0)
    reports.append(_report("shift_subgroup_normality", residuals, 0.0))

    if finite:
        causal = brute_force_causal(group)
        declared_zero = {group.encode(x) for x in group.elements()
                         if group.coset_index(x) == 0}
        computed = {group.encode(x) for x in causal.subgroup}
        ok = (computed == declared_zero and causal.chi == group.chi
              and causal.nonseparating == group.nonseparating)
        reports.append(_report("causal_subgroup_agreement", [0.0 if ok else 1.0], 0.0))
    else:
        residuals = [0.0 if group.coset_index(group.mul(s, group.inv(t))) == 0 else 1.0
                     for s in group.generators for t in group.generators]
        expected_c0 = 1 if group.chi is None else 1 % group.chi
        residuals.append(0.0 if group.coset_index(group.c0) == expected_c0 else 1.0)
        reports.append(_report("causal_generator_pairs", residuals, 0.0))

    rng = np.random.default_rng([int(seed), 4])
    xs = _sample_elements(group, rng, 24)
    ys = _sample_elements(group, rng, 24)
    residuals = []
    for x, y in zip(xs, ys):
        expected = group.coset_index(x) + group.coset_index(y)
        if group.chi is not None:
            expected %= group.chi
        residuals.append(0.0 if group.coset_index(group.mul(x, y)) == expected else 1.0)
    reports.append(_report("coset_index_homomorphism", residuals, 0.0))

    residuals = []
    for x in xs:
        xt, k = group.decompose(x)
        ok = (group.coset_index(xt) == 0
              and group.encode(group.mul(xt, group.pow_c0(k))) == group.encode(x))
        residuals.append(0.0 if ok else 1.0)
    reports.append(_report("decompose_roundtrip", residuals, 0.0))

    return reports
