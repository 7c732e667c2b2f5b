"""Numerical certification of walk-symmetry claims on concrete instances.

Each check simulates or assembles the objects on both sides of a claimed
identity and reports the worst residual as a VerificationReport. Residuals
use the vector 2-norm for state relations and max-abs for probability and
matrix relations. Structural (set/group-law) cases report 0.0 or 1.0.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

import numpy as np

from .automorphisms import (GeneralizedSymmetry, ShiftedAutomorphism, compose,
                            enumerate_automorphisms, invert, permutation_apply,
                            transform_pair)
from .errors import SpecError
from .groups import CayleyGroup, _integer, brute_force_causal
from .states import (HOMOGENEITY_TOL, LocalUnitary, WalkState, find_keys, homogeneity_spreads,
                     merge_keys, norm_of)
from .symmetry import SymmetryTransform, apply_dressing
# evolve is not called here but stays importable from verify, where the span
# tracer of perfbench/spans.py finds it
from .walk import QuantumCoin, WalkInstance, apply_shift, evolve, lockstep


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: residuals against a tolerance."""

    case_id: str
    max_residual: float
    per_step_residuals: list
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    @property
    def first_failing_step(self) -> int | None:
        """The first step whose residual exceeds the tolerance or is NaN;
        None for a passing report."""
        failing = ~(np.asarray(self.per_step_residuals, dtype=float) <= self.tolerance)
        return int(np.argmax(failing)) if failing.any() else None

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
        step = self.first_failing_step
        where = "" if step is None else f", first failing step {step}"
        return (f"[{flag}] {self.case_id}: max residual {self.max_residual:.3e} "
                f"(tol {self.tolerance:.1e}){where}")


def _report(case_id, residuals, tol) -> VerificationReport:
    residuals = [float(r) for r in residuals]
    # np.max propagates a NaN residual, which then fails `passed`; the
    # builtin max would skip a NaN that is not first
    return VerificationReport(case_id, float(np.max(residuals)) if residuals else 0.0,
                              residuals, float(tol))


def corrupted_phases(base: LocalUnitary, at, factor: complex = -1.0) -> LocalUnitary:
    """Copy of a dressing operator with row c of its step-n block at x
    multiplied by `factor` (for n >= 1 the phase u(n, x, c), at n = 0 row c
    of U0): a deliberately wrong dressing for negative controls."""
    n0, c0 = _integer(at[0], "step"), _integer(at[2], "coin index")
    key0 = base.group.keys([at[1]])[0]
    if n0 < 0 or not 0 <= c0 < base.group.coin_dim:
        raise SpecError(f"no dressing entry to corrupt at n = {n0}, c = {c0}")

    def blocks(n, keys):
        u = base.block(n, keys)
        if n != n0:
            return u
        # a shared (1, dim, dim) matrix gets one row per position first
        u = np.broadcast_to(u, (len(keys),) + u.shape[1:]).copy()
        u[keys == key0, c0] *= factor
        return base.check(n, keys, u)

    # base checks its own blocks; only the corrupted one is checked here
    return LocalUnitary._built(base.group, blocks)


def _split_transform(transform):
    if isinstance(transform, GeneralizedSymmetry):
        return transform.inner, transform
    if isinstance(transform, SymmetryTransform):
        return transform, None
    raise SpecError(f"not a symmetry transform: {transform!r}")


def check_symmetry(coin: QuantumCoin, psi0: WalkState, transform, n_max: int = 50,
                   tol: float = 1e-10, *, relation: str | None = "symmetry_relation",
                   probability: str | None = "probability_map",
                   dressing: LocalUnitary | None = None,
                   transformed: tuple | None = None) -> list[VerificationReport]:
    """Certify the claims of a (possibly generalized) symmetry from the
    original and the transformed walk, stepped in lockstep (walk.lockstep)
    on one support: the union of their supports, so a row is zero in the
    walk that has no amplitude there.

    `relation` and `probability` are the case ids of the two claims' reports,
    returned in that order; None leaves a claim out. The defining relation
    compares the transformed state at each step against the dressed
    original (symmetry.apply_dressing, on the shared support): subtracted in
    place, or first relabeled by the automorphism of a generalized symmetry.
    `dressing` overrides the dressing operator applied to the original
    trajectory, which is how a corrupted-dressing negative control is
    expressed. The probability map compares measured distributions:
    ordinary symmetries leave them unchanged, generalized ones relabel them
    by x -> shift * phi(x).
    `transformed` supplies the claimed (coin, state) pair instead of
    deriving it, so a wrong claim can be exhibited as a failing report.
    """
    inner, generalized = _split_transform(transform)
    group = inner.group
    if coin.group != group or psi0.group != group:
        raise SpecError("coin, state and symmetry must share one group")
    if relation is not None and n_max < 1:
        raise SpecError("relation checks need n_max >= 1")
    new_coin, new_state = transformed or transform_pair(transform, coin, psi0)
    walks = lockstep((WalkInstance(group, coin, psi0), WalkInstance(group, new_coin, new_state)),
                     n_max)
    dress = inner if dressing is None else replace(inner, phases=dressing)
    perm = None if generalized is None else generalized.perm
    relation_residuals, probability_residuals = [], []
    for n, both in enumerate(walks):
        keys, (psi, phi) = both.positions, both.amps
        if relation is not None:
            # on the lockstep's rows, so that no merge is needed
            expected = apply_dressing(dress, n, WalkState(group, keys, psi))
            if perm is None:
                relation_residuals.append(
                    norm_of(np.subtract(phi, expected.amps, out=expected.amps)))
            else:
                relation_residuals.append(
                    (WalkState(group, keys, phi) - permutation_apply(perm, expected)).norm())
        if probability is not None:
            probability_residuals.append(_probability_residual(
                WalkState(group, keys, psi), WalkState(group, keys, phi), perm))
    return [_report(case_id, residuals, tol) for case_id, residuals in
            ((relation, relation_residuals), (probability, probability_residuals))
            if case_id is not None]


def _probability_residual(a: WalkState, b: WalkState, perm) -> float:
    """Max-abs difference between b's position distribution and a's,
    relabeled by the automorphism `perm` unless it is None."""
    keys_a, probs_a = a.position_probabilities()
    keys_b, probs_b = b.position_probabilities()
    if perm is not None:
        keys_a = perm.apply_keys(keys_a)
    merged, inverse = merge_keys(np.concatenate([keys_a, keys_b]))
    diff = np.zeros(merged.shape[0])
    # each side's keys are unique, so plain indexed updates do not collide
    diff[inverse[:keys_a.shape[0]]] = probs_a
    diff[inverse[keys_a.shape[0]:]] -= probs_b
    # np.max propagates a NaN probability
    return float(np.max(np.abs(diff)))


def check_symmetry_relation(coin: QuantumCoin, psi0: WalkState, transform, n_max: int = 50,
                            dressing: LocalUnitary | None = None) -> VerificationReport:
    """The defining relation of check_symmetry alone: the transformed state
    at each step against the dressed original."""
    return check_symmetry(coin, psi0, transform, n_max, probability=None, dressing=dressing)[0]


def check_probability_map(coin: QuantumCoin, psi0: WalkState, transform, n_max: int = 50,
                          transformed: tuple | None = None) -> VerificationReport:
    """The probability map of check_symmetry alone: measured distributions
    map as the symmetry dictates, for the derived or the `transformed`
    (coin, state) pair."""
    return check_symmetry(coin, psi0, transform, n_max, relation=None, transformed=transformed)[0]


def check_homogeneity(coin: QuantumCoin, positions_probe=None) -> tuple[bool, bool]:
    """(time-homogeneous, space-homogeneous) by probing the coin rule, with
    the tolerance of a declared flag's probe (states.HOMOGENEITY_TOL)."""
    time_spread, space_spread = homogeneity_spreads(coin, positions_probe)
    return time_spread <= HOMOGENEITY_TOL, space_spread <= HOMOGENEITY_TOL


# -- dense assembly on finite groups -------------------------------------------


def basis_labels(group: CayleyGroup) -> list:
    """Ordered (element, coin index) basis of the full finite walk space."""
    return [(x, c) for x in group.elements() for c in range(group.coin_dim)]


def _basis_images(group: CayleyGroup, image, coins) -> np.ndarray:
    """A basis permutation: the index, in basis_labels order, of each basis
    vector (x, c)'s image, with image(keys) the image keys of group.elements()
    (one per element, or per element and coin) and coins[c] the image of c."""
    keys = group.keys(list(group.elements()))  # sorted: see groups
    images = image(keys).reshape(len(keys), -1)
    at = find_keys(keys, images.ravel())[0].reshape(images.shape)
    return (at * group.coin_dim + np.asarray(coins)).ravel()


def _step_images(group: CayleyGroup) -> np.ndarray:
    """The conditional shift as a basis permutation, from the group law."""
    return _basis_images(group, lambda keys: group.keys(
        [group.mul(x, s) for x in group.elements_of(keys) for s in group.generators]),
        range(group.coin_dim))


def assemble_step_matrix(group: CayleyGroup) -> np.ndarray:
    """Conditional shift as an integer permutation matrix (see _step_images)."""
    images = _step_images(group)
    return np.eye(len(images), dtype=np.int64)[images].T


def assemble_permutation_matrix(a: ShiftedAutomorphism) -> np.ndarray:
    """Total permutation operator of a shifted automorphism (integer matrix)."""
    images = _basis_images(a.group, a.apply_keys, a.perm)
    return np.eye(len(images), dtype=np.int64)[images].T


def assemble_local_matrix(op, n: int = 0) -> np.ndarray:
    """Block-diagonal step-n matrix of a local operator (a coin included)
    on a finite group."""
    group = op.group
    dim = group.coin_dim
    keys = group.keys(list(group.elements()))
    block = op.block(n, keys)
    blocks = np.broadcast_to(block if block.ndim == 3 else block[:, :, None] * np.eye(dim),
                             (len(keys), dim, dim))
    mat = np.zeros((len(keys), dim, len(keys), dim), dtype=complex)
    mat[np.arange(len(keys)), :, np.arange(len(keys)), :] = blocks
    return mat.reshape(len(keys) * dim, -1)


# -- fixed invariant battery ----------------------------------------------------


def _sample_elements(group: CayleyGroup, rng, count: int) -> list:
    if group.is_finite and group.order <= count:
        return list(group.elements())
    return group.random_elements(rng, count)


def _stream(seed: int, stream: int) -> random.Random:
    # seeded from text: an int seed is taken by its absolute value, so -1
    # would replay 1
    return random.Random(f"{int(seed)}/{stream}")


def run_invariant_suite(group: CayleyGroup, seed: int = 0) -> list[VerificationReport]:
    """Fixed battery of structural checks for one group.

    Covers step-operator unitarity (finite groups, exact), commutation of the
    step with every generator permutation, automorphism group laws, normality
    of the pure-shift subgroup, agreement with the brute-force causal
    subgroup, the coset-index homomorphism law, and decomposition round-trips.
    Sampled elements come from four random.Random streams seeded from
    `seed`, any integer, so one seed samples the same in every process.
    """
    reports = []
    finite = group.is_finite
    auts = enumerate_automorphisms(group)

    rng = _stream(seed, 1)
    if finite:
        # as basis permutations t and p: on the 0/1 matrices, T^T T = I when
        # t is a bijection, and max |TP - PT| is 0 if t[p] == p[t], else 1
        t = _step_images(group)
        reports.append(_report("step_operator_unitarity",
                               [float(np.unique(t).size != t.size)], 0.0))
        shifts = _sample_elements(group, rng, 4)
    else:
        # repeated draws of an element add up
        state = WalkState.from_terms(group, [(x, c, rng.gauss(0.0, 1.0))
                                             for x in group.random_elements(rng, 24)
                                             for c in range(group.coin_dim)])
        shifts = group.random_elements(rng, 2)
    residuals = []
    for aut in auts:
        for shift in shifts:
            shifted = ShiftedAutomorphism(group, shift, aut.perm)
            if finite:
                p = _basis_images(group, shifted.apply_keys, shifted.perm)
                residuals.append(float(not np.array_equal(t[p], p[t])))
            else:
                residuals.append((apply_shift(permutation_apply(shifted, state))
                                  - permutation_apply(shifted, apply_shift(state))).norm())
    reports.append(_report("step_permutation_commutation", residuals, 1e-14))

    rng = _stream(seed, 2)
    residuals = []
    shifts = _sample_elements(group, rng, 3)
    pool = [ShiftedAutomorphism(group, s, a.perm) for s in shifts for a in auts]
    probe_xs = _sample_elements(group, rng, 8)
    for _ in range(16):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        ok = (left.perm == right.perm and left.shift == right.shift
              and all(left.apply_element(x) == right.apply_element(x) for x in probe_xs))
        inv_ok = compose(a, invert(a)).is_identity and compose(invert(a), a).is_identity
        residuals.append(0.0 if ok and inv_ok else 1.0)
    reports.append(_report("automorphism_group_laws", residuals, 0.0))

    rng = _stream(seed, 3)
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

    rng = _stream(seed, 4)
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
