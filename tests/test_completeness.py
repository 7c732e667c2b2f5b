"""Completeness of the three homogeneity-preserving families, counted.

By transform_coin, C'(n, x)_cd = u(n+1, x s_c, c) C_cd conj(u(n, x, d)). For
n >= 1 the dressing is the phase field u = exp(i theta), so on each coin entry
with C_cd != 0 the transformed coin's phase moves by

    Delta_cd(n, x) = theta(n+1, x s_c, c) - theta(n, x, d).

C' is space-homogeneous when no Delta depends on x, time-homogeneous when none
depends on n, and both when neither does. These are linear equations in theta
over R / 2 pi Z with a 0/+-1 integer matrix A, built here from the group law
(group.mul, group.generators) and the coin's zero pattern alone, not from the
family code. Over unknowns theta(n, x, c) for n = 1..T and constraints at
n = 1..T-1, the dimension of the solution space, unknowns minus the real rank
of A, must equal the family's count of free parameters: then the family
misses no continuous direction of solutions. Step 0 is left out: U0 is an
arbitrary unitary, so its constraint is not linear in a phase.

Only the continuous part is counted. The discrete components (the characters
rho and gamma, roots of unity), which a Smith normal form of A would give, are
not, and neither is the line, which would need a window.

The counts hold for a coin with no zero entry. Each zero entry drops a
constraint, so such a coin has more symmetries than the families give.
"""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LocalUnitary, PhaseField,
                        QuantumCoin, corrupted_phases, make_general_symmetry, transform_coin)
from cayleywalk.states import PROBE_STEPS
from cayleywalk.verify import check_homogeneity

from conftest import pauli_x, random_unitary
from test_acceptance import _draw_symmetry

HOMOGENEITY = {"space_homog": "space", "time_homog": "time", "full_homog": "full"}

# The family's free continuous parameters on a group with coset count chi and
# coin dimension dim, T steps, less one global phase that two parameters share:
# space_homog U'(n) diagonal for n = 1..T (dim T) and eta (chi);
# time_homog delta (|G| dim), eta (chi) and epsilon (1);
# full_homog eta (chi), epsilon (1) and U' (dim).
FREE_PARAMETERS = {
    "space_homog": lambda g, steps: g.coin_dim * steps + g.chi - 1,
    "time_homog": lambda g, steps: g.order * g.coin_dim + g.chi,
    "full_homog": lambda g, steps: g.chi + g.coin_dim,
}

GROUPS = {
    "cyclic8": (lambda: CyclicGroup(8), (4, 5, 6)),
    "cyclic8_one_generator": (lambda: CyclicGroup(8, generators=(1,)), (4, 5, 6)),
    "hypercube3": (lambda: HypercubeGroup(3), (4, 5, 6)),
    # one horizon: T = 4..6 would take about 2 s more
    "torus6": (lambda: LatticeGroup(2, period=6), (4,)),
}


def constraint_matrix(group, coin_matrix, steps: int, homogeneity: str) -> np.ndarray:
    """A: one row per independent difference of the Delta_cd(n, x) that the
    homogeneity asks to vanish, one column per theta(n, x, c), n = 1..steps,
    in (n, element, coin) order."""
    elements = list(group.elements())
    index = {group.encode(x): i for i, x in enumerate(elements)}
    dim, order = group.coin_dim, len(elements)

    def column(n, x, c):
        return ((n - 1) * order + index[group.encode(x)]) * dim + c

    def delta(n, x, c, d):
        row = np.zeros(steps * order * dim)
        row[column(n + 1, group.mul(x, group.generators[c]), c)] += 1
        row[column(n, x, d)] -= 1
        return row

    rows = []
    entries = zip(*np.nonzero(np.abs(coin_matrix) > 1e-12))
    for c, d in entries:
        for n in range(1, steps):
            for x in elements:
                # each Delta minus the one it must equal: at the identity (space),
                # at n = 1 (time), or at both (full)
                ref_n = n if homogeneity == "space" else 1
                ref_x = x if homogeneity == "time" else group.identity
                if (n, x) != (ref_n, ref_x):
                    rows.append(delta(n, x, c, d) - delta(ref_n, ref_x, c, d))
    return np.array(rows)


def solution_dimension(group, coin_matrix, steps: int, homogeneity: str) -> int:
    """Unknowns minus the real rank of the constraint matrix."""
    a = constraint_matrix(group, coin_matrix, steps, homogeneity)
    return a.shape[1] - int(np.linalg.matrix_rank(a))


@pytest.mark.parametrize("family", HOMOGENEITY)
@pytest.mark.parametrize("name", GROUPS)
def test_the_solution_space_is_as_wide_as_the_family(name, family):
    make, horizons = GROUPS[name]
    group = make()
    coin = random_unitary(group.coin_dim, np.random.default_rng([23, list(GROUPS).index(name)]))
    assert np.abs(coin).min() > 1e-3  # no zero entry
    for steps in horizons:
        assert solution_dimension(group, coin, steps, HOMOGENEITY[family]) == \
            FREE_PARAMETERS[family](group, steps), (name, family, steps)


@pytest.mark.parametrize("coin_matrix", [np.eye(2), pauli_x()], ids=["identity", "pauli_x"])
def test_zero_coin_entries_add_dimensions(coin_matrix):
    """Each zero entry drops a constraint: on cyclic(8), the identity and the
    Pauli-X coin have 2T + 14, 32 and 18 dimensions of solutions against the
    families' 2T + 1, 18 and 4."""
    group = CyclicGroup(8)
    for steps in (4, 5, 6):
        got = [solution_dimension(group, coin_matrix, steps, HOMOGENEITY[f]) for f in HOMOGENEITY]
        assert got == [2 * steps + 14, 32, 18]
        assert all(dim > FREE_PARAMETERS[f](group, steps) for dim, f in zip(got, HOMOGENEITY))


def _phase_angles(phases, group, steps: int) -> np.ndarray:
    """theta(n, x, c) of a dressing, n = 1..steps, in constraint_matrix's
    column order."""
    keys = group.keys(list(group.elements()))
    return np.concatenate([np.angle(phases.block(n, keys)).ravel()
                           for n in range(1, steps + 1)])


def _winding(a: np.ndarray, theta: np.ndarray) -> float:
    """The worst distance of A theta from a multiple of 2 pi."""
    residual = a @ theta
    return float(np.abs(residual - 2 * np.pi * np.round(residual / (2 * np.pi))).max())


@pytest.mark.parametrize("family", HOMOGENEITY)
@pytest.mark.parametrize("name", GROUPS)
def test_each_family_solves_the_constraints_and_a_corrupted_phase_does_not(name, family):
    make, horizons = GROUPS[name]
    group = make()
    rng = np.random.default_rng([29, list(GROUPS).index(name), list(HOMOGENEITY).index(family)])
    coin = QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))
    t = _draw_symmetry(family, group, rng)
    steps = horizons[0]
    a = constraint_matrix(group, coin.matrix_at(0), steps, HOMOGENEITY[family])
    assert _winding(a, _phase_angles(t.phases, group, steps)) < 1e-9
    bad = corrupted_phases(t.phases, (2, group.generators[0], 0))
    assert _winding(a, _phase_angles(bad, group, steps)) > 1.0


@pytest.mark.parametrize("name", ["cyclic8", "hypercube3"])
def test_a_random_phase_field_solves_no_constraint_and_is_not_homogeneous(name):
    """Negative control: a seeded random phase per (n, x, c), outside every
    family, misses A theta = 0 (mod 2 pi) for each homogeneity, and the coin
    it transforms probes neither time- nor space-homogeneous."""
    make, horizons = GROUPS[name]
    group = make()
    rng = np.random.default_rng([31, list(GROUPS).index(name)])
    coin = QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))
    index = {group.encode(x): i for i, x in enumerate(group.elements())}
    # the steps check_homogeneity probes (PROBE_STEPS) and the step after each
    units = np.exp(2j * np.pi * rng.random((max(PROBE_STEPS) + 2, len(index), group.coin_dim)))
    field = PhaseField(group, lambda n, x, c: units[n, index[group.encode(x)], c])
    t = make_general_symmetry(LocalUnitary.identity(group), field)
    steps = horizons[0]
    for homogeneity in HOMOGENEITY.values():
        a = constraint_matrix(group, coin.matrix_at(0), steps, homogeneity)
        assert _winding(a, _phase_angles(t.phases, group, steps)) > 1.0, homogeneity
    assert check_homogeneity(transform_coin(t, coin)) == (False, False)
