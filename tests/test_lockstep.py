"""Relation checks step the original and the transformed walk in lockstep on
one support (walk.lockstep). Their reports are compared here with a
reference written out below: two separate evolutions, then the original
state dressed, relabeled for a generalized symmetry, subtracted and its
norm taken at each step.

Where the two walks' supports coincide, the lockstep multiplies, prunes and
subtracts the same coin vectors in the same order, so its residuals equal
the reference's to the bit. Where they differ (a mirror symmetry from off
the identity, the x -> 1 - x symmetry on the line, and a claimed pair
started elsewhere), each walk also carries the rows that only the other
walk has, as zeros. Its coin product then runs over more rows, which BLAS
may block differently, and a norm sums the same terms with zeros between
them, so a residual may differ in its last bits, here bounded by 1e-15."""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, GeneralizedSymmetry, HypercubeGroup, LatticeGroup,
                        LineGroup, QuantumCoin, ShiftedAutomorphism, SpecError,
                        WalkInstance, WalkState, check_symmetry, corrupted_phases,
                        decompose_line_coin, evolve, evolve_final, evolve_iter, hadamard_coin,
                        make_generalized_symmetry, mirror_generalized_symmetry,
                        permutation_apply, transform_coin)
from cayleywalk.automorphisms import transform_pair
from cayleywalk.walk import lockstep

from conftest import probabilities, random_unitary
from test_acceptance import FAMILIES, _draw_symmetry

GROUPS = [(LineGroup(), 3), (CyclicGroup(8), 3), (HypercubeGroup(3), (1, 0, 1)),
          (LatticeGroup(2, period=6), (2, 5))]
GROUP_IDS = ["line", "cyclic8", "hypercube3", "torus6"]


def _reference(coin, psi0, transform, n_max, dressing=None, transformed=None):
    """(relation residuals, probability residuals, whether the supports
    coincided at every step) of two separate evolutions."""
    if isinstance(transform, GeneralizedSymmetry):
        inner, perm = transform.inner, transform.perm
    else:
        inner, perm = transform, None
    new_coin, new_state = transformed or transform_pair(transform, coin, psi0)
    phases = inner.phases if dressing is None else dressing
    group = coin.group
    relation, probability, same = [], [], True
    for n, (psi, phi) in enumerate(zip(evolve_iter(WalkInstance(group, coin, psi0), n_max),
                                       evolve_iter(WalkInstance(group, new_coin, new_state),
                                                   n_max))):
        expected = phases.apply(psi, n)
        same &= np.array_equal(psi.positions, phi.positions)
        if perm is not None:
            expected = permutation_apply(perm, expected)
        relation.append((phi - expected).norm())
        moved = {perm.apply_element(x) if perm else x: p
                 for x, p in probabilities(psi).items()}
        mapped = probabilities(phi)
        probability.append(max(abs(moved.get(x, 0.0) - mapped.get(x, 0.0))
                               for x in moved.keys() | mapped.keys()))
    return relation, probability, same


def _start(group, at, rng):
    vec = rng.normal(size=group.coin_dim) + 1j * rng.normal(size=group.coin_dim)
    return WalkState.localized(group, at, vec / np.linalg.norm(vec))


def _compare(coin, psi0, transform, n_max, **claim):
    relation, probability = check_symmetry(coin, psi0, transform, n_max, **claim)
    want_relation, want_probability, same = _reference(coin, psi0, transform, n_max, **claim)
    for report, want in ((relation, want_relation), (probability, want_probability)):
        if same:
            assert report.per_step_residuals == want
        else:
            assert np.abs(np.subtract(report.per_step_residuals, want)).max() <= 1e-15
    return relation, same


@pytest.mark.parametrize("at", ["identity", "off identity"])
@pytest.mark.parametrize("group, off", GROUPS, ids=GROUP_IDS)
def test_lockstep_reports_match_two_separate_walks(group, off, at):
    rng = np.random.default_rng([77, group.coin_dim, at == "identity"])
    coin = QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))
    psi0 = _start(group, group.identity if at == "identity" else off, rng)
    n_max = 40 if group.kind == "line" else 16
    transforms = [_draw_symmetry(family, group, rng) for family in FAMILIES]
    if group.kind == "line":
        transforms.append(mirror_generalized_symmetry(
            decompose_line_coin(coin.matrix_at(0)), group))
    for t in transforms:
        report, same = _compare(coin, psi0, t, n_max)
        # only a mirror moves the support, and only from off the identity
        assert report.passed and same == (at == "identity" or t not in transforms[4:]), t


def test_a_support_moving_symmetry_steps_on_the_union_of_supports():
    """x -> 1 - x moves a line walk's support to the other parity, so the
    two walks never share a position; the lockstep steps both on the union."""
    group = LineGroup()
    rng = np.random.default_rng(5)
    coin = QuantumCoin.uniform(group, random_unitary(2, rng))
    inner = _draw_symmetry("general", group, rng)
    reflect = make_generalized_symmetry(ShiftedAutomorphism(group, 1, (1, 0)), inner)
    for at in (0, 4):
        psi0 = _start(group, at, rng)
        report, same = _compare(coin, psi0, reflect, 30)
        assert report.passed and not same


@pytest.mark.parametrize("group, off", GROUPS, ids=GROUP_IDS)
def test_a_wrong_claimed_pair_fails_as_with_two_separate_walks(group, off):
    rng = np.random.default_rng([78, group.coin_dim])
    coin = QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))
    psi0 = _start(group, group.identity, rng)
    t = _draw_symmetry("time_homog", group, rng)
    # the right coin from the wrong place, and the wrong coin from the right one
    for claim in ((transform_coin(t, coin), _start(group, off, rng)),
                  (coin, transform_pair(t, coin, psi0)[1])):
        report, _ = _compare(coin, psi0, t, 12, transformed=claim)
        assert not report.passed


@pytest.mark.parametrize("family", FAMILIES + ["mirror"])
def test_corrupted_controls_fail_at_the_step_two_separate_walks_fail(family):
    group = LineGroup()
    coin = hadamard_coin(group)
    psi0 = WalkState.localized(group, 0, np.array([0.6, 0.8j]))
    rng = np.random.default_rng(31)
    t = (mirror_generalized_symmetry(decompose_line_coin(coin.matrix_at(0)), group)
         if family == "mirror" else _draw_symmetry(family, group, rng))
    inner = t.inner if family == "mirror" else t
    n0 = 7
    (x, c), _ = max(evolve(WalkInstance(group, coin, psi0), n0)[n0].terms().items(),
                    key=lambda item: abs(item[1]))
    bad = corrupted_phases(inner.phases, (n0, x, c))
    report, _ = _compare(coin, psi0, t, 14, dressing=bad)
    assert report.first_failing_step == n0
    assert _reference(coin, psi0, t, 14, dressing=bad)[0][n0] > 1e-3



def test_a_lockstep_state_sends_its_observables_to_each_walk():
    """A lockstep state stacks several walks, so it has no one support,
    distribution or amplitude: asking it raises SpecError naming the walk
    block to take, not a numpy error."""
    group = LineGroup()
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    instances = [WalkInstance(group, hadamard_coin(group), start),
                 WalkInstance(group, QuantumCoin.uniform(group, np.eye(2)), start)]
    both = list(lockstep(instances, 3))[-1]
    for observe in (both.support, both.terms, both.position_probabilities,
                    both.position_distribution, lambda: both.amplitude(1, 0)):
        with pytest.raises(SpecError, match=r"lockstep state of 2 walks; take walk w's block"):
            observe()
    for w, instance in enumerate(instances):
        alone = evolve_final(instance, 3)
        walk = WalkState(group, both.positions, both.amps[w])
        assert walk.position_distribution() == alone.position_distribution()


def _lockstep_pair():
    """A lockstep state of two line walks after three steps, and a one-walk
    state on its rows."""
    group = LineGroup()
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    both = list(lockstep([WalkInstance(group, hadamard_coin(group), start),
                          WalkInstance(group, QuantumCoin.uniform(group, np.eye(2)), start)],
                         3))[-1]
    return both, WalkState(group, both.positions, both.amps[0])


@pytest.mark.parametrize("use", [
    lambda both, one: both.inner(one), lambda both, one: one.inner(both),
    lambda both, one: both + one, lambda both, one: one + both,
    lambda both, one: both - one, lambda both, one: one - both,
    lambda both, one: both.normalized()],
    ids=["inner", "inner_of_one", "add", "add_to_one", "sub", "sub_from_one", "normalized"])
def test_a_lockstep_state_has_no_arithmetic_of_its_own(use):
    """A lockstep state's inner product, sum, difference and normalization
    are each walk's own, so they raise SpecError naming the walk block to
    take, rather than fail inside numpy (inner), add one walk to every walk
    (+, -) or divide by the norm of all walks together (normalized)."""
    both, one = _lockstep_pair()
    with pytest.raises(SpecError, match=r"lockstep state of 2 walks; take walk w's block"):
        use(both, one)


def test_a_lockstep_state_names_its_walk_count():
    both, one = _lockstep_pair()
    assert repr(both) == f"WalkState(line, positions={both.n_positions}, walks=2)"
    assert repr(one) == f"WalkState(line, positions={one.n_positions}, norm=1.000000)"
