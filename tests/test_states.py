"""Sparse state container and local unitaries."""

from __future__ import annotations

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup, LocalUnitary,
                        WalkState, make_time_homog_symmetry)
from cayleywalk.linalg import hadamard_matrix, random_unitary
from cayleywalk.errors import NonUnitaryError
from cayleywalk.states import (RowMemo, elementwise, lookup_rows, nonzero_rows,
                               require_block)

from conftest import random_state


def test_from_terms_accumulates_duplicates():
    group = LineGroup()
    state = WalkState.from_terms(group, [(0, 0, 0.5), (0, 0, 0.5), (2, 1, 1.0)])
    assert state.amplitude(0, 0) == pytest.approx(1.0)
    assert state.amplitude(2, 1) == pytest.approx(1.0)
    assert state.n_positions == 2


def test_localized_and_support():
    group = HypercubeGroup(3)
    state = WalkState.localized(group, (1, 0, 1), [1, 0, 0])
    assert state.support() == [(1, 0, 1)]
    assert state.amplitude((1, 0, 1), 0) == 1.0
    assert state.norm() == pytest.approx(1.0)


def test_zero_amplitude_rows_are_pruned():
    group = LineGroup()
    a = WalkState.from_terms(group, [(0, 0, 1.0), (1, 1, 1.0)])
    b = WalkState.from_terms(group, [(1, 1, 1.0)])
    diff = a - b
    assert diff.support() == [0]


def test_inner_product_conjugate_linear(rng):
    group = CyclicGroup(8)
    a = random_state(group, rng)
    b = random_state(group, rng)
    lhs = a.inner(b.scale(1j))
    assert lhs == pytest.approx(1j * a.inner(b))
    assert a.scale(1j).inner(b) == pytest.approx(-1j * a.inner(b))
    assert a.inner(a) == pytest.approx(a.norm() ** 2)


def test_distance_and_arithmetic(rng):
    group = LineGroup()
    a = random_state(group, rng)
    assert a.distance(a) == pytest.approx(0.0)
    doubled = a + a
    assert doubled.distance(a.scale(2.0)) == pytest.approx(0.0)
    assert (a - a).norm() == pytest.approx(0.0)


def test_position_distribution_sums_to_one(rng):
    group = HypercubeGroup(3)
    state = random_state(group, rng)
    dist = state.position_distribution()
    assert sum(dist.values()) == pytest.approx(1.0)
    assert all(p >= 0 for p in dist.values())


def test_position_distribution_warns_when_unnormalized():
    group = LineGroup()
    state = WalkState.from_terms(group, [(0, 0, 2.0)])
    with pytest.warns(UserWarning):
        state.position_distribution()


def test_nan_rows_stay_visible():
    state = WalkState.from_terms(LineGroup(), [(0, 0, float("nan")), (1, 0, 1.0)])
    assert state.support() == [0, 1]
    with pytest.warns(UserWarning):
        dist = state.position_distribution()
    assert list(dist) == [0, 1] and np.isnan(dist[0]) and dist[1] == 1.0


def test_records_roundtrip(rng):
    group = CyclicGroup(8)
    state = random_state(group, rng)
    again = WalkState.from_records(group, state.to_records())
    assert state.distance(again) == pytest.approx(0.0)


def test_positions_stay_sorted(rng):
    group = LineGroup()
    state = WalkState.from_terms(group, [(5, 0, 1.0), (-3, 1, 1.0), (2, 0, 1.0)])
    assert state.support() == [-3, 2, 5]


def test_uniform_local_unitary_matches_rule(rng):
    group = CyclicGroup(8)
    mat = random_unitary(2, rng)
    state = random_state(group, rng)
    uniform = LocalUnitary.uniform(group, mat)
    ruled = LocalUnitary.from_rule(group, lambda x: mat)
    assert uniform.apply(state).distance(ruled.apply(state)) < 1e-14
    assert uniform.block(0, state.positions).shape == (1, 2, 2)
    assert ruled.block(0, state.positions).shape == (state.n_positions, 2, 2)


def test_diagonal_local_unitary(rng):
    group = LineGroup()
    state = random_state(group, rng)
    diag = LocalUnitary.diagonal(group, lambda x: np.array([1.0, -1.0 + 0j]))
    out = diag.apply(state)
    for x in state.support():
        assert out.amplitude(x, 0) == pytest.approx(state.amplitude(x, 0))
        assert out.amplitude(x, 1) == pytest.approx(-state.amplitude(x, 1))


def test_local_unitary_preserves_norm(rng):
    group = HypercubeGroup(3)
    state = random_state(group, rng)
    op = LocalUnitary.from_rule(group, lambda x: random_unitary(3, np.random.default_rng(sum(x))))
    assert op.apply(state).norm() == pytest.approx(state.norm())


def test_component_lookup():
    group = LineGroup()
    op = LocalUnitary.uniform(group, hadamard_matrix())
    assert np.allclose(op.component(7), hadamard_matrix())


def _dense(state, elements):
    """Reference vector of a state over a fixed element list."""
    index = {x: i for i, x in enumerate(elements)}
    vec = np.zeros((len(elements), state.group.coin_dim), dtype=complex)
    for (x, c), amp in state.terms().items():
        vec[index[x], c] = amp
    return vec


@pytest.mark.parametrize("group", [LineGroup(), CyclicGroup(8), HypercubeGroup(3),
                                   LatticeGroup(2), LatticeGroup(2, period=5)],
                         ids=lambda g: str(g.describe()))
def test_inner_and_amplitude_match_dense_reference(group, rng):
    pool = list(dict.fromkeys(group.random_elements(rng, 30)))[:10]
    a = WalkState.from_terms(group, [(x, c, rng.normal() + 1j * rng.normal())
                                     for x in pool[:6] for c in range(group.coin_dim)])
    b = WalkState.from_terms(group, [(x, c, rng.normal() + 1j * rng.normal())
                                     for x in pool[3:] for c in range(group.coin_dim)])
    da, db = _dense(a, pool), _dense(b, pool)
    assert a.inner(b) == pytest.approx(np.vdot(da, db), rel=1e-13)
    assert b.inner(a) == pytest.approx(np.vdot(db, da), rel=1e-13)
    assert a.inner(WalkState.zero(group)) == 0j
    for i, x in enumerate(pool):
        for c in range(group.coin_dim):
            assert a.amplitude(x, c) == da[i, c]
            assert b.amplitude(x, c) == db[i, c]
    assert (a - b).distance(WalkState.zero(group)) == pytest.approx(
        np.linalg.norm(da - db), rel=1e-13)


def test_nonzero_rows_keeps_nan_rows_and_drops_signed_zeros():
    amps = np.array([[np.nan, 0], [0, 0], [0, -0.0], [1e-300, 0], [0, 1j]], dtype=complex)
    assert nonzero_rows(amps).tolist() == [True, False, False, True, True]
    assert nonzero_rows(amps[:0]).tolist() == []


@pytest.mark.parametrize("group", [LineGroup(), LatticeGroup(2)], ids=["line", "z2"])
def test_table_lookup_hits_misses_and_default(group, rng):
    xs = group.random_elements(rng, 12)
    dim = group.coin_dim
    # the first six positions are tabulated, some coin indices left out
    table = {(x, c): np.exp(1j * (i + 0.1 * c)) for i, x in enumerate(xs[:6])
             for c in range(dim) if (i + c) % 3}
    default = np.exp(0.5j)
    batch = xs[9:] + xs[2:5] + xs[6:9] + xs[:2] + xs[3:4]  # unsorted, mixed, repeated
    got = lookup_rows(group, table, default)(group.keys(batch))
    expect = np.array([[table.get((x, c), default) for c in range(dim)] for x in batch])
    assert np.array_equal(got, expect)
    assert np.array_equal(lookup_rows(group, {}, default)(group.keys(batch)),
                          np.full((len(batch), dim), default))
    # the two table-driven rules read the same rows
    t = make_time_homog_symmetry(group, delta=table)
    ones = {(x, c): table.get((x, c), 1.0) for x in batch for c in range(dim)}
    assert np.array_equal(t.phases.block(0, group.keys(batch)),
                          [[ones[(x, c)] for c in range(dim)] for x in batch])
    field = LocalUnitary.from_table(group, {(4, x, c): u for (x, c), u in table.items()},
                                    default)
    assert np.array_equal(field.block(4, group.keys(batch)), expect)
    assert np.array_equal(field.block(3, group.keys(batch)), np.full((len(batch), dim), default))


def _merged_combine(a, b, sign):
    """Reference for a +/- b: merge both key sets with np.unique, then add
    each operand at its rows."""
    positions, inverse = np.unique(np.concatenate([a.positions, b.positions]),
                                   return_inverse=True)
    out = np.zeros((positions.shape[0], a.group.coin_dim), dtype=complex)
    out[inverse[:a.n_positions]] = a.amps
    out[inverse[a.n_positions:]] += sign * b.amps
    return positions, out


def _on(group, keys, rng):
    keys = np.asarray(keys, dtype=np.int64)
    amps = rng.normal(size=(len(keys), 2)) + 1j * rng.normal(size=(len(keys), 2))
    return WalkState(group, keys, amps)


def test_combine_matches_the_merge_bit_for_bit(rng):
    group = LineGroup()
    with_nan = _on(group, [-2, 0, 3], rng)
    with_nan.amps[1, 0] = np.nan
    pairs = {
        "equal": (_on(group, [-2, 0, 3], rng), _on(group, [-2, 0, 3], rng)),
        "overlapping": (_on(group, [-2, 0, 3], rng), _on(group, [0, 3, 5], rng)),
        "disjoint": (_on(group, [-2, 0], rng), _on(group, [1, 4], rng)),
        "empty": (WalkState.zero(group), WalkState.zero(group)),
        "one empty": (_on(group, [1, 2], rng), WalkState.zero(group)),
        "nan, equal": (with_nan, _on(group, [-2, 0, 3], rng)),
        "nan, overlapping": (_on(group, [0, 7], rng), with_nan),
    }
    for name, (a, b) in pairs.items():
        for sign, got in ((1.0, a + b), (-1.0, a - b)):
            positions, amps = _merged_combine(a, b, sign)
            assert np.array_equal(got.positions, positions), name
            assert got.amps.tobytes() == amps.tobytes(), name
    # the NaN row is kept, at its position
    diff = pairs["nan, equal"][0] - pairs["nan, equal"][1]
    assert np.isnan(diff.amps[1, 0]) and diff.positions[1] == 0


@pytest.mark.parametrize("make", [
    lambda g: LocalUnitary.identity(g),
    lambda g: LocalUnitary.uniform(g, hadamard_matrix()),
    lambda g: LocalUnitary(g, lambda n, x, c: np.exp(0.3j * (n + x + c))),
    lambda g: LocalUnitary.from_table(g, {(1, 0, 0): 1j}),
], ids=["identity", "uniform", "scalar rule", "table"])
def test_local_unitary_blocks_are_read_only(make):
    group = LineGroup()
    op = make(group)
    keys = group.keys([-1, 0, 1])
    for _ in range(2):  # evaluated, then served again
        block = op.block(1, keys)
        with pytest.raises(ValueError):
            block[0, 0] = 0.0


def test_read_only_blocks_leave_the_rule_array_writable():
    group = LineGroup()
    table = np.ones((3, 2), dtype=complex)
    op = LocalUnitary.batched(group, lambda n, keys: table)
    op.block(1, group.keys([-1, 0, 1]))
    table[0, 0] = 1j  # still the caller's own array
    assert op.block(2, group.keys([-1, 0, 1]))[0, 0] == 1j


def test_block_memo_serves_equal_keys_and_only_those():
    group = LineGroup()

    def rule(n, x, c):
        return np.exp(0.1j * (n * n + x - c))

    op = LocalUnitary(group, rule)
    fresh = LocalUnitary(group, rule)
    keys = [group.keys(range(-n, n + 1, 2)) for n in range(8)]
    for n in range(1, 7):
        for m, k in ((n + 1, keys[n + 1]), (n, keys[n].copy()), (n, keys[n])):
            block = op.block(m, k)
            assert block.tobytes() == fresh.block(m, k).tobytes()
        # a single-key lookup between steps changes no later block
        assert op.at(n, 0 if n % 2 == 0 else 1, 0) == fresh.at(n, 0 if n % 2 == 0 else 1, 0)
    # the memo holds keys by value: a caller rewriting its array gets a new block
    probe = group.keys([3, 5])
    first = op.block(9, probe)
    probe[:] = group.keys([7, 9])
    assert op.block(9, probe).tobytes() == fresh.block(9, group.keys([7, 9])).tobytes()
    assert op.block(9, probe).tobytes() != first.tobytes()


def _counted_rule(group, seen: list, bad=None):
    """A pure rule of the key, one row of phases per position, that records
    every key it evaluates and gives a non-unit row at element `bad`."""
    dim = group.coin_dim

    def row(x):
        if x == bad:
            return [2.0] * dim
        t = sum(x) if isinstance(x, tuple) else x
        return [np.exp(1j * (0.7 * t + 0.3 * c * t + 0.1 * c)) for c in range(dim)]

    def rows(keys):
        seen.extend(keys.tolist())
        return require_block(group, keys, elementwise(row, group.elements_of(keys), (dim,)),
                             "test row")

    return rows


@pytest.mark.parametrize("group, batches", [
    (LineGroup(), [[3, -2, 3, 7, -2, 0], [-9, -3], [], [7, -9, 11], [-4, 12, -4]]),
    (LineGroup(), [[-3, -7, -3], [0], [0, -7, -1, 0]]),  # 0 past every stored key
    (LatticeGroup(2), [[(1, -2), (0, 0), (1, -2), (-5, 3)], [], [(0, 0), (2, 2), (-5, 3)]]),
], ids=["line", "line-zero-past-end", "z2"])
def test_row_memo_matches_direct_evaluation(group, batches):
    seen, direct = [], []
    memo = RowMemo(_counted_rule(group, seen), group.coin_dim)
    reference = _counted_rule(group, direct)
    for batch in batches:
        keys = group.keys(batch) if batch else np.empty(0, dtype=np.int64)
        got = memo(keys)
        assert got.shape == (len(batch), group.coin_dim)
        assert np.array_equal(got, reference(keys))
    # every key was evaluated once, on the batch that first held it
    distinct = {int(k) for batch in batches if batch for k in group.keys(batch)}
    assert sorted(seen) == sorted(distinct)


def test_row_memo_stores_nothing_from_a_failing_batch():
    group = LineGroup()
    seen = []
    memo = RowMemo(_counted_rule(group, seen, bad=5), group.coin_dim)
    reference = _counted_rule(group, [])
    memo(group.keys([1, 2]))
    with pytest.raises(NonUnitaryError, match="test row at 5 "):
        memo(group.keys([2, 3, 5]))
    # the memo stays usable, and the good keys of the failing batch are
    # evaluated again when they are next asked for
    keys = group.keys([3, 1, -4])
    assert np.array_equal(memo(keys), reference(keys))
    with pytest.raises(NonUnitaryError, match="test row at 5 "):
        memo(group.keys([5, 1]))
    # only unseen keys are evaluated, in key order; 3 twice, as [2, 3, 5] failed
    assert seen == [1, 2, 3, 5, -4, 3, 5]
