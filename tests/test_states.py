"""Sparse state container and local unitaries."""

from __future__ import annotations

import re

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup, LocalUnitary,
                        QuantumCoin, WalkState, check_symmetry_relation, hadamard_coin,
                        identity_coin, make_full_homog_symmetry, make_time_homog_symmetry,
                        states, transform_coin)
from cayleywalk.linalg import hadamard_matrix
from cayleywalk.errors import EncodingError, NonUnitaryError, SpecError
from cayleywalk.specs import dump_state, load_state
from cayleywalk.states import (COMPACT_SPAN, PRUNE_TOL, apply_block, block_product, elementwise,
                               lookup_rows, merge_keys, nonzero_rows, real_form, require_block,
                               shift_plan)
from cayleywalk.symmetry import RowMemo

from conftest import pauli_x, random_state, random_unitary, sampler


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
    lhs = a.inner(WalkState(group, b.positions, b.amps * 1j))
    assert lhs == pytest.approx(1j * a.inner(b))
    assert WalkState(group, a.positions, a.amps * 1j).inner(b) == pytest.approx(-1j * a.inner(b))
    assert a.inner(a) == pytest.approx(a.norm() ** 2)


def test_distance_and_arithmetic(rng):
    group = LineGroup()
    a = random_state(group, rng)
    assert (a - a).norm() == pytest.approx(0.0)
    doubled = a + a
    assert (doubled - WalkState(group, a.positions, a.amps * 2.0)).norm() == pytest.approx(0.0)


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
    again = load_state(group, dump_state(state))
    assert (state - again).norm() == pytest.approx(0.0)


def test_positions_stay_sorted(rng):
    group = LineGroup()
    state = WalkState.from_terms(group, [(5, 0, 1.0), (-3, 1, 1.0), (2, 0, 1.0)])
    assert state.support() == [-3, 2, 5]


def test_uniform_local_unitary_matches_rule(rng):
    group = CyclicGroup(8)
    mat = random_unitary(2, rng)
    state = random_state(group, rng)
    uniform = LocalUnitary.uniform(group, mat)
    ruled = LocalUnitary.from_rule(group, lambda n, x: mat)
    assert (uniform.apply(state) - ruled.apply(state)).norm() < 1e-14
    for n, keys in ((0, state.positions), (5, state.positions[:1]), (2, group.keys([3, 1]))):
        assert uniform.block(n, keys).shape == (1, 2, 2)
    assert ruled.block(0, state.positions).shape == (state.n_positions, 2, 2)


def test_diagonal_local_unitary(rng):
    group = LineGroup()
    state = random_state(group, rng)
    diag = LocalUnitary(group, lambda n, x, c: np.array([1.0, -1.0 + 0j])[c])
    out = diag.apply(state)
    for x in state.support():
        assert out.amplitude(x, 0) == pytest.approx(state.amplitude(x, 0))
        assert out.amplitude(x, 1) == pytest.approx(-state.amplitude(x, 1))


def test_local_unitary_preserves_norm(rng):
    group = HypercubeGroup(3)
    state = random_state(group, rng)
    op = LocalUnitary.from_rule(group, lambda n, x: random_unitary(3, np.random.default_rng(sum(x))))
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
    pool = list(dict.fromkeys(group.random_elements(sampler(rng), 30)))[:10]
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
    assert ((a - b) - WalkState.zero(group)).norm() == pytest.approx(
        np.linalg.norm(da - db), rel=1e-13)


@pytest.mark.parametrize("group", [LineGroup(), LatticeGroup(2)], ids=["line", "z2"])
def test_amplitude_and_inner_look_keys_up_by_find_keys(group, rng, monkeypatch):
    """One key lookup: neither maps np.searchsorted or np.intersect1d, and
    the inner product sums the shared rows in key order, as before."""
    a, b = random_state(group, rng), random_state(group, rng)
    b = b + a  # shares a's rows, and has more
    _, i, j = np.intersect1d(a.positions, b.positions, assume_unique=True, return_indices=True)
    expect = complex(np.vdot(a.amps[i], b.amps[j]))
    x = a.elements()[0]
    amplitude = complex(a.amps[0, 1])

    def forbidden(*args, **kwargs):
        raise AssertionError("a second key lookup")

    monkeypatch.setattr(np, "searchsorted", forbidden)
    monkeypatch.setattr(np, "intersect1d", forbidden)
    assert a.inner(b) == expect
    assert a.amplitude(x, 1) == amplitude
    absent = 10 ** 6 if group.kind == "line" else (10 ** 6, 0)
    assert a.amplitude(absent, 0) == 0j


def test_nonzero_rows_keeps_nan_rows_and_drops_signed_zeros():
    amps = np.array([[np.nan, 0], [0, 0], [0, -0.0], [1e-300, 0], [0, 1j]], dtype=complex)
    assert nonzero_rows(amps).tolist() == [True, False, False, True, True]
    assert nonzero_rows(amps[:0]).tolist() == []


# -- merge_keys: slot marks for compact key sets, a stable sort otherwise ------------

_LINE_END = 2 ** 62  # the line packs [-2^62, 2^62)


def _blocks(*parts):
    return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])


MERGE_CASES = {
    "empty": _blocks([]),
    "single": _blocks([7]),
    "single negative": _blocks([-2 ** 61]),
    "duplicates across blocks": _blocks([-3, -1, 1, 3], [-5, -3, -1, 1], [-1, 1, 3, 5]),
    "negative compact": _blocks(np.arange(-40, -10), np.arange(-42, -12)),
    "all equal": _blocks([5] * 6),
    # 4 keys over a span of 4 * 4 - 1 slots, then of 4 * 4
    "span just compact": _blocks([0, 15], [3, 15]),
    "span just sparse": _blocks([0, 16], [3, 16]),
    "sparse": _blocks([-10 ** 12, 0], [1, 10 ** 12]),
    "line ends +-2^61": _blocks([-2 ** 61, 2 ** 61], [-2 ** 61 - 1, 2 ** 61 + 1]),
    "line range ends": _blocks([-_LINE_END, _LINE_END - 1], [-_LINE_END + 1, _LINE_END - 2]),
    "compact at the top end": _blocks([_LINE_END - 3, _LINE_END - 1], [_LINE_END - 2]),
    "compact at the bottom end": _blocks([-_LINE_END, -_LINE_END + 2], [-_LINE_END + 1]),
}


def _sorts(monkeypatch) -> list:
    """Record the length of every np.argsort call."""
    calls = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return calls


def _assert_unique_merge(keys):
    merged, inverse = merge_keys(keys)
    want, want_inverse = np.unique(keys, return_inverse=True)
    assert merged.dtype == want.dtype and inverse.dtype == want_inverse.dtype
    assert np.array_equal(merged, want) and np.array_equal(inverse, want_inverse)
    # a plan's keys are kept by the memos without a copy (see memo_keys)
    assert merged.flags.owndata


@pytest.mark.parametrize("name", list(MERGE_CASES))
def test_merge_keys_is_np_unique_and_sorts_only_sparse_keys(name, monkeypatch):
    keys = MERGE_CASES[name]
    sorts = _sorts(monkeypatch)
    _assert_unique_merge(keys)
    compact = keys.size and int(keys.max()) - int(keys.min()) < COMPACT_SPAN * keys.size
    assert sorts == ([] if compact else [keys.size])


@pytest.mark.parametrize("group, compact", [
    (LineGroup(), True), (CyclicGroup(8), True), (HypercubeGroup(4), True),
    (LatticeGroup(2, period=6), True), (LatticeGroup(2), False)],
    ids=["line", "cyclic8", "hypercube4", "torus6", "z2"])
def test_merge_keys_on_shifted_supports(group, compact, rng, monkeypatch):
    # a walk's support, shifted by every generator: the line, cyclic,
    # hypercube and torus keys are compact, Z^2 keys lie 2^31 apart per row
    state = random_state(group, rng, count=12)
    keys = np.concatenate([group.shift_rows(state.positions, c)
                           for c in range(group.coin_dim)])
    sorts = _sorts(monkeypatch)
    _assert_unique_merge(keys)
    assert sorts == ([] if compact else [keys.size])


# -- apply_block ------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["diagonal", "shared", "per position"])
def test_apply_block_prunes_small_entries_and_empty_rows_but_keeps_nan(kind):
    group = LineGroup()
    tiny = 0.5 * PRUNE_TOL
    amps = np.array([[1.0, tiny], [tiny, -1j * tiny], [-0.0, 0.0], [np.nan, 0.0],
                     [-0.0, PRUNE_TOL], [0.6, 0.8j]], dtype=complex)
    amps.flags.writeable = False
    keys = np.arange(-2, 4, dtype=np.int64)
    state = WalkState(group, keys, amps)
    op = {"diagonal": LocalUnitary.identity(group),
          "shared": LocalUnitary.uniform(group, np.eye(2)),
          "per position": LocalUnitary.batched(group, lambda n, k: np.broadcast_to(
              np.eye(2, dtype=complex), (len(k), 2, 2)))}[kind]
    block = op.block(0, keys)
    before = block.copy()
    assert not block.flags.writeable  # a memo block
    out = apply_block(state, block)
    # rows 1 and 2 hold only sub-threshold entries and -0.0: dropped; the
    # NaN row is kept, and an entry at the threshold survives
    assert out.positions.tolist() == [-2, 1, 2, 3]
    assert out.amps[0].tolist() == [1.0, 0.0]
    assert np.isnan(out.amps[1, 0])
    assert out.amps[2:].tolist() == [[0.0, PRUNE_TOL], [0.6, 0.8j]]
    # the caller's amps and the memo block are never written
    assert np.array_equal(block, before) and not block.flags.writeable
    assert amps.tolist()[0] == [1.0, tiny] and not amps.flags.writeable


def test_apply_block_keeps_every_row_when_nothing_is_small():
    group = LineGroup()
    state = WalkState(group, np.array([0, 3], dtype=np.int64),
                      np.array([[1.0, 2.0], [PRUNE_TOL, 1.0]], dtype=complex))
    out = apply_block(state, np.ones((2, 2), dtype=complex))
    assert out.positions is state.positions
    assert out.amps is not state.amps and out.amps.tobytes() == state.amps.tobytes()
    nan_row = apply_block(state, np.array([[1.0, 1.0], [np.nan, 1.0]], dtype=complex))
    assert nan_row.positions is state.positions and np.isnan(nan_row.amps[1, 0])
    empty = apply_block(WalkState.zero(group), np.ones((0, 2), dtype=complex))
    assert empty.n_positions == 0 and empty.amps.shape == (0, 2)


# -- block_product: a shared block as one real GEMM --------------------------------------


def _shared(matrix) -> np.ndarray:
    """`matrix` as a read-only shared block, as LocalUnitary.block hands one out."""
    block = np.array(matrix, dtype=complex)[None]
    block.flags.writeable = False
    return block


def _unit_rows(n: int, dim: int, rng) -> np.ndarray:
    amps = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [0, 1, 7, 200, 5000])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 10])
def test_a_shared_block_product_agrees_with_the_complex_product(dim, n, rng):
    block = _shared(random_unitary(dim, rng))
    amps = _unit_rows(n, dim, rng)
    got = block_product(block, amps)
    assert got.shape == (n, dim) and got.dtype == complex
    assert np.abs(got - amps @ block[0].T).max(initial=0.0) <= 1e-15
    # out= (each walk of a lockstep step) gives the bytes of a new product
    # (a one-walk step), and so does amps in another memory order
    out = np.empty_like(amps)
    assert block_product(block, amps, out) is out and out.tobytes() == got.tobytes()
    assert block_product(block, np.asfortranarray(amps)).tobytes() == got.tobytes()


def test_a_shared_block_keeps_a_nan_row_and_leaves_zero_rows_empty(rng):
    block = _shared(random_unitary(3, rng))
    amps = _unit_rows(6, 3, rng)
    amps[1, 2] = np.nan
    amps[2] = 0.0
    amps[3] = -0.0
    amps[4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    got = block_product(block, amps)
    assert np.isnan(got[1]).all()
    assert not np.abs(got[2:5]).any()
    out = apply_block(WalkState(LineGroup(), np.arange(6, dtype=np.int64), amps), block)
    assert out.positions.tolist() == [0, 1, 5] and np.isnan(out.amps[1]).all()


def test_a_diagonal_shared_block_gives_the_diagonal_products_bytes(rng):
    """The identity coin, a diagonal coin and the uniform C' of a diagonal
    coin (whose phases read 6.1e-17 + 1j) multiply elementwise."""
    group = CyclicGroup(8)
    keys = group.keys([0])
    diagonal = QuantumCoin.uniform(group, np.diag([1j, -1.0]))
    uprime = transform_coin(make_full_homog_symmetry(group, epsilon=1j), diagonal)
    amps = _unit_rows(200, 2, rng)
    amps[5, 1] = np.nan
    for coin in (identity_coin(group), diagonal, uprime):
        block = coin.block(0, keys)
        assert block.shape == (1, 2, 2) and real_form(block) is None
        rows = np.broadcast_to(np.diagonal(block[0]), amps.shape)
        assert block_product(block, amps).tobytes() == block_product(rows, amps).tobytes()


def test_a_shared_blocks_real_form_is_built_once(monkeypatch):
    """A relation check of a full_homog symmetry steps the coin and its
    uniform C' in lockstep: each block's real form is built on its first
    product and found again, by identity, on every later one."""
    group = LineGroup()
    coin = QuantumCoin.uniform(group, np.array([[1, 1j], [1j, 1]]) / np.sqrt(2))
    t = make_full_homog_symmetry(group, epsilon=np.exp(0.4j), uprime=[1, 1j])
    forms: dict = {}  # id(block) -> (block, [form per product])
    real_form = states.real_form

    def recorded(block):
        form = real_form(block)
        forms.setdefault(id(block), (block, []))[1].append(form)
        return form

    monkeypatch.setattr(states, "real_form", recorded)
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    assert check_symmetry_relation(coin, start, t, n_max=20).passed
    assert len(forms) == 2  # C and C'
    for _, built in forms.values():
        assert len(built) > 10 and all(form is built[0] for form in built)
    # a writable block may change between products: it is not kept
    block = np.array(coin.block(0, group.keys([0])))
    assert real_form(block) is not real_form(block)


def test_norm_is_numpys_norm_bit_for_bit(rng):
    group = LineGroup()
    amps = rng.normal(size=(301, 2)) + 1j * rng.normal(size=(301, 2))
    keys = np.arange(301, dtype=np.int64)
    for a in (amps, np.asfortranarray(amps), amps[::3], amps[:0], amps * 1e-160,
              np.where(amps.real > 2, np.nan, amps)):
        want = float(np.linalg.norm(a))
        got = WalkState(group, keys[:len(a)], a).norm()
        assert type(got) is float
        assert got == want or np.isnan(got) and np.isnan(want)


@pytest.mark.parametrize("group", [LineGroup(), LatticeGroup(2)], ids=["line", "z2"])
def test_table_lookup_hits_misses_and_default(group, rng):
    xs = group.random_elements(sampler(rng), 12)
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
    # a table's coin index is checked as any coin index is
    for c in (dim, -1):
        message = f"coin index {c} out of range [0, {dim})"
        with pytest.raises(EncodingError, match=re.escape(message)):
            lookup_rows(group, {(xs[0], c): 1.0}, default)
    with pytest.raises(EncodingError, match="coin index"):
        lookup_rows(group, {(xs[0], 0.5): 1.0}, default)
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
    lambda g: hadamard_coin(g),
], ids=["identity", "uniform", "scalar rule", "table", "coin"])
def test_local_unitary_blocks_are_read_only(make):
    group = LineGroup()
    op = make(group)
    assert isinstance(op, LocalUnitary)
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


# -- the scalar-rule adapter ---------------------------------------------------------

ADAPTER_GROUPS = pytest.mark.parametrize("group, xs", [
    (LineGroup(), [3, -2, 0, 7, -5]),
    (CyclicGroup(8), [0, 5, 2, 7]),
    (LatticeGroup(2), [(1, -2), (0, 0), (-5, 3), (2, 2)]),
], ids=["line", "cyclic8", "z2"])


def _weight(x) -> float:
    return sum((i + 1) * v for i, v in enumerate(x)) if isinstance(x, tuple) else x


@ADAPTER_GROUPS
def test_scalar_phase_rule_blocks_match_a_per_position_oracle(group, xs):
    dim, calls = group.coin_dim, []

    def rule(n, x, c):
        calls.append((x, c))
        return np.exp(1j * (0.3 * n + 0.7 * _weight(x) + 0.2 * c * _weight(x) + 0.1 * c))

    op = LocalUnitary(group, rule)
    block = op.block(4, group.keys(xs))
    # called once per (x, c), x-major and c-minor
    assert calls == [(x, c) for x in xs for c in range(dim)]
    oracle = np.array([[rule(4, x, c) for c in range(dim)] for x in xs], dtype=complex)
    assert np.array_equal(block, oracle)


@ADAPTER_GROUPS
def test_callable_delta_rows_match_a_per_position_oracle(group, xs):
    dim, calls = group.coin_dim, []

    def delta(x, c):
        calls.append((x, c))
        return np.exp(1j * (0.7 * _weight(x) + 0.4 * c))

    keys = group.keys(xs)
    rows = make_time_homog_symmetry(group, delta=delta).params["delta"](keys)
    # the memo evaluates a batch's new positions in key order
    ordered = group.elements_of(np.sort(keys))
    assert calls == [(x, c) for x in ordered for c in range(dim)]
    oracle = np.array([[delta(x, c) for c in range(dim)] for x in xs], dtype=complex)
    assert np.array_equal(rows, oracle)


@ADAPTER_GROUPS
def test_matrix_rule_blocks_match_a_per_position_oracle(group, xs):
    dim, calls = group.coin_dim, []
    # a real orthogonal matrix per (n, x), given as nested lists
    base = np.linalg.qr(np.arange(1.0, dim * dim + 1).reshape(dim, dim) ** 0.5)[0]

    def rule(n, x):
        calls.append((n, x))
        return (np.exp(0.1j * (n + _weight(x))) * base).tolist()

    block = LocalUnitary.from_rule(group, rule).block(3, group.keys(xs))
    assert calls == [(3, x) for x in xs]
    oracle = np.array([np.asarray(rule(3, x), dtype=complex) for x in xs])
    assert np.array_equal(block, oracle)


@pytest.mark.parametrize("make", [
    lambda g: LocalUnitary(g, lambda n, x, c: [1.0, 1.0]),
    lambda g: LocalUnitary(g, lambda n, x, c: [1.0] if x == 2 else 1.0),
    lambda g: LocalUnitary(g, lambda n, x, c: [1.0]),
    lambda g: LocalUnitary.from_rule(g, lambda n, x: np.eye(3)),
    lambda g: LocalUnitary.from_rule(g, lambda n, x: np.ones(4)),
    lambda g: make_time_homog_symmetry(g, delta=lambda x, c: (1.0, 1.0)).phases,
], ids=["pair", "ragged", "singleton", "3x3", "flat", "delta"])
def test_a_wrong_shaped_rule_value_is_rejected(make):
    group = LineGroup()
    with pytest.raises(NonUnitaryError, match="wrong shape"):
        make(group).block(1, group.keys([0, 2]))


def test_the_adapter_names_the_expected_shape():
    with pytest.raises(NonUnitaryError, match=re.escape("not (2, 2)")):
        elementwise(lambda x: np.eye(3), [0, 1], (2, 2))
    with pytest.raises(NonUnitaryError, match=re.escape("not ()")):
        elementwise(lambda x, c: [1, 2], [0, 1], coins=2)
    assert elementwise(lambda x, c: 1j, [], coins=2).shape == (0, 2)
    assert elementwise(lambda x: np.eye(2), [], (2, 2)).shape == (0, 2, 2)


# -- shift plans -------------------------------------------------------------------


def _fresh_plan(group, keys):
    return merge_keys(np.concatenate([group.shift_rows(keys, c) for c in range(group.coin_dim)]))


def _counted_shifts(group, monkeypatch) -> list:
    """Record the length of every shift_rows call the group makes."""
    calls = []
    shift_rows = type(group).shift_rows

    def counted(self, keys, gen_index):
        calls.append(len(keys))
        return shift_rows(self, keys, gen_index)

    monkeypatch.setattr(type(group), "shift_rows", counted)
    return calls


@pytest.mark.parametrize("group", [LineGroup(), CyclicGroup(8), CyclicGroup(8, generators=(1,)),
                                   LatticeGroup(2), LatticeGroup(2, period=6), HypercubeGroup(3)],
                         ids=repr)
def test_shift_plan_is_a_read_only_merge_of_the_shifted_keys(group, rng):
    keys = np.unique(group.keys(group.random_elements(sampler(rng), 8)))
    merged, inverse = shift_plan(group, keys)
    want_merged, want_inverse = _fresh_plan(group, keys)
    assert np.array_equal(merged, want_merged) and np.array_equal(inverse, want_inverse)
    for part in (merged, inverse):
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 0


def test_shift_plan_hits_for_an_equal_but_distinct_key_array(monkeypatch):
    group = LineGroup()
    calls = _counted_shifts(group, monkeypatch)
    keys = group.keys([-2, 0, 3])
    plan = shift_plan(group, keys)
    assert shift_plan(group, keys.copy()) is plan
    assert calls == [3, 3]
    # a read-only array that owns its data, such as a plan's own keys, is
    # kept by reference; a writable one is copied
    merged = plan[0]
    second = shift_plan(group, merged)
    assert [known is merged for known, _ in group.shift_plans] == [False, True]
    assert shift_plan(group, merged) is second and shift_plan(group, keys) is plan
    assert calls == [3, 3, 5, 5]
    # a third key set evicts the oldest plan
    shift_plan(group, group.keys([7]))
    assert shift_plan(group, keys) is not plan
    assert calls == [3, 3, 5, 5, 1, 1, 3, 3]


def test_shift_plan_is_not_stale_after_the_caller_mutates_its_keys():
    group = LineGroup()
    keys = group.keys([0, 1, 2])
    shift_plan(group, keys)
    keys[:] = group.keys([5, 7, 9])
    merged, _ = shift_plan(group, keys)
    assert np.array_equal(merged, _fresh_plan(group, keys)[0])
    assert group.elements_of(merged) == [4, 6, 8, 10]
    # a read-only view of a writable array can change under the memo too
    view = keys.view()
    view.flags.writeable = False
    keys[:] = group.keys([20, 30, 40])
    shift_plan(group, view)
    keys[:] = group.keys([50, 60, 70])
    assert group.elements_of(shift_plan(group, view)[0]) == [49, 51, 59, 61, 69, 71]


# -- scalar accessors ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1.5, 2.7, np.float64(1.0)], ids=["1.5", "2.7", "float64"])
def test_a_step_dependent_operator_rejects_a_float_step(n):
    coin = QuantumCoin.table(LineGroup(), [np.eye(2), pauli_x(), np.diag([1.0, -1.0])])
    calls = [lambda: coin.matrix_at(n), lambda: coin.block(n, coin.group.keys([0])),
             lambda: coin.component(0, n), lambda: coin.at(n, 0, 0)]
    for call in calls:
        with pytest.raises(SpecError, match="step must be an integer"):
            call()


def test_a_numpy_integer_step_reads_as_the_same_int():
    coin = QuantumCoin.table(LineGroup(), [np.eye(2), pauli_x(), np.diag([1.0, -1.0])])
    keys = coin.group.keys([0, 3])
    assert np.array_equal(coin.matrix_at(np.int64(4)), pauli_x())
    # the memo finds the int's block again
    assert coin.block(np.int64(2), keys) is coin.block(2, keys)


def _time_homogeneous_coin():
    """A declared time-homogeneous coin that varies with position."""
    group = CyclicGroup(8)
    return QuantumCoin.batched(group, lambda n, keys: np.exp(0.3j * keys)[:, None, None]
                               * hadamard_matrix(), time_homogeneous=True)


@pytest.mark.parametrize("make", [lambda: hadamard_coin(LineGroup()), _time_homogeneous_coin],
                         ids=["uniform", "time_homogeneous"])
def test_a_time_homogeneous_operator_rejects_a_float_step(make):
    """The flags map every step to 0, but only after the step is checked."""
    coin = make()
    keys = coin.group.keys([coin.group.identity])
    for n in (1.5, np.float64(2.0)):
        for call in (lambda: coin.matrix_at(n), lambda: coin.block(n, keys),
                     lambda: coin.component(coin.group.identity, n),
                     lambda: coin.at(n, coin.group.identity, 0)):
            with pytest.raises(SpecError, match="step must be an integer"):
                call()
    assert np.array_equal(coin.matrix_at(np.int64(3)), coin.matrix_at(0))
    assert coin.block(np.int64(3), keys) is coin.block(0, keys)


def test_at_rejects_a_coin_index_out_of_range():
    group = CyclicGroup(8)
    phases = make_time_homog_symmetry(group, delta={(0, 0): 1j, (0, 1): -1}).phases
    assert phases.at(0, 0, 1) == -1 and phases.at(0, 0, np.int64(0)) == 1j
    for c in (-1, 2):
        with pytest.raises(EncodingError, match=re.escape(f"coin index {c} out of range [0, 2)")):
            phases.at(0, 0, c)
