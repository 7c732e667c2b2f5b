"""Walk engine: coin, conditional shift, evolution."""

from __future__ import annotations

import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup,
                        LocalUnitary, NonUnitaryError, NumericDriftError, QuantumCoin, SpecError,
                        WalkInstance, WalkState, apply_coin, apply_shift, check_symmetry, evolve,
                        evolve_final, evolve_iter, grover_coin, hadamard_coin, identity_coin, step)
from cayleywalk import states, walk
from cayleywalk.linalg import hadamard_matrix, require_unit
from cayleywalk.states import PRUNE_TOL, block_product, merge_keys, nonzero_rows
from cayleywalk.walk import lockstep

from conftest import assemble_step_matrix, basis_labels, random_state, random_unitary
from test_acceptance import _draw_symmetry

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_hadamard_single_step_amplitudes():
    group = LineGroup()
    start = WalkState.localized(group, 0, [1.0, 0.0])
    out = step(hadamard_coin(group), start, 0)
    assert out.amplitude(1, 0) == pytest.approx(INV_SQRT2)
    assert out.amplitude(-1, 1) == pytest.approx(INV_SQRT2)
    assert out.support() == [-1, 1]


def test_hadamard_three_step_distribution():
    group = LineGroup()
    start = WalkState.localized(group, 0, [1.0, 0.0])
    final = evolve_final(WalkInstance(group, hadamard_coin(group), start), 3)
    dist = final.position_distribution()
    assert dist[1] == pytest.approx(0.625)
    assert dist[-1] == pytest.approx(0.125)
    assert dist[3] == pytest.approx(0.125)
    assert dist[-3] == pytest.approx(0.125)


def test_identity_coin_is_ballistic():
    group = LineGroup()
    start = WalkState.localized(group, 0, [1.0, 0.0])
    final = evolve_final(WalkInstance(group, identity_coin(group), start), 25)
    assert final.support() == [25]
    assert final.amplitude(25, 0) == pytest.approx(1.0)


def test_shift_is_a_permutation(rng):
    group = CyclicGroup(8)
    state = random_state(group, rng)
    shifted = apply_shift(state)
    assert shifted.norm() == pytest.approx(state.norm())
    # the walk steps forward only; on a finite group T^dagger is T.T
    def dense(st):
        return np.array([st.amplitude(x, c) for x, c in basis_labels(group)])
    step_matrix = assemble_step_matrix(group)
    assert np.array_equal(step_matrix @ dense(state), dense(shifted))
    assert np.array_equal(step_matrix.T @ dense(shifted), dense(state))


def test_shift_moves_each_chirality():
    group = LineGroup()
    state = WalkState.from_terms(group, [(0, 0, 0.6), (0, 1, 0.8)])
    out = apply_shift(state)
    assert out.amplitude(1, 0) == pytest.approx(0.6)
    assert out.amplitude(-1, 1) == pytest.approx(0.8)


def _memo_free_shift(state: WalkState) -> WalkState:
    """apply_shift with its shifted keys merged afresh on every call."""
    group, dim, npos = state.group, state.group.coin_dim, state.n_positions
    keys, inverse = merge_keys(np.concatenate(
        [group.shift_rows(state.positions, c) for c in range(dim)]))
    amps = np.zeros((keys.shape[0], dim), dtype=complex)
    for c in range(dim):
        amps[inverse[c * npos:(c + 1) * npos], c] = state.amps[:, c]
    keep = nonzero_rows(amps)
    return WalkState(group, np.compress(keep, keys), np.compress(keep, amps, axis=0))


@pytest.mark.parametrize("group, steps", [(LineGroup(), 60), (LatticeGroup(2), 12),
                                          (HypercubeGroup(4), 12), (CyclicGroup(6), 12)],
                         ids=["line", "lattice2", "hypercube4", "cyclic6"])
def test_histories_match_a_memo_free_shift(group, steps, rng):
    # supports repeat on the finite groups, and on the line once its edge
    # amplitudes are pruned, so some plans are served again
    coin = QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))
    start = random_state(group, rng, count=2)
    history = evolve(WalkInstance(group, coin, start), steps)
    state = start
    for n, got in enumerate(history):
        assert np.array_equal(got.positions, state.positions)
        assert np.array_equal(got.amps, state.amps)
        state = _memo_free_shift(apply_coin(coin, state, n))


# -- the step kernel against a plain reference ---------------------------------------


def _reference_apply(block, positions, amps, pruned: set):
    """A block applied as the kernel multiplies (the products are not under
    test), then the plain prune: every entry below PRUNE_TOL in magnitude
    zeroed with np.where and the rows left with none dropped. A NaN is not
    below it, so its row stays. `pruned` records whether there was
    anything to prune."""
    amps = block_product(block, amps)
    small = np.abs(amps) < PRUNE_TOL
    pruned.add(bool(small.any()))
    keep = ~small.all(axis=1)
    return positions[keep], np.where(small, 0.0, amps)[keep]


def _reference_shift(group, positions, amps):
    """|x, c> -> |x s_c, c>: the shifted keys merged by np.unique, one
    scatter per coin, and the rows left all zero (-0.0 included) dropped."""
    dim, npos = group.coin_dim, len(positions)
    keys, inverse = np.unique(np.concatenate(
        [group.shift_rows(positions, c) for c in range(dim)]), return_inverse=True)
    out = np.zeros((len(keys), dim), dtype=complex)
    for c in range(dim):
        out[inverse[c * npos:(c + 1) * npos], c] = amps[:, c]
    keep = (out != 0).any(axis=1)
    return keys[keep], out[keep]


def _planted_states(group, rng):
    """A state with nothing to prune, and the same state holding a
    sub-threshold entry, exact zeros, -0.0, an all-small row and a NaN row."""
    gens = group.generators
    xs = [group.identity, *gens, *(group.mul(a, b) for a in gens for b in gens)]
    if len(gens) == 1:
        # one generator reaches three elements in two hops; the planted rows
        # (all of them empty with one coin) need a few more beside them
        xs += [group.pow_c0(k) for k in range(3, 8)]
    positions = np.unique(group.keys(xs))
    shape = (len(positions), group.coin_dim)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    planted = amps.copy()
    tiny = 0.5 * PRUNE_TOL
    planted[0, 0] = 1j * tiny
    planted[1] = tiny
    planted[1, 0] = -0.0
    planted[2, -1] = 0.0
    planted[3, 0] = complex(-0.0, -0.0)
    planted[4, min(1, shape[1] - 1)] = np.nan
    return [WalkState(group, positions, a) for a in (amps, planted)]


def _kernel_operators(cls, group, rng):
    """Diagonal phases and a matrix per position, each a function of (step,
    key), and one shared matrix."""
    dim = group.coin_dim
    return [
        cls.batched(group, lambda n, keys: np.exp(1j * (0.7 * n + 0.3 * (keys[:, None] % 11)
                                                        + np.arange(dim)))),
        cls.uniform(group, random_unitary(dim, rng)),
        cls.batched(group, lambda n, keys: np.array([random_unitary(
            dim, np.random.default_rng([n, int(k) & 0xFFFFFF])) for k in keys])),
    ]


def _assert_bytes(state, positions, amps):
    assert state.positions.dtype == positions.dtype and state.amps.shape == amps.shape
    assert state.positions.tobytes() == positions.tobytes()
    assert state.amps.tobytes() == amps.tobytes()


@pytest.mark.parametrize("group", [LineGroup(), CyclicGroup(8), HypercubeGroup(4),
                                   LatticeGroup(2, period=6), LatticeGroup(2)],
                         ids=["line", "cyclic8", "hypercube4", "torus6", "z2"])
def test_step_and_local_apply_match_a_plain_reference_to_the_byte(group, rng):
    pruned = set()
    for state in _planted_states(group, rng):
        for op in _kernel_operators(LocalUnitary, group, rng):
            for n in (0, 3):
                _assert_bytes(op.apply(state, n), *_reference_apply(
                    op.block(n, state.positions), state.positions, state.amps, pruned))
        for coin in _kernel_operators(QuantumCoin, group, rng):
            got, positions, amps = state, state.positions, state.amps
            for n in range(6):
                got = step(coin, got, n)
                positions, amps = _reference_shift(group, *_reference_apply(
                    coin.block(n, positions), positions, amps, pruned))
                _assert_bytes(got, positions, amps)
    # both branches of the prune ran: with entries to zero and without
    assert pruned == {True, False}


# groups with a single infinite axis: a one-walk step on them takes the window
# path while the support is compact (see walk)
LINE_LIKE = [LineGroup(), LineGroup((1,)), LineGroup((-1,)), LatticeGroup(1)]
LINE_LIKE_IDS = ["line", "line_plus", "line_minus", "z1"]


@pytest.mark.parametrize("group", LINE_LIKE + [CyclicGroup(8), HypercubeGroup(4),
                                               LatticeGroup(2, period=6), LatticeGroup(2)],
                         ids=LINE_LIKE_IDS + ["cyclic8", "hypercube4", "torus6", "z2"])
def test_evolve_histories_match_a_plain_reference_to_the_byte(group, rng):
    """Whole histories of the one-walk lockstep (evolve), from the planted
    states with their NaN row zeroed, step for step as the plain reference
    steps them: on the window path (the line-like groups) and the plan
    path (the others)."""
    pruned = set()
    for state in _planted_states(group, rng):
        start = WalkState(group, state.positions, np.nan_to_num(state.amps)).normalized()
        for coin in _kernel_operators(QuantumCoin, group, rng):
            positions, amps = start.positions, start.amps
            for n, got in enumerate(evolve(WalkInstance(group, coin, start), 8)):
                _assert_bytes(got, positions, amps)
                positions, amps = _reference_shift(group, *_reference_apply(
                    coin.block(n, positions), positions, amps, pruned))
    assert pruned == {True, False}


@pytest.mark.parametrize("group, walks", [
    (LineGroup(), 1), (CyclicGroup(8), 1), (HypercubeGroup(4), 1), (LatticeGroup(2), 1),
    (LineGroup(), 2), (LatticeGroup(2), 2)],
    ids=["line", "cyclic8", "hypercube4", "z2", "lockstep_line", "lockstep_z2"])
def test_a_coin_product_keeps_its_rows_and_the_shift_drops_them(group, walks, rng):
    """One rule on every path (the line's window path, the plan path of
    finite groups and Z^2, lockstep states): the coin keeps the state's
    rows, an all-small row among them, emptied by the prune; the shift
    drops every empty row, and gives the state that shifting only the
    nonempty rows gives."""
    planted = _planted_states(group, rng)[1]
    positions = planted.positions
    # row 1 of the planted state is all small, and so is its coin product
    assert (np.abs(planted.amps[1]) < PRUNE_TOL).all()
    amps = planted.amps if walks == 1 else np.stack([planted.amps, 1j * planted.amps])
    state = WalkState(group, positions, amps)
    for coin in _kernel_operators(QuantumCoin, group, rng):
        coined = apply_coin(coin if walks == 1 else [coin] * walks, state, 3)
        assert coined.positions is positions
        assert not np.count_nonzero(coined.amps[..., 1, :])
        keep = nonzero_rows(coined.amps)
        assert not keep[1]
        shifted = apply_shift(coined)
        assert nonzero_rows(shifted.amps).all()
        want = apply_shift(WalkState(group, positions.compress(keep),
                                     coined.amps.compress(keep, axis=-2)))
        _assert_bytes(shifted, want.positions, want.amps)


def _counted_merges(monkeypatch) -> list:
    """The lengths of the key arrays merged from now on: by shift plans and
    every other caller of merge_keys."""
    merges, merge_keys = [], states.merge_keys

    def counted(keys):
        merges.append(len(keys))
        return merge_keys(keys)

    monkeypatch.setattr(states, "merge_keys", counted)
    monkeypatch.setattr(walk, "merge_keys", counted)
    return merges


def test_a_two_packet_line_history_crosses_from_the_plan_to_the_window_path(rng, monkeypatch):
    """Two packets 60 apart are too sparse for the window: 62 slots for the
    shifted keys of 2 rows, not fewer than COMPACT_SPAN * 2 * 2 = 16. After
    n steps they hold 2(n + 1) rows over 60 + 2n slots, so steps 0-3 merge
    by shift plans and steps 4-11 take the window, to the same bytes."""
    group = LineGroup()
    merges = _counted_merges(monkeypatch)
    start = WalkState.from_terms(group, [(0, 0, 0.6), (60, 1, 0.8j)])
    coin = QuantumCoin.uniform(group, random_unitary(2, rng))
    history = evolve(WalkInstance(group, coin, start), 12)
    assert merges == [4, 8, 12, 16]
    positions, amps = start.positions, start.amps
    for n, got in enumerate(history):
        _assert_bytes(got, positions, amps)
        positions, amps = _reference_shift(group, *_reference_apply(
            coin.block(n, positions), positions, amps, set()))


@pytest.mark.parametrize("group", LINE_LIKE, ids=LINE_LIKE_IDS)
def test_a_one_walk_line_evolution_from_a_compact_start_merges_no_keys(group, rng,
                                                                       monkeypatch):
    """A path guard: each step of a one-walk line evolution takes the window,
    which needs no shift plan; a lockstep state still takes the plan."""
    merges = _counted_merges(monkeypatch)
    start = WalkState.from_terms(group, [(group.pow_c0(k), c, rng.normal() + 1j)
                                         for k in range(3) for c in range(group.coin_dim)])
    coin = QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))
    final = evolve_final(WalkInstance(group, coin, start.normalized()), 60)
    assert merges == []
    assert final.n_positions > 2
    apply_shift(WalkState(group, final.positions, final.amps[None]))
    assert merges == [group.coin_dim * final.n_positions]


def _equally_spaced(keys) -> bool:
    return len(set(np.diff(keys).tolist())) <= 1


@pytest.mark.parametrize("sites", [(0,), (0, 1), (0, 3)], ids=["one", "adjacent", "gap3"])
@pytest.mark.parametrize("group", LINE_LIKE[:1] + [LineGroup((-1, 1))] + LINE_LIKE[1:],
                         ids=LINE_LIKE_IDS[:1] + ["line_minus_plus"] + LINE_LIKE_IDS[1:])
def test_line_histories_view_equally_spaced_keys_to_the_byte(group, sites, rng):
    """On the window path a state's keys, when equally spaced (one parity
    class from one site of the two-sided line, every site from two
    adjacent ones), are a read-only view of a key range, and
    otherwise (sites 0 and 3 on the two-sided line) an array of their own;
    either way the history is the plain reference's to the byte."""
    start = WalkState.from_terms(group, [(group.pow_c0(k), c, rng.normal() + 1j)
                                         for k in sites for c in range(group.coin_dim)])
    coin = QuantumCoin.uniform(group, random_unitary(group.coin_dim, rng))
    history = evolve(WalkInstance(group, coin, start.normalized()), 40)
    positions, amps = history[0].positions, history[0].amps
    shared = set()
    for n, got in enumerate(history):
        _assert_bytes(got, positions, amps)
        if n:
            view = not got.positions.flags.writeable
            assert view == _equally_spaced(got.positions)
            assert view == (got.positions.base is not None)
            shared.add(view)
        positions, amps = _reference_shift(group, *_reference_apply(
            coin.block(n, positions), positions, amps, set()))
    # the packets from sites 0 and 3 differ in parity, and each keeps stride
    # 2 at its outer edge on the two-sided line; one generator translates
    # the two sites, which stay equally spaced (stride 3)
    assert shared == {sites != (0, 3) or group.coin_dim == 1}
    if True in shared:
        with pytest.raises(ValueError, match="read-only"):
            history[-1].positions[0] = 0


def test_line_walks_stepped_in_turn_on_one_group_keep_their_own_key_ranges(rng):
    """Walks far apart, stepped in turn on one group and kept whole, each
    view the few key ranges of their own history (rebuilt as the walk
    outgrows them), not a range per step, and end as a walk alone does."""
    coin = random_unitary(2, rng)
    group = LineGroup()
    starts = (0, 10 ** 6)
    walks = [evolve_iter(WalkInstance(group, QuantumCoin.uniform(group, coin),
                                      WalkState.localized(group, x, [0.6, 0.8j])), 60)
             for x in starts]
    histories = zip(*zip(*walks))  # one step of each in turn
    for x, history in zip(starts, histories):
        assert len({id(state.positions.base) for state in history[1:]}) <= 6
        alone = LineGroup()
        want = evolve_final(WalkInstance(alone, QuantumCoin.uniform(alone, coin),
                                         WalkState.localized(alone, x, [0.6, 0.8j])), 60)
        _assert_bytes(history[-1], want.positions, want.amps)


def test_a_window_with_an_empty_interior_row_keeps_keys_of_its_own():
    """Kept rows with a gap are not equally spaced, whether the gap breaks
    the span (1, 2, 4, 5) or only the spacing (0, 2, 3, 6): their keys are
    a new array; without the gap they are a view. The keys shifted view an
    array of the caller's, no key range, so their rows scatter by index."""
    group = LineGroup()

    def shifted(keys, empty=()):
        amps = np.zeros((len(keys), 2), dtype=complex)
        amps[:, 0] = 1  # coin 0 moves each row by +1
        amps[list(empty)] = 0
        keys = np.array([-10, *keys], dtype=np.int64)[1:]
        return apply_shift(WalkState(group, keys, amps))

    full = shifted(range(5))
    assert full.positions.tolist() == [1, 2, 3, 4, 5] and not full.positions.flags.writeable
    for got, want in ((shifted(range(5), [2]), [1, 2, 4, 5]),
                      (shifted([-1, 1, 2, 5]), [0, 2, 3, 6])):
        assert got.positions.tolist() == want
        assert got.positions.flags.writeable and got.positions.base is None


def _hadamard_line_history(steps: int):
    group = LineGroup()
    start = WalkState.localized(group, 0, [1, 0])
    return group, evolve(WalkInstance(group, hadamard_coin(group), start), steps)


def test_a_long_line_history_holds_little_more_than_its_amplitudes():
    """A memory guard: a 2000-step Hadamard line history keeps one parity
    class per state, whose keys view a few ranges, so it holds its amplitudes
    and at most 2 MB more (with a key array per state, about 12 MB more)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, history = _hadamard_line_history(2000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= sum(state.amps.nbytes for state in history) + 2 * 2 ** 20


def test_a_line_group_keeps_one_window_and_no_key_range():
    """What a group keeps after a long history (see CayleyGroup): one
    window buffer, at most three times the last window (the span of the
    last step's shifted keys), and no key range: the ranges, each also at
    most three times the last window, live while states view them."""
    group, history = _hadamard_line_history(2000)
    keys = history[-2].positions
    window = int(keys[-1]) - int(keys[0]) + 3
    assert len(group.shift_windows) == 1
    assert group.shift_windows[0].shape[0] <= 3 * window
    ranges = list(group.shift_ranges.values())
    assert history[-1].positions.base is max(ranges, key=len)
    assert max(map(len, ranges)) <= 3 * window and len(ranges) <= 16
    del history, keys, ranges
    assert len(group.shift_ranges) == 0


def test_a_state_viewing_a_key_range_pickles_with_its_group():
    """A group refers to its key ranges weakly, and weak references do not
    pickle: a pickled state takes its keys' values along, its group none of
    the ranges, and it steps on as the original does."""
    group, history = _hadamard_line_history(20)
    copy = pickle.loads(pickle.dumps(history[-1]))
    _assert_bytes(copy, history[-1].positions, history[-1].amps)
    assert copy.group == group and len(copy.group.shift_ranges) == 0
    want = evolve_final(WalkInstance(group, hadamard_coin(group), history[-1]), 5)
    got = evolve_final(WalkInstance(copy.group, hadamard_coin(copy.group), copy), 5)
    _assert_bytes(got, want.positions, want.amps)


@pytest.mark.parametrize("group, steps, want", [(CyclicGroup(8), 12, 5),
                                                (HypercubeGroup(4), 12, 7),
                                                (LatticeGroup(2), 12, 12)],
                         ids=["cyclic8", "hypercube4", "z2"])
def test_other_one_walk_evolutions_merge_by_shift_plans(group, steps, want, monkeypatch):
    """Finite groups and Z^d keep the plan path, merging as often as before
    the window path: once per new support (a finite group's supports come
    back, and the plan memo finds them), each step's on Z^2."""
    merges = _counted_merges(monkeypatch)
    coin = hadamard_coin(group) if group.coin_dim == 2 else grover_coin(group)
    psi0 = [0.6, 0.8j] + [0] * (group.coin_dim - 2)
    evolve(WalkInstance(group, coin, WalkState.localized(group, group.identity, psi0)), steps)
    assert len(merges) == want


def test_lockstep_line_walks_merge_once_per_step(rng, monkeypatch):
    """Walks stepped in lockstep keep the plan path on the line too (a
    relation check's transformed coin shifts its phases by the same plan)."""
    group = LineGroup()
    merges = _counted_merges(monkeypatch)
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    coins = (hadamard_coin(group), QuantumCoin.uniform(group, random_unitary(2, rng)))
    history = list(lockstep([WalkInstance(group, coin, start) for coin in coins], 20))
    assert len(history) == 21
    assert merges == [2 * (n + 1) for n in range(20)]


def test_threads_stepping_on_one_group_do_not_share_a_window(rng):
    """A stress test: line walks on one group, evolved by more threads than
    cores and switched often, each end as it does alone."""
    group = LineGroup()
    coin = QuantumCoin.uniform(group, random_unitary(2, rng))
    instances = [WalkInstance(group, coin, WalkState.localized(group, 3 * k, psi0))
                 for k, psi0 in enumerate(([1, 0], [0, 1], [0.6, 0.8j], [0.8, -0.6j]) * 2)]
    want = [evolve_final(instance, 150) for instance in instances]
    got = [None] * len(instances)

    def run(k):
        got[k] = evolve_final(instances[k], 150)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(instances))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for a, b in zip(got, want):
        _assert_bytes(a, b.positions, b.amps)


def test_a_lockstep_step_evaluates_every_block_before_any_product(monkeypatch):
    """A complex matmul slows the scalar math of a Python rule run right
    after it (see walk.apply_coin), so a lockstep step evaluates each walk's
    coin block before it multiplies any."""
    group = LineGroup()
    events = []
    block_product = walk.block_product

    def recorded_product(block, amps, out=None):
        events.append("product")
        return block_product(block, amps, out)

    def blocks(n, keys):
        events.append("block")
        return hadamard_matrix()[None]

    monkeypatch.setattr(walk, "block_product", recorded_product)
    start = WalkState.localized(group, 0, [0.6, 0.8j])
    coins = [QuantumCoin.batched(group, blocks) for _ in range(2)]
    steps = lockstep([WalkInstance(group, coin, start) for coin in coins], 6)
    next(steps)
    for _ in steps:
        last_block = max(i for i, event in enumerate(events) if event == "block")
        assert events.count("product") == 2 and events.index("product") > last_block, events
        events.clear()


def test_a_transformed_walk_that_drifts_alone_aborts_at_its_step():
    """In a relation check only the claimed transformed walk goes wrong: its
    coin turns NaN at step 3, so its norm fails after step 4, as the same
    walk's does alone."""
    group = LineGroup()
    nan_coin = QuantumCoin._built(
        group, lambda n, keys: np.eye(2)[None] * (np.nan if n == 3 else 1))
    psi0 = WalkState.localized(group, 0, [0.6, 0.8j])
    with pytest.raises(NumericDriftError, match="^norm drifted by nan after step 4$"):
        evolve(WalkInstance(group, nan_coin, psi0), 8)
    t = _draw_symmetry("general", group, np.random.default_rng(2))
    with pytest.raises(NumericDriftError, match="^norm of walk 1 drifted by nan after step 4$"):
        check_symmetry(hadamard_coin(group), psi0, t, 8, transformed=(nan_coin, psi0))


def test_a_lockstep_step_takes_one_coin_per_walk(rng):
    group = CyclicGroup(8)
    a, b = random_state(group, rng), random_state(group, rng)
    both = WalkState(group, a.positions, np.stack([a.amps, a.amps]))
    coins = (hadamard_coin(group), QuantumCoin.uniform(group, random_unitary(2, rng)))
    stepped = step(coins, both, 3)
    for walk, coin in zip(stepped.amps, coins):
        alone = step(coin, a, 3)
        assert np.array_equal(stepped.positions, alone.positions)
        assert walk.tobytes() == alone.amps.tobytes()
    for wrong in (coins[0], coins + coins[:1]):
        with pytest.raises(SpecError, match="one coin per walk"):
            step(wrong, both, 3)
    with pytest.raises(SpecError, match="one coin per walk"):
        step(coins, b, 3)


def test_evolution_history_and_norms(rng):
    group = HypercubeGroup(3)
    start = random_state(group, rng)
    history = evolve(WalkInstance(group, grover_coin(group), start), 10)
    assert len(history) == 11
    for state in history:
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_evolve_iter_draws_each_step_on_demand(rng):
    group = LineGroup()
    steps_taken = []

    def blocks(n, keys):
        steps_taken.append(n)
        return hadamard_coin(group).block(n, keys)

    coin = QuantumCoin.batched(group, blocks)
    start = random_state(group, rng)
    instance = WalkInstance(group, coin, start)
    states = evolve_iter(instance, 1000)
    assert steps_taken == []
    first = [next(states) for _ in range(3)]
    assert steps_taken == [0, 1]
    history = evolve(instance, 6)
    for a, b in zip(first, history):
        assert (a - b).norm() == 0.0
    assert (evolve_final(instance, 6) - history[-1]).norm() == 0.0
    with pytest.raises(SpecError):
        next(evolve_iter(instance, -1))


def test_cyclic_wraparound():
    group = CyclicGroup(4)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    final = evolve_final(WalkInstance(group, identity_coin(group), start), 6)
    assert final.support() == [2]


@pytest.mark.parametrize("cls", [QuantumCoin, LocalUnitary], ids=["coin", "local unitary"])
def test_coin_probe_rejects_false_flags(cls):
    group = LineGroup()
    with pytest.raises(SpecError):
        cls.from_rule(
            group, lambda n, x: np.eye(2) * (1 if n == 0 else 1j),
            time_homogeneous=True, space_homogeneous=True)
    with pytest.raises(SpecError):
        cls.from_rule(
            group, lambda n, x: np.diag([1, 1j ** (x % 4)]).astype(complex),
            time_homogeneous=True, space_homogeneous=True)
    with pytest.raises(SpecError, match="time-homogeneous"):
        cls.from_rule(group, lambda n, x: np.eye(2) * (1 if n == 0 else 1j),
                      time_homogeneous=True)
    # diagonal blocks are probed as the matrices they stand for
    with pytest.raises(SpecError, match="space-homogeneous"):
        cls.batched(group, lambda n, keys: np.exp(1j * group.unpack(keys)) * [1, 1],
                    space_homogeneous=True)
    cls.batched(group, lambda n, keys: np.full((len(keys), 2), 1j), time_homogeneous=True,
                space_homogeneous=True)


def test_a_position_dependent_batched_coin_cannot_claim_space_homogeneity():
    """A user's declared flags are always probed: no argument skips the
    probe, and a stale positional third argument cannot bind to a flag."""
    group = LineGroup()

    def blocks(n, keys):  # e^{0.3 i x} I, so matrix_at(0, 5) is e^{1.5 i} I
        return np.exp(0.3j * keys)[:, None, None] * np.eye(2)

    with pytest.raises(SpecError, match="space-homogeneous"):
        QuantumCoin.batched(group, blocks, time_homogeneous=True, space_homogeneous=True)
    with pytest.raises(TypeError):
        QuantumCoin.batched(group, blocks, False, True, True)
    with pytest.raises(TypeError):
        QuantumCoin.batched(group, blocks, validate=False, space_homogeneous=True)
    coin = QuantumCoin.batched(group, blocks, time_homogeneous=True)
    assert np.allclose(coin.matrix_at(0, 5), np.exp(1.5j) * np.eye(2))


def test_uniform_coin_block_is_found_by_identity(monkeypatch):
    group = LineGroup()
    coin = hadamard_coin(group)
    first = coin.block(0, group.keys([0]))

    def compared(*args, **kwargs):
        raise AssertionError("the memo compared key arrays")

    monkeypatch.setattr(np, "array_equal", compared)
    for n, xs in ((0, [0]), (0, [3]), (1, [-1, 1]), (7, [-3, 0, 5]), (2, [])):
        keys = group.keys(xs) if xs else np.empty(0, dtype=np.int64)
        assert coin.block(n, keys) is first


def test_coin_rejects_non_unitary_matrix():
    group = LineGroup()
    with pytest.raises(SpecError):
        QuantumCoin.uniform(group, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_table_coin_schedule():
    group = LineGroup()
    mats = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]
    coin = QuantumCoin.table(group, mats)
    assert np.allclose(coin.matrix_at(0), mats[0])
    assert np.allclose(coin.matrix_at(1), mats[1])
    assert np.allclose(coin.matrix_at(7), mats[1])


def test_norm_drift_is_detected():
    group = LineGroup()
    bad = QuantumCoin._built(group, lambda n, keys: np.eye(2)[None] * 1.01,
                             time_homogeneous=True, space_homogeneous=True)
    start = WalkState.localized(group, 0, [1.0, 0.0])
    with pytest.raises(NumericDriftError):
        evolve(WalkInstance(group, bad, start), 5)


def test_apply_coin_positionwise(rng):
    group = LineGroup()
    state = random_state(group, rng)
    mat = random_unitary(2, rng)
    coin = QuantumCoin.uniform(group, mat)
    out = apply_coin(coin, state, 0)
    for x in state.support():
        expect = mat @ np.array([state.amplitude(x, 0), state.amplitude(x, 1)])
        assert out.amplitude(x, 0) == pytest.approx(expect[0])
        assert out.amplitude(x, 1) == pytest.approx(expect[1])


def test_instance_requires_normalized_start():
    group = LineGroup()
    with pytest.raises(SpecError):
        WalkInstance(group, hadamard_coin(group),
                     WalkState.from_terms(group, [(0, 0, 2.0)]))


def test_nan_start_state_is_invalid_input():
    group = LineGroup()
    nan_state = WalkState.localized(group, 0, [np.nan, 0.0])
    with pytest.raises(SpecError):
        nan_state.normalized()
    with pytest.raises(SpecError):
        WalkInstance(group, hadamard_coin(group), nan_state)


def test_walk_spreads_linearly():
    group = LineGroup()
    start = WalkState.localized(group, 0, [INV_SQRT2, 1j * INV_SQRT2])
    final = evolve_final(WalkInstance(group, hadamard_coin(group), start), 40)
    support = final.support()
    assert min(support) == -40
    assert max(support) == 40


def test_probe_catches_coin_varying_along_another_generator():
    # the coin flips sign with coordinate 1, which e, c0 and c0*c0 never reach
    cube = HypercubeGroup(3)
    with pytest.raises(SpecError):
        QuantumCoin.from_rule(cube, lambda n, x: np.diag([1, (-1) ** x[1], 1]).astype(complex),
                              space_homogeneous=True)
    plane = LatticeGroup(2)
    with pytest.raises(SpecError):
        QuantumCoin.from_rule(plane,
                              lambda n, x: np.diag([1, 1, 1, (-1) ** x[1]]).astype(complex),
                              space_homogeneous=True)
    # an honest declaration is still accepted
    QuantumCoin.from_rule(plane, lambda n, x: np.diag([1, 1, 1, (-1) ** n]).astype(complex),
                          space_homogeneous=True)


def test_probe_catches_coin_varying_at_a_later_step():
    group = LineGroup()
    with pytest.raises(SpecError):
        QuantumCoin.from_rule(group, lambda n, x: np.eye(2) * (1j if n >= 5 else 1),
                              time_homogeneous=True)


def test_nan_coin_is_rejected():
    group = LineGroup()
    with pytest.raises(NonUnitaryError):
        QuantumCoin.uniform(group, np.full((2, 2), np.nan))
    with pytest.raises(NonUnitaryError):
        require_unit(float("nan"))


def test_nan_amplitude_aborts_evolution():
    group = LineGroup()
    coin = QuantumCoin._built(group, lambda n, keys: np.eye(2)[None] * (np.nan if n == 3 else 1))
    start = WalkState.localized(group, 0, [1.0, 0.0])
    with pytest.raises(NumericDriftError):
        evolve(WalkInstance(group, coin, start), 5)
