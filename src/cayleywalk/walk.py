"""Conditional-shift walk dynamics: coins, steps, and evolution histories.

One step applies the current coin (a local operation) and then the
conditional shift T sending |x, c> to |x s_c, c>. Coins may depend on the
time step and the position. A coin is a states.LocalUnitary, whose declared
homogeneity flags unlock one shared block (see states.LocalUnitary).
One stepper, `lockstep`, steps one walk (`evolve_iter`) or several on one
shared support (a relation check's original and transformed walks). A coin
product keeps the state's rows, a row left empty included, and the shift
drops the empty rows, on either path below.

A step shifts forward only, by one of two paths, chosen from the state. A
one-walk state on a group with a single infinite axis (the line in any
generator form, Z^1) takes the window path while its shifted keys fit fewer
than COMPACT_SPAN slots per shifted key (merge_keys' rule for compact
keys): the shift scatters each coin column at its shifted keys' offsets
into a zeroed window over their range, [first - 1, last + 1] on the
two-sided line, and keeps the rows that `nonzero_rows` marks, without a
shift plan (their keys, when equally spaced, a view of a key range: see
_kept_keys). Every other state (lockstep states, finite groups, Z^d, sparse
line supports) takes the plan path: the shift merges the shifted keys by the
group's memoized shift plan, which a lockstep step also reuses for its
transformed coin's shifted phases.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import NumericDriftError, SpecError
from .groups import CayleyGroup, _integer
from .linalg import as_complex_matrix, hadamard_matrix, grover_matrix, require_unitary, rotation_matrix
from .states import (COMPACT_SPAN, LocalUnitary, WalkState, block_product, merge_keys,
                     nonzero_rows, norm_of, prune, same_keys, shift_plan)

# Norm drift beyond this aborts an evolution as numerically unsound.
DRIFT_TOL = 1e-8


class QuantumCoin(LocalUnitary):
    """Time- and position-dependent coin: the local unitary applied before
    each shift, whose errors call it a coin. It is built as any
    LocalUnitary is, by `uniform`, `from_rule` or `batched`, whose
    `blocks(n, keys)` gives its block at step n over a batch of position
    keys: (1, dim, dim) when shared, (N, dim, dim) per position (see
    states.block_product)."""

    __slots__ = ()

    LABEL = "coin"

    @classmethod
    def table(cls, group: CayleyGroup, matrices) -> "QuantumCoin":
        """Space-homogeneous coin cycling through a finite list over time."""
        mats = np.array([as_complex_matrix(m, group.coin_dim) for m in matrices])
        require_unitary(mats, what="coin matrix")
        period = len(mats)
        return cls._built(group, lambda n, keys: mats[n % period][None], period == 1, True)

    def matrix_at(self, n: int, x=None) -> np.ndarray:
        """Coin matrix at step n, position x (identity if omitted)."""
        return self.component(self.group.identity if x is None else x, n)


def _built_in(group: CayleyGroup, matrix: np.ndarray) -> QuantumCoin:
    """The uniform coin of a matrix that is unitary by construction."""
    return QuantumCoin._built(group, lambda n, keys: matrix[None], True, True)


def hadamard_coin(group: CayleyGroup) -> QuantumCoin:
    if group.coin_dim != 2:
        raise SpecError("the Hadamard coin needs a two-generator group")
    return _built_in(group, hadamard_matrix())


def grover_coin(group: CayleyGroup) -> QuantumCoin:
    return _built_in(group, grover_matrix(group.coin_dim))


def identity_coin(group: CayleyGroup) -> QuantumCoin:
    return _built_in(group, np.eye(group.coin_dim, dtype=complex))


def rotation_coin(group: CayleyGroup, angle: float) -> QuantumCoin:
    if group.coin_dim != 2:
        raise SpecError("rotation coins need a two-generator group")
    return _built_in(group, rotation_matrix(angle))


def apply_shift(state: WalkState) -> WalkState:
    """Conditional shift: |x, c> -> |x s_c, c>, of each walk of a lockstep
    state, and the rows left empty dropped, by the window path or the plan
    path (see the module docstring). The window is a buffer that the group
    keeps and that is zeroed again after each use: a fresh window per step
    leaves a long history more heap holes."""
    group, amps, keys = state.group, state.amps, state.positions
    npos = keys.shape[0]
    # the generators of a single infinite axis are +1 and -1, so its shifted
    # keys lie in [first - 1, last + 1]
    if not (group.moduli == (0,) and amps.ndim == 2 and npos > 0
            and int(keys[-1]) - int(keys[0]) + 2 < COMPACT_SPAN * npos * group.coin_dim):
        return _plan_shift(state)
    shifted = [group.shift_rows(keys, c) for c in range(group.coin_dim)]
    lo = min([int(rows[0]) for rows in shifted])
    size = max([int(rows[-1]) for rows in shifted]) - lo + 1
    try:  # list.pop is atomic: no two threads stepping on the group share a buffer
        buffer = group.shift_windows.pop()
    except IndexError:  # the group's first window, or its window is in use
        buffer = None
    if buffer is None or buffer.shape[0] < size:
        buffer = np.zeros((2 * size, group.coin_dim), dtype=complex)
    window = buffer[:size]
    # keys viewing a key range are equally spaced, and so are their shifts:
    # each coin column fills a strided slice
    key_range = keys.base
    if key_range is not None and group.shift_ranges.get(id(key_range)) is not key_range:
        key_range = None
    stride = keys.strides[0] // keys.itemsize
    for c, rows in enumerate(shifted):
        # one generator's shift is injective, so plain assignment is safe
        if key_range is None:
            rows -= lo
            window[rows, c] = amps[:, c]
        else:
            window[int(rows[0]) - lo:int(rows[-1]) - lo + 1:stride, c] = amps[:, c]
    # release the shifted keys and the coin product (which step hands over)
    # before the kept rows are allocated, so that these take their place in
    # the heap: a 2000-step line history then leaves almost no heap holes
    del shifted, rows, keys
    keep = nonzero_rows(window)
    at = keep.nonzero()[0]
    del state, amps
    out = WalkState(group, _kept_keys(group, key_range, keep, at, lo), window.take(at, axis=0))
    window.fill(0)
    group.shift_windows.append(buffer)
    return out


def _kept_keys(group: CayleyGroup, key_range, keep: np.ndarray, at: np.ndarray,
               lo: int) -> np.ndarray:
    """The keys lo + at of a window's kept rows (mask `keep`, offsets `at`):
    if equally spaced (one parity class on the line), a strided view of
    `key_range`, the range the shifted keys viewed, while it holds them,
    else of a new range twice as wide; if not, a new array."""
    n = at.shape[0]
    if n:
        first = int(at[0])
        span = int(at[-1]) - first
        stride = span // (n - 1) if n > 1 else 1
        # n kept rows, and n slots of that stride over their span: all kept
        if span == stride * (n - 1) and (
                stride == 1 or np.count_nonzero(keep[first:first + span + 1:stride]) == n):
            first += lo
            i = -1 if key_range is None else first - int(key_range[0])
            if not 0 <= i < key_range.shape[0] - span:
                pad = span // 2 + 1
                key_range = np.arange(first - pad, first + span + pad + 1, dtype=np.int64)
                key_range.flags.writeable = False
                group.shift_ranges[id(key_range)] = key_range
                i = pad
            return key_range[i:i + span + 1:stride]
    return at + lo


def _plan_shift(state: WalkState) -> WalkState:
    """apply_shift by the group's shift plan."""
    group = state.group
    dim = group.coin_dim
    npos = state.n_positions
    keys, inverse = shift_plan(group, state.positions)
    amps = np.zeros(state.amps.shape[:-2] + (keys.shape[0], dim), dtype=complex)
    for c in range(dim):
        # within one coin block the shift x -> x s_c is injective, so plain
        # assignment (not accumulation) is safe; `...` spans the walks
        amps[..., inverse[c * npos:(c + 1) * npos], c] = state.amps[..., c]
    if not state.amps.all():
        # a row is left empty only if every entry shifted onto it was zero
        keep = nonzero_rows(amps)
        if not keep.all():
            keys, amps = keys.compress(keep), amps.compress(keep, axis=-2)
    return WalkState(group, keys, amps)


def apply_coin(coin, state: WalkState, n: int) -> WalkState:
    """The coin at step n applied over the state's positions (over each walk
    of a lockstep state, with a sequence of one coin per walk), and the
    product pruned (see states.prune). The product keeps the state's rows,
    a row left empty included: the shift drops them, and so reuses, in a
    lockstep step, the shift plan on which the coins' shifted phases were
    evaluated."""
    if isinstance(coin, LocalUnitary):
        if coin.group != state.group:
            raise SpecError("coin and state live on different groups")
        if state.amps.ndim != 2:
            raise SpecError("a lockstep state needs one coin per walk")
        amps = block_product(coin.block(n, state.positions), state.amps)
        return WalkState(state.group, state.positions, prune(amps)[0])
    if state.amps.ndim != 3 or len(coin) != len(state.amps):
        raise SpecError("a lockstep state needs one coin per walk")
    for c in coin:
        if c.group != state.group:
            raise SpecError("coin and state live on different groups")
    # every block before any product. Right after a complex GEMM (zgemm),
    # 200 cmath.exp calls in a Python rule took 130-160 against 12-18 us,
    # until a later real GEMM; a numpy add did not end the slowdown (2-core
    # Xeon, OpenBLAS 0.3.31, 1 or 2 threads). block_product runs no zgemm:
    # right after its real GEMM the same calls took 12-19 us
    blocks = [c.block(n, state.positions) for c in coin]
    amps = np.empty(state.amps.shape, dtype=complex)
    for w, block in enumerate(blocks):
        block_product(block, state.amps[w], amps[w])
    return WalkState(state.group, state.positions, prune(amps)[0])


def step(coin, state: WalkState, n: int) -> WalkState:
    """One walk step at time n: coin first, then the conditional shift (of
    each walk of a lockstep state, with one coin per walk)."""
    return apply_shift(apply_coin(coin, state, n))


class WalkInstance:
    """A group, a coin, and a normalized initial state, ready to evolve."""

    __slots__ = ("group", "coin", "initial_state")

    def __init__(self, group: CayleyGroup, coin: QuantumCoin, initial_state: WalkState):
        if coin.group != group or initial_state.group != group:
            raise SpecError("walk components must share one group")
        n = initial_state.norm()
        if not abs(n - 1.0) <= 1e-12:  # also catches a NaN norm
            raise SpecError(f"initial state must be normalized (norm = {n:.3e})")
        self.group = group
        self.coin = coin
        self.initial_state = initial_state


def _shared_start(states) -> WalkState:
    """One state: the walks' initial states, stacked as a lockstep state on
    the union of their positions (zero where a walk has none); with one
    walk, its state."""
    first = states[0]
    if len(states) == 1:
        return first
    if all(same_keys(s.positions, first.positions) for s in states[1:]):
        return WalkState(first.group, first.positions, np.stack([s.amps for s in states]))
    keys, inverse = merge_keys(np.concatenate([s.positions for s in states]))
    amps = np.zeros((len(states), keys.shape[0], first.group.coin_dim), dtype=complex)
    at = 0
    for walk, s in zip(amps, states):
        walk[inverse[at:at + s.n_positions]] = s.amps
        at += s.n_positions
    return WalkState(first.group, keys, amps)


def lockstep(instances, n_max: int) -> Iterator[WalkState]:
    """Step walks on one group together: yield, after 0..n_max steps, one
    lockstep state (see states) holding each walk's coin vectors on the
    union of the walks' supports. Each step evaluates each walk's coin on
    that support, prunes all walks at once, and shifts them by one shift
    plan, a row kept while any walk has an amplitude in it. While the walks
    share their support, each walk's amplitudes are those of its own
    evolution to the byte; elsewhere it also carries zero rows, and its
    coin products, over more rows, may differ in the last bits. With one
    walk the states are its evolution. Aborts with NumericDriftError if any
    walk's norm drifts numerically."""
    n_max = _integer(n_max, "step count")
    if n_max < 0:
        raise SpecError("step count must be nonnegative")
    group = instances[0].group
    if any(inst.group != group for inst in instances):
        raise SpecError("walks stepped together must share one group")
    coins = [inst.coin for inst in instances] if len(instances) > 1 else instances[0].coin
    current = _shared_start([inst.initial_state for inst in instances])
    yield current
    for n in range(n_max):
        current = step(coins, current, n)
        _check_drift(current.amps, n)
        yield current


def _check_drift(amps: np.ndarray, n: int) -> None:
    """Abort with NumericDriftError if the amplitudes after step n + 1, of
    one walk or of any walk of a lockstep state, have drifted off norm 1."""
    for walk, walk_amps in enumerate([amps] if amps.ndim == 2 else amps):
        drift = abs(norm_of(walk_amps) - 1.0)
        if not drift <= DRIFT_TOL:  # also catches a NaN norm
            which = "" if amps.ndim == 2 else f" of walk {walk}"
            raise NumericDriftError(f"norm{which} drifted by {drift:.3e} after step {n + 1}")


def evolve_iter(instance: WalkInstance, n_max: int) -> Iterator[WalkState]:
    """Yield the states after 0..n_max steps, one at a time, so that a
    consumer holds only the states it keeps: the one-walk lockstep."""
    return lockstep((instance,), n_max)


def evolve(instance: WalkInstance, n_max: int) -> list[WalkState]:
    """The whole history of `evolve_iter`: states after 0..n_max steps."""
    return list(evolve_iter(instance, n_max))


def evolve_final(instance: WalkInstance, n_max: int) -> WalkState:
    for state in evolve_iter(instance, n_max):
        pass
    return state
