"""Conditional-shift walk dynamics: coins, steps, and evolution histories.

One step applies the current coin (a local operation) and then the
conditional shift T sending |x, c> to |x s_c, c>. Coins may depend on the
time step and the position. A coin is a states.LocalUnitary, whose declared
homogeneity flags unlock one shared block and are probed at construction.
One stepper, `lockstep`, steps one walk (`evolve_iter`) or several on one
shared support (a relation check's original and transformed walks).

A step shifts by one of two paths, chosen from the state. A one-walk state
on a group with a single infinite axis (the line in any generator form,
Z^1), shifted forward, takes the window path while its shifted keys fit
fewer than COMPACT_SPAN slots per shifted key (merge_keys' rule for
compact keys): the coin product is pruned once, keeping its rows, and the
shift scatters each coin column at its shifted keys' offsets into a zeroed
window over their range, [first - 1, last + 1] on the two-sided line, and
keeps the rows that `nonzero_rows` marks, without a shift plan. Every
other state (lockstep states, finite groups, Z^d, sparse line supports,
adjoint shifts) takes the plan path: the shift merges the shifted keys by
the group's memoized shift plan, which a lockstep step also reuses for its
transformed coin's shifted phases.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import NumericDriftError, SpecError
from .groups import CayleyGroup
from .linalg import as_complex_matrix, hadamard_matrix, grover_matrix, require_unitary, rotation_matrix
from .states import (COMPACT_SPAN, LocalUnitary, WalkState, apply_block, block_product, merge_keys,
                     nonzero_rows, norm_of, prune, same_keys, shift_plan)

# Norm drift beyond this aborts an evolution as numerically unsound.
DRIFT_TOL = 1e-8


class QuantumCoin(LocalUnitary):
    """Time- and position-dependent coin: the local unitary applied before
    each shift, whose errors call it a coin. It is built as any
    LocalUnitary is, by `uniform`, `from_rule` or `batched`, whose
    `blocks(n, keys)` gives its block at step n over a batch of position
    keys: (1, dim, dim) when shared, (N, dim, dim) per position (see
    states.apply_block)."""

    __slots__ = ()

    LABEL = "coin"

    @classmethod
    def table(cls, group: CayleyGroup, matrices, validate: bool = True) -> "QuantumCoin":
        """Space-homogeneous coin cycling through a finite list over time."""
        mats = np.array([as_complex_matrix(m, group.coin_dim) for m in matrices])
        if validate:
            require_unitary(mats, what="coin matrix")
        period = len(mats)
        return cls.batched(group, lambda n, keys: mats[n % period][None], False,
                           time_homogeneous=(period == 1), space_homogeneous=True)

    def matrix_at(self, n: int, x=None) -> np.ndarray:
        """Coin matrix at step n, position x (identity if omitted)."""
        return self.component(self.group.identity if x is None else x, n)


def hadamard_coin(group: CayleyGroup) -> QuantumCoin:
    if group.coin_dim != 2:
        raise SpecError("the Hadamard coin needs a two-generator group")
    return QuantumCoin.uniform(group, hadamard_matrix(), validate=False)


def grover_coin(group: CayleyGroup) -> QuantumCoin:
    return QuantumCoin.uniform(group, grover_matrix(group.coin_dim), validate=False)


def identity_coin(group: CayleyGroup) -> QuantumCoin:
    return QuantumCoin.uniform(group, np.eye(group.coin_dim, dtype=complex),
                               validate=False)


def rotation_coin(group: CayleyGroup, angle: float) -> QuantumCoin:
    if group.coin_dim != 2:
        raise SpecError("rotation coins need a two-generator group")
    return QuantumCoin.uniform(group, rotation_matrix(angle), validate=False)


def _takes_window(state: WalkState, adjoint: bool = False) -> bool:
    """Whether the state steps by the window path (see the module
    docstring). The generators of a single infinite axis are +1 and -1, so
    its shifted keys lie in [first - 1, last + 1]."""
    group, keys = state.group, state.positions
    npos = keys.shape[0]
    return (group.moduli == (0,) and not adjoint and state.amps.ndim == 2 and npos > 0
            and int(keys[-1]) - int(keys[0]) + 2 < COMPACT_SPAN * npos * group.coin_dim)


def apply_shift(state: WalkState, adjoint: bool = False) -> WalkState:
    """Conditional shift: |x, c> -> |x s_c, c> (adjoint: |x, c> -> |x s_c^-1, c>),
    of each walk of a lockstep state, and the rows left empty dropped, by
    the window path or the plan path (see the module docstring). The window
    is a buffer that the group keeps and that is zeroed again after each
    use: a fresh window per step leaves a long history more heap holes."""
    if not _takes_window(state, adjoint):
        return _plan_shift(state, adjoint)
    group, amps = state.group, state.amps
    shifted = [group.shift_rows(state.positions, c) for c in range(group.coin_dim)]
    lo = min([int(rows[0]) for rows in shifted])
    size = max([int(rows[-1]) for rows in shifted]) - lo + 1
    try:  # list.pop is atomic: no two threads stepping on the group share a buffer
        buffer = group.shift_windows.pop()
    except IndexError:  # the group's first window, or its window is in use
        buffer = None
    if buffer is None or buffer.shape[0] < size:
        buffer = np.zeros((2 * size, group.coin_dim), dtype=complex)
    window = buffer[:size]
    for c, rows in enumerate(shifted):
        # one generator's shift is injective, so plain assignment is safe
        rows -= lo
        window[rows, c] = amps[:, c]
    # release the shifted keys and the coin product (which step hands over)
    # before the kept rows are allocated, so that these take their place in
    # the heap: a 2000-step line history then leaves almost no heap holes
    del shifted, rows
    at = nonzero_rows(window).nonzero()[0]
    del state, amps
    out = WalkState(group, at + lo, window.take(at, axis=0))
    window.fill(0)
    group.shift_windows.append(buffer)
    return out


def _plan_shift(state: WalkState, adjoint: bool) -> WalkState:
    """apply_shift by the group's shift plan."""
    group = state.group
    dim = group.coin_dim
    npos = state.n_positions
    if npos == 0:
        return state
    keys, inverse = shift_plan(group, state.positions, adjoint)
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
    """The coin at step n applied over the state's positions, and the
    product pruned (see states.prune). A state on the window path (see the
    module docstring) keeps the product and its empty rows, which its shift
    drops. Another one-walk state drops the rows left empty at once
    (states.apply_block): its history then keeps fewer heap holes. A
    lockstep state, with a sequence of one coin per walk, leaves them for
    the shift, which so reuses the shift plan on which its coins' shifted
    phases were evaluated."""
    if isinstance(coin, LocalUnitary):
        if coin.group != state.group:
            raise SpecError("coin and state live on different groups")
        if state.amps.ndim != 2:
            raise SpecError("a lockstep state needs one coin per walk")
        block = coin.block(n, state.positions)
        if _takes_window(state):
            return WalkState(state.group, state.positions,
                             prune(block_product(block, state.amps))[0])
        return apply_block(state, block)
    if state.amps.ndim != 3 or len(coin) != len(state.amps):
        raise SpecError("a lockstep state needs one coin per walk")
    for c in coin:
        if c.group != state.group:
            raise SpecError("coin and state live on different groups")
    # every block before any product: a complex matmul (BLAS) can leave the
    # vector unit in a state that slows the scalar math of a Python rule run
    # next about fivefold, until some other numpy kernel resets it
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
    if n_max < 0:
        raise SpecError("step count must be nonnegative")
    group = instances[0].group
    if any(inst.group != group for inst in instances):
        raise SpecError("walks stepped together must share one group")
    several = len(instances) > 1
    coins = [inst.coin for inst in instances] if several else instances[0].coin
    check = _check_drifts if several else _check_drift
    current = _shared_start([inst.initial_state for inst in instances])
    yield current
    for n in range(int(n_max)):
        current = step(coins, current, n)
        check(current.amps, n)
        yield current


def _check_drift(amps: np.ndarray, n: int, walk: int | None = None) -> None:
    """Abort with NumericDriftError if a walk's amplitudes after step n + 1
    have drifted off norm 1."""
    drift = abs(norm_of(amps) - 1.0)
    if not drift <= DRIFT_TOL:  # also catches a NaN norm
        which = "" if walk is None else f" of walk {walk}"
        raise NumericDriftError(f"norm{which} drifted by {drift:.3e} after step {n + 1}")


def _check_drifts(amps: np.ndarray, n: int) -> None:
    """_check_drift for each walk of a lockstep state."""
    for walk, walk_amps in enumerate(amps):
        _check_drift(walk_amps, n, walk)


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
