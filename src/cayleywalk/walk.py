"""Conditional-shift walk dynamics: coins, steps, and evolution histories.

One step applies the current coin (a local operation) and then the
conditional shift T sending |x, c> to |x s_c, c>. Coins may depend on the
time step and the position. A coin is a states.LocalUnitary, whose declared
homogeneity flags unlock one shared block and are probed at construction.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import NumericDriftError, SpecError
from .groups import CayleyGroup
from .linalg import as_complex_matrix, hadamard_matrix, grover_matrix, require_unitary, rotation_matrix
from .states import LocalUnitary, WalkState, apply_block, nonzero_rows, shift_plan

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


def apply_shift(state: WalkState, adjoint: bool = False) -> WalkState:
    """Conditional shift: |x, c> -> |x s_c, c> (adjoint: |x, c> -> |x s_c^-1, c>)."""
    group = state.group
    dim = group.coin_dim
    npos = state.n_positions
    if npos == 0:
        return state
    keys, inverse = shift_plan(group, state.positions, adjoint)
    amps = np.zeros((keys.shape[0], dim), dtype=complex)
    for c in range(dim):
        # within one coin block the shift x -> x s_c is injective, so plain
        # assignment (not accumulation) is safe
        amps[inverse[c * npos:(c + 1) * npos], c] = state.amps[:, c]
    if not state.amps.all():
        # a row is left empty only if every entry shifted onto it was zero
        keep = nonzero_rows(amps)
        if not keep.all():
            keys, amps = keys.compress(keep), amps.compress(keep, axis=0)
    return WalkState(group, keys, amps)


def apply_coin(coin: QuantumCoin, state: WalkState, n: int) -> WalkState:
    if coin.group != state.group:
        raise SpecError("coin and state live on different groups")
    return apply_block(state, coin.block(n, state.positions))


def step(coin: QuantumCoin, state: WalkState, n: int) -> WalkState:
    """One walk step at time n: coin first, then the conditional shift."""
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


def evolve_iter(instance: WalkInstance, n_max: int) -> Iterator[WalkState]:
    """Yield the states after 0..n_max steps, one at a time, so that a
    consumer holds only the states it keeps. Aborts with NumericDriftError
    if unitarity drifts numerically."""
    if n_max < 0:
        raise SpecError("step count must be nonnegative")
    current = instance.initial_state
    yield current
    for n in range(int(n_max)):
        current = step(instance.coin, current, n)
        drift = abs(current.norm() - 1.0)
        if not drift <= DRIFT_TOL:  # also catches a NaN norm
            raise NumericDriftError(
                f"norm drifted by {drift:.3e} after step {n + 1}")
        yield current


def evolve(instance: WalkInstance, n_max: int) -> list[WalkState]:
    """The whole history of `evolve_iter`: states after 0..n_max steps."""
    return list(evolve_iter(instance, n_max))


def evolve_final(instance: WalkInstance, n_max: int) -> WalkState:
    for state in evolve_iter(instance, n_max):
        pass
    return state
