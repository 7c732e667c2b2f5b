"""Conditional-shift walk dynamics: coins, steps, and evolution histories.

One step applies the current coin (a local operation) and then the
conditional shift T sending |x, c> to |x s_c, c>. Coins may depend on the
time step and the position; declared homogeneity flags unlock cached and
vectorized fast paths and are spot-checked at construction.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericDriftError, SpecError
from .groups import CayleyGroup
from .linalg import as_complex_matrix, hadamard_matrix, grover_matrix, require_unitary, rotation_matrix
from .states import WalkState, _clean, merge_keys, nonzero_rows

# Norm drift beyond this aborts an evolution as numerically unsound.
DRIFT_TOL = 1e-8


class QuantumCoin:
    """Time- and position-dependent coin: rule(n, x) -> coin-space unitary."""

    __slots__ = ("group", "_rule", "time_homogeneous", "space_homogeneous",
                 "validate", "_cache")

    def __init__(self, group: CayleyGroup, rule, time_homogeneous: bool = False,
                 space_homogeneous: bool = False, validate: bool = True):
        self.group = group
        self._rule = rule
        self.time_homogeneous = bool(time_homogeneous)
        self.space_homogeneous = bool(space_homogeneous)
        self.validate = validate
        self._cache: dict = {}
        if validate:
            self._probe_flags()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def uniform(cls, group: CayleyGroup, matrix, validate: bool = True) -> "QuantumCoin":
        m = as_complex_matrix(matrix, group.coin_dim)
        if validate:
            require_unitary(m, what="coin matrix")
        coin = cls(group, lambda n, x: m, time_homogeneous=True,
                   space_homogeneous=True, validate=False)
        coin._cache["uniform"] = m
        return coin

    @classmethod
    def from_rule(cls, group: CayleyGroup, rule, time_homogeneous: bool = False,
                  space_homogeneous: bool = False, validate: bool = True) -> "QuantumCoin":
        return cls(group, rule, time_homogeneous, space_homogeneous, validate)

    @classmethod
    def table(cls, group: CayleyGroup, matrices, validate: bool = True) -> "QuantumCoin":
        """Space-homogeneous coin cycling through a finite list over time."""
        mats = [as_complex_matrix(m, group.coin_dim) for m in matrices]
        if validate:
            for i, m in enumerate(mats):
                require_unitary(m, what=f"coin matrix #{i}")
        period = len(mats)
        return cls(group, lambda n, x: mats[n % period],
                   time_homogeneous=(period == 1), space_homogeneous=True,
                   validate=False)

    # -- access -----------------------------------------------------------------

    def matrix_at(self, n: int, x=None) -> np.ndarray:
        """Coin matrix at step n, position x (identity if omitted)."""
        if x is None:
            x = self.group.identity
        if self.time_homogeneous and self.space_homogeneous:
            m = self._cache.get("uniform")
            if m is None:
                m = self._checked(0, self.group.identity)
                self._cache["uniform"] = m
            return m
        if self.space_homogeneous:
            key = 0 if self.time_homogeneous else int(n)
            m = self._cache.get(key)
            if m is None:
                m = self._checked(key, self.group.identity)
                if len(self._cache) < 4096:
                    self._cache[key] = m
            return m
        return self._checked(0 if self.time_homogeneous else int(n), x)

    def _checked(self, n: int, x) -> np.ndarray:
        m = as_complex_matrix(self._rule(n, x), self.group.coin_dim)
        if self.validate:
            require_unitary(m, what=f"coin at step {n}, position {x!r}")
        return m

    def _probe_flags(self) -> None:
        """Spot-check that declared homogeneity matches the rule: time at a
        few fixed steps, space at every generator and a few seeded random
        positions, so a coin varying along any one generator is caught."""
        g = self.group
        base = self._checked(0, g.identity)
        if self.time_homogeneous:
            for n in (1, 2, 5):
                if not np.abs(self._checked(n, g.identity) - base).max() <= 1e-12:
                    raise SpecError(
                        "coin declared time-homogeneous but varies with the step")
        if self.space_homogeneous:
            xs = list(g.generators) + g.random_elements(np.random.default_rng(0), 4)
            for x in xs:
                if not np.abs(self._checked(0, x) - base).max() <= 1e-12:
                    raise SpecError(
                        "coin declared space-homogeneous but varies with position")


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
    blocks = [group.shift_rows(state.positions, c, adjoint=adjoint) for c in range(dim)]
    keys, inverse = merge_keys(np.concatenate(blocks))
    amps = np.zeros((keys.shape[0], dim), dtype=complex)
    for c in range(dim):
        # within one coin block the shift x -> x s_c is injective, so plain
        # assignment (not accumulation) is safe
        amps[inverse[c * npos:(c + 1) * npos], c] = state.amps[:, c]
    if not state.amps.all():
        # a row is left empty only if every entry shifted onto it was zero
        keep = nonzero_rows(amps)
        if not keep.all():
            keys, amps = keys[keep], amps[keep]
    return WalkState(group, keys, amps)


def apply_coin(coin: QuantumCoin, state: WalkState, n: int) -> WalkState:
    if coin.group != state.group:
        raise SpecError("coin and state live on different groups")
    if coin.space_homogeneous:
        m = coin.matrix_at(n)
        return _clean(state.group, state.positions, state.amps @ m.T)
    amps = np.empty_like(state.amps)
    for i, x in enumerate(state.elements()):
        amps[i] = coin.matrix_at(n, x) @ state.amps[i]
    return _clean(state.group, state.positions, amps)


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
        if abs(n - 1.0) > 1e-12:
            raise SpecError(f"initial state must be normalized (norm = {n:.3e})")
        self.group = group
        self.coin = coin
        self.initial_state = initial_state

    def evolve(self, n_max: int) -> list[WalkState]:
        return evolve(self, n_max)


def evolve(instance: WalkInstance, n_max: int) -> list[WalkState]:
    """States after 0..n_max steps; aborts if unitarity drifts numerically."""
    if n_max < 0:
        raise SpecError("step count must be nonnegative")
    states = [instance.initial_state]
    current = instance.initial_state
    for n in range(int(n_max)):
        current = step(instance.coin, current, n)
        drift = abs(current.norm() - 1.0)
        if not drift <= DRIFT_TOL:  # also catches a NaN norm
            raise NumericDriftError(
                f"norm drifted by {drift:.3e} after step {n + 1}")
        states.append(current)
    return states


def evolve_final(instance: WalkInstance, n_max: int) -> WalkState:
    return evolve(instance, n_max)[-1]
