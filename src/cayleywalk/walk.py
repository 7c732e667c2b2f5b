"""Conditional-shift walk dynamics: coins, steps, and evolution histories.

One step applies the current coin (a local operation) and then the
conditional shift T sending |x, c> to |x s_c, c>. Coins may depend on the
time step and the position; declared homogeneity flags unlock a cached
shared matrix and are probed at construction.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericDriftError, SpecError
from .groups import CayleyGroup
from .linalg import as_complex_matrix, hadamard_matrix, grover_matrix, require_unitary, rotation_matrix
from .states import WalkState, apply_block, elementwise, merge_keys, nonzero_rows, require_block

# Norm drift beyond this aborts an evolution as numerically unsound.
DRIFT_TOL = 1e-8
# Steps at which homogeneity is probed.
PROBE_STEPS = (0, 1, 2, 3, 5)


class QuantumCoin:
    """Time- and position-dependent coin. `blocks(n, keys)` gives the coin's
    block at step n over a batch of position keys: (1, dim, dim) when shared,
    (N, dim, dim) per position (see states.apply_block)."""

    __slots__ = ("group", "_blocks", "time_homogeneous", "space_homogeneous",
                 "validate", "_cache", "_identity")

    def __init__(self, group: CayleyGroup, blocks, time_homogeneous: bool = False,
                 space_homogeneous: bool = False, validate: bool = True):
        self.group = group
        self._blocks = blocks
        self.time_homogeneous = bool(time_homogeneous)
        self.space_homogeneous = bool(space_homogeneous)
        self.validate = validate
        self._cache: dict = {}
        self._identity = group.keys([group.identity])
        if validate and (self.time_homogeneous or self.space_homogeneous):
            self._probe_flags()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def uniform(cls, group: CayleyGroup, matrix, validate: bool = True) -> "QuantumCoin":
        m = as_complex_matrix(matrix, group.coin_dim)
        if validate:
            require_unitary(m, what="coin matrix")
        return cls(group, lambda n, keys: m[None], time_homogeneous=True,
                   space_homogeneous=True, validate=False)

    @classmethod
    def from_rule(cls, group: CayleyGroup, rule, time_homogeneous: bool = False,
                  space_homogeneous: bool = False, validate: bool = True) -> "QuantumCoin":
        """rule(n, x) returns the coin-space matrix at step n, element x."""
        dim = group.coin_dim

        def blocks(n, keys):
            return elementwise(lambda x: as_complex_matrix(rule(n, x), dim),
                               group.elements_of(keys), (dim, dim))

        return cls(group, blocks, time_homogeneous, space_homogeneous, validate)

    @classmethod
    def table(cls, group: CayleyGroup, matrices, validate: bool = True) -> "QuantumCoin":
        """Space-homogeneous coin cycling through a finite list over time."""
        mats = np.array([as_complex_matrix(m, group.coin_dim) for m in matrices])
        if validate:
            require_unitary(mats, what="coin matrix")
        period = len(mats)
        return cls(group, lambda n, keys: mats[n % period][None],
                   time_homogeneous=(period == 1), space_homogeneous=True,
                   validate=False)

    # -- access -----------------------------------------------------------------

    def block(self, n: int, keys: np.ndarray) -> np.ndarray:
        """The coin's block at step n over `keys`; a space-homogeneous coin
        gives its shared matrix, evaluated once per step at the identity."""
        n = 0 if self.time_homogeneous else int(n)
        if not self.space_homogeneous:
            return self._evaluate(n, keys)
        m = self._cache.get(n)
        if m is None:
            m = self._evaluate(n, self._identity)
            if len(self._cache) < 4096:
                self._cache[n] = m
        return m

    def matrix_at(self, n: int, x=None) -> np.ndarray:
        """Coin matrix at step n, position x (identity if omitted)."""
        return self.block(n, self._identity if x is None else self.group.keys([x]))[0]

    def _evaluate(self, n: int, keys: np.ndarray) -> np.ndarray:
        """The rule's block at step n, ignoring the homogeneity flags."""
        block = self._blocks(n, keys)
        if self.validate:
            require_block(self.group, keys, block, f"step-{n} coin")
        return block

    def _probe_flags(self) -> None:
        """Check that declared homogeneity matches the rule."""
        time_spread, space_spread = homogeneity_spreads(self)
        if self.time_homogeneous and not time_spread <= 1e-12:
            raise SpecError("coin declared time-homogeneous but varies with the step")
        if self.space_homogeneous and not space_spread <= 1e-12:
            raise SpecError("coin declared space-homogeneous but varies with position")


def homogeneity_spreads(coin: QuantumCoin, n_probe=PROBE_STEPS,
                        positions_probe=None) -> tuple[float, float]:
    """(time spread, space spread): the worst deviation of the coin rule's
    matrices across probe steps and positions, whatever the coin's flags. The
    default positions (identity, every generator, c0 * c0 and four seeded
    random elements) catch a coin varying along any one generator."""
    g = coin.group
    if positions_probe is None:
        positions_probe = ([g.identity, *g.generators, g.mul(g.c0, g.c0)]
                           + g.random_elements(np.random.default_rng(0), 4))
    keys = g.keys(positions_probe)
    shape = (len(keys), g.coin_dim, g.coin_dim)
    mats = np.stack([np.broadcast_to(coin._evaluate(int(n), keys), shape) for n in n_probe])
    # np.max propagates a NaN matrix, which then fails every tolerance
    return (float(np.max(np.abs(mats - mats[:1]))),
            float(np.max(np.abs(mats - mats[:, :1]))))


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
        if abs(n - 1.0) > 1e-12:
            raise SpecError(f"initial state must be normalized (norm = {n:.3e})")
        self.group = group
        self.coin = coin
        self.initial_state = initial_state


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
