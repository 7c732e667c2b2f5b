"""Shifted generator-preserving automorphisms and generalized symmetries.

A shifted automorphism acts as x -> g * phi(x), with phi a group
automorphism permuting the generator set. It induces a permutation operator
on walk states (positions relabeled, coin indices permuted) that commutes
with the conditional shift, so composing it with an ordinary symmetry again
maps walks to walks; probabilities undergo the fixed relabeling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAutomorphismError, SpecError
from .groups import CayleyGroup, _integer
from .states import LocalUnitary, WalkState
from .symmetry import SymmetryTransform, identity_symmetry, transform_coin, transform_state
from .walk import QuantumCoin


def _check_perm(perm, dim: int) -> tuple[int, ...]:
    perm = tuple(_integer(p, "perm entry", NotAutomorphismError) for p in perm)
    if sorted(perm) != list(range(dim)):
        raise NotAutomorphismError(
            f"{perm} is not a permutation of 0..{dim - 1}")
    return perm


def _automorphism_matrix(group: CayleyGroup, perm) -> np.ndarray:
    """The integer matrix A with A g_i = g_perm(i) modulo the moduli.

    On a rank-1 group A is a unit u with u g_0 = g_perm(0): +-1 on the line,
    a unit modulo N on a cyclic group. On d >= 2 axes, column j of A is the
    image of the j-th basis generator. Either way one check over every
    generator decides whether A exists.
    """
    gens = group.gen_vectors
    images = gens[list(perm)]
    d = len(group.moduli)
    if d == 1:
        m, g0 = group.moduli[0], int(gens[0, 0])
        candidates = [np.array([[u]]) for u in ((1, -1) if not m else range(1, m))
                      if math.gcd(u, m) == 1
                      and group.from_vector((u * g0,)) == group.generators[perm[0]]]
    else:
        basis = [group.generators.index(tuple(int(i == j) for i in range(d)))
                 for j in range(d)]
        candidates = [images[basis].T]
    for a in candidates:
        if np.array_equal(group.wrap(gens @ a.T), images):
            return a
    raise NotAutomorphismError(
        f"no automorphism of {group!r} maps its generators by permutation {perm}")


class ShiftedAutomorphism:
    """Map x -> shift * phi(x) with phi permuting the generators.

    phi is an integer matrix A (see `_automorphism_matrix`): a sign flip on
    the line, a unit multiplier on cyclic groups, a signed axis permutation on
    lattices and an axis permutation on hypercubes.
    """

    __slots__ = ("group", "shift", "perm", "matrix")

    def __init__(self, group: CayleyGroup, shift, perm):
        self.group = group
        self.shift = group.validate(shift)
        self.perm = _check_perm(perm, group.coin_dim)
        self.matrix = _automorphism_matrix(group, self.perm)

    # -- the automorphism phi (no shift) --------------------------------------

    def phi(self, x):
        return self.group.from_vector((self.matrix @ self.group.vector(x)).tolist())

    def apply_element(self, x):
        """The full action x -> shift * phi(x)."""
        return self.group.mul(self.shift, self.phi(x))

    def apply_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized apply_element on packed position keys (unsorted result)."""
        g = self.group
        return g.pack(g.wrap(g.unpack(keys) @ self.matrix.T + g.vector(self.shift)))

    @property
    def is_identity(self) -> bool:
        return (self.shift == self.group.identity
                and self.perm == tuple(range(self.group.coin_dim)))

    def __repr__(self):
        return (f"ShiftedAutomorphism({self.group.kind}, shift={self.shift!r}, "
                f"perm={self.perm})")


def compose(a: ShiftedAutomorphism, b: ShiftedAutomorphism) -> ShiftedAutomorphism:
    """(a o b)(x) = a.shift * phi_a(b.shift) * (phi_a o phi_b)(x)."""
    if a.group != b.group:
        raise SpecError("cannot compose automorphisms of different groups")
    shift = a.group.mul(a.shift, a.phi(b.shift))
    perm = tuple(a.perm[b.perm[i]] for i in range(a.group.coin_dim))
    return ShiftedAutomorphism(a.group, shift, perm)


def invert(a: ShiftedAutomorphism) -> ShiftedAutomorphism:
    """Inverse map x -> phi^-1(shift^-1) * phi^-1(x)."""
    perm_inv = tuple(int(v) for v in np.argsort(a.perm))
    bare = ShiftedAutomorphism(a.group, a.group.identity, perm_inv)
    shift = bare.phi(a.group.inv(a.shift))
    return ShiftedAutomorphism(a.group, shift, perm_inv)


def permutation_apply(a: ShiftedAutomorphism, state: WalkState) -> WalkState:
    """Relabel a state: amplitude at (x, c) moves to (shift * phi(x), perm[c])."""
    if state.group != a.group:
        raise SpecError("automorphism and state live on different groups")
    keys = a.apply_keys(state.positions)
    amps = np.empty_like(state.amps)
    amps[:, list(a.perm)] = state.amps
    order = np.argsort(keys)
    return WalkState(a.group, keys[order], amps[order])


def _permute_coins(block: np.ndarray, p) -> np.ndarray:
    """A block with its coin indices relabeled: entry [i, j] (or [i] of a
    diagonal) read from [p[i], p[j]]."""
    block = block[:, p]
    return block[:, :, p] if block.ndim == 3 else block


def conjugate_local(a: ShiftedAutomorphism, op: LocalUnitary) -> LocalUnitary:
    """Conjugated local operator: step-n component at y is Pc^dag U(n, a(y)) Pc.
    It has op's type and homogeneity flags, which conjugation preserves."""
    if op.group != a.group:
        raise SpecError("automorphism and operator live on different groups")
    perm = list(a.perm)
    return type(op)._built(
        a.group, lambda n, keys: _permute_coins(op.block(n, a.apply_keys(keys)), perm),
        op.time_homogeneous, op.space_homogeneous)


@dataclass(frozen=True, eq=False)
class GeneralizedSymmetry:
    """An ordinary symmetry composed with a permutation operator."""

    perm: ShiftedAutomorphism
    inner: SymmetryTransform

    @property
    def group(self) -> CayleyGroup:
        return self.perm.group


def make_generalized_symmetry(perm: ShiftedAutomorphism,
                              inner: SymmetryTransform | None = None) -> GeneralizedSymmetry:
    if inner is None:
        inner = identity_symmetry(perm.group)
    if inner.group != perm.group:
        raise SpecError("permutation and inner symmetry must share one group")
    return GeneralizedSymmetry(perm, inner)


def generalized_transform(gs: GeneralizedSymmetry, coin: QuantumCoin,
                          psi0: WalkState):
    """Transformed (coin, initial state) pair for a generalized symmetry.

    Applies the inner ordinary transform, then conjugates the coin and
    relabels the state by the permutation operator.
    """
    inner_coin, inner_state = transform_pair(gs.inner, coin, psi0)
    new_state = permutation_apply(gs.perm, inner_state)
    if gs.perm.is_identity:
        return inner_coin, new_state
    # Pc M Pc^dag is the conjugation by the inverse permutation operator
    return conjugate_local(invert(gs.perm), inner_coin), new_state


def transform_pair(transform, coin: QuantumCoin, psi0: WalkState):
    """Transformed (coin, initial state) pair of an ordinary or a
    generalized symmetry."""
    if isinstance(transform, GeneralizedSymmetry):
        return generalized_transform(transform, coin, psi0)
    return transform_coin(transform, coin), transform_state(transform, psi0)


def enumerate_automorphisms(group: CayleyGroup) -> list[ShiftedAutomorphism]:
    """All valid generator permutations, each with the identity shift."""
    if group.coin_dim > 6:
        raise SpecError("automorphism enumeration is limited to <= 6 generators")
    found = []
    for perm in itertools.permutations(range(group.coin_dim)):
        try:
            found.append(ShiftedAutomorphism(group, group.identity, perm))
        except NotAutomorphismError:
            continue
    return found
