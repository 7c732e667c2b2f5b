"""Shifted generator-preserving automorphisms and generalized symmetries.

A shifted automorphism acts as x -> g * phi(x), with phi a group
automorphism permuting the generator set. It induces a permutation operator
on walk states (positions relabeled, coin indices permuted) that commutes
with the conditional shift, so composing it with an ordinary symmetry again
maps walks to walks; probabilities undergo the fixed relabeling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotAutomorphismError, SpecError, UnsupportedGroupError
from .groups import CayleyGroup
from .states import LocalUnitary, WalkState
from .symmetry import SymmetryTransform, identity_symmetry, transform_coin, transform_state
from .walk import QuantumCoin


def _check_perm(perm, dim: int) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(dim)):
        raise NotAutomorphismError(
            f"{perm} is not a permutation of 0..{dim - 1}")
    return perm


def _inverse_pairing(group: CayleyGroup) -> tuple[int, ...] | None:
    """Index map i -> index of the inverse of generator i.

    None when the generating set is not inverse-closed; the per-kind
    induction is then the only structural check.
    """
    pairing = []
    for s in group.generators:
        try:
            pairing.append(group.generator_index(group.inv(s)))
        except SpecError:
            return None
    return tuple(pairing)


class ShiftedAutomorphism:
    """Map x -> shift * phi(x) with phi permuting the generators.

    phi is induced from the generator permutation per group kind: sign flip
    on the line, a multiplier on cyclic groups, signed axis permutations on
    lattices, and axis permutations on hypercubes.
    """

    __slots__ = ("group", "shift", "perm", "_data")

    def __init__(self, group: CayleyGroup, shift, perm):
        self.group = group
        self.shift = group.validate(shift)
        self.perm = _check_perm(perm, group.coin_dim)
        pairing = _inverse_pairing(group)
        if pairing is not None:
            for i in range(group.coin_dim):
                if self.perm[pairing[i]] != pairing[self.perm[i]]:
                    raise NotAutomorphismError(
                        "generator permutation does not respect inverse pairing")
        self._data = self._induce()

    def _induce(self):
        g, perm = self.group, self.perm
        gens = g.generators
        kind = g.kind
        if kind == "line":
            sign = gens[perm[0]] // gens[0]
            for i, s in enumerate(gens):
                if sign * s != gens[perm[i]]:
                    raise NotAutomorphismError(
                        f"no sign flip realizes permutation {perm} on {gens}")
            return ("line", sign)
        if kind == "cyclic":
            n = g.n
            for u in range(1, n):
                if np.gcd(u, n) != 1:
                    continue
                if all((u * gens[i]) % n == gens[perm[i]] for i in range(len(gens))):
                    return ("cyclic", u)
            raise NotAutomorphismError(
                f"no unit multiplier mod {n} realizes permutation {perm} on {gens}")
        if kind == "lattice":
            d = g.d
            axis_map = np.empty(d, dtype=np.int64)
            signs = np.empty(d, dtype=np.int64)
            for a in range(d):
                t = perm[2 * a]
                if perm[2 * a + 1] != t ^ 1:
                    raise NotAutomorphismError(
                        "lattice permutation must map inverse generator pairs "
                        "to inverse generator pairs")
                axis_map[a] = t // 2
                signs[a] = 1 if t % 2 == 0 else -1
            return ("lattice", axis_map, signs)
        if kind == "hypercube":
            return ("hypercube", np.array(perm, dtype=np.int64))
        raise UnsupportedGroupError(
            f"automorphism induction not defined for group kind {kind!r}")

    # -- the automorphism phi (no shift) --------------------------------------

    def phi(self, x):
        g = self.group
        x = g.validate(x)
        data = self._data
        if data[0] == "line":
            return data[1] * x
        if data[0] == "cyclic":
            return (data[1] * x) % g.n
        if data[0] == "lattice":
            _, axis_map, signs = data
            out = [0] * g.d
            for a, v in enumerate(x):
                out[axis_map[a]] = int(signs[a]) * v
            if g.period is not None:
                out = [v % g.period for v in out]
            return tuple(out)
        _, axes = data
        out = [0] * g.d
        for a, v in enumerate(x):
            out[axes[a]] = v
        return tuple(out)

    def apply_element(self, x):
        """The full action x -> shift * phi(x)."""
        return self.group.mul(self.shift, self.phi(x))

    def apply_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized apply_element on packed position keys (unsorted result)."""
        g = self.group
        data = self._data
        if data[0] == "line":
            return g.pack(self.shift + data[1] * keys)
        if data[0] == "cyclic":
            return (self.shift + data[1] * keys) % g.n
        coords = g.unpack(keys)
        out = np.empty_like(coords)
        if data[0] == "lattice":
            _, axis_map, signs = data
            out[:, axis_map] = coords * signs
            out += np.asarray(self.shift, dtype=np.int64)
            if g.period is not None:
                out %= g.period
        else:
            out[:, data[1]] = coords
            out ^= np.asarray(self.shift, dtype=np.int64)
        return g.pack(out)

    # -- derived operators ------------------------------------------------------

    def coin_permutation_matrix(self) -> np.ndarray:
        dim = self.group.coin_dim
        mat = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            mat[self.perm[i], i] = 1.0
        return mat

    @property
    def is_identity(self) -> bool:
        return (self.shift == self.group.identity
                and self.perm == tuple(range(self.group.coin_dim)))

    def __repr__(self):
        return (f"ShiftedAutomorphism({self.group.kind}, shift={self.shift!r}, "
                f"perm={self.perm})")


def make_shifted_automorphism(group: CayleyGroup, shift, perm) -> ShiftedAutomorphism:
    """Validated shifted automorphism from a shift and generator permutation."""
    return ShiftedAutomorphism(group, shift, perm)


def identity_automorphism(group: CayleyGroup) -> ShiftedAutomorphism:
    return ShiftedAutomorphism(group, group.identity, range(group.coin_dim))


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
    """Conjugated local operator: component at y is Pc^dag U(a(y)) Pc."""
    if op.group != a.group:
        raise SpecError("automorphism and operator live on different groups")
    perm = list(a.perm)
    return LocalUnitary(a.group, lambda keys: _permute_coins(op.block(a.apply_keys(keys)), perm),
                        validate=False)


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
    inner_coin = transform_coin(gs.inner, coin)
    inner_state = transform_state(gs.inner, psi0)
    new_state = permutation_apply(gs.perm, inner_state)
    if gs.perm.is_identity:
        return inner_coin, new_state
    # Pc M Pc^dag reads entry [i, j] from [perm^-1(i), perm^-1(j)]
    inverse = np.argsort(gs.perm.perm)
    ainv = invert(gs.perm)

    def blocks(n, keys):
        return _permute_coins(inner_coin.block(n, ainv.apply_keys(keys)), inverse)

    new_coin = QuantumCoin(gs.group, blocks,
                           time_homogeneous=inner_coin.time_homogeneous,
                           space_homogeneous=inner_coin.space_homogeneous,
                           validate=False)
    return new_coin, new_state


def enumerate_automorphisms(group: CayleyGroup, shift=None) -> list[ShiftedAutomorphism]:
    """All valid generator permutations (with a fixed shift, default identity)."""
    if group.coin_dim > 6:
        raise SpecError("automorphism enumeration is limited to <= 6 generators")
    if shift is None:
        shift = group.identity
    found = []
    for perm in itertools.permutations(range(group.coin_dim)):
        try:
            found.append(ShiftedAutomorphism(group, shift, perm))
        except NotAutomorphismError:
            continue
    return found
