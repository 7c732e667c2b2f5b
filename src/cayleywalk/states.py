"""Sparse walk states and local (position-diagonal) operators.

A walk state lives on H_S (x) H_C: finitely many group elements each carrying
a coin vector. States are stored as a sorted 1-D array of packed int64
position keys (see groups) plus a matching matrix of coin amplitudes, which
keeps the evolution hot paths vectorized while tests and callers see plain
elements.

Every local rule (coins, local unitaries, dressing phases) maps a batch of N
position keys to a block, which `apply_block` applies: (N, dim) diagonal
phases, (1, dim, dim) one shared matrix (the leading 1 keeps it apart from a
diagonal when N == dim) or (N, dim, dim) a matrix per position. Scalar user
rules are adapted to a batch by `elementwise` and nowhere else.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import EncodingError, NonUnitaryError, SpecError
from .groups import CayleyGroup
from .linalg import as_complex_matrix, require_unit, require_unitary

# Amplitudes below this magnitude are dropped after inexact operations.
PRUNE_TOL = 1e-15


def nonzero_rows(amps: np.ndarray) -> np.ndarray:
    """Mask of the rows holding any nonzero amplitude. A NaN counts as
    nonzero, so a corrupted amplitude is kept and shows in every norm."""
    parts = np.ascontiguousarray(amps).view(np.float64) != 0
    # a boolean matmul is any() along each row, without the per-row cost of
    # reducing a short axis
    return parts @ np.ones(parts.shape[1], dtype=bool)


def merge_keys(keys: np.ndarray):
    """np.unique(keys, return_inverse=True) for a concatenation of sorted or
    nearly sorted key blocks (shifted or combined states), where a stable
    sort runs in near-linear time. The result is sorted and unique."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(ordered.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


class WalkState:
    """Finitely supported amplitude map on (group element, coin index) pairs.

    `positions` is the sorted, duplicate-free int64 key array of the group;
    row i of `amps` holds the coin vector at positions[i].
    """

    __slots__ = ("group", "positions", "amps", "_elements")

    def __init__(self, group: CayleyGroup, positions: np.ndarray, amps: np.ndarray):
        self.group = group
        self.positions = positions
        self.amps = amps
        self._elements = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_terms(cls, group: CayleyGroup, terms) -> "WalkState":
        """Build from {(x, c): amplitude}, ((x, c), amp) pairs, or
        (x, c, amp) triples."""
        if isinstance(terms, dict):
            terms = terms.items()
        by_pos: dict[tuple, np.ndarray] = {}
        dim = group.coin_dim
        for term in terms:
            if len(term) == 3:
                x, c, amp = term
            else:
                (x, c), amp = term
            c = int(c)
            if not 0 <= c < dim:
                raise EncodingError(f"coin index {c} out of range [0, {dim})")
            row = group.encode(x)
            vec = by_pos.setdefault(row, np.zeros(dim, dtype=complex))
            vec[c] += complex(amp)
        if not by_pos:
            return cls.zero(group)
        rows = sorted(by_pos)  # tuple order is key order
        amps = np.array([by_pos[r] for r in rows], dtype=complex)
        return cls(group, group.pack(np.array(rows, dtype=np.int64)), amps)

    @classmethod
    def localized(cls, group: CayleyGroup, x, coin_vector) -> "WalkState":
        vec = np.asarray(coin_vector, dtype=complex).reshape(-1)
        if vec.shape[0] != group.coin_dim:
            raise EncodingError(
                f"coin vector length {vec.shape[0]} != coin dimension {group.coin_dim}")
        return cls(group, group.keys([x]), vec[None, :].copy())

    @classmethod
    def basis_state(cls, group: CayleyGroup, x, c: int) -> "WalkState":
        vec = np.zeros(group.coin_dim, dtype=complex)
        vec[int(c)] = 1.0
        return cls.localized(group, x, vec)

    @classmethod
    def zero(cls, group: CayleyGroup) -> "WalkState":
        return cls(group, np.empty(0, dtype=np.int64),
                   np.empty((0, group.coin_dim), dtype=complex))

    # -- inspection -----------------------------------------------------------

    def elements(self) -> list:
        if self._elements is None:
            self._elements = self.group.elements_of(self.positions)
        return self._elements

    def amplitude(self, x, c: int) -> complex:
        c = int(c)
        if not 0 <= c < self.group.coin_dim:
            raise EncodingError(f"coin index {c} out of range")
        key = self.group.keys([x])[0]
        i = int(np.searchsorted(self.positions, key))
        if i < self.n_positions and self.positions[i] == key:
            return complex(self.amps[i, c])
        return 0j

    def terms(self) -> dict:
        out = {}
        for x, row in zip(self.elements(), self.amps):
            for c, amp in enumerate(row):
                if amp != 0:
                    out[(x, c)] = complex(amp)
        return out

    def items(self):
        return iter(self.terms().items())

    @property
    def n_positions(self) -> int:
        return self.positions.shape[0]

    def support(self) -> list:
        """Positions holding any amplitude above the pruning threshold (or
        NaN, which is kept so that a corrupted row stays visible)."""
        mask = ~(np.abs(self.amps).max(axis=1) <= PRUNE_TOL)
        return [x for x, keep in zip(self.elements(), mask) if keep]

    # -- algebra ----------------------------------------------------------------

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "WalkState":
        n = self.norm()
        if n < 1e-12:
            raise SpecError("cannot normalize a (near-)zero state")
        return WalkState(self.group, self.positions, self.amps / n)

    def inner(self, other: "WalkState") -> complex:
        """Inner product, conjugate-linear in self."""
        if self.group != other.group:
            raise SpecError("inner product requires states on the same group")
        _, i, j = np.intersect1d(self.positions, other.positions, assume_unique=True,
                                 return_indices=True)
        return complex(np.vdot(self.amps[i], other.amps[j]))

    def scale(self, z) -> "WalkState":
        return WalkState(self.group, self.positions, self.amps * complex(z))

    def __add__(self, other: "WalkState") -> "WalkState":
        return _combine(self, other, 1.0)

    def __sub__(self, other: "WalkState") -> "WalkState":
        return _combine(self, other, -1.0)

    def distance(self, other: "WalkState") -> float:
        return (self - other).norm()

    # -- observables -------------------------------------------------------------

    def position_distribution(self, warn_unnormalized: bool = True) -> dict:
        """Probability per position; NaN rows are kept and warned about."""
        probs = np.sum(np.abs(self.amps) ** 2, axis=1)
        total = float(probs.sum())
        if warn_unnormalized and not abs(total - 1.0) <= 1e-6:
            warnings.warn(f"state norm^2 = {total:.6f}; distribution computed anyway",
                          stacklevel=2)
        return {x: float(p) for x, p in zip(self.elements(), probs) if not p <= PRUNE_TOL}

    # -- serialization ------------------------------------------------------------

    def to_records(self) -> list[dict]:
        recs = []
        for x, row in zip(self.elements(), self.amps):
            for c, amp in enumerate(row):
                if amp != 0:
                    recs.append({"x": list(x) if isinstance(x, tuple) else x, "c": c,
                                 "re": float(amp.real), "im": float(amp.imag)})
        return recs

    @classmethod
    def from_records(cls, group: CayleyGroup, records) -> "WalkState":
        terms = {}
        for rec in records:
            x = rec["x"]
            if isinstance(x, list):
                x = tuple(x)
            key = (group.validate(x), int(rec["c"]))
            terms[key] = terms.get(key, 0j) + complex(float(rec.get("re", 0.0)),
                                                      float(rec.get("im", 0.0)))
        return cls.from_terms(group, terms)

    def __repr__(self):
        return (f"WalkState({self.group.kind}, positions={self.n_positions}, "
                f"norm={self.norm():.6f})")


def _clean(group: CayleyGroup, positions: np.ndarray, amps: np.ndarray,
           prune: float = PRUNE_TOL) -> WalkState:
    """Zero out sub-threshold amplitudes and drop empty rows."""
    if prune > 0.0:
        amps = np.where(np.abs(amps) < prune, 0.0, amps)
    keep = nonzero_rows(amps)
    if not keep.all():
        positions, amps = positions[keep], amps[keep]
    return WalkState(group, positions, amps)


def _combine(a: WalkState, b: WalkState, sign: float) -> WalkState:
    if a.group != b.group:
        raise SpecError("cannot combine states on different groups")
    positions, inverse = merge_keys(np.concatenate([a.positions, b.positions]))
    out = np.zeros((positions.shape[0], a.amps.shape[1]), dtype=complex)
    # each operand's keys are unique, so plain indexed updates do not collide
    n = a.n_positions
    out[inverse[:n]] = a.amps
    out[inverse[n:]] += sign * b.amps
    return WalkState(a.group, positions, out)


def elementwise(rule, items, shape: tuple = ()) -> np.ndarray:
    """Adapt a scalar user rule to a batch: rule(item) for each item (group
    elements, keys or integers), stacked into a complex array of shape
    (len(items), *shape)."""
    values = [rule(v) for v in items]
    try:
        return np.array(values, dtype=complex).reshape((len(items),) + shape)
    except ValueError:
        raise NonUnitaryError(f"a rule gave values of the wrong shape, not {shape}") from None


def require_block(group: CayleyGroup, keys: np.ndarray, block, what: str) -> np.ndarray:
    """Check a block once per batch: unitary matrices when 3-D, complex
    units otherwise. A failure names the first offending position."""
    check = require_unitary if np.ndim(block) == 3 else require_unit
    return check(block, what=what, where=lambda i: group.elements_of(keys[i:i + 1])[0])


def apply_block(state: WalkState, block: np.ndarray) -> WalkState:
    """Apply a block (see the module docstring) over the state's positions."""
    if block.ndim == 2:
        amps = state.amps * block
    elif block.shape[0] == 1:
        amps = state.amps @ block[0].T
    else:
        amps = np.einsum("nij,nj->ni", block, state.amps)
    return _clean(state.group, state.positions, amps)


class LocalUnitary:
    """Position-controlled unitary: `blocks(keys)` gives its block over a
    batch of position keys, checked once per batch when `validate` is set."""

    __slots__ = ("group", "_blocks", "validate")

    def __init__(self, group: CayleyGroup, blocks, validate: bool = True):
        self.group = group
        self._blocks = blocks
        self.validate = validate

    @classmethod
    def uniform(cls, group: CayleyGroup, matrix, validate: bool = True) -> "LocalUnitary":
        m = as_complex_matrix(matrix, group.coin_dim)
        if validate:
            require_unitary(m, what="local unitary component")
        return cls(group, lambda keys: m[None], validate=False)

    @classmethod
    def identity(cls, group: CayleyGroup) -> "LocalUnitary":
        return cls.uniform(group, np.eye(group.coin_dim, dtype=complex), validate=False)

    @classmethod
    def from_rule(cls, group: CayleyGroup, rule, validate: bool = True) -> "LocalUnitary":
        """rule(x) returns the coin-space matrix at element x."""
        dim = group.coin_dim
        return cls(group, lambda keys: elementwise(
            lambda x: as_complex_matrix(rule(x), dim), group.elements_of(keys), (dim, dim)),
            validate)

    @classmethod
    def diagonal(cls, group: CayleyGroup, diag_rule, validate: bool = True) -> "LocalUnitary":
        """diag_rule(x) returns the length-dim vector of diagonal phases."""
        return cls(group, lambda keys: elementwise(diag_rule, group.elements_of(keys),
                                                   (group.coin_dim,)), validate)

    def block(self, keys: np.ndarray) -> np.ndarray:
        block = self._blocks(keys)
        if self.validate:
            require_block(self.group, keys, block, "local unitary component")
        return block

    def component(self, x) -> np.ndarray:
        """The coin-space matrix at element x."""
        block = self.block(self.group.keys([x]))
        return block[0] if block.ndim == 3 else np.diag(block[0])

    def apply(self, state: WalkState) -> WalkState:
        if state.group != self.group:
            raise SpecError("operator and state live on different groups")
        return apply_block(state, self.block(state.positions))
