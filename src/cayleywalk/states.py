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

import math
import warnings

import numpy as np

from .errors import EncodingError, NonUnitaryError, SpecError
from .groups import CayleyGroup
from .linalg import as_complex_matrix, require_unit, require_unitary

# Amplitudes below this magnitude are dropped after inexact operations.
PRUNE_TOL = 1e-15
# Shift plans each group keeps (see shift_plan).
PLAN_MEMO = 2
# merge_keys marks slots rather than sorting when the keys span fewer than
# this many slots per key.
COMPACT_SPAN = 4


def nonzero_rows(amps: np.ndarray) -> np.ndarray:
    """Mask of the rows holding any nonzero amplitude. A NaN counts as
    nonzero, so a corrupted amplitude is kept and shows in every norm."""
    parts = np.ascontiguousarray(amps).view(np.float64) != 0
    # a boolean matmul is any() along each row, without the per-row cost of
    # reducing a short axis
    return parts @ np.ones(parts.shape[1], dtype=bool)


def merge_keys(keys: np.ndarray):
    """np.unique(keys, return_inverse=True) for a concatenation of sorted or
    nearly sorted key blocks (shifted or combined states). The result is
    sorted and unique.

    Two algorithms give it, chosen from the input. When the N keys are
    compact (max - min < COMPACT_SPAN * N, as on the line, cyclic, hypercube
    and torus supports), each key marks its slot in a bool array over
    [min, max]: the marked slots are the merged keys, one scatter ranks
    them, and the inverse is that rank gathered at each key's slot.
    Otherwise (Z^d keys lie far apart across rows, and an empty batch) a
    stable sort runs in near-linear time on the sorted blocks."""
    n = keys.shape[0]
    if n:
        lo, hi = int(keys.min()), int(keys.max())
        if hi - lo < COMPACT_SPAN * n:
            slots = keys - lo
            mark = np.zeros(hi - lo + 1, dtype=bool)
            mark[slots] = True
            at = np.flatnonzero(mark)
            rank = np.empty(mark.shape[0], dtype=np.intp)
            rank[at] = np.arange(at.shape[0])
            inverse = np.take(rank, slots, out=slots)
            # free the ranks before the kept keys are allocated: a long
            # history then leaves fewer holes in the heap
            del rank
            # a new array, which owns its data (see memo_keys)
            return at + lo, inverse
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    rank = np.cumsum(first)
    rank -= 1
    inverse = np.empty_like(order)
    inverse[order] = rank
    return np.compress(first, ordered), inverse


def memo_keys(keys: np.ndarray) -> np.ndarray:
    """A key array as a memo may keep it: the array itself when it is
    read-only and owns its data (no caller can write it), else a copy."""
    if keys.flags.writeable or keys.base is not None:
        return keys.copy()
    return keys


def shift_plan(group: CayleyGroup, keys: np.ndarray, adjoint: bool = False):
    """(merged, inverse): merge_keys of the keys shifted by each of the
    group's generators in turn (adjoint: by its inverse), so that coin c's
    rows land at merged[inverse[c * N:(c + 1) * N]]. Both arrays are
    read-only.

    The group keeps its latest PLAN_MEMO plans, which are handed out again
    for an equal key array and direction: a relation check shifts the same
    support for the original walk, the transformed coin's shifted phases and
    the transformed walk."""
    adjoint = bool(adjoint)
    for known, adj, plan in group.shift_plans:
        if adj is adjoint and (known is keys or np.array_equal(known, keys)):
            return plan
    plan = merge_keys(np.concatenate(
        [group.shift_rows(keys, c, adjoint=adjoint) for c in range(group.coin_dim)]))
    for part in plan:
        part.flags.writeable = False
    # evict in insertion order, as LocalUnitary.block does
    group.shift_plans.append((memo_keys(keys), adjoint, plan))
    del group.shift_plans[:-PLAN_MEMO]
    return plan


class WalkState:
    """Finitely supported amplitude map on (group element, coin index) pairs.

    `positions` is the sorted, duplicate-free int64 key array of the group;
    row i of `amps` holds the coin vector at positions[i]. States never write
    their positions, which may be read-only and shared: a shifted state's
    are its group's shift plan keys (see shift_plan).
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
        # np.linalg.norm's own sum for a complex array, without its dispatch
        flat = self.amps.ravel(order="K")
        re, im = flat.real, flat.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def normalized(self) -> "WalkState":
        n = self.norm()
        if not 1e-12 <= n < np.inf:  # also catches a NaN norm
            raise SpecError(f"cannot normalize a state of norm {n:.3e}")
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

    def position_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, probabilities) of the positions whose probability is above
        PRUNE_TOL, in key order. A NaN probability is kept, so that a
        corrupted row stays visible."""
        probs = np.sum(np.abs(self.amps) ** 2, axis=1)
        keep = ~(probs <= PRUNE_TOL)
        return np.compress(keep, self.positions), np.compress(keep, probs)

    def position_distribution(self, warn_unnormalized: bool = True) -> dict:
        """Probability per position; NaN rows are kept and warned about."""
        keys, probs = self.position_probabilities()
        total = float(probs.sum())
        if warn_unnormalized and not abs(total - 1.0) <= 1e-6:
            warnings.warn(f"state norm^2 = {total:.6f}; distribution computed anyway",
                          stacklevel=2)
        return dict(zip(self.group.elements_of(keys), probs.tolist()))

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


def _clean(group: CayleyGroup, positions: np.ndarray, amps: np.ndarray) -> WalkState:
    """Zero the amplitudes below PRUNE_TOL in magnitude (a -0.0 included)
    and drop the rows left with none. A NaN compares False, so its row is
    kept and shows in every norm."""
    small = np.abs(amps) < PRUNE_TOL
    amps = np.where(small, 0.0, amps)
    if np.count_nonzero(small):
        # a boolean matmul is any() along each row (see nonzero_rows)
        keep = ~small @ np.ones(small.shape[1], dtype=bool)
        if not keep.all():
            positions, amps = np.compress(keep, positions), np.compress(keep, amps, axis=0)
    return WalkState(group, positions, amps)


def _combine(a: WalkState, b: WalkState, sign: float) -> WalkState:
    if a.group != b.group:
        raise SpecError("cannot combine states on different groups")
    if a.positions is b.positions or np.array_equal(a.positions, b.positions):
        # the usual case (a state and its dressed or transformed twin): no merge
        return WalkState(a.group, a.positions, a.amps + sign * b.amps)
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


def find_keys(known: np.ndarray, keys: np.ndarray):
    """(at, found): the index of each key of a batch in the sorted,
    duplicate-free key array `known`, known.size where it is not there.

    The batch is merged into `known` with merge_keys: a relation check calls
    no np.searchsorted otherwise, and its first call in a process maps about
    64 KB more of numpy's code."""
    merged, inverse = merge_keys(np.concatenate([known, keys]))
    slot = np.full(merged.shape[0], known.shape[0])
    slot[inverse[:known.shape[0]]] = np.arange(known.shape[0])
    at = slot[inverse[known.shape[0]:]]
    return at, at < known.shape[0]


def lookup_rows(group: CayleyGroup, table: dict, default: complex):
    """Batch lookup in a table {(x, c): value}: a function of a key batch
    giving its (N, dim) rows, with `default` where the table has no entry.
    The table's position keys are sorted once; each batch is looked up with
    find_keys."""
    dim = group.coin_dim
    rows: dict = {}
    for (x, c), value in table.items():
        if not 0 <= int(c) < dim:
            raise SpecError(f"coin index {c} out of range [0, {dim})")
        key = int(group.keys([x])[0])
        rows.setdefault(key, np.full(dim, default, dtype=complex))[int(c)] = value
    known = np.array(sorted(rows), dtype=np.int64)
    # row known.size is the default, where every miss is sent
    values = np.array([rows[k] for k in known.tolist()] + [np.full(dim, default)], dtype=complex)

    def lookup(keys: np.ndarray) -> np.ndarray:
        return values[find_keys(known, keys)[0]]

    return lookup


class RowMemo:
    """A step-free rule rows(keys) -> (N, dim) rows, evaluated once per key.

    Each batch evaluates the rule only on its keys not seen before, once
    each and in key order, and looks the rest up with find_keys. Rows are
    kept for as long as the memo lives, so the rule must be a pure function
    of the key. A batch on which the rule raises stores nothing."""

    __slots__ = ("_rows", "_table")

    def __init__(self, rows, dim: int):
        self._rows = rows
        # (sorted keys, their rows), replaced as one object so that a reader
        # never pairs the keys of one version with the rows of another
        self._table = (np.empty(0, dtype=np.int64), np.empty((0, dim), dtype=complex))

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        known, values = self._table
        at, found = find_keys(known, keys)
        if not found.all():
            new, _ = merge_keys(np.compress(~found, keys))
            rows = self._rows(new)
            known, inverse = merge_keys(np.concatenate([known, new]))
            merged = np.empty((known.shape[0], values.shape[1]), dtype=complex)
            merged[inverse] = np.concatenate([values, rows])
            values = merged
            self._table = (known, values)
            at = find_keys(known, keys)[0]
        return values[at]


class LocalUnitary:
    """Position-controlled unitary that may depend on the step:
    `blocks(n, keys)` gives its step-n block over a batch of position keys
    (see apply_block), checked once per batch when `validate` is set.
    Step-free operators ignore n. A symmetry's dressing is one such
    operator: an arbitrary local unitary U0 at step 0, diagonal phases
    u(n, x, c) after.

    Rules must be pure functions of (n, keys): `block` keeps its last
    MEMO_SIZE blocks and hands them out again, read-only, for an equal n and
    key array (a relation check asks for each dressing block three times)."""

    __slots__ = ("group", "_blocks", "validate", "_memo")

    MEMO_SIZE = 2

    def __init__(self, group: CayleyGroup, rule):
        """Diagonal operator of a scalar phase rule(n, x, c) -> complex unit."""
        dim = group.coin_dim
        self.group = group
        self._blocks = lambda n, keys: elementwise(
            lambda x: [rule(n, x, c) for c in range(dim)], group.elements_of(keys), (dim,))
        self.validate = True
        self._memo: list = []  # (n, keys, block), oldest first

    @classmethod
    def batched(cls, group: CayleyGroup, blocks, validate: bool = True) -> "LocalUnitary":
        """Operator of blocks(n, keys) -> block array."""
        op = cls(group, None)
        op._blocks = blocks
        op.validate = validate
        return op

    @classmethod
    def uniform(cls, group: CayleyGroup, matrix, validate: bool = True) -> "LocalUnitary":
        m = as_complex_matrix(matrix, group.coin_dim)
        if validate:
            require_unitary(m, what="local unitary component")
        return cls.batched(group, lambda n, keys: m[None], validate=False)

    @classmethod
    def identity(cls, group: CayleyGroup) -> "LocalUnitary":
        """Unit phases at every step and position."""
        return cls.batched(group, lambda n, keys: np.ones((len(keys), group.coin_dim),
                                                          dtype=complex), validate=False)

    @classmethod
    def from_rule(cls, group: CayleyGroup, rule, validate: bool = True) -> "LocalUnitary":
        """rule(x) returns the coin-space matrix at element x."""
        dim = group.coin_dim
        return cls.batched(group, lambda n, keys: elementwise(
            lambda x: as_complex_matrix(rule(x), dim), group.elements_of(keys), (dim, dim)),
            validate)

    @classmethod
    def diagonal(cls, group: CayleyGroup, diag_rule, validate: bool = True) -> "LocalUnitary":
        """diag_rule(x) returns the length-dim vector of diagonal phases."""
        return cls.batched(group, lambda n, keys: elementwise(
            diag_rule, group.elements_of(keys), (group.coin_dim,)), validate)

    @classmethod
    def from_table(cls, group: CayleyGroup, table: dict,
                   default: complex = 1.0 + 0j) -> "LocalUnitary":
        """Diagonal phases tabulated by (n, x, c) for n >= 1; `default` fills
        the rest. Every value is checked here, once."""
        default = require_unit(default, what="default phase")
        by_step: dict = {}
        for (n, x, c), u in table.items():
            if int(n) < 1:
                raise SpecError("phase tables start at n = 1")
            by_step.setdefault(int(n), {})[(x, c)] = require_unit(
                u, what=f"table phase at {(n, x, c)}")
        steps = {n: lookup_rows(group, entries, default) for n, entries in by_step.items()}
        untabulated = lookup_rows(group, {}, default)
        return cls.batched(group, lambda n, keys: steps.get(n, untabulated)(keys),
                           validate=False)

    def block(self, n: int, keys: np.ndarray) -> np.ndarray:
        """The step-n block over `keys`, read-only."""
        n = int(n)
        for m, known, block in self._memo:
            if m == n and (known is keys or np.array_equal(known, keys)):
                return block
        block = self._blocks(n, keys)
        if self.validate:
            block = self.check(n, keys, block)
        # a read-only view, so that neither the memo nor the rule's own array
        # can be written through it
        block = block.view()
        block.flags.writeable = False
        # evict in insertion order: a stale entry from an earlier check of
        # the same operator must not outlive the current ones
        self._memo.append((n, memo_keys(keys), block))
        del self._memo[:-self.MEMO_SIZE]
        return block

    def check(self, n: int, keys: np.ndarray, block) -> np.ndarray:
        """`block` as the step-n block over `keys`, checked once (see
        require_block)."""
        kind = "phase" if np.ndim(block) == 2 else "local unitary"
        return require_block(self.group, keys, block, f"step-{n} {kind}")

    def component(self, x, n: int = 0) -> np.ndarray:
        """The coin-space matrix at element x and step n."""
        block = self.block(n, self.group.keys([x]))
        return block[0] if block.ndim == 3 else np.diag(block[0])

    def at(self, n: int, x, c: int) -> complex:
        """Entry (c, c) of the step-n component at x: the phase u(n, x, c)
        of a diagonal operator."""
        return complex(self.component(x, n)[int(c), int(c)])

    def apply(self, state: WalkState, n: int = 0) -> WalkState:
        if state.group != self.group:
            raise SpecError("operator and state live on different groups")
        return apply_block(state, self.block(n, state.positions))
