"""Sparse walk states and local (position-diagonal) operators.

A walk state lives on H_S (x) H_C: finitely many group elements each carrying
a coin vector. States are stored as a sorted 1-D array of packed int64
position keys (see groups) plus a matching matrix of coin amplitudes, which
keeps the evolution hot paths vectorized while tests and callers see plain
elements.

Every local rule (coins, local unitaries, dressing phases) maps a batch of N
position keys to a block, which `block_product` applies: (N, dim) diagonal
phases, (1, dim, dim) one shared matrix (the leading 1 keeps it apart from a
diagonal when N == dim) or (N, dim, dim) a matrix per position. Scalar user
rules are adapted to a batch by `elementwise` and nowhere else.

A block's product is pruned by `prune`: entries below PRUNE_TOL are zeroed
only when one magnitude test finds any. Coin and dressing products keep the
state's rows, a row left empty included (walk.apply_coin,
symmetry.apply_dressing): the shift drops the empty rows, and
`apply_block` (LocalUnitary.apply) drops them at once.

The shift (walk.apply_shift) merges the shifted keys by the group's shift
plan, except on the window path (see walk): a one-walk state on a single
infinite axis whose shifted keys are compact, by merge_keys' rule, is
scattered into a zeroed window over their range, and the rows that
`nonzero_rows` marks are kept, their keys a strided view of a read-only
key range when they are equally spaced.

Walks stepped in lockstep (walk.lockstep) share one WalkState: its amps
stack the walks' coin vectors, walk w's in the contiguous (N, dim) block
amps[w], and a row is kept while any walk has an amplitude there. Pruning
and the shift act on every walk at once.
"""

from __future__ import annotations

import math
import random
import warnings
from types import MethodType

import numpy as np

from .errors import EncodingError, NonUnitaryError, SpecError
from .groups import CayleyGroup, _integer
from .linalg import as_complex_matrix, require_unit, require_unitary

# Amplitudes below this magnitude are dropped after inexact operations.
PRUNE_TOL = 1e-15
# Steps at which declared homogeneity is probed.
PROBE_STEPS = (0, 1, 2, 3, 5)
# Largest probe spread of a homogeneous rule (see homogeneity_spreads).
HOMOGENEITY_TOL = 1e-12
# Shift plans each group keeps (see shift_plan).
PLAN_MEMO = 2
# Real forms of shared blocks kept (see real_form): a relation check
# alternates a coin and its transform, so one is too few.
REAL_FORMS = 4
# merge_keys and find_keys index slots rather than sorting when the keys
# span fewer than this many slots per key.
COMPACT_SPAN = 4


def nonzero_rows(amps: np.ndarray) -> np.ndarray:
    """Mask of the rows holding any nonzero amplitude, in any walk of a
    lockstep state. A NaN counts as nonzero, so a corrupted amplitude is
    kept and shows in every norm."""
    parts = np.ascontiguousarray(amps).view(np.float64) != 0
    width = parts.shape[-1]
    if amps.ndim == 2 and width in (2, 4, 8):
        # a row's flags read as one unsigned int are nonzero where any is;
        # a one-walk step may test thousands of rows (the window path), a
        # relation check seldom any, so it keeps the matmul below and maps
        # no more of numpy's code
        rows = parts.view(f"u{width}")[..., 0] != 0
    else:
        # a boolean matmul is any() along each row, without the per-row cost
        # of reducing a short axis
        rows = parts @ np.ones(width, dtype=bool)
    # and along the walks
    return rows if rows.ndim == 1 else np.ones(rows.shape[0], dtype=bool) @ rows


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
            at = mark.nonzero()[0]
            rank = np.empty(mark.shape[0], dtype=np.intp)
            rank[at] = np.arange(at.shape[0])
            inverse = rank.take(slots, out=slots)
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
    rank = first.cumsum()
    rank -= 1
    inverse = np.empty_like(order)
    inverse[order] = rank
    return ordered.compress(first), inverse


def same_keys(a: np.ndarray, b: np.ndarray) -> bool:
    """np.array_equal for key arrays, without its Python-level calls."""
    return a is b or a.shape == b.shape and not np.count_nonzero(a != b)


def memo_keys(keys: np.ndarray) -> np.ndarray:
    """A key array as a memo may keep it: the array itself when it is
    read-only and owns its data (no caller can write it), else a copy."""
    if keys.flags.writeable or keys.base is not None:
        return keys.copy()
    return keys


def shift_plan(group: CayleyGroup, keys: np.ndarray):
    """(merged, inverse): merge_keys of the keys shifted by each of the
    group's generators in turn, so that coin c's rows land at
    merged[inverse[c * N:(c + 1) * N]]. Both arrays are read-only.

    The group keeps its latest PLAN_MEMO plans, which are handed out again
    for an equal key array: a relation check shifts the same support for the
    original walk, the transformed coin's shifted phases and the transformed
    walk."""
    for known, plan in group.shift_plans:
        if same_keys(known, keys):
            return plan
    plan = merge_keys(np.concatenate([group.shift_rows(keys, c) for c in range(group.coin_dim)]))
    for part in plan:
        part.flags.writeable = False
    # evict in insertion order, as LocalUnitary.block does
    group.shift_plans.append((memo_keys(keys), plan))
    del group.shift_plans[:-PLAN_MEMO]
    return plan


class WalkState:
    """Finitely supported amplitude map on (group element, coin index) pairs.

    `positions` is the sorted, duplicate-free int64 key array of the group;
    row i of `amps` holds the coin vector at positions[i] (row i of each
    walk's block in a lockstep state; see the module docstring). States
    never write their positions, which may be read-only and shared: a
    shifted state's are its group's shift plan keys (see shift_plan) or a
    view of a key range (see walk.apply_shift). A lockstep state raises
    SpecError for what is each walk's own (see _walk_amps).
    """

    __slots__ = ("group", "positions", "amps")

    def __init__(self, group: CayleyGroup, positions: np.ndarray, amps: np.ndarray):
        self.group = group
        self.positions = positions
        self.amps = amps

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
            c = _coin_index(c, dim)
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
    def zero(cls, group: CayleyGroup) -> "WalkState":
        return cls(group, np.empty(0, dtype=np.int64),
                   np.empty((0, group.coin_dim), dtype=complex))

    # -- inspection -----------------------------------------------------------

    def elements(self) -> list:
        return self.group.elements_of(self.positions)

    def _walk_amps(self) -> np.ndarray:
        """The amps of a one-walk state. A lockstep state holds several
        walks, whose observables are each walk's own: SpecError."""
        if self.amps.ndim != 2:
            raise SpecError(f"this is a lockstep state of {self.amps.shape[0]} walks; take walk "
                            f"w's block, WalkState(state.group, state.positions, state.amps[w])")
        return self.amps

    def amplitude(self, x, c: int) -> complex:
        amps = self._walk_amps()
        c = _coin_index(c, self.group.coin_dim)
        at, found = find_keys(self.positions, self.group.keys([x]))
        return complex(amps[at[0], c]) if found[0] else 0j

    def terms(self) -> dict:
        return {(x, c): complex(amp) for x, row in zip(self.elements(), self._walk_amps())
                for c, amp in enumerate(row) if amp != 0}

    @property
    def n_positions(self) -> int:
        return self.positions.shape[0]

    def support(self) -> list:
        """Positions holding any amplitude above the pruning threshold (or
        NaN, which is kept so that a corrupted row stays visible)."""
        mask = ~(np.abs(self._walk_amps()).max(axis=1) <= PRUNE_TOL)
        return [x for x, keep in zip(self.elements(), mask) if keep]

    # -- algebra ----------------------------------------------------------------

    def norm(self) -> float:
        return norm_of(self.amps)

    def normalized(self) -> "WalkState":
        amps = self._walk_amps()
        n = norm_of(amps)
        if not 1e-12 <= n < np.inf:  # also catches a NaN norm
            raise SpecError(f"cannot normalize a state of norm {n:.3e}")
        return WalkState(self.group, self.positions, amps / n)

    def inner(self, other: "WalkState") -> complex:
        """Inner product, conjugate-linear in self."""
        if self.group != other.group:
            raise SpecError("inner product requires states on the same group")
        a, b = self._walk_amps(), other._walk_amps()
        at, found = find_keys(self.positions, other.positions)
        return complex(np.vdot(a[at[found]], b[found]))

    def __add__(self, other: "WalkState") -> "WalkState":
        return _combine(self, other, 1.0)

    def __sub__(self, other: "WalkState") -> "WalkState":
        return _combine(self, other, -1.0)

    # -- observables -------------------------------------------------------------

    def position_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, probabilities) of the positions whose probability is above
        PRUNE_TOL, in key order. A NaN probability is kept, so that a
        corrupted row stays visible."""
        probs = np.sum(np.abs(self._walk_amps()) ** 2, axis=1)
        keep = ~(probs <= PRUNE_TOL)
        return np.compress(keep, self.positions), np.compress(keep, probs)

    def position_distribution(self) -> dict:
        """Probability per position, warning when the total (NaN rows
        included) is off 1; position_probabilities does not warn."""
        keys, probs = self.position_probabilities()
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-6:
            warnings.warn(f"state norm^2 = {total:.6f}; distribution computed anyway",
                          stacklevel=2)
        return dict(zip(self.group.elements_of(keys), probs.tolist()))

    def __repr__(self):
        if self.amps.ndim != 2:
            return (f"WalkState({self.group.kind}, positions={self.n_positions}, "
                    f"walks={self.amps.shape[0]})")
        return (f"WalkState({self.group.kind}, positions={self.n_positions}, "
                f"norm={self.norm():.6f})")


def _coin_index(c, dim: int) -> int:
    """c as a coin index in [0, dim), else EncodingError."""
    c = _integer(c, "coin index", EncodingError)
    if not 0 <= c < dim:
        raise EncodingError(f"coin index {c} out of range [0, {dim})")
    return c


def norm_of(amps: np.ndarray) -> float:
    """The 2-norm of an amplitude array: np.linalg.norm's own sum for a
    complex array, without its dispatch."""
    flat = amps.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def prune(amps: np.ndarray):
    """(amps, small): `amps` with its entries below PRUNE_TOL in magnitude
    (a -0.0 included) zeroed, as a new array, and the mask of those
    entries; `amps` itself and None when there are none, as in most walk
    steps. A NaN compares False, so it is kept and shows in every norm."""
    small = np.abs(amps) < PRUNE_TOL
    if not np.count_nonzero(small):
        return amps, None
    return np.where(small, 0.0, amps), small


def _combine(a: WalkState, b: WalkState, sign: float) -> WalkState:
    if a.group != b.group:
        raise SpecError("cannot combine states on different groups")
    a_amps, b_amps = a._walk_amps(), b._walk_amps()
    if same_keys(a.positions, b.positions):
        # the usual case (a state and its dressed or transformed twin): no merge
        return WalkState(a.group, a.positions, a_amps + sign * b_amps)
    positions, inverse = merge_keys(np.concatenate([a.positions, b.positions]))
    out = np.zeros((positions.shape[0], a_amps.shape[1]), dtype=complex)
    # each operand's keys are unique, so plain indexed updates do not collide
    n = a.n_positions
    out[inverse[:n]] = a_amps
    out[inverse[n:]] += sign * b_amps
    return WalkState(a.group, positions, out)


def elementwise(rule, items, shape: tuple = (), coins: int = 0) -> np.ndarray:
    """Adapt a scalar user rule to a batch of items (group elements, keys or
    integers) through one flat list of its values, stacked once: rule(item)
    for each item, each value of shape `shape`, into a complex array of
    shape (len(items), *shape); or with `coins` set, rule(item, c) for each
    item and coin c < coins, item-major, each value a scalar, into one of
    shape (len(items), coins). A value of another shape raises
    NonUnitaryError."""
    values = ([rule(v, c) for v in items for c in range(coins)] if coins
              else [rule(v) for v in items])
    try:
        out = np.array(values, dtype=complex)
    except ValueError:
        out = None
    if out is None or values and out.shape[1:] != shape:
        raise NonUnitaryError(f"a rule gave values of the wrong shape, not {shape}")
    return out.reshape((len(items), coins) if coins else (len(items),) + shape)


def require_block(group: CayleyGroup, keys: np.ndarray, block, what: str) -> np.ndarray:
    """Check a block once per batch: unitary matrices when 3-D, complex
    units otherwise. A failure names the first offending position."""
    check = require_unitary if np.ndim(block) == 3 else require_unit
    return check(block, what=what, where=lambda i: group.elements_of(keys[i:i + 1])[0])


_real_forms: list = []  # (block, real_form(block)), oldest first


def real_form(block: np.ndarray):
    """The real (2 dim, 2 dim) matrix R of a shared (1, dim, dim) block B,
    with amps.view(float64) @ R == (amps @ B[0].T).view(float64): each
    entry m of B[0].T as [[Re m, Im m], [-Im m, Re m]], interleaved as
    complex128 is. None when B[0] is diagonal. A read-only block, as
    LocalUnitary.block hands out, is looked up by identity among the
    latest REAL_FORMS ones and built once."""
    for known, form in _real_forms:
        if known is block:
            return form
    m = block[0].T
    form = None
    if np.count_nonzero(m) != np.count_nonzero(m.diagonal()):
        dim = m.shape[0]
        r = np.empty((dim, 2, dim, 2))
        r[:, 0, :, 0] = r[:, 1, :, 1] = m.real
        r[:, 0, :, 1] = m.imag
        r[:, 1, :, 0] = -m.imag
        form = r.reshape(2 * dim, 2 * dim)
    if not block.flags.writeable:
        _real_forms.append((block, form))
        del _real_forms[:-REAL_FORMS]
    return form


def block_product(block: np.ndarray, amps: np.ndarray, out=None) -> np.ndarray:
    """A block (see the module docstring) times the (N, dim) coin vectors
    `amps`, row by row, written to `out` (C-contiguous) if given.

    A diagonal block multiplies elementwise, and so does a shared block
    whose matrix is diagonal (the identity coin, the uniform C' of a
    diagonal coin). Any other shared block is one real GEMM (BLAS dgemm)
    of the float64 view of `amps` by its real_form: 1.5-4x faster than the
    complex GEMM (zgemm) of the same numbers from 200 to 10^4 rows (2-core
    Xeon, 1 or 2 BLAS threads). It rounds its sums otherwise than zgemm, so
    amplitudes may differ from a complex product's by up to 1e-15 for
    unit-norm rows, while positions and verdicts do not change (as measured
    on the benchmark's walks and checks); a NaN entry still makes its whole
    row NaN. A per-position block goes through einsum."""
    if block.ndim == 2:
        return np.multiply(amps, block, out=out)
    if block.shape[0] == 1:
        form = real_form(block)
        if form is None:
            return np.multiply(amps, block[0].diagonal(), out=out)
        # ndarray.dot: the BLAS call of np.matmul without its ufunc
        # dispatch, which costs about 1 us
        floats = np.ascontiguousarray(amps, dtype=complex).view(np.float64)
        if out is None:
            return floats.dot(form).view(complex)
        floats.dot(form, out.view(np.float64))
        return out
    # a batched matmul sums in another order, which changes the last bits,
    # and is slower: 8.5 against 5.7 us at 200x2x2 (2-core Xeon, numpy 2.4)
    return np.einsum("nij,nj->ni", block, amps, out=out)


def apply_block(state: WalkState, block: np.ndarray) -> WalkState:
    """Apply a block over the state's positions; the product is pruned and
    its empty rows dropped."""
    positions = state.positions
    amps, small = prune(block_product(block, state.amps))
    if small is not None:
        keep = nonzero_rows(amps)
        if not keep.all():
            positions, amps = positions.compress(keep), amps.compress(keep, axis=0)
    return WalkState(state.group, positions, amps)


def find_keys(known: np.ndarray, keys: np.ndarray):
    """(at, found): the index of each key of a batch in the sorted,
    duplicate-free key array `known`, known.size where it is not there.

    A key's slot is its offset from the least key when the keys are compact
    (see merge_keys), else its rank in their merge. np.searchsorted would
    map about 64 KB more of numpy's code into a relation check."""
    n = known.shape[0]
    both = np.concatenate([known, keys])
    lo, hi = (int(both.min()), int(both.max())) if both.shape[0] else (0, -1)
    if hi - lo < COMPACT_SPAN * both.shape[0]:
        size, slots = hi - lo + 1, both - lo
    else:
        merged, slots = merge_keys(both)
        size = merged.shape[0]
    slot = np.full(size, n)
    slot[slots[:n]] = np.arange(n)
    at = slot.take(slots[n:])
    return at, at < n


def lookup_rows(group: CayleyGroup, table: dict, default: complex):
    """Batch lookup in a table {(x, c): value}: a function of a key batch
    giving its (N, dim) rows, with `default` where the table has no entry.
    The table's position keys are sorted once; each batch is looked up with
    find_keys."""
    dim = group.coin_dim
    rows: dict = {}
    for (x, c), value in table.items():
        c = _coin_index(c, dim)
        key = int(group.keys([x])[0])
        rows.setdefault(key, np.full(dim, default, dtype=complex))[c] = value
    known = np.array(sorted(rows), dtype=np.int64)
    # row known.size is the default, where every miss is sent
    values = np.array([rows[k] for k in known.tolist()] + [np.full(dim, default)], dtype=complex)

    def lookup(keys: np.ndarray) -> np.ndarray:
        return values[find_keys(known, keys)[0]]

    return lookup


class LocalUnitary:
    """Position-controlled unitary that may depend on the step:
    `blocks(n, keys)` gives its step-n block over a batch of position keys
    (see block_product). Step-free operators ignore n. A symmetry's
    dressing is one such operator: an arbitrary local unitary U0 at step 0,
    diagonal phases u(n, x, c) after. A coin is another (walk.QuantumCoin).

    A time-homogeneous operator is evaluated at step 0 and a
    space-homogeneous one at the identity, whatever step and keys are asked
    for. A flag is an evaluation shortcut, declared where it unlocks one
    block for the whole walk: a uniform operator declares both, and a
    transformed coin declares them only when it is uniform (see
    symmetry.transform_coin). A user's rule (the constructor, `batched`,
    `from_rule`; `uniform`'s matrix, once) is checked on every batch and
    its declared flags are probed (see homogeneity_spreads); the package's
    own operators, unitary by construction or made of checked factors, go
    through `_built`, which does neither.

    Rules must be pure functions of (n, keys): `block` keeps its last
    MEMO_SIZE blocks and hands them out again, read-only, for an equal n and
    key array (a relation check asks for each dressing block three times)."""

    __slots__ = ("group", "_blocks", "time_homogeneous", "space_homogeneous", "_identity", "_memo")

    MEMO_SIZE = 2
    # what errors call the operator; a diagonal block is called a phase
    LABEL = "local unitary"

    def __init__(self, group: CayleyGroup, rule):
        """Diagonal operator of a scalar phase rule(n, x, c) -> complex unit,
        called once per position and coin of a batch (see elementwise)."""
        # bound to n as a method, which passes n first at about the cost of
        # a plain call (functools.partial copies the arguments on each call)
        self._setup(group, lambda n, keys: self.check(n, keys, elementwise(
            MethodType(rule, n), group.elements_of(keys), coins=group.coin_dim)))

    def _setup(self, group: CayleyGroup, blocks, time_homogeneous: bool = False,
               space_homogeneous: bool = False) -> None:
        self.group = group
        self._blocks = blocks
        self.time_homogeneous = bool(time_homogeneous)
        self.space_homogeneous = bool(space_homogeneous)
        if self.space_homogeneous:
            # read-only and owning its data, so that the memo keeps this very
            # array and finds it again by identity (see memo_keys)
            self._identity = group.keys([group.identity]).copy()
            self._identity.flags.writeable = False
        self._memo: list = []  # (n, keys, block), oldest first

    @classmethod
    def _built(cls, group: CayleyGroup, blocks, time_homogeneous: bool = False,
               space_homogeneous: bool = False):
        """Operator of a rule unitary by construction whose flags hold."""
        op = cls.__new__(cls)
        op._setup(group, blocks, time_homogeneous, space_homogeneous)
        return op

    @classmethod
    def batched(cls, group: CayleyGroup, blocks, *, time_homogeneous: bool = False,
                space_homogeneous: bool = False):
        """Operator of blocks(n, keys) -> block array; the flags declared are probed."""
        op = cls._built(group, lambda n, keys: op.check(n, keys, blocks(n, keys)),
                        time_homogeneous, space_homogeneous)
        if time_homogeneous or space_homogeneous:
            op._probe_flags()
        return op

    @classmethod
    def uniform(cls, group: CayleyGroup, matrix):
        """One matrix at every step and position, checked here, once."""
        m = require_unitary(as_complex_matrix(matrix, group.coin_dim), what=f"{cls.LABEL} matrix")
        return cls._built(group, lambda n, keys: m[None], True, True)

    @classmethod
    def identity(cls, group: CayleyGroup) -> "LocalUnitary":
        """Unit phases at every step and position."""
        return cls._built(group, lambda n, keys: np.ones((len(keys), group.coin_dim), complex))

    @classmethod
    def from_rule(cls, group: CayleyGroup, rule, time_homogeneous: bool = False,
                  space_homogeneous: bool = False):
        """rule(n, x), checked per batch: the coin-space matrix at step n, element x."""
        dim = group.coin_dim
        return cls.batched(group, lambda n, keys: elementwise(
            MethodType(rule, n), group.elements_of(keys), (dim, dim)),
            time_homogeneous=time_homogeneous, space_homogeneous=space_homogeneous)

    @classmethod
    def from_table(cls, group: CayleyGroup, table: dict,
                   default: complex = 1.0 + 0j) -> "LocalUnitary":
        """Diagonal phases tabulated by (n, x, c) for n >= 1; `default` fills
        the rest. Every value is checked here, once."""
        default = require_unit(default, what="default phase")
        by_step: dict = {}
        for (n, x, c), u in table.items():
            n = _integer(n, "table step")
            if n < 1:
                raise SpecError("phase tables start at n = 1")
            by_step.setdefault(n, {})[(x, c)] = require_unit(
                u, what=f"table phase at {(n, x, c)}")
        steps = {n: lookup_rows(group, entries, default) for n, entries in by_step.items()}
        untabulated = lookup_rows(group, {}, default)
        return cls._built(group, lambda n, keys: steps.get(n, untabulated)(keys))

    def _reduced(self, n: int, keys: np.ndarray):
        """(n, keys) at which the flags evaluate a request (see above)."""
        # n must be an integer, whatever the flags; a plain int skips
        # _integer, as this runs on every block request
        if type(n) is not int:
            n = _integer(n, "step")
        return (0 if self.time_homogeneous else n,
                self._identity if self.space_homogeneous else keys)

    def block(self, n: int, keys: np.ndarray) -> np.ndarray:
        """The step-n block over `keys`, read-only (see the flags above)."""
        n, keys = self._reduced(n, keys)
        for m, known, block in self._memo:
            if m == n and same_keys(known, keys):
                return block
        # a read-only view, so that neither the memo nor the rule's own array
        # can be written through it
        block = self._blocks(n, keys).view()
        block.flags.writeable = False
        # evict in insertion order: a stale entry from an earlier check of
        # the same operator must not outlive the current ones
        self._memo.append((n, memo_keys(keys), block))
        del self._memo[:-self.MEMO_SIZE]
        return block

    def evaluate(self, n: int, keys: np.ndarray) -> np.ndarray:
        """The step-n block over `keys` as `block` gives it, but evaluated
        afresh and not kept: for the rule of an operator made of this one,
        whose own memo then keeps the block once."""
        return self._blocks(*self._reduced(n, keys))

    def _probe_flags(self) -> None:
        """Check that the declared homogeneity matches the rule."""
        time_spread, space_spread = homogeneity_spreads(self)
        if self.time_homogeneous and not time_spread <= HOMOGENEITY_TOL:
            raise SpecError(f"{self.LABEL} declared time-homogeneous but varies with the step")
        if self.space_homogeneous and not space_spread <= HOMOGENEITY_TOL:
            raise SpecError(f"{self.LABEL} declared space-homogeneous but varies with position")

    def check(self, n: int, keys: np.ndarray, block) -> np.ndarray:
        """`block` as the step-n block over `keys`, checked (see require_block)."""
        kind = "phase" if np.ndim(block) == 2 else self.LABEL
        return require_block(self.group, keys, block, f"step-{n} {kind}")

    def component(self, x, n: int = 0) -> np.ndarray:
        """The coin-space matrix at element x and step n."""
        block = self.block(n, self.group.keys([x]))
        return block[0] if block.ndim == 3 else np.diag(block[0])

    def at(self, n: int, x, c: int) -> complex:
        """Entry (c, c) of the step-n component at x: the phase u(n, x, c)
        of a diagonal operator."""
        c = _coin_index(c, self.group.coin_dim)
        return complex(self.component(x, n)[c, c])

    def apply(self, state: WalkState, n: int = 0) -> WalkState:
        if state.group != self.group:
            raise SpecError("operator and state live on different groups")
        return apply_block(state, self.block(n, state.positions))


def homogeneity_spreads(op: LocalUnitary, positions_probe=None) -> tuple[float, float]:
    """(time spread, space spread): the worst deviation of the operator
    rule's matrices across the steps PROBE_STEPS and probe positions,
    whatever its flags.
    The default positions (identity, every generator, c0 * c0 and four
    seeded random elements, drawn from random.Random(0) on every call) catch
    a rule varying along any one generator."""
    g = op.group
    if positions_probe is None:
        positions_probe = ([g.identity, *g.generators, g.mul(g.c0, g.c0)]
                           + g.random_elements(random.Random(0), 4))
    keys = g.keys(positions_probe)
    shape = (len(keys), g.coin_dim, g.coin_dim)
    blocks = [op._blocks(n, keys) for n in PROBE_STEPS]
    # a diagonal block as the matrices it stands for
    mats = np.stack([np.broadcast_to(b if b.ndim == 3 else b[..., None] * np.eye(g.coin_dim),
                                     shape) for b in blocks])
    # np.max propagates a NaN matrix, which then fails every tolerance
    return (float(np.max(np.abs(mats - mats[:1]))),
            float(np.max(np.abs(mats - mats[:, :1]))))
