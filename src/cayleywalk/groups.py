"""Finitely generated groups backing the walk graphs.

Every built-in kind is one abelian group, the product of cyclic axes
Z_{m_1} x ... x Z_{m_d}, with m_i = 0 for an infinite axis Z: the line is Z,
a cyclic group is Z_N, a lattice is Z^d or the torus Z_N^d, and a hypercube
is Z_2^d. `CayleyGroup` writes the group law once for all of them; the four
kinds are constructors that choose the moduli and the generators. An element
is a plain int on the line and cyclic kinds and a tuple of ints on lattices
and hypercubes. The generator ordering is load-bearing: it is also the basis
ordering of the coin register.

The walk engine stores elements as packed int64 keys, one per element: the
mixed-radix number of the coordinates with axis 0 as the most significant
digit. A finite axis has radix m_i. On the line the key is the integer
itself; on Z^d each axis gets 62 // d bits, offset by half its radix. So the
key of a cyclic element is the element, and a hypercube key is the bitmask
with coordinate i at bit d-1-i. Key order is therefore the lexicographic
order of the coordinate tuples of `encode`. Coordinates outside the packed
range raise EncodingError when they are encoded, and so does a shift on Z^d
that would carry into the next axis: no key ever wraps.

Every element of such a group factors as x = xt * c0**k where c0 is a
distinguished generator, k counts net generator applications (the exponent
index), and xt lies in the subgroup of zero-net-exponent products -- the
"causal subgroup" reachable by equally many forward and backward hops. The
quotient by that subgroup is cyclic; its order is `chi` (None when infinite).
`CayleyGroup` derives chi and `coset_index`, a linear form in the
coordinates, from the moduli and the generators (`_causal_data`), one rule
for every kind. `brute_force_causal` computes the subgroup from its
definition instead; `group causal` prints it beside chi, and the invariant
suite and the tests compare the two.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .errors import EncodingError, SpecError, UnsupportedGroupError

_SAMPLE_SPAN = 16


class _KeyRanges(weakref.WeakValueDictionary):
    """Key ranges by id, held weakly: a pickled group takes none along."""

    def __reduce__(self):
        return type(self), ()


def _integer(value, what: str, error=SpecError) -> int:
    """value as an int; error names `what` unless value is an integer (a bool
    is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def _causal_data(moduli, vectors):
    """(chi, form): the coset index is x -> form . x, reduced mod chi unless
    chi is None (infinite). (None, None) when the generators, as one-axis
    vectors, do not generate the group: unless gcd(m_i, A_i) = 1 on each
    axis i, where A_i holds the nonzero steps along it.

    Proof. The quotient by the causal subgroup (generated by the differences
    of generators) is cyclic, generated by the common image of every
    generator, so chi is the largest n with a homomorphism f: G -> Z_n (Z for
    n = 0) sending every generator to 1, and its kernel is that subgroup.
    f(x) = sum f_i x_i needs m_i f_i = 0 and a f_i = 1 mod n for a in A_i:
    so f_i is a unit, and n divides m_i and each difference within A_i (an
    axis with no step has m_i = 1 and f_i = 0); an identity generator forces
    n = 1. For n the gcd of all those, a prime dividing n and some a in A_i
    would divide m_i and all of A_i, so f_i = a^-1 mod n, one value on A_i,
    works. For n = 0 every axis is Z with one step a = +-1, and f_i = a.
    """
    steps = [{a for a in axis if a} for axis in zip(*vectors)]
    if any(math.gcd(m, *a) != 1 for m, a in zip(moduli, steps)):
        return None, None
    first = [min(a, default=0) for a in steps]
    chi = math.gcd(*[math.gcd(m, *[b - f for b in a])
                     for m, a, f in zip(moduli, steps, first) if a])
    if not all(map(any, vectors)):  # an identity generator
        chi = 1
    if not chi:
        return None, tuple(first)
    return chi, tuple(pow(f, -1, chi) if f else 0 for f in first)


class CayleyGroup:
    """Z_{m_1} x ... x Z_{m_d} (m_i = 0: Z) with an ordered generating set.

    `moduli` holds the m_i and `gen_vectors` the generators as integer
    vectors, one row each, each along at most one axis; `generators` holds
    them in element form. An infinite axis keeps coordinates in [lo, hi]; its
    key digit is the coordinate minus `offset` (default lo). `chi` and the
    coset form are derived (`_causal_data`); generators that do not generate
    the group leave chi None and the coset queries refused.

    A group keeps for its lifetime its two latest shift plans and a window
    buffer per thread stepping on it (at most twice the widest window); it
    refers weakly to the key ranges that positions view (walk.apply_shift).
    """

    kind = "abstract"
    _spec: dict | None = None  # set by each kind constructor

    def __init__(self, moduli, generators, c0_index=0, lo: int | None = None,
                 offset: int | None = None):
        gens = tuple(generators)
        if not gens:
            raise SpecError("at least one generator is required")
        if len(set(gens)) != len(gens):
            raise SpecError("every generator must be listed exactly once")
        c0_index = _integer(c0_index, "c0_index")
        if not 0 <= c0_index < len(gens):
            raise SpecError(f"c0_index {c0_index} out of range for {len(gens)} generators")
        self.moduli = tuple(moduli)
        self.tuple_elements = isinstance(gens[0], tuple)
        self.generators = gens
        self.gen_vectors = np.array([self.vector(g) for g in gens], dtype=np.int64)
        self.c0_index = c0_index
        # (keys, plan) of states.shift_plan, oldest first
        self.shift_plans: list = []
        # zeroed buffers of walk.apply_shift's window path, each taken out
        # while a step uses it, and the key ranges whose strided views are
        # that path's equally spaced positions, by id
        self.shift_windows: list = []
        self.shift_ranges = _KeyRanges()

        width = len(self.moduli)
        if all(self.moduli):
            self.lo, self.hi = 0, max(self.moduli) - 1
        else:
            if lo is None:
                lo = -2 ** (62 // width - 1)
            self.lo, self.hi = lo, -lo - 1
        radix = [m or -2 * lo for m in self.moduli]
        weights = [math.prod(radix[i + 1:]) for i in range(width)]
        self._weights = np.array(weights, dtype=np.int64)
        self._radix = np.array(radix[1:], dtype=np.int64)  # axis 0 needs no wrap
        offsets = [0 if m else (lo if offset is None else offset) for m in self.moduli]
        self._offsets = np.array(offsets, dtype=np.int64) if any(offsets) else None
        self._moduli = np.array(self.moduli, dtype=np.int64)
        # the finite axes, as a basic slice where one serves (a view is
        # reduced in place); None when no axis wraps
        finite = [m > 0 for m in self.moduli]
        self._wrap_axes = (slice(None) if all(finite) else np.array(finite)
                           if any(finite) else None)
        # (weight, modulus, step, carry) per generator. A carry check exists
        # only where a carry is possible: an infinite axis next to other axes.
        self._shifts = []
        for g, vec in zip(gens, self.gen_vectors.tolist()):
            moved = [i for i, v in enumerate(vec) if v]
            if len(moved) > 1:
                raise SpecError(f"generator {g!r} moves along more than one axis")
            axis = moved[0] if moved else 0
            m, w, step = self.moduli[axis], weights[axis], vec[axis]
            carry = None
            if not m and width > 1:
                carry = (axis, w.bit_length() - 1, radix[axis] - 1,
                         radix[axis] - 1 if step > 0 else 0)
            self._shifts.append((w, m, step % m if m else step, carry))
        self.chi, self._coset_form = _causal_data(self.moduli, self.gen_vectors.tolist())

    # -- group law -------------------------------------------------------------

    def vector(self, x) -> tuple[int, ...]:
        """Coordinate tuple of an element, raising EncodingError unless x has
        the group's element form and lies in [0, m_i) on each finite axis."""
        if not self.tuple_elements:
            t = (x,)
        elif isinstance(x, (tuple, list)) and len(x) == len(self.moduli):
            t = tuple(x)
        else:
            raise EncodingError(f"expected a length-{len(self.moduli)} tuple element, got {x!r}")
        t = tuple([_integer(v, "element coordinate", EncodingError) for v in t])
        for v, m in zip(t, self.moduli):
            if m and not 0 <= v < m:
                raise EncodingError(f"{self.kind} element {x!r} out of range [0, {m}) "
                                    f"on a finite axis")
        return t

    def from_vector(self, coords):
        """Element of integer coordinates, reduced on the finite axes."""
        t = tuple([v % m if m else v for v, m in zip(coords, self.moduli)])
        return t if self.tuple_elements else t[0]

    def validate(self, x):
        """Return the canonical encoding of x, raising EncodingError if bad."""
        t = self.vector(x)
        return t if self.tuple_elements else t[0]

    @property
    def identity(self):
        return self.from_vector((0,) * len(self.moduli))

    def mul(self, x, y):
        return self.from_vector(map(add, self.vector(x), self.vector(y)))

    def inv(self, x):
        return self.from_vector(-v for v in self.vector(x))

    def coset_index(self, x) -> int:
        """Net generator exponent of x, reduced mod chi when chi is finite."""
        self._require_causal()
        k = sum(map(mul, self.vector(x), self._coset_form))
        return k if self.chi is None else k % self.chi

    def _require_causal(self) -> None:
        """UnsupportedGroupError unless the group has a coset form, which it
        has when its generators generate it."""
        if self._coset_form is None:
            raise UnsupportedGroupError(
                f"the generators of {self!r} do not generate the group {self.moduli}, so it "
                f"has no causal structure (chi and the coset form)")

    def pow_c0(self, k: int):
        """The distinguished generator raised to an arbitrary integer power."""
        return self.from_vector(int(k) * v for v in self.gen_vectors[self.c0_index].tolist())

    # -- derived operations --------------------------------------------------

    @property
    def c0(self):
        return self.generators[self.c0_index]

    @property
    def coin_dim(self) -> int:
        return len(self.generators)

    def decompose(self, x):
        """Split x into (xt, k) with x = xt * c0**k and xt of index zero."""
        k = self.coset_index(x)
        xt = self.mul(x, self.inv(self.pow_c0(k)))
        return xt, k

    # -- finiteness ----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    @property
    def order(self) -> int | None:
        return math.prod(self.moduli) if all(self.moduli) else None

    def elements(self):
        if not self.is_finite:
            raise UnsupportedGroupError(f"{self.kind} group is infinite; cannot enumerate")
        return map(self.from_vector, itertools.product(*map(range, self.moduli)))

    # -- packed int64 keys (used by the vectorized state engine) -------------

    def encode(self, x) -> tuple[int, ...]:
        """Hashable tuple form of x, raising EncodingError outside the packed
        coordinate range."""
        t = self.vector(x)
        if not all(self.lo <= v <= self.hi for v in t):
            raise EncodingError(f"{self.kind} element {x!r} is outside the packed "
                                f"coordinate range [{self.lo}, {self.hi}]")
        return t

    def pack(self, coords) -> np.ndarray:
        """Keys of an integer coordinate array, one row (or, on the integer
        kinds, one entry) per element."""
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, len(self.moduli))
        if coords.size and (coords.min() < self.lo or coords.max() > self.hi):
            raise EncodingError(f"{self.kind} coordinates outside the packed range "
                                f"[{self.lo}, {self.hi}]")
        if self._offsets is not None:
            coords = coords - self._offsets
        return coords[:, 0] if len(self.moduli) == 1 else coords @ self._weights

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """(N, width) coordinate array of a key array (the inverse of pack);
        a view of keys where the key is the coordinate, so not for writing."""
        digits = keys[:, None]
        if len(self.moduli) > 1:
            digits = digits // self._weights
            digits[:, 1:] %= self._radix
        return digits if self._offsets is None else digits + self._offsets

    def wrap(self, coords: np.ndarray) -> np.ndarray:
        """An (N, width) coordinate array reduced on the finite axes, in place."""
        if self._wrap_axes is not None:
            coords[:, self._wrap_axes] %= self._moduli[self._wrap_axes]
        return coords

    def keys(self, xs) -> np.ndarray:
        """Keys of a sequence of elements, in the given order."""
        return self.pack(np.array([self.encode(x) for x in xs], dtype=np.int64))

    def elements_of(self, keys: np.ndarray) -> list:
        """Elements of a key array, in the array's order."""
        coords = self.unpack(keys)
        if self.tuple_elements:
            return list(map(tuple, coords.tolist()))
        return coords[:, 0].tolist()

    def shift_rows(self, keys: np.ndarray, gen_index: int) -> np.ndarray:
        """Right-multiply a batch of keys by a generator: a wrapped digit add
        on a finite axis, a plain add on an infinite one. Raises
        EncodingError rather than carry a digit."""
        weight, modulus, step, carry = self._shifts[gen_index]
        if modulus:
            digit = keys // weight % modulus
            return keys + ((digit + step) % modulus - digit) * weight
        if carry is not None:
            axis, shift, mask, edge = carry  # infinite radices are powers of two
            if ((keys >> shift) & mask == edge).any():
                raise EncodingError(f"{self.kind} shift along axis {axis} leaves the packed "
                                    f"coordinate range [{self.lo}, {self.hi}]")
        return keys + step * weight

    def coset_indices(self, keys: np.ndarray) -> np.ndarray:
        """coset_index of each key of a batch."""
        self._require_causal()
        k = self.unpack(keys) @ self._coset_form
        return k if self.chi is None else k % self.chi

    def decompose_keys(self, keys: np.ndarray):
        """decompose of each key of a batch: (keys of the xt, the k)."""
        k = self.coset_indices(keys)
        c0 = self.gen_vectors[self.c0_index]
        return self.pack(self.wrap(self.unpack(keys) - k[:, None] * c0)), k

    def mul_keys(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """mul of two key batches, pair by pair."""
        return self.pack(self.wrap(self.unpack(a) + self.unpack(b)))

    # -- misc -----------------------------------------------------------------

    def random_elements(self, rng: random.Random, count: int):
        """count elements drawn uniformly: each finite coordinate from [0, m),
        each infinite one from [-_SAMPLE_SPAN, _SAMPLE_SPAN]."""
        ranges = [range(m) if m else range(-_SAMPLE_SPAN, _SAMPLE_SPAN + 1) for m in self.moduli]
        if len(set(ranges)) > 1:
            return list(zip(*(rng.choices(r, k=count) for r in ranges)))
        # one range on every axis, as on every kind: one draw for the batch
        flat = rng.choices(ranges[0], k=count * len(ranges))
        return list(zip(*[iter(flat)] * len(ranges))) if self.tuple_elements else flat

    @property
    def label_template(self) -> str:
        """%-template of an element's text label, filled with its
        coordinates: "%d" on the integer kinds, "(%d,...,%d)" on the tuple
        kinds."""
        return "(" + ",".join(["%d"] * len(self.moduli)) + ")" if self.tuple_elements else "%d"

    def describe(self) -> dict:
        if self._spec is None:
            raise UnsupportedGroupError(f"{self!r} has no spec: only the four kinds have one")
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._spec.items()}

    def _key(self):
        return (self.kind, self.moduli, self.generators, self.c0_index)

    def __eq__(self, other):
        return self is other or isinstance(other, CayleyGroup) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(generators={self.generators}, c0_index={self.c0_index})"


def _unit_vectors(d: int, minus=None) -> list:
    """+e_i for each axis i, each followed by `minus` * e_i when given."""
    gens = []
    for axis in range(d):
        for v in (1,) if minus is None else (1, minus):
            gens.append(tuple(v if i == axis else 0 for i in range(d)))
    return gens


class LineGroup(CayleyGroup):
    """The integers under addition with S a subset of {+1, -1}: chi = 2 (the
    even integers are the causal subgroup) on both, infinite on one.

    A key is the integer itself. Elements encode only within [-2^62, 2^62),
    which leaves 2^62 unit steps before an int64 key could overflow, so
    shifts need no bound check.
    """

    kind = "line"

    def __init__(self, generators=(1, -1), c0_index: int = 0):
        gens = tuple(_integer(g, "generators entry") for g in generators)
        if any(g not in (1, -1) for g in gens):
            raise SpecError("line generators must be +1 or -1")
        super().__init__((0,), gens, c0_index, lo=-2 ** 62, offset=0)
        self._spec = {"kind": "line", "generators": gens, "c0_index": self.c0_index}


class CyclicGroup(CayleyGroup):
    """Integers mod N. Custom generating sets are allowed; the default is
    {1, N-1}, collapsing to {1} when N == 2."""

    kind = "cyclic"

    def __init__(self, n: int, generators=None, c0_index: int = 0):
        n = _integer(n, "N")
        if n < 2:
            raise SpecError("cyclic group needs N >= 2")
        if generators is None:
            generators = (1, n - 1) if n > 2 else (1,)
        gens = tuple(_integer(g, "generators entry") % n for g in generators)
        self.n = n
        super().__init__((n,), gens, c0_index)
        if self._coset_form is None:
            raise SpecError(f"generators {gens} do not generate the cyclic group of order {n}")
        self._spec = {"kind": "cyclic", "N": n, "generators": gens, "c0_index": self.c0_index}


class LatticeGroup(CayleyGroup):
    """Z^d (or the d-dimensional torus when a period is given) with the
    generating set (+e1, -e1, ..., +ed, -ed) in that interleaved order.

    On Z^d each axis gets b = 62 // d bits of the key, so coordinates lie in
    [-2^(b-1), 2^(b-1) - 1]: [-2^30, 2^30 - 1] on Z^2. A shift that would
    carry into the next axis raises EncodingError; on Z^1 no carry is
    possible, and 2^62 steps fit above the range before an int64 key could
    overflow, so its shifts are unchecked, as on the line."""

    kind = "lattice"

    def __init__(self, d: int, period: int | None = None, c0_index: int = 0):
        d = _integer(d, "d")
        if d < 1:
            raise SpecError("lattice needs d >= 1")
        if period is not None:
            period = _integer(period, "period N")
            if period < 3:
                raise SpecError("torus period must be >= 3 so +e_i and -e_i stay distinct")
            if period ** d >= 2 ** 63:
                raise SpecError(f"torus order {period}^{d} does not fit an int64 key")
        elif d > 31:
            raise SpecError("Z^d keys leave no room for a step along each axis when d > 31")
        self.d, self.period = d, period
        gens = _unit_vectors(d, -1 if period is None else period - 1)
        super().__init__((period or 0,) * d, gens, c0_index)
        self._spec = {"kind": "lattice", "d": d, "c0_index": self.c0_index}
        if period is not None:
            self._spec["N"] = period


class HypercubeGroup(CayleyGroup):
    """(Z_2)^d with the standard basis vectors as generators. Every generator
    is its own inverse. A key is the bitmask with coordinate i at bit d-1-i,
    so d <= 62."""

    kind = "hypercube"

    def __init__(self, d: int, c0_index: int = 0):
        d = _integer(d, "d")
        if d < 1:
            raise SpecError("hypercube needs d >= 1")
        if d >= 63:
            raise SpecError(f"hypercube of dimension {d} does not fit an int64 key")
        self.d = d
        super().__init__((2,) * d, _unit_vectors(d), c0_index)
        self._spec = {"kind": "hypercube", "d": d, "c0_index": self.c0_index}


# perfbench/spans.py wraps these methods in each constructor class's own
# __dict__, so each class binds them again.
for _cls in (LineGroup, CyclicGroup, LatticeGroup, HypercubeGroup):
    _cls.shift_rows = CayleyGroup.shift_rows
    _cls.validate = CayleyGroup.validate
    _cls.coset_index = CayleyGroup.coset_index


@dataclass(frozen=True)
class CausalStructure:
    """Brute-force causal data: the zero-net-exponent subgroup computed from
    the definition, and the quotient order."""

    subgroup: frozenset
    chi: int


def _causal_mask(group: CayleyGroup) -> np.ndarray:
    """Mask over the keys of a finite group (0 .. order - 1) of its causal
    subgroup, from its definition.

    In an abelian group S^n S^-n holds the sums of n differences s_i - s_j,
    0 among them, so the chain rises to their closure, which on a finite
    group is already a subgroup; S^-n S^n gives the same. The closure runs
    breadth first over the frontier and sort-free: a round keeps the one
    copy of each new key that its slot names.
    """
    S = group.gen_vectors
    steps = (S[:, None] - S[None]).reshape(-1, S.shape[1])
    reached = np.zeros(group.order, dtype=bool)
    slot = np.empty(group.order, dtype=np.intp)
    frontier = group.pack(np.zeros((1, len(group.moduli))))
    reached[frontier] = True
    while frontier.size:
        coords = group.unpack(frontier)[:, None] + steps
        fresh = group.pack(group.wrap(coords.reshape(-1, len(group.moduli))))
        fresh = fresh[~reached[fresh]]
        order = np.arange(fresh.size)
        slot[fresh] = order
        frontier = fresh[slot[fresh] == order]
        reached[frontier] = True
    return reached


def brute_force_causal(group: CayleyGroup) -> CausalStructure:
    """The causal subgroup from its definition (_causal_mask), on a finite
    group only."""
    if not group.is_finite:
        raise UnsupportedGroupError("brute-force causal computation needs a finite group")
    keys = np.flatnonzero(_causal_mask(group))
    return CausalStructure(frozenset(group.elements_of(keys)), group.order // keys.size)
