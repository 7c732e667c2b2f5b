"""Finitely generated groups backing the walk graphs.

Each group kind fixes a canonical plain-Python encoding for its elements (an
int for the line and cyclic kinds, a tuple of ints for lattices and
hypercubes) and an ordered generating set. The generator ordering is
load-bearing: it is also the basis ordering of the coin register.

The walk engine stores elements as packed int64 keys, one per element: the
integer itself on the line and cyclic kinds, and a mixed-radix number with
axis 0 as the most significant digit on lattices (offset by half the radix
on Z^d) and hypercubes (coordinate i at bit d-1-i). Key order is therefore
the lexicographic order of `sort_key`. Coordinates outside the packed range
raise EncodingError when they are encoded, and so does a shift on Z^d that
would carry into the next axis: no key ever wraps.

Every element of such a group factors as x = xt * c0**k where c0 is a
distinguished generator, k counts net generator applications (the exponent
index), and xt lies in the subgroup of zero-net-exponent products -- the
"causal subgroup" reachable by equally many forward and backward hops. The
quotient by that subgroup is cyclic; its order is `chi` (None when infinite).
Closed forms for `coset_index` are declared per kind and cross-checked against
`brute_force_causal` on small finite instances at construction time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EncodingError, SpecError, UnsupportedGroupError

# Finite groups up to this order are re-validated against the brute-force
# causal computation when constructed; larger ones rely on the same closed
# forms, which the test suite pins on representative instances.
_SELF_CHECK_MAX_ORDER = 512


class CayleyGroup:
    """Base class: group law, generator bookkeeping, and exponent index."""

    kind = "abstract"
    # All built-in kinds are abelian, so forward and backward reachability
    # agree and the exponent decomposition applies to every element.
    nonseparating = True

    def __init__(self, generators, c0_index: int = 0):
        gens = tuple(generators)
        if not gens:
            raise SpecError("at least one generator is required")
        if len(set(gens)) != len(gens):
            raise SpecError("every generator must be listed exactly once")
        if not 0 <= int(c0_index) < len(gens):
            raise SpecError(f"c0_index {c0_index} out of range for {len(gens)} generators")
        self.generators = gens
        self.c0_index = int(c0_index)
        self.chi: int | None = None  # set by subclasses

    # -- group law (subclass responsibility) --------------------------------

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def validate(self, x):
        """Return the canonical encoding of x, raising EncodingError if bad."""
        raise NotImplementedError

    def coset_index(self, x) -> int:
        """Net generator exponent of x, reduced mod chi when chi is finite."""
        raise NotImplementedError

    def pow_c0(self, k: int):
        """The distinguished generator raised to an arbitrary integer power."""
        raise NotImplementedError

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

    def generator_index(self, g) -> int:
        try:
            return self.generators.index(self.validate(g))
        except ValueError:
            raise SpecError(f"{g!r} is not a generator of {self!r}") from None

    # -- finiteness ----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    @property
    def order(self) -> int | None:
        return None

    def elements(self):
        raise UnsupportedGroupError(f"{self.kind} group is infinite; cannot enumerate")

    # -- packed int64 keys (used by the vectorized state engine) -------------

    # Smallest and largest coordinate that packs into a key.
    lo = 0
    hi = 0

    def encode(self, x) -> tuple[int, ...]:
        """Hashable tuple form of x, raising EncodingError outside the packed
        coordinate range."""
        t = self.validate(x)
        t = t if isinstance(t, tuple) else (t,)
        if not all(self.lo <= v <= self.hi for v in t):
            raise EncodingError(f"{self.kind} element {x!r} is outside the packed "
                                f"coordinate range [{self.lo}, {self.hi}]")
        return t

    def _in_range(self, coords: np.ndarray) -> np.ndarray:
        if coords.size and (coords.min() < self.lo or coords.max() > self.hi):
            raise EncodingError(f"{self.kind} coordinates outside the packed range "
                                f"[{self.lo}, {self.hi}]")
        return coords

    def pack(self, coords) -> np.ndarray:
        """Keys of an integer coordinate array: shape (N,) for the line and
        cyclic kinds, whose key is the integer itself, and (N, d) for
        lattices and hypercubes."""
        return self._in_range(np.asarray(coords, dtype=np.int64).reshape(-1))

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """Coordinate array of a key array (the inverse of pack)."""
        return keys

    def keys(self, xs) -> np.ndarray:
        """Keys of a sequence of elements, in the given order."""
        return self.pack(np.array([self.encode(x) for x in xs], dtype=np.int64))

    def elements_of(self, keys: np.ndarray) -> list:
        """Elements of a key array, in the array's order."""
        coords = self.unpack(keys)
        if coords.ndim == 1:
            return coords.tolist()
        return list(map(tuple, coords.tolist()))

    def shift_rows(self, keys: np.ndarray, gen_index: int, adjoint: bool = False) -> np.ndarray:
        """Right-multiply a batch of keys by a generator (or its inverse when
        adjoint). Raises EncodingError rather than wrap a key."""
        raise NotImplementedError

    # Per kind: coset_index(x) is (coordinates . _coset_form) mod chi, and
    # coordinates wrap mod _modulus (None where they do not wrap).
    _modulus = None

    def coords(self, keys: np.ndarray) -> np.ndarray:
        """(N, width) coordinate array of a batch of keys."""
        coords = self.unpack(keys)
        return coords[:, None] if coords.ndim == 1 else coords

    def coset_indices(self, keys: np.ndarray) -> np.ndarray:
        """coset_index of each key of a batch."""
        k = self.coords(keys) @ self._coset_form
        return k if self.chi is None else k % self.chi

    def decompose_keys(self, keys: np.ndarray):
        """decompose of each key of a batch: (keys of the xt, the k)."""
        k = self.coset_indices(keys)
        xt = self.coords(keys) - k[:, None] * np.reshape(self.c0, -1)
        return self.pack(xt if self._modulus is None else xt % self._modulus), k

    # -- misc -----------------------------------------------------------------

    def random_elements(self, rng: np.random.Generator, count: int, span: int = 16):
        raise NotImplementedError

    def sort_key(self, x):
        return self.encode(x)

    def format_element(self, x) -> str:
        x = self.validate(x)
        if isinstance(x, tuple):
            return "(" + ",".join(str(v) for v in x) + ")"
        return str(x)

    def describe(self) -> dict:
        raise NotImplementedError

    def _key(self):
        return (self.kind, self.generators, self.c0_index)

    def __eq__(self, other):
        return isinstance(other, CayleyGroup) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(generators={self.generators}, c0_index={self.c0_index})"

    def _self_check(self):
        """Cross-check declared causal data against the brute-force oracle."""
        if self.order is None or self.order > _SELF_CHECK_MAX_ORDER:
            return
        data = brute_force_causal(self)
        declared = self.chi if self.chi is not None else 0
        if data.chi != declared:
            raise SpecError(
                f"declared chi {self.chi} disagrees with brute force {data.chi} for {self!r}")
        for x in self.elements():
            if (self.coset_index(x) == 0) != (x in data.subgroup):
                raise SpecError(f"coset_index disagrees with brute force at {x!r}")
        if data.nonseparating != self.nonseparating:
            raise SpecError("nonseparating flag disagrees with brute force")


def _require_int(x):
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise EncodingError(f"expected an integer element, got {x!r}")
    return int(x)


def _require_int_tuple(x, d: int):
    if not isinstance(x, (tuple, list)) or len(x) != d:
        raise EncodingError(f"expected a length-{d} tuple element, got {x!r}")
    return tuple(_require_int(v) for v in x)


class LineGroup(CayleyGroup):
    """The integers under addition with S a subset of {+1, -1}.

    The default two-sided generating set has chi = 2 (the zero-exponent
    subgroup is the even integers). The single-generator variants give an
    infinite chi: every element is a pure power of c0.

    A key is the integer itself. Elements encode only within [-2^62, 2^62),
    which leaves 2^62 unit steps before an int64 key could overflow, so
    shifts need no bound check.
    """

    kind = "line"
    lo = -2 ** 62
    hi = 2 ** 62 - 1

    def __init__(self, generators=(1, -1), c0_index: int = 0):
        gens = tuple(int(g) for g in generators)
        if any(g not in (1, -1) for g in gens):
            raise SpecError("line generators must be +1 or -1")
        super().__init__(gens, c0_index)
        self.chi = 2 if len(gens) == 2 else None
        self._coset_form = np.array([self.c0])

    @property
    def identity(self):
        return 0

    def validate(self, x):
        return _require_int(x)

    def mul(self, x, y):
        return self.validate(x) + self.validate(y)

    def inv(self, x):
        return -self.validate(x)

    def coset_index(self, x) -> int:
        x = self.validate(x)
        if self.chi == 2:
            return x % 2
        return x * self.c0  # c0 in {1, -1}: exact exponent of x as a c0 power

    def pow_c0(self, k: int):
        return int(k) * self.c0

    def shift_rows(self, keys, gen_index, adjoint=False):
        g = self.generators[gen_index]
        return keys + (-g if adjoint else g)

    def random_elements(self, rng, count, span=16):
        return [int(v) for v in rng.integers(-span, span + 1, size=count)]

    def describe(self):
        return {"kind": "line", "generators": list(self.generators), "c0_index": self.c0_index}

    def _key(self):
        return ("line", self.generators, self.c0_index)


class CyclicGroup(CayleyGroup):
    """Integers mod N. Custom generating sets are allowed; the default is
    {1, N-1}, collapsing to {1} when N == 2."""

    kind = "cyclic"

    def __init__(self, n: int, generators=None, c0_index: int = 0):
        n = int(n)
        if n < 2:
            raise SpecError("cyclic group needs N >= 2")
        if generators is None:
            generators = (1, n - 1) if n > 2 else (1,)
        gens = tuple(int(g) % n for g in generators)
        if any(not 0 <= g < n for g in gens):
            raise SpecError("cyclic generators must lie in [0, N)")
        self.n = n
        self.hi = n - 1
        super().__init__(gens, c0_index)
        if math.gcd(n, *gens) != 1:
            raise SpecError(f"generators {gens} do not generate the cyclic group of order {n}")
        # The zero-exponent subgroup of an abelian group is generated by all
        # pairwise generator differences; in Z_N that subgroup is the set of
        # multiples of this gcd, whose index is the gcd itself.
        diffs = [(a - b) % n for a in gens for b in gens]
        self.chi = math.gcd(n, *diffs)
        if self.chi > 1:
            c0m = self.c0 % self.chi
            if math.gcd(c0m, self.chi) != 1:
                raise SpecError("distinguished generator does not generate the quotient")
            self._c0_inv_mod_chi = pow(c0m, -1, self.chi)
        else:
            self._c0_inv_mod_chi = 0
        self._coset_form = np.array([self._c0_inv_mod_chi])
        self._modulus = n
        self._self_check()

    @property
    def identity(self):
        return 0

    def validate(self, x):
        x = _require_int(x)
        if not 0 <= x < self.n:
            raise EncodingError(f"cyclic element {x} out of range [0, {self.n})")
        return x

    def mul(self, x, y):
        return (self.validate(x) + self.validate(y)) % self.n

    def inv(self, x):
        return (-self.validate(x)) % self.n

    def coset_index(self, x) -> int:
        x = self.validate(x)
        if self.chi == 1:
            return 0
        return (x * self._c0_inv_mod_chi) % self.chi

    def pow_c0(self, k: int):
        return (int(k) * self.c0) % self.n

    @property
    def order(self):
        return self.n

    def elements(self):
        return iter(range(self.n))

    def shift_rows(self, keys, gen_index, adjoint=False):
        g = self.generators[gen_index]
        return (keys + (-g if adjoint else g)) % self.n

    def random_elements(self, rng, count, span=16):
        return [int(v) for v in rng.integers(0, self.n, size=count)]

    def describe(self):
        return {"kind": "cyclic", "N": self.n, "generators": list(self.generators),
                "c0_index": self.c0_index}

    def _key(self):
        return ("cyclic", self.n, self.generators, self.c0_index)


class _MixedRadixGroup(CayleyGroup):
    """Tuple-valued kinds: a key is the mixed-radix number of the coordinates
    minus `lo`, axis 0 the most significant digit."""

    def _set_radix(self, radix: int, lo: int) -> None:
        self.radix = radix
        self.lo, self.hi = lo, lo + radix - 1
        self._weights = np.array([radix ** (self.d - 1 - i) for i in range(self.d)],
                                 dtype=np.int64)

    def pack(self, coords):
        coords = self._in_range(np.asarray(coords, dtype=np.int64).reshape(-1, self.d))
        return (coords - self.lo) @ self._weights

    def unpack(self, keys):
        return (keys[:, None] // self._weights) % self.radix + self.lo


class LatticeGroup(_MixedRadixGroup):
    """Z^d (or the d-dimensional torus when a period is given) with the
    generating set (+e1, -e1, ..., +ed, -ed) in that interleaved order.

    On Z^d each axis gets b = 62 // d bits of the key, so coordinates lie in
    [-2^(b-1), 2^(b-1) - 1]: [-2^30, 2^30 - 1] on Z^2."""

    kind = "lattice"

    def __init__(self, d: int, period: int | None = None, c0_index: int = 0):
        d = int(d)
        if d < 1:
            raise SpecError("lattice needs d >= 1")
        self.d = d
        if period is not None:
            period = int(period)
            if period < 3:
                raise SpecError("torus period must be >= 3 so +e_i and -e_i stay distinct")
            if period ** d >= 2 ** 63:
                raise SpecError(f"torus order {period}^{d} does not fit an int64 key")
            self._set_radix(period, 0)
        elif d > 31:
            raise SpecError("Z^d keys leave no room for a step along each axis when d > 31")
        else:
            bits = 62 // d
            self._set_radix(2 ** bits, -2 ** (bits - 1))
        self.period = period
        gens = []
        minus_one = -1 if period is None else period - 1
        for axis in range(d):
            gens.append(tuple(1 if i == axis else 0 for i in range(d)))
            gens.append(tuple(minus_one if i == axis else 0 for i in range(d)))
        super().__init__(gens, c0_index)
        if period is None or period % 2 == 0:
            self.chi = 2
        else:
            # 2*e_i lies in the zero-exponent subgroup; with an odd period it
            # generates the whole axis, so the quotient collapses.
            self.chi = 1
        self._coset_form = np.ones(d, dtype=np.int64)
        self._modulus = period
        self._self_check()

    @property
    def identity(self):
        return (0,) * self.d

    def validate(self, x):
        t = _require_int_tuple(x, self.d)
        if self.period is not None and any(not 0 <= v < self.period for v in t):
            raise EncodingError(f"torus coordinates {t} out of range [0, {self.period})")
        return t

    def mul(self, x, y):
        x, y = self.validate(x), self.validate(y)
        if self.period is None:
            return tuple(a + b for a, b in zip(x, y))
        return tuple((a + b) % self.period for a, b in zip(x, y))

    def inv(self, x):
        x = self.validate(x)
        if self.period is None:
            return tuple(-a for a in x)
        return tuple((-a) % self.period for a in x)

    def coset_index(self, x) -> int:
        x = self.validate(x)
        return sum(x) % 2 if self.chi == 2 else 0

    def pow_c0(self, k: int):
        k = int(k)
        raw = tuple(k * v for v in self._c0_signed())
        if self.period is None:
            return raw
        return tuple(v % self.period for v in raw)

    def _c0_signed(self):
        """The distinguished generator as a signed integer vector."""
        axis, sign = divmod(self.c0_index, 2)
        return tuple((1 if sign == 0 else -1) if i == axis else 0 for i in range(self.d))

    @property
    def order(self):
        return None if self.period is None else self.period ** self.d

    def elements(self):
        if self.period is None:
            return super().elements()
        return (tuple(t) for t in itertools.product(range(self.period), repeat=self.d))

    def shift_rows(self, keys, gen_index, adjoint=False):
        axis, sign = divmod(gen_index, 2)
        delta = 1 if sign == 0 else -1
        if adjoint:
            delta = -delta
        weight = self._weights[axis]
        digit = keys // weight % self.radix
        if self.period is not None:
            return keys + ((digit + delta) % self.radix - digit) * weight
        if np.any(digit == (self.radix - 1 if delta > 0 else 0)):
            raise EncodingError(f"lattice shift along axis {axis} leaves the packed "
                                f"coordinate range [{self.lo}, {self.hi}]")
        return keys + delta * weight

    def random_elements(self, rng, count, span=16):
        hi = self.period if self.period is not None else span + 1
        lo = 0 if self.period is not None else -span
        return [tuple(int(v) for v in row) for row in rng.integers(lo, hi, size=(count, self.d))]

    def describe(self):
        spec = {"kind": "lattice", "d": self.d, "c0_index": self.c0_index}
        if self.period is not None:
            spec["N"] = self.period
        return spec

    def _key(self):
        return ("lattice", self.d, self.period, self.c0_index)


class HypercubeGroup(_MixedRadixGroup):
    """(Z_2)^d under bitwise XOR with the standard basis vectors as
    generators. Every generator is its own inverse. A key is the bitmask with
    coordinate i at bit d-1-i, so d <= 62."""

    kind = "hypercube"

    def __init__(self, d: int, c0_index: int = 0):
        d = int(d)
        if d < 1:
            raise SpecError("hypercube needs d >= 1")
        if d >= 63:
            raise SpecError(f"hypercube of dimension {d} does not fit an int64 key")
        self.d = d
        self._set_radix(2, 0)
        gens = [tuple(1 if i == axis else 0 for i in range(d)) for axis in range(d)]
        super().__init__(gens, c0_index)
        self.chi = 2
        self._coset_form = np.ones(d, dtype=np.int64)
        self._modulus = 2
        self._self_check()

    @property
    def identity(self):
        return (0,) * self.d

    def validate(self, x):
        t = _require_int_tuple(x, self.d)
        if any(v not in (0, 1) for v in t):
            raise EncodingError(f"hypercube coordinates must be bits, got {t}")
        return t

    def mul(self, x, y):
        x, y = self.validate(x), self.validate(y)
        return tuple(a ^ b for a, b in zip(x, y))

    def inv(self, x):
        return self.validate(x)

    def coset_index(self, x) -> int:
        return sum(self.validate(x)) % 2

    def pow_c0(self, k: int):
        return self.c0 if int(k) % 2 else self.identity

    @property
    def order(self):
        return 2 ** self.d

    def elements(self):
        return (tuple(t) for t in itertools.product((0, 1), repeat=self.d))

    def shift_rows(self, keys, gen_index, adjoint=False):
        return keys ^ self._weights[gen_index]

    def random_elements(self, rng, count, span=16):
        return [tuple(int(v) for v in row) for row in rng.integers(0, 2, size=(count, self.d))]

    def describe(self):
        return {"kind": "hypercube", "d": self.d, "c0_index": self.c0_index}

    def _key(self):
        return ("hypercube", self.d, self.c0_index)


def make_group(kind: str, *, d: int | None = None, N: int | None = None,
               generators=None, c0_index: int = 0) -> CayleyGroup:
    """Factory shared by the JSON spec parser and the CLI."""
    kind = str(kind).lower()
    if kind == "line":
        if generators is None:
            generators = (1, -1)
        return LineGroup(generators, c0_index)
    if kind == "cyclic":
        if N is None:
            raise SpecError("cyclic group spec requires N")
        return CyclicGroup(N, generators, c0_index)
    if kind == "lattice":
        if d is None:
            raise SpecError("lattice group spec requires d")
        if generators is not None:
            raise SpecError("lattice generators are fixed to (+e_i, -e_i)")
        return LatticeGroup(d, period=N, c0_index=c0_index)
    if kind == "hypercube":
        if d is None:
            raise SpecError("hypercube group spec requires d")
        if generators is not None:
            raise SpecError("hypercube generators are fixed to the basis vectors")
        return HypercubeGroup(d, c0_index)
    raise SpecError(f"unknown group kind {kind!r}")


@dataclass(frozen=True)
class CausalStructure:
    """Brute-force causal data: the zero-net-exponent subgroup computed from
    the definition, its future-only variant, and the quotient order."""

    subgroup: frozenset
    future_subgroup: frozenset
    chi: int
    nonseparating: bool


def _product_set(group, left, middle, right):
    return {group.mul(group.mul(a, m), b) for a in left for m in middle for b in right}


def _generated_subgroup(group, seed):
    gens = set(seed) | {group.inv(s) for s in seed}
    members = {group.identity} | gens
    frontier = set(members)
    while frontier:
        fresh = set()
        for a in frontier:
            for g in gens:
                p = group.mul(a, g)
                if p not in members:
                    members.add(p)
                    fresh.add(p)
        frontier = fresh
    return members


def brute_force_causal(group: CayleyGroup) -> CausalStructure:
    """Compute the causal subgroup directly from its definition.

    Builds the increasing chains S^n S^-n (forward-then-backward words) and
    S^-n S^n until they stabilize, then closes each union under the group
    operations. Only possible for finite groups.
    """
    if not group.is_finite:
        raise UnsupportedGroupError("brute-force causal computation needs a finite group")
    S = list(group.generators)
    Sinv = [group.inv(s) for s in S]
    forward = {group.mul(s, t) for s in S for t in Sinv}
    while True:
        grown = _product_set(group, S, forward, Sinv)
        if grown == forward:
            break
        forward = grown
    backward = {group.mul(t, s) for t in Sinv for s in S}
    while True:
        grown = _product_set(group, Sinv, backward, S)
        if grown == backward:
            break
        backward = grown
    future = frozenset(_generated_subgroup(group, forward))
    full = frozenset(_generated_subgroup(group, forward | backward))
    chi = group.order // len(full)
    return CausalStructure(full, future, chi, future == full)
