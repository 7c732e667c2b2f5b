"""Walk symmetries: dressed evolutions that reproduce a walk step for step.

A symmetry sends (coin, initial state) to (transformed coin, transformed
state) such that the transformed evolution equals the original one dressed by
a local unitary at every step. The dressing at step 0 is an arbitrary local
unitary U0; at steps n >= 1 it is diagonal in the position/coin basis and is
stored as a phase field u(n, x, c).

Three constructor families restrict the phase field so that the transform
preserves space homogeneity, time homogeneity, or both. Their closed forms
hang on the decomposition x = xt * c0^k (xt in the zero-net-exponent
subgroup, k the coset index) and a window sequence eta evaluated at n - k;
they are evaluated on whole batches of position keys (see states).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FamilyPreconditionError, SpecError
from .groups import CayleyGroup
from .linalg import as_complex_matrix, require_unit, require_unitary
from .states import LocalUnitary, WalkState, apply_block, elementwise, merge_keys, require_block
from .walk import QuantumCoin

UNIT_TOL = 1e-12


class PhaseField:
    """Diagonal dressing phases u(n, x, c) for steps n >= 1.

    `phases(n, keys)` gives the (N, dim) phases at step n over a batch of
    position keys, checked to be complex units once per batch. Step 0 is
    excluded on purpose: the step-0 dressing is a general local unitary and
    lives in SymmetryTransform.u0.
    """

    __slots__ = ("group", "_phases")

    def __init__(self, group: CayleyGroup, rule):
        """Phase field of a scalar rule(n, x, c) -> complex unit."""
        dim = group.coin_dim
        self.group = group
        self._phases = lambda n, keys: elementwise(
            lambda x: [rule(n, x, c) for c in range(dim)], group.elements_of(keys), (dim,))

    @classmethod
    def batched(cls, group: CayleyGroup, phases) -> "PhaseField":
        """Phase field of phases(n, keys) -> (N, dim) complex array."""
        field = cls(group, None)
        field._phases = phases
        return field

    def phases(self, n: int, keys: np.ndarray) -> np.ndarray:
        n = int(n)
        if n < 1:
            raise SpecError(
                "phase field is defined for n >= 1; the step-0 dressing is U0")
        return require_block(self.group, keys, self._phases(n, keys), f"step-{n} phase")

    def at(self, n: int, x, c: int) -> complex:
        return complex(self.phases(n, self.group.keys([x]))[0, int(c)])

    @classmethod
    def ones(cls, group: CayleyGroup) -> "PhaseField":
        return cls.batched(group, lambda n, keys: np.ones((len(keys), group.coin_dim),
                                                          dtype=complex))

    @classmethod
    def from_table(cls, group: CayleyGroup, table: dict,
                   default: complex = 1.0 + 0j) -> "PhaseField":
        """Tabulated phases keyed by (n, x, c); `default` fills the rest."""
        dim = group.coin_dim
        default = require_unit(default, what="default phase")
        units = {}
        for (n, x, c), u in table.items():
            if int(n) < 1:
                raise SpecError("phase tables start at n = 1")
            key = (int(n), int(group.keys([x])[0]), int(c))
            units[key] = require_unit(u, what=f"table phase at {(n, x, c)}")
        return cls.batched(group, lambda n, keys: elementwise(
            lambda k: [units.get((n, k, c), default) for c in range(dim)], keys.tolist(), (dim,)))


@dataclass(frozen=True, eq=False)
class SymmetryTransform:
    """A step-0 local unitary plus a diagonal phase field for later steps."""

    group: CayleyGroup
    u0: LocalUnitary
    phases: PhaseField
    family: str = "general"
    params: dict = field(default_factory=dict)


class UnitaryCharacter:
    """Multiplicative map from group elements to complex units.

    domain is "full_group" or "causal_subgroup"; the latter promises the rule
    is only ever evaluated on zero-net-exponent elements. `values(keys)`
    gives the character over a batch of position keys.
    """

    __slots__ = ("group", "domain", "_values", "descriptor")

    def __init__(self, group: CayleyGroup, domain: str, rule, descriptor=None,
                 validate: bool = True):
        """Character of a scalar rule(x) -> complex unit."""
        if domain not in ("full_group", "causal_subgroup"):
            raise SpecError(f"unknown character domain {domain!r}")
        self.group = group
        self.domain = domain
        self._values = lambda keys: elementwise(rule, group.elements_of(keys))
        self.descriptor = descriptor
        if validate:
            self._check_multiplicative()

    @classmethod
    def batched(cls, group: CayleyGroup, domain: str, values, descriptor=None,
                validate: bool = True) -> "UnitaryCharacter":
        """Character of values(keys) -> (N,) complex array."""
        char = cls(group, domain, None, descriptor, validate=False)
        char._values = values
        if validate:
            char._check_multiplicative()
        return char

    def values(self, keys: np.ndarray) -> np.ndarray:
        return require_block(self.group, keys, self._values(keys), "character value")

    def __call__(self, x) -> complex:
        return complex(self.values(self.group.keys([x]))[0])

    def _check_multiplicative(self) -> None:
        """Compare chi(ab) with chi(a) chi(b) on all pairs of a finite group
        of order <= 128, otherwise on 1000 seeded random pairs."""
        group = self.group
        if group.is_finite and group.order <= 128:
            pool = group.pack(list(group.elements()))
            if self.domain == "causal_subgroup":
                pool = pool[group.coset_indices(pool) == 0]
            a, b = np.repeat(pool, len(pool)), np.tile(pool, len(pool))
        else:
            rng = np.random.default_rng(20240917)
            a, b = (group.pack(group.random_elements(rng, 1000)) for _ in range(2))
            if self.domain == "causal_subgroup":
                a, b = group.decompose_keys(a)[0], group.decompose_keys(b)[0]
        lhs = self.values(group.mul_keys(a, b))
        rhs = self.values(a) * self.values(b)
        bad = np.flatnonzero(~(np.abs(lhs - rhs) <= UNIT_TOL))
        if bad.size:
            pair = tuple(group.elements_of(np.array([a[bad[0]], b[bad[0]]])))
            raise SpecError(f"character is not multiplicative at {pair!r}")


def trivial_character(group: CayleyGroup, domain: str = "full_group") -> UnitaryCharacter:
    return UnitaryCharacter.batched(group, domain, lambda keys: np.ones(len(keys), dtype=complex),
                                    descriptor={"kind": "trivial"}, validate=False)


def exp_character(group: CayleyGroup, phi, domain: str = "full_group",
                  validate: bool = True) -> UnitaryCharacter:
    """Character exp(i * phi . x) on integer-vector-like groups.

    phi is a scalar for line/cyclic and a length-d vector for lattice and
    hypercube groups. Periodic groups require phi commensurate with the
    period; incommensurate values are rejected.
    """
    kind = group.kind
    if kind in ("line", "cyclic"):
        phi = float(phi)
        if kind == "cyclic" and abs(np.exp(1j * phi * group.n) - 1.0) > 1e-9:
            raise SpecError(
                f"exp character needs phi * {group.n} to be a multiple of 2*pi")
        vec = np.array([phi])
        descriptor = {"kind": "exp_linear", "phi": phi}
    elif kind in ("lattice", "hypercube"):
        vec = np.asarray(phi, dtype=float).reshape(-1)
        if vec.shape[0] != group.d:
            raise SpecError(f"phi must have length {group.d}")
        period = 2 if kind == "hypercube" else group.period
        if period is not None:
            if np.abs(np.exp(1j * vec * period) - 1.0).max() > 1e-9:
                raise SpecError(
                    f"exp character needs each phi component commensurate with period {period}")
        descriptor = {"kind": "exp_linear", "phi": [float(v) for v in vec]}
    else:
        raise SpecError(f"exp character not defined for group kind {kind!r}")
    values = lambda keys: np.exp(1j * (group.coords(keys) @ vec))
    return UnitaryCharacter.batched(group, domain, values, descriptor, validate=validate)


def sign_character(group: CayleyGroup, mask, domain: str = "full_group",
                   validate: bool = True) -> UnitaryCharacter:
    """Character (-1)^(mask . x); mask entries are 0 or 1."""
    kind = group.kind
    if kind in ("line", "cyclic"):
        m = int(mask)
        if kind == "cyclic" and (m * group.n) % 2:
            raise SpecError("sign character requires an even period")
        vec = np.array([m])
        descriptor = {"kind": "sign", "mask": m}
    elif kind in ("lattice", "hypercube"):
        vec = np.array([int(v) % 2 for v in mask], dtype=np.int64)
        if len(vec) != group.d:
            raise SpecError(f"mask must have length {group.d}")
        if kind == "lattice" and group.period is not None and group.period % 2:
            if vec.any():
                raise SpecError("sign character requires an even period")
        descriptor = {"kind": "sign", "mask": vec.tolist()}
    else:
        raise SpecError(f"sign character not defined for group kind {kind!r}")
    values = lambda keys: (1.0 - 2.0 * ((group.coords(keys) @ vec) % 2)).astype(complex)
    return UnitaryCharacter.batched(group, domain, values, descriptor, validate=validate)


def cyclic_character(group: CayleyGroup, j: int, domain: str = "full_group") -> UnitaryCharacter:
    """Character exp(2*pi*i*j*x/N) of the order-N cyclic group."""
    if group.kind != "cyclic":
        raise SpecError("cyclic characters need a cyclic group")
    return exp_character(group, 2.0 * np.pi * int(j) / group.n, domain)


def _eta_extension(group: CayleyGroup, eta, rho0: complex = 1.0 + 0j):
    """Normalize an eta window into a function on integers or integer arrays.

    For finite coset count chi the window has length chi and extends by
    eta(m - chi) = eta(m) * rho0 (plain periodicity when rho0 = 1). For
    infinite chi any callable (or None, or a plain periodic list) is allowed.
    The values of a callable are checked where they are used, in the phases.
    """
    rho0 = require_unit(rho0, what="eta extension factor")
    if eta is None:
        # The trivial window still needs the rho0 twist across wraps.
        eta = [1.0 + 0j] * (group.chi or 1)
    if callable(eta):
        return lambda m: elementwise(lambda v: eta(int(v)), np.ravel(m)).reshape(np.shape(m))
    seq = require_unit(np.asarray(eta, dtype=complex).reshape(-1), what="eta entry")
    chi = group.chi
    if chi is not None:
        if len(seq) != chi:
            raise SpecError(
                f"eta window must have length chi = {chi}, got {len(seq)}")
        def extension(m):
            j, m0 = np.divmod(m, chi)
            return seq[m0] * rho0 ** (-j)
        return extension
    return lambda m: seq[np.mod(m, len(seq))]


def _require_nonseparating(group: CayleyGroup) -> None:
    if not group.nonseparating:
        raise FamilyPreconditionError(
            "homogeneity-preserving families need a nonseparating graph")


def _check_epsilon(group: CayleyGroup, epsilon) -> complex:
    eps = require_unit(epsilon, what="epsilon")
    if group.chi is None and abs(eps - 1.0) > UNIT_TOL:
        raise FamilyPreconditionError(
            "epsilon must be 1 when the coset count is infinite")
    return eps


def make_general_symmetry(u0: LocalUnitary, phases: PhaseField) -> SymmetryTransform:
    """Unrestricted symmetry: any local U0 plus any diagonal phase field."""
    if u0.group != phases.group:
        raise SpecError("U0 and phase field must share one group")
    return SymmetryTransform(u0.group, u0, phases, "general", {})


def identity_symmetry(group: CayleyGroup) -> SymmetryTransform:
    t = SymmetryTransform(group, LocalUnitary.identity(group),
                          PhaseField.ones(group), "general", {"identity": True})
    return t


def _uprime_diagonal(group: CayleyGroup, value, ctx: str = "") -> np.ndarray:
    """A diagonal U' given as a unit vector or a diagonal matrix."""
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 1:
        vec = arr
    elif arr.ndim == 2:
        if np.abs(arr - np.diag(np.diagonal(arr))).max() > UNIT_TOL:
            raise FamilyPreconditionError(f"U' must be diagonal {ctx}".rstrip())
        vec = np.diagonal(arr).copy()
    else:
        raise SpecError("U' entries must be vectors or matrices")
    if vec.shape[0] != group.coin_dim:
        raise SpecError(f"U' has size {vec.shape[0]}, expected {group.coin_dim}")
    return require_unit(vec, what="U' diagonal entry")


def _normalize_uprime_sequence(group: CayleyGroup, uprime):
    """Split a space-homogeneous U' argument into (U'_0 matrix, diag rule).

    Accepted forms: None (all identity); a unit vector (constant diagonal);
    a diagonal matrix (same); a non-diagonal matrix (U'_0 only, identity
    afterwards); a pair (U'_0, diag part); a callable n -> matrix/vector,
    whose n >= 1 values must be diagonal.
    """
    dim = group.coin_dim
    ones = np.ones(dim, dtype=complex)
    if uprime is None:
        return np.eye(dim, dtype=complex), lambda n: ones
    if callable(uprime):
        u0m = as_complex_matrix(uprime(0), dim)
        require_unitary(u0m, what="U'(0)")
        return u0m, lambda n: _uprime_diagonal(group, uprime(n), f"for steps n >= 1 (n = {n})")
    if isinstance(uprime, tuple) and len(uprime) == 2:
        u0m = as_complex_matrix(uprime[0], dim)
        require_unitary(u0m, what="U'(0)")
        rest = uprime[1]
        if rest is None:
            return u0m, lambda n: ones
        if callable(rest):
            return u0m, lambda n: _uprime_diagonal(group, rest(n), f"for n = {n}")
        vec = _uprime_diagonal(group, rest, "for steps n >= 1")
        return u0m, lambda n: vec
    arr = np.asarray(uprime, dtype=complex)
    if arr.ndim == 2 and np.abs(arr - np.diag(np.diagonal(arr))).max() > UNIT_TOL:
        require_unitary(as_complex_matrix(arr, dim), what="U'(0)")
        return arr.astype(complex), lambda n: ones
    vec = _uprime_diagonal(group, arr, "when given as a single vector")
    return np.diag(vec), lambda n: vec


def make_space_homog_symmetry(group: CayleyGroup, eta=None, rho=None,
                              uprime=None) -> SymmetryTransform:
    """Symmetry preserving space homogeneity of the coin.

    Phases follow u(n, x, c) = eta(n - k) * rho(xt) * U'(n)[c, c] with
    x = xt * c0^k; rho is a character of the zero-net-exponent subgroup, U'(0)
    may be any coin-space unitary while U'(n) is diagonal for n >= 1, and eta
    extends by eta(m - chi) = eta(m) * rho(c0^chi).
    """
    _require_nonseparating(group)
    if rho is None:
        rho = trivial_character(group, "causal_subgroup")
    if rho.domain != "causal_subgroup":
        raise FamilyPreconditionError(
            "space-homogeneous symmetries need a character of the "
            "zero-net-exponent subgroup")
    u0_mat, diag_rule = _normalize_uprime_sequence(group, uprime)
    rho0 = rho(group.pow_c0(group.chi)) if group.chi is not None else 1.0 + 0j
    eta_fn = _eta_extension(group, eta, rho0)

    def positional(n, keys):
        """eta(n - k) * rho(xt) at each key."""
        xt, k = group.decompose_keys(keys)
        return eta_fn(n - k) * rho.values(xt)

    u0 = LocalUnitary(group, lambda keys: positional(0, keys)[:, None, None] * u0_mat)
    phases = PhaseField.batched(
        group, lambda n, keys: positional(n, keys)[:, None] * diag_rule(n))
    params = {"eta": eta_fn, "rho": rho, "uprime0": u0_mat,
              "uprime_diag": diag_rule, "rho0": rho0}
    return SymmetryTransform(group, u0, phases, "space_homog", params)


def _normalize_delta(group: CayleyGroup, delta):
    """delta as a function of a key batch -> (N, dim) array."""
    dim = group.coin_dim
    if delta is None:
        return lambda keys: np.ones((len(keys), dim), dtype=complex)
    if callable(delta):
        return lambda keys: elementwise(lambda x: [delta(x, c) for c in range(dim)],
                                        group.elements_of(keys), (dim,))
    units = {(int(group.keys([x])[0]), int(c)): require_unit(value, what="delta entry")
             for (x, c), value in delta.items()}
    return lambda keys: elementwise(lambda k: [units.get((k, c), 1.0) for c in range(dim)],
                                    keys.tolist(), (dim,))


def make_time_homog_symmetry(group: CayleyGroup, epsilon=1.0, eta=None,
                             delta=None) -> SymmetryTransform:
    """Symmetry preserving time homogeneity of the coin.

    Phases follow u(n, x, c) = epsilon^n * eta(n - k) * delta(x, c) for all
    n, with the step-0 dressing the diagonal local unitary given by the same
    formula at n = 0. delta maps (element, coin index) to a unit; epsilon
    must be 1 when the coset count is infinite; eta is plain chi-periodic.
    """
    _require_nonseparating(group)
    eps = _check_epsilon(group, epsilon)
    eta_fn = _eta_extension(group, eta)
    delta_fn = _normalize_delta(group, delta)

    def phases(n, keys):
        return (eps ** n * eta_fn(n - group.coset_indices(keys)))[:, None] * delta_fn(keys)

    params = {"epsilon": eps, "eta": eta_fn, "delta": delta_fn}
    return SymmetryTransform(group, LocalUnitary(group, lambda keys: phases(0, keys)),
                             PhaseField.batched(group, phases), "time_homog", params)


def make_full_homog_symmetry(group: CayleyGroup, eta=None, epsilon=1.0,
                             gamma=None, uprime=None) -> SymmetryTransform:
    """Symmetry preserving both space and time homogeneity.

    Phases follow u(n, x, c) = eta(n - k) * epsilon^n * gamma(x) * U'[c, c]
    for all n, with gamma a character of the whole group and U' one constant
    diagonal coin-space unitary; the step-0 dressing uses the same formula.
    """
    _require_nonseparating(group)
    eps = _check_epsilon(group, epsilon)
    if gamma is None:
        gamma = trivial_character(group, "full_group")
    if gamma.domain != "full_group":
        raise FamilyPreconditionError(
            "fully homogeneous symmetries need a character of the whole group")
    uvec = (np.ones(group.coin_dim, dtype=complex) if uprime is None
            else _uprime_diagonal(group, uprime))
    eta_fn = _eta_extension(group, eta)

    def phases(n, keys):
        k = group.coset_indices(keys)
        return (eta_fn(n - k) * eps ** n * gamma.values(keys))[:, None] * uvec

    params = {"epsilon": eps, "eta": eta_fn, "gamma": gamma, "uprime": uvec}
    return SymmetryTransform(group, LocalUnitary(group, lambda keys: phases(0, keys)),
                             PhaseField.batched(group, phases), "full_homog", params)


def transform_state(t: SymmetryTransform, psi0: WalkState) -> WalkState:
    """Transformed initial state: U0 applied to the original."""
    if psi0.group != t.group:
        raise SpecError("symmetry and state live on different groups")
    return t.u0.apply(psi0)


def _shifted_phases(phases: PhaseField, n: int, keys: np.ndarray) -> np.ndarray:
    """(N, dim) array of u(n, x * s_c, c): each coin's phase at the position
    its shift moves it to, with the field evaluated once per position."""
    group = phases.group
    dim = group.coin_dim
    shifted, inverse = merge_keys(np.concatenate(
        [group.shift_rows(keys, c) for c in range(dim)]))
    values = phases.phases(n, shifted)
    return values[inverse.reshape(dim, len(keys)), np.arange(dim)[:, None]].T


def transform_coin(t: SymmetryTransform, coin: QuantumCoin) -> QuantumCoin:
    """Transformed coin rule built from the dressing.

    Component at (n, x) is V C(n, x) U(n, x)^dagger, where V holds the
    step-(n+1) phases at the shifted positions x * s_c and U(n, x) is U0 for
    n = 0 and the diagonal step-n phases otherwise.
    """
    group = t.group
    if coin.group != group:
        raise SpecError("symmetry and coin live on different groups")
    if t.family == "general" and t.params.get("identity"):
        return coin

    def blocks(n, keys):
        m = _shifted_phases(t.phases, n + 1, keys)[:, :, None] * coin.block(n, keys)
        u = t.u0.block(keys) if n == 0 else t.phases.phases(n, keys)
        if u.ndim == 2:
            return m * np.conj(u)[:, None, :]
        return m @ np.swapaxes(u.conj(), -1, -2)

    new_time = coin.time_homogeneous and t.family in ("time_homog", "full_homog")
    new_space = coin.space_homogeneous and t.family in ("space_homog", "full_homog")
    return QuantumCoin(group, blocks, time_homogeneous=new_time,
                       space_homogeneous=new_space, validate=True)


def apply_dressing(t: SymmetryTransform, n: int, state: WalkState) -> WalkState:
    """Dress a step-n state: U0 for n = 0, diagonal phases for n >= 1."""
    n = int(n)
    if n == 0:
        return t.u0.apply(state)
    return apply_block(state, t.phases.phases(n, state.positions))
