"""Walk symmetries: dressed evolutions that reproduce a walk step for step.

A symmetry sends (coin, initial state) to (transformed coin, transformed
state) such that the transformed evolution equals the original one dressed by
a local unitary U(n) at every step. U(0) is an arbitrary local unitary U0; at
steps n >= 1 U(n) is diagonal in the position/coin basis, the phase field
u(n, x, c). The whole sequence is one step-dependent states.LocalUnitary,
also named PhaseField here.

Three constructor families restrict the phase field so that the transform
preserves space homogeneity, time homogeneity, or both. Their closed forms
hang on the decomposition x = xt * c0^k (xt in the zero-net-exponent
subgroup, k the coset index) and a window sequence eta evaluated at n - k;
they are evaluated on whole batches of position keys (see states). The
paper builds these families on a nonseparating Cayley graph; every group
here is abelian, where S^n S^-n = S^-n S^n, so that assumption always holds.
Each factor is checked where it is made, so a product is not checked again.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import FamilyPreconditionError, SpecError
from .groups import CayleyGroup, _integer
from .linalg import UNITARY_TOL, as_complex_matrix, require_unit, require_unitary
from .states import (LocalUnitary, WalkState, block_product, elementwise, find_keys, lookup_rows,
                     merge_keys, prune, require_block, shift_plan)
from .walk import QuantumCoin


# The dressing-phase name of the one local-operator type.
PhaseField = LocalUnitary


@dataclass(frozen=True, eq=False)
class SymmetryTransform:
    """A symmetry's dressing: one local operator, U0 at step 0 and diagonal
    phases after."""

    group: CayleyGroup
    phases: LocalUnitary
    family: str = "general"
    params: dict = field(default_factory=dict)
    # (coin, transformed coin) of the uniform transformed coin built latest
    # (see transform_coin); dataclasses.replace starts without one
    uniform_coin: tuple | None = field(default=None, init=False, repr=False)


class UnitaryCharacter:
    """Multiplicative map from group elements to complex units.

    domain is "full_group" or "causal_subgroup"; the latter promises the rule
    is only ever evaluated on zero-net-exponent elements. `values(keys)`
    gives the character over a batch of position keys. A user's rule is
    checked on every batch and sampled for multiplicativity when built; the
    built-in closed forms (trivial, exp, sign, cyclic) are neither.
    """

    __slots__ = ("group", "domain", "values", "descriptor")

    def __init__(self, group: CayleyGroup, domain: str, rule, descriptor=None):
        """Character of a scalar rule(x) -> complex unit."""
        self._setup(group, domain, _checked_values(
            group, lambda keys: elementwise(rule, group.elements_of(keys))), descriptor)
        self._check_multiplicative()

    def _setup(self, group: CayleyGroup, domain: str, values, descriptor) -> None:
        if domain not in ("full_group", "causal_subgroup"):
            raise SpecError(f"unknown character domain {domain!r}")
        self.group, self.domain, self.values, self.descriptor = group, domain, values, descriptor

    @classmethod
    def batched(cls, group: CayleyGroup, domain: str, values,
                descriptor=None) -> "UnitaryCharacter":
        """Character of values(keys) -> (N,) complex array."""
        char = _closed_form(group, domain, _checked_values(group, values), descriptor)
        char._check_multiplicative()
        return char

    def __call__(self, x) -> complex:
        return complex(self.values(self.group.keys([x]))[0])

    def _check_multiplicative(self) -> None:
        """Compare chi(ab) with chi(a) chi(b) on all pairs of a finite group
        of order <= 128, otherwise on 1000 random pairs, the same on every
        call: drawn from random.Random(20240917)."""
        group = self.group
        if group.is_finite and group.order <= 128:
            pool = group.pack(list(group.elements()))
            if self.domain == "causal_subgroup":
                pool = pool[group.coset_indices(pool) == 0]
            a, b = np.repeat(pool, len(pool)), np.tile(pool, len(pool))
        else:
            rng = random.Random(20240917)
            a, b = (group.pack(group.random_elements(rng, 1000)) for _ in range(2))
            if self.domain == "causal_subgroup":
                a, b = group.decompose_keys(a)[0], group.decompose_keys(b)[0]
        lhs = self.values(group.mul_keys(a, b))
        rhs = self.values(a) * self.values(b)
        bad = np.flatnonzero(~(np.abs(lhs - rhs) <= UNITARY_TOL))
        if bad.size:
            pair = tuple(group.elements_of(np.array([a[bad[0]], b[bad[0]]])))
            raise SpecError(f"character is not multiplicative at {pair!r}")


def _checked_values(group: CayleyGroup, values):
    """values(keys), checked to be complex units on every batch."""
    return lambda keys: require_block(group, keys, values(keys), "character value")


def _closed_form(group: CayleyGroup, domain: str, values, descriptor) -> UnitaryCharacter:
    """Character of values(keys) as given, neither checked nor sampled here."""
    char = UnitaryCharacter.__new__(UnitaryCharacter)
    char._setup(group, domain, values, descriptor)
    return char


def _finite_character(group: CayleyGroup, turns, domain: str, descriptor) -> UnitaryCharacter:
    """exp(2 pi i sum k x / m) over the axes of period m, k = turns[axis], with k x
    reduced modulo m in integers: phi x in floats is no homomorphism at large x."""
    m = np.array(group.moduli)
    if m.max() > 2 ** 31:
        raise SpecError("characters need periods up to 2**31, so that k * x fits an int64")
    k = np.array(turns) % m
    return _closed_form(group, domain, lambda keys: np.exp(
        2j * np.pi * (group.unpack(keys) * k % m / m).sum(axis=1)), descriptor)


def trivial_character(group: CayleyGroup, domain: str = "full_group") -> UnitaryCharacter:
    return _closed_form(group, domain, lambda keys: np.ones(len(keys), dtype=complex),
                        {"kind": "trivial"})


def exp_character(group: CayleyGroup, phi, domain: str = "full_group") -> UnitaryCharacter:
    """Character exp(i * phi . x).

    phi is a scalar on the integer kinds (line, cyclic) and a vector with one
    entry per axis on the tuple kinds (lattice, hypercube). On a finite axis
    of modulus m, phi's entry times m must be a multiple of 2*pi: phi * m /
    (2*pi) may miss the integer k by a few ulp, the rounding of a float
    phi = 2*pi*k/m and of this quotient. Incommensurate values are rejected,
    and a commensurate one is rounded to k, giving exp(2*pi*i * k * x / m).
    """
    if group.tuple_elements:
        vec = np.asarray(phi, dtype=float).reshape(-1)
        if vec.shape[0] != len(group.moduli):
            raise SpecError(f"phi must have length {len(group.moduli)}")
        descriptor = {"kind": "exp_linear", "phi": [float(v) for v in vec]}
    else:
        phi = float(phi)
        vec = np.array([phi])
        descriptor = {"kind": "exp_linear", "phi": phi}
    # the closed form gives units only for a finite phi (math.isfinite: a
    # first np.isfinite call raises a process's peak memory by about 0.2 MB)
    if not all(map(math.isfinite, vec.tolist())):
        raise SpecError(f"exp character needs a finite phi, got {phi!r}")
    turns = [v * m / (2 * math.pi) for v, m in zip(vec.tolist(), group.moduli)]
    for t, m in zip(turns, group.moduli):
        if m and abs(t - round(t)) > 4 * math.ulp(t):
            raise SpecError(f"exp character needs phi * {m} to be a multiple of 2*pi "
                            f"on an axis of period {m}")
    if not group.is_finite:
        return _closed_form(group, domain, lambda keys: np.exp(1j * (group.unpack(keys) @ vec)),
                            descriptor)
    return _finite_character(group, [round(t) for t in turns], domain, descriptor)


def sign_character(group: CayleyGroup, mask, domain: str = "full_group") -> UnitaryCharacter:
    """Character (-1)^(mask . x); mask entries are 0 or 1, one per axis on
    the tuple kinds. A set entry needs an even period on a finite axis."""
    if group.tuple_elements:
        vec = [_integer(v, "mask entry") % 2 for v in mask]
        if len(vec) != len(group.moduli):
            raise SpecError(f"mask must have length {len(group.moduli)}")
        descriptor = {"kind": "sign", "mask": vec}
    else:
        vec = [_integer(mask, "mask")]
        descriptor = {"kind": "sign", "mask": vec[0]}
    if any(v % 2 and m % 2 for v, m in zip(vec, group.moduli)):
        raise SpecError("sign character requires an even period")
    vec = np.array(vec, dtype=np.int64)
    values = lambda keys: (1.0 - 2.0 * ((group.unpack(keys) @ vec) % 2)).astype(complex)
    return _closed_form(group, domain, values, descriptor)


def cyclic_character(group: CayleyGroup, j: int, domain: str = "full_group") -> UnitaryCharacter:
    """Character exp(2*pi*i*j*x/N) of the order-N cyclic group (see _finite_character)."""
    if group.kind != "cyclic":
        raise SpecError("cyclic characters need a cyclic group")
    if not math.isfinite(j):
        raise SpecError(f"cyclic character index {j!r} is not finite")
    j = _integer(j, "cyclic character index")
    return _finite_character(group, [j], domain,
                             {"kind": "exp_linear", "phi": 2.0 * np.pi * j / group.n})


def _unit_powers(z: complex):
    """n -> z ** n for a unit z and an integer or integer array n, as the
    unit phase exp(i n arg z). A complex power drifts in magnitude by about
    1e-16 per factor, and a dressing made of it drifts off unitarity far
    from step 0 or from the origin."""
    turn = 1j * math.atan2(z.imag, z.real)
    return lambda n: np.exp(turn * n)


def _eta_extension(group: CayleyGroup, eta, rho0: complex = 1.0 + 0j):
    """Normalize an eta window into a function on integers or integer arrays.

    For finite coset count chi the window (a list, or a callable read once on
    m = 0..chi-1) has length chi and extends by eta(m - chi) = eta(m) * rho0
    (plain periodicity when rho0 = 1). For infinite chi any callable (or None,
    or a plain periodic list) is allowed. A list or window is checked here,
    once; a callable on infinite chi once per distinct m in each batch.
    """
    twist = _unit_powers(require_unit(rho0, what="eta extension factor"))
    if eta is None:
        # The trivial window still needs the rho0 twist across wraps.
        eta = [1.0 + 0j] * (group.chi or 1)
    if callable(eta) and group.chi is not None:
        eta = elementwise(eta, range(group.chi))
    if callable(eta):
        def evaluate(m):
            # once per distinct m: a batch holds few values of n - k
            distinct, inverse = merge_keys(np.ravel(m))
            values = require_unit(elementwise(eta, distinct.tolist()), what="eta",
                                  where=lambda i: f"m = {distinct[i]}")
            return values[inverse].reshape(np.shape(m))
        return evaluate
    seq = require_unit(np.asarray(eta, dtype=complex).reshape(-1), what="eta entry")
    chi = group.chi
    if chi is not None:
        if len(seq) != chi:
            raise SpecError(
                f"eta window must have length chi = {chi}, got {len(seq)}")
        def extension(m):
            j, m0 = np.divmod(m, chi)
            return seq[m0] * twist(-j)
        return extension
    return lambda m: seq[np.mod(m, len(seq))]


def _check_epsilon(group: CayleyGroup, epsilon) -> complex:
    eps = require_unit(epsilon, what="epsilon")
    if group.chi is None and abs(eps - 1.0) > UNITARY_TOL:
        raise FamilyPreconditionError(
            "epsilon must be 1 when the coset count is infinite")
    return eps


def make_general_symmetry(u0: LocalUnitary, phases: LocalUnitary) -> SymmetryTransform:
    """Unrestricted symmetry: any local U0 at step 0, then the diagonal
    phases of `phases` at steps n >= 1."""
    if u0.group != phases.group:
        raise SpecError("U0 and phase field must share one group")
    # each part checks its own blocks; the dressing's memo alone keeps them
    dressing = LocalUnitary._built(
        u0.group, lambda n, keys: (phases if n else u0).evaluate(n, keys))
    return SymmetryTransform(u0.group, dressing, "general", {})


def identity_symmetry(group: CayleyGroup) -> SymmetryTransform:
    return SymmetryTransform(group, LocalUnitary.identity(group), "general", {"identity": True})


def _uprime_array(value) -> np.ndarray:
    """A U' value as a complex array; SpecError naming U' when numpy cannot
    read it as one (a ragged sequence, say)."""
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"U' must be a vector or a matrix of numbers: {exc}") from None


def _uprime_diagonal(group: CayleyGroup, value, ctx: str = "") -> np.ndarray:
    """A diagonal U' given as a unit vector or a diagonal matrix, checked;
    `ctx` says which U' in an error."""
    arr = _uprime_array(value)
    if arr.ndim == 1:
        vec = arr
    elif arr.ndim == 2:
        if np.abs(arr - np.diag(np.diagonal(arr))).max() > UNITARY_TOL:
            raise FamilyPreconditionError(f"U' must be diagonal {ctx}".rstrip())
        vec = np.diagonal(arr).copy()
    else:
        raise SpecError("U' entries must be vectors or matrices")
    if vec.shape[0] != group.coin_dim:
        raise SpecError(f"U' has size {vec.shape[0]}, expected {group.coin_dim}")
    return require_unit(vec, what=f"U' diagonal entry {ctx}".rstrip())


def _latest_steps(rule):
    """rule(n), kept for the latest four steps asked for, so rule must be a
    pure function of n. A relation check asks for each step's value about
    three times, on neighbouring steps."""
    memo: dict = {}  # oldest first

    def at(n):
        value = memo.get(n)
        if value is None:
            value = memo[n] = rule(n)
            if len(memo) > 4:
                del memo[next(iter(memo))]
        return value

    return at


def _normalize_uprime_sequence(group: CayleyGroup, uprime):
    """Split a space-homogeneous U' argument into (U'_0 matrix, diag rule).

    Accepted forms: None (all identity); a unit vector (constant diagonal);
    a diagonal matrix (same); a non-diagonal matrix (U'_0 only, identity
    afterwards); a callable n -> matrix/vector, whose n >= 1 values must be
    diagonal. A callable must be a pure function of n: its checked diagonal
    is kept for the latest steps.
    """
    dim = group.coin_dim
    ones = np.ones(dim, dtype=complex)

    def step_zero(m):
        return require_unitary(as_complex_matrix(_uprime_array(m), dim), what="U'(0)")

    if uprime is None:
        return np.eye(dim, dtype=complex), lambda n: ones
    if callable(uprime):
        return step_zero(uprime(0)), _latest_steps(
            lambda n: _uprime_diagonal(group, uprime(n), f"for steps n >= 1 (n = {n})"))
    arr = _uprime_array(uprime)
    if arr.ndim == 2 and np.abs(arr - np.diag(np.diagonal(arr))).max() > UNITARY_TOL:
        return step_zero(arr.astype(complex)), lambda n: ones
    vec = _uprime_diagonal(group, arr, "when given as a single vector")
    return np.diag(vec), lambda n: vec


def make_space_homog_symmetry(group: CayleyGroup, eta=None, rho=None,
                              uprime=None) -> SymmetryTransform:
    """Symmetry preserving space homogeneity of the coin.

    Phases follow u(n, x, c) = eta(n - k) * rho(xt) * U'(n)[c, c] with
    x = xt * c0^k; rho is a character of the zero-net-exponent subgroup, U'(0)
    may be any coin-space unitary while U'(n) is diagonal for n >= 1, and eta
    extends by eta(m - chi) = eta(m) * rho(c0^chi). A callable U' or eta must
    be a pure function of its argument, as delta must be. For a coin with no
    zero entry these phases span every continuous solution; each zero entry
    drops a constraint and admits more (tests/test_completeness.py counts).
    """
    if rho is None:
        rho = trivial_character(group, "causal_subgroup")
    if rho.domain != "causal_subgroup":
        raise FamilyPreconditionError(
            "space-homogeneous symmetries need a character of the "
            "zero-net-exponent subgroup")
    u0_mat, diag_rule = _normalize_uprime_sequence(group, uprime)
    rho0 = rho(group.pow_c0(group.chi)) if group.chi is not None else 1.0 + 0j
    eta_fn = _eta_extension(group, eta, rho0)

    def blocks(n, keys):
        """eta(n - k) * rho(xt) * U'(n) at each key."""
        xt, k = group.decompose_keys(keys)
        positional = eta_fn(n - k) * rho.values(xt)
        if n == 0:
            return positional[:, None, None] * u0_mat
        return positional[:, None] * diag_rule(n)

    params = {"eta": eta_fn, "rho": rho, "uprime0": u0_mat,
              "uprime_diag": diag_rule, "rho0": rho0}
    return SymmetryTransform(group, LocalUnitary._built(group, blocks), "space_homog", params)


class RowMemo:
    """A step-free rule rows(keys) -> (N, dim) rows, evaluated once per key.

    Each batch evaluates the rule only on its keys not seen before, once
    each and in key order, and looks the rest up with states.find_keys. Rows
    are kept for as long as the memo lives, so the rule must be a pure
    function of the key. A batch on which the rule raises stores nothing."""

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


def _normalize_delta(group: CayleyGroup, delta):
    """delta as a function of a key batch -> (N, dim) array of checked units.
    A callable's row at a position is evaluated and checked once, the first
    time it is asked for (see RowMemo)."""
    dim = group.coin_dim
    if delta is None:
        return lambda keys: np.ones((len(keys), dim), dtype=complex)
    if callable(delta):
        return RowMemo(lambda keys: require_block(
            group, keys, elementwise(delta, group.elements_of(keys), coins=dim), "delta"), dim)
    return lookup_rows(group, {xc: require_unit(value, what="delta entry")
                               for xc, value in delta.items()}, 1.0)


def make_time_homog_symmetry(group: CayleyGroup, epsilon=1.0, eta=None,
                             delta=None) -> SymmetryTransform:
    """Symmetry preserving time homogeneity of the coin.

    Phases follow u(n, x, c) = epsilon^n * eta(n - k) * delta(x, c) for all
    n, with the step-0 dressing the diagonal local unitary given by the same
    formula at n = 0. delta maps (element, coin index) to a unit and must be
    a pure function of them: its row at a position is evaluated once and
    kept for as long as the transform lives. epsilon must be 1 when the
    coset count is infinite; eta is plain chi-periodic. As for space_homog,
    the phases span every continuous solution only for a coin with no zero entry.
    """
    eps = _check_epsilon(group, epsilon)
    eta_fn = _eta_extension(group, eta)
    delta_fn = _normalize_delta(group, delta)
    power = _unit_powers(eps)

    def phases(n, keys):
        return (power(n) * eta_fn(n - group.coset_indices(keys)))[:, None] * delta_fn(keys)

    params = {"epsilon": eps, "eta": eta_fn, "delta": delta_fn}
    return SymmetryTransform(group, LocalUnitary._built(group, phases), "time_homog", params)


def make_full_homog_symmetry(group: CayleyGroup, eta=None, epsilon=1.0,
                             gamma=None, uprime=None) -> SymmetryTransform:
    """Symmetry preserving both space and time homogeneity.

    Phases follow u(n, x, c) = eta(n - k) * epsilon^n * gamma(x) * U'[c, c]
    for all n, with gamma a character of the whole group and U' one constant
    diagonal coin-space unitary; the step-0 dressing uses the same formula.
    As for space_homog, the phases span every continuous solution only for a
    coin with no zero entry.
    """
    eps = _check_epsilon(group, epsilon)
    if gamma is None:
        gamma = trivial_character(group, "full_group")
    if gamma.domain != "full_group":
        raise FamilyPreconditionError(
            "fully homogeneous symmetries need a character of the whole group")
    uvec = (np.ones(group.coin_dim, dtype=complex) if uprime is None
            else _uprime_diagonal(group, uprime))
    eta_fn = _eta_extension(group, eta)
    power = _unit_powers(eps)

    def phases(n, keys):
        k = group.coset_indices(keys)
        return (eta_fn(n - k) * power(n) * gamma.values(keys))[:, None] * uvec

    params = {"epsilon": eps, "eta": eta_fn, "gamma": gamma, "uprime": uvec}
    return SymmetryTransform(group, LocalUnitary._built(group, phases), "full_homog", params)


def transform_state(t: SymmetryTransform, psi0: WalkState) -> WalkState:
    """Transformed initial state: the step-0 dressing U0 applied to the original."""
    return apply_dressing(t, 0, psi0)


def _shifted_phases(phases: LocalUnitary, n: int, keys: np.ndarray) -> np.ndarray:
    """(N, dim) array of u(n, x * s_c, c): each coin's phase at the position
    its shift moves it to, with the field evaluated once per position."""
    dim = phases.group.coin_dim
    shifted, inverse = shift_plan(phases.group, keys)
    values = phases.block(n, shifted)
    return values[inverse.reshape(dim, len(keys)), np.arange(dim)[:, None]].T


def transform_coin(t: SymmetryTransform, coin: QuantumCoin) -> QuantumCoin:
    """Transformed coin rule built from the dressing.

    Component at (n, x) is V C(n, x) U(n, x)^dagger, where V holds the
    step-(n+1) phases at the shifted positions x * s_c and U(n, x) is the
    step-n dressing: U0 at n = 0, diagonal phases after.

    The transformed coin declares homogeneity flags only when it is uniform
    (the full_homog family of a uniform coin), where they give one block for
    the whole walk; the flags are probed here, once per transform and coin:
    the transform keeps the uniform coin it built latest and hands it out
    again for the same coin. Any other transformed coin is evaluated at the
    walk's own (n, keys), even where the family preserves one homogeneity
    (verify.check_homogeneity certifies that by probing): the shifted
    positions are the next state's positions unless a row is pruned, so the
    dressing's memo serves the step-(n+1) phases again as U(n+1) one step
    later, and again to dress the original walk.
    """
    group = t.group
    if coin.group != group:
        raise SpecError("symmetry and coin live on different groups")
    if t.family == "general" and t.params.get("identity"):
        return coin

    def blocks(n, keys):
        m = _shifted_phases(t.phases, n + 1, keys)[:, :, None] * coin.block(n, keys)
        u = t.phases.block(n, keys)
        if u.ndim == 2:
            return m * np.conj(u)[:, None, :]
        return m @ np.swapaxes(u.conj(), -1, -2)

    # each factor of a block is checked where it is made (the coin's and the
    # dressing's own checks), so the product is not checked again
    if not (coin.time_homogeneous and coin.space_homogeneous and t.family == "full_homog"):
        return QuantumCoin._built(group, blocks)
    if t.uniform_coin is not None and t.uniform_coin[0] is coin:
        return t.uniform_coin[1]
    new_coin = QuantumCoin._built(group, blocks, True, True)
    new_coin._probe_flags()
    # kept, so that checking the transform again does not probe it again
    object.__setattr__(t, "uniform_coin", (coin, new_coin))
    return new_coin


def apply_dressing(t: SymmetryTransform, n: int, state: WalkState) -> WalkState:
    """Dress a step-n state with the symmetry's local operator U(n), on the
    state's own rows: the product is pruned as a coin product is
    (states.prune), and a row left empty is kept, so that a relation check
    subtracts the dressed original from the transformed state in place."""
    if state.group != t.phases.group:
        raise SpecError("operator and state live on different groups")
    amps = block_product(t.phases.block(n, state.positions), state.amps)
    return WalkState(state.group, state.positions, prune(amps)[0])
