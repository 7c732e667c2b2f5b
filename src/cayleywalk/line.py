"""Walks on the integer line: coin factorization, canonical form, mirror.

Any 2x2 coin factors as C = omega * diag(mu, mu*) R(psi) diag(nu, nu*) with
unit omega, mu, nu and an angle psi. The factorization exposes the canonical
real rotation R(psi) (all other parameters are removable by a symmetry) and
the mirror construction: a reflection combined with a compensating symmetry
that restores the original coin while flipping the walk left-right.
Coin basis order is (+1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateCoinError, SpecError
from .groups import CayleyGroup
from .linalg import as_complex_matrix, require_unit, require_unitary, rotation_matrix

# The symmetry side loads on first use: a line_params coin needs none of it.
if TYPE_CHECKING:
    from .automorphisms import GeneralizedSymmetry, ShiftedAutomorphism
    from .symmetry import SymmetryTransform

# Below this |sin(psi)| the nu parameter is no longer determined by the coin.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class LineCoinParams:
    """Factorization parameters (omega, mu, nu unit moduli; psi in radians)."""

    omega: complex
    mu: complex
    nu: complex
    psi: float

    def __post_init__(self):
        for name in ("omega", "mu", "nu"):
            require_unit(getattr(self, name), what=name)


def _line_group(group: CayleyGroup) -> CayleyGroup:
    if group.kind != "line" or group.coin_dim != 2:
        raise SpecError("line toolkit needs the two-generator line group")
    return group


def build_line_coin(p: LineCoinParams) -> np.ndarray:
    """Coin matrix omega * diag(mu, mu*) R(psi) diag(nu, nu*)."""
    left = np.diag([p.mu, np.conj(p.mu)])
    right = np.diag([p.nu, np.conj(p.nu)])
    return p.omega * left @ rotation_matrix(p.psi) @ right


def decompose_line_coin(matrix) -> LineCoinParams:
    """Factor a 2x2 unitary into LineCoinParams.

    Deterministic branch choices: psi in [0, pi/2]; omega the principal
    square root of det C; nu = exp(i theta / 2) with theta in (-pi, pi], so
    Re(nu) >= 0, and the tie Re(nu) = 0 (up to rounding) has Im(nu) > 0; in
    the psi = 0 or pi/2 branches nu is not determined and is set to 1.
    """
    c = as_complex_matrix(matrix, 2)
    require_unitary(c, what="line coin")
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    omega = np.exp(0.5j * np.angle(det))
    psi = float(np.arctan2(np.abs(c[0, 1]), np.abs(c[0, 0])))
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    if sin_psi < 1e-12:
        nu = 1.0 + 0j
        mu = c[0, 0] / omega
    elif cos_psi < 1e-12:
        nu = 1.0 + 0j
        mu = c[0, 1] / omega
    else:
        p = c[0, 0] / (omega * cos_psi)   # mu * nu
        q = c[0, 1] / (omega * sin_psi)   # mu * conj(nu)
        theta = np.angle(p / q)
        # a negative real p / q with a -0.0 imaginary part reads -pi
        nu = np.exp(0.5j * (np.pi if theta == -np.pi else theta))
        mu = p / nu
    params = LineCoinParams(complex(omega), complex(mu), complex(nu), psi)
    residual = np.abs(build_line_coin(params) - c).max()
    if residual > 1e-10:
        raise SpecError(f"coin factorization failed (residual {residual:.3e})")
    return params


def canonicalize_line_coin(matrix, group: CayleyGroup):
    """Symmetry reducing a coin to its canonical real rotation.

    Returns (psi, t) where t is the fully homogeneous symmetry with
    epsilon = conj(omega), character exp(-i arg(mu nu) x) and
    U' = diag(nu, conj(nu)); transforming the input coin by t yields R(psi).
    """
    from .symmetry import exp_character, make_full_homog_symmetry
    g = _line_group(group)
    p = decompose_line_coin(matrix)
    phi = -float(np.angle(p.mu * p.nu))
    t = make_full_homog_symmetry(
        g,
        epsilon=np.conj(p.omega),
        gamma=exp_character(g, phi),
        uprime=np.array([p.nu, np.conj(p.nu)]),
    )
    return p.psi, t


def reflection_automorphism(group: CayleyGroup) -> ShiftedAutomorphism:
    """The automorphism x -> -x with swapped coin directions."""
    from .automorphisms import ShiftedAutomorphism
    return ShiftedAutomorphism(_line_group(group), 0, (1, 0))


def mirror_inner_symmetry(p: LineCoinParams, group: CayleyGroup) -> SymmetryTransform:
    """Compensating symmetry so that reflection leaves the coin unchanged."""
    from .symmetry import exp_character, make_full_homog_symmetry
    g = _line_group(group)
    phi = -float(np.angle(p.mu ** 2 * p.nu ** 2))
    return make_full_homog_symmetry(
        g,
        epsilon=1.0,
        gamma=exp_character(g, phi),
        uprime=np.array([1j * p.nu ** 2, -1j * np.conj(p.nu) ** 2]),
    )


def mirror_generalized_symmetry(p: LineCoinParams, group: CayleyGroup) -> GeneralizedSymmetry:
    """Reflection composed with the compensating symmetry.

    The transformed coin equals the original one, and the transformed walk's
    distribution is the left-right mirror of the original.
    """
    from .automorphisms import make_generalized_symmetry
    return make_generalized_symmetry(reflection_automorphism(group),
                                     mirror_inner_symmetry(p, group))


def mirror_chirality_map(p: LineCoinParams) -> np.ndarray:
    """The 2x2 map Q sending an initial chirality at the origin to the one
    whose walk is the exact mirror image."""
    nu2 = p.nu ** 2
    return np.array([[0.0, -1j * np.conj(nu2)], [1j * nu2, 0.0]], dtype=complex)


def symmetric_initial_states(p: LineCoinParams):
    """Eigenvectors of the chirality map: starts with left-right symmetric
    distributions at every step.

    Fails for psi near a multiple of pi, where nu (and hence the pair) is
    not determined by the coin.
    """
    if abs(np.sin(p.psi)) < DEGENERACY_TOL:
        raise DegenerateCoinError(
            "symmetric chiralities are undefined for psi near a multiple of pi")
    plus = np.array([np.conj(p.nu), 1j * p.nu], dtype=complex) / np.sqrt(2)
    minus = np.array([np.conj(p.nu), -1j * p.nu], dtype=complex) / np.sqrt(2)
    return plus, minus
