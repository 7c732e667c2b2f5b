"""Small dense linear-algebra helpers shared across the package."""

from __future__ import annotations

import numpy as np

from .errors import NonUnitaryError

UNITARY_TOL = 1e-12


def as_complex_matrix(m, dim: int | None = None) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonUnitaryError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise NonUnitaryError(f"expected a {dim}x{dim} matrix, got {a.shape[0]}x{a.shape[0]}")
    return a


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() <= tol)


def require_unitary(m, tol: float = UNITARY_TOL, what: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(m)
    defect = np.abs(a @ a.conj().T - np.eye(a.shape[0])).max()
    if not defect <= tol:  # written so that a NaN defect fails
        raise NonUnitaryError(f"{what} is not unitary (defect {defect:.3e} > {tol:.0e})")
    return a


def require_unit(z, tol: float = UNITARY_TOL, what: str = "phase") -> complex:
    z = complex(z)
    if not abs(abs(z) - 1.0) <= tol:
        raise NonUnitaryError(f"{what} must be a complex unit, got |z| = {abs(z):.12f}")
    return z


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_phases(count: int, rng: np.random.Generator) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(count))


def rotation_matrix(psi: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, s], [-s, c]], dtype=complex)


def hadamard_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def grover_matrix(dim: int) -> np.ndarray:
    """The reflection-about-the-mean matrix 2/dim * J - I."""
    return (2.0 / dim) * np.ones((dim, dim), dtype=complex) - np.eye(dim, dtype=complex)


def pauli_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)
