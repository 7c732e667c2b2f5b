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


def _first_failure(ok: np.ndarray, what: str, where, detail) -> None:
    """Raise for the first False entry of `ok` (written by callers as
    `x <= tol`, so that NaN fails), naming the row it lies in by where(i),
    or by its index when `where` is None."""
    if ok.all():
        return
    bad = int(np.flatnonzero(~ok)[0])
    at = ""
    if ok.ndim:
        i = int(np.unravel_index(bad, ok.shape)[0])
        at = f" at {where(i) if where is not None else f'#{i}'}"
    raise NonUnitaryError(f"{what}{at} {detail(bad)}")


def require_unitary(m, tol: float = UNITARY_TOL, what: str = "matrix",
                    where=None) -> np.ndarray:
    """m as a complex array of unitary matrices: one (dim, dim) matrix or a
    batch (N, dim, dim), checked once for the whole batch."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise NonUnitaryError(f"expected square matrices, got shape {a.shape}")
    defect = np.abs(a @ np.swapaxes(a.conj(), -1, -2) - np.eye(a.shape[-1])).max(axis=(-2, -1))
    _first_failure(defect <= tol, what, where,
                   lambda i: f"is not unitary (defect {defect.flat[i]:.3e} > {tol:.0e})")
    return a


def require_unit(z, tol: float = UNITARY_TOL, what: str = "phase", where=None):
    """z as complex units: a complex for a scalar, a complex array for an
    array (rows named by `where` in an error), checked once."""
    a = np.asarray(z, dtype=complex)
    _first_failure(np.abs(np.abs(a) - 1.0) <= tol, what, where,
                   lambda i: f"must be a complex unit, got |z| = {abs(a.flat[i]):.12f}")
    return complex(a) if a.ndim == 0 else a


def rotation_matrix(psi: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, s], [-s, c]], dtype=complex)


def hadamard_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def grover_matrix(dim: int) -> np.ndarray:
    """The reflection-about-the-mean matrix 2/dim * J - I."""
    return (2.0 / dim) * np.ones((dim, dim), dtype=complex) - np.eye(dim, dtype=complex)
