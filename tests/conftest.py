"""Shared test helpers."""

from __future__ import annotations

import os
import random
from pathlib import Path

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup,
                        WalkState)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """CLI tests run `python -m cayleywalk` in child processes, which do not
    see pytest's `pythonpath` setting; put the same source tree on theirs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        yield


def sampler(rng: np.random.Generator) -> random.Random:
    """The stdlib sampler that random_elements takes, seeded from the next
    draw of a numpy Generator, so one test seed fixes both."""
    return random.Random(int(rng.integers(1 << 32)))


def random_state(group, rng, count: int = 4) -> WalkState:
    """Normalized random state supported on a few sampled positions."""
    xs = group.random_elements(sampler(rng), count)
    terms = []
    for x in xs:
        for c in range(group.coin_dim):
            amp = rng.normal() + 1j * rng.normal()
            terms.append((x, c, amp))
    return WalkState.from_terms(group, terms).normalized()


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_phases(count: int, rng: np.random.Generator) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(count))


def probabilities(state: WalkState) -> dict:
    """Probability per position, as position_distribution gives it but
    without its warning for a total off 1."""
    keys, probs = state.position_probabilities()
    return dict(zip(state.group.elements_of(keys), probs.tolist()))


def pauli_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


def all_groups():
    return [LineGroup(), CyclicGroup(8), CyclicGroup(8, generators=(1,)),
            LatticeGroup(2), LatticeGroup(2, period=6), HypercubeGroup(3),
            LineGroup((1,)), LineGroup((-1, 1), 1), CyclicGroup(9, (2, 5), 1),
            LatticeGroup(3, period=5), LatticeGroup(2, 6, c0_index=3)]


# Test ids of all_groups(), in its order.
GROUP_IDS = ["line", "cyclic0", "cyclic1", "lattice0", "lattice1", "hypercube",
             "halfline", "line_c0_1", "cyclic9", "torus3_5", "torus2_6_c0_3"]


# -- a package-free group law ------------------------------------------------------
#
# Each kind is Z_{m_1} x ... x Z_{m_d} (m = 0: Z), read here from the group's
# spec alone, so the package's own law is checked against coordinate
# arithmetic written out in the tests.


def oracle_law(group):
    """(moduli, generator vectors) of a group, from its describe() spec."""
    spec = group.describe()
    kind = spec["kind"]
    if kind == "line":
        return (0,), [(g,) for g in spec["generators"]]
    if kind == "cyclic":
        return (spec["N"],), [(g,) for g in spec["generators"]]
    d = spec["d"]
    unit = [tuple(int(i == axis) for i in range(d)) for axis in range(d)]
    if kind == "hypercube":
        return (2,) * d, unit
    return (spec.get("N", 0),) * d, [v for e in unit for v in (e, tuple(-c for c in e))]


def oracle_add(moduli, x, v):
    """Element x plus the coordinate vector v, wrapped on the finite axes, in
    x's form (an int or a tuple)."""
    xs = x if isinstance(x, tuple) else (x,)
    out = tuple((a + b) % m if m else a + b for a, b, m in zip(xs, v, moduli))
    return out if isinstance(x, tuple) else out[0]
