"""The package's public surface: `__all__` names each public object once,
and the wrappers that only repeated another call stay removed."""

from __future__ import annotations

import types

import cayleywalk as cw
from cayleywalk import automorphisms, groups, linalg, states, walk

# (owner, name) of each removed wrapper; the README lists what replaces it
REMOVED = [
    (states.WalkState, "distance"),
    (states.WalkState, "basis_state"),
    (states.WalkState, "scale"),
    (groups.CayleyGroup, "format_element"),
    (groups.CayleyGroup, "sort_key"),
    (linalg, "pauli_x"),
    (linalg, "random_phases"),
    (linalg, "random_unitary"),
    (automorphisms.ShiftedAutomorphism, "coin_permutation_matrix"),
    (automorphisms, "identity_automorphism"),
    (automorphisms, "make_shifted_automorphism"),
    (walk, "PROBE_STEPS"),
    (walk, "homogeneity_spreads"),
]


def test_all_names_each_public_object_once_and_no_module():
    assert cw.__all__ == sorted(set(cw.__all__))
    for name in cw.__all__:
        assert not isinstance(getattr(cw, name), types.ModuleType), name
    assert {"QuantumCoin", "LocalUnitary", "WalkState", "evolve"} <= set(cw.__all__)


def test_removed_wrappers_stay_removed():
    survivors = [f"{owner.__name__}.{name}" for owner, name in REMOVED
                 if hasattr(owner, name) or hasattr(cw, name)]
    assert survivors == []
    # a coin is built as any LocalUnitary is, by its class methods
    assert "__init__" not in vars(walk.QuantumCoin)
