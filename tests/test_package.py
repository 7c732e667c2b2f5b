"""The package's public surface: `__all__` names each public object once,
the wrappers that only repeated another call stay removed, and no module
imports a name it never reads."""

from __future__ import annotations

import ast
import types
from pathlib import Path

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

# (module file, name) of each import kept although the module never reads it
UNREAD_IMPORTS_KEPT = {
    # perfbench's tracer test wraps evolve where verify binds it
    ("verify.py", "evolve"),
}


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


def _unread_imports(path: Path) -> list:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    package = Path(cw.__file__).parent
    unread = [(path.name, name) for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"  # its imports are its exports
              for name in _unread_imports(path)]
    assert sorted(set(unread) - UNREAD_IMPORTS_KEPT) == []
    # a kept name that is read again, or no longer imported, leaves the list
    assert UNREAD_IMPORTS_KEPT <= set(unread)
