"""The package's public surface: `__all__` names each public object once,
the wrappers that only repeated another call and the parameters that no
caller set stay removed, and no module imports a name it never reads."""

from __future__ import annotations

import ast
import inspect
import types
from pathlib import Path

import cayleywalk as cw
from cayleywalk import automorphisms, groups, linalg, states, symmetry, verify, walk

# (owner, name) of each removed wrapper, constant or helper; the README lists
# what replaces a public one
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
    (symmetry, "UNIT_TOL"),
    (verify, "_basis_index"),
    (walk, "_check_drifts"),
]

# (function, name) of each removed parameter that no caller set; the README
# lists what replaces it
REMOVED_PARAMETERS = [
    (verify.check_symmetry_relation, "tol"),
    (verify.check_symmetry_relation, "case_id"),
    (verify.check_probability_map, "tol"),
    (verify.check_probability_map, "case_id"),
    (verify.check_homogeneity, "n_probe"),
    (verify.check_homogeneity, "tol"),
    (states.homogeneity_spreads, "n_probe"),
    (verify.run_invariant_suite, "tol"),
    (automorphisms.enumerate_automorphisms, "shift"),
    (walk.QuantumCoin.table, "validate"),
    (linalg.require_unit, "tol"),
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


def test_removed_parameters_stay_removed():
    survivors = [f"{f.__qualname__}({name})" for f, name in REMOVED_PARAMETERS
                 if name in inspect.signature(f).parameters]
    assert survivors == []


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
