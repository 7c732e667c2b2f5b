"""The package's public surface: `__all__` names each public object once,
each loaded from its home module on first use and each read by the package,
its benchmark or the README; the wrappers that only repeated another call
and the names, parameters and input forms that no caller used, or only tests
used, stay removed; a parameter that every caller passes declares no
default; and no module imports a name it never reads."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cayleywalk as cw
from cayleywalk import automorphisms, groups, line, linalg, specs, states, symmetry, verify, walk

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
    (line, "line_coin"),
    (cw, "line_coin"),
    # every group is abelian, so every Cayley graph here is nonseparating
    (groups.CayleyGroup, "nonseparating"),
    (groups, "_generated"),
    (symmetry, "_require_nonseparating"),
    # only tests reached these; the dense builders are test helpers in conftest
    (verify, "assemble_step_matrix"),
    (verify, "assemble_permutation_matrix"),
    (verify, "assemble_local_matrix"),
    (verify, "basis_labels"),
    (groups.CayleyGroup, "generator_index"),
    # specs.parse_group_spec builds every group spec
    (groups, "make_group"),
    (cw, "make_group"),
]

# (function, name) of each removed parameter that no caller, or only tests, set; the README
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
    # the walk steps forward only
    (groups.CayleyGroup.shift_rows, "adjoint"),
    (states.shift_plan, "adjoint"),
    (walk.apply_shift, "adjoint"),
    (walk._plan_shift, "adjoint"),
    # parameters that only tests set
    (states.WalkState.position_distribution, "warn_unnormalized"),
    (specs.parse_state_spec, "normalize"),
    (states.LocalUnitary.from_rule, "validate"),
    # what is checked follows from where an operator comes from: a user's
    # rule always, the package's own operators through LocalUnitary._built
    (states.LocalUnitary.batched, "validate"),
    (states.LocalUnitary.uniform, "validate"),
    (symmetry.UnitaryCharacter.__init__, "validate"),
    (symmetry.UnitaryCharacter.batched, "validate"),
    (symmetry.exp_character, "validate"),
    (symmetry.sign_character, "validate"),
    # one value in every product caller
    (groups.CayleyGroup.random_elements, "span"),
    (linalg.require_unitary, "tol"),
]

# (function, name) of each parameter that must be passed by keyword, so that
# a stale positional argument cannot bind to it
KEYWORD_ONLY = [
    (states.LocalUnitary.batched, "time_homogeneous"),
    (states.LocalUnitary.batched, "space_homogeneous"),
    (walk.QuantumCoin.batched, "time_homogeneous"),
    (walk.QuantumCoin.batched, "space_homogeneous"),
]

# (function, name) of each parameter that every caller passes, so that it
# declares no default
NO_DEFAULT = [
    (line.canonicalize_line_coin, "group"),
    (line.reflection_automorphism, "group"),
    (line.mirror_inner_symmetry, "group"),
    (line.mirror_generalized_symmetry, "group"),
    (verify.VerificationReport, "per_step_residuals"),
    (verify.VerificationReport, "tolerance"),
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


def test_each_public_name_is_its_home_modules_object_and_is_not_stored():
    assert "__all__" in dir(cw) and set(cw.__all__) <= set(dir(cw))
    for name in cw.__all__:
        home = importlib.import_module(f"cayleywalk.{cw._HOME[name]}")
        assert getattr(cw, name) is getattr(home, name), name
        # a tracer that replaces the name in its home module reaches every caller
        assert name not in vars(cw), name
    with pytest.raises(AttributeError, match="no attribute 'line_coin'"):
        cw.line_coin


# the engine that a walk runs, and the symmetry side that it never runs
ENGINE = {"errors", "groups", "linalg", "states", "walk"}
SYMMETRY_SIDE = {"automorphisms", "line", "symmetry", "verify"}


# `python -m cayleywalk ARGS`, run as `python -c RUN_MAIN ARGS`, then the
# package's modules in sys.modules on the last line of stderr
RUN_MAIN = """
import runpy, sys
try:
    runpy.run_module("cayleywalk", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""
REPORT = """
import sys
print(*(name for name in sys.modules if name.startswith("cayleywalk.")), file=sys.stderr)
"""


def _package_modules_loaded(code: str, *args) -> set:
    """The package's modules that a fresh interpreter with PYTHONPATH=src
    has loaded after running `code` with `args`."""
    src = str(Path(cw.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", code + REPORT, *args], capture_output=True,
                            text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    return {name.split(".", 1)[1] for name in result.stderr.splitlines()[-1].split()}


def test_import_and_a_walk_load_no_symmetry_side_module():
    assert _package_modules_loaded("import cayleywalk") == ENGINE
    assert _package_modules_loaded("import cayleywalk as cw; cw.evolve; cw.WalkState") == ENGINE


def test_cli_simulate_loads_no_symmetry_side_module():
    loaded = _package_modules_loaded(RUN_MAIN, "simulate", "--group", "line", "--coin",
                                     "hadamard", "--start", "0:(1,0)", "--steps", "3")
    assert loaded == ENGINE | {"cli", "specs"}


def test_a_line_params_simulate_loads_line_but_not_symmetry_or_automorphisms():
    # the coin is built by the line factorization alone
    loaded = _package_modules_loaded(RUN_MAIN, "simulate", "--group", "line", "--coin",
                                     '{"kind": "line_params", "named": "hadamard"}',
                                     "--start", "0:(1,0)", "--steps", "3")
    assert loaded == ENGINE | {"cli", "specs", "line"}


def test_removed_wrappers_stay_removed():
    survivors = [f"{owner.__name__}.{name}" for owner, name in REMOVED
                 if hasattr(owner, name) or hasattr(cw, name)]
    assert survivors == []
    # a coin is built as any LocalUnitary is, by its class methods
    assert "__init__" not in vars(walk.QuantumCoin)
    # hasattr does not see a dataclass field without a default
    assert [f.name for f in dataclasses.fields(groups.CausalStructure)] == ["subgroup", "chi"]


def test_removed_parameters_stay_removed():
    survivors = [f"{f.__qualname__}({name})" for f, name in REMOVED_PARAMETERS
                 if name in inspect.signature(f).parameters]
    assert survivors == []


@pytest.mark.parametrize("terms", [{(0, 0): 1.0}, [((0, 0), 1.0)]], ids=["dict", "pairs"])
def test_from_terms_takes_only_triples(terms):
    with pytest.raises(cw.SpecError, match=r"takes \(x, c, amp\) triples"):
        states.WalkState.from_terms(groups.LineGroup(), terms)


def _names_read(path: Path) -> set:
    """The names and attributes that a module's code reads."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_public_name_is_read_by_the_package_or_its_benchmark_or_named_in_the_readme():
    package = Path(cw.__file__).parent
    root = package.parent.parent
    read = set().union(*(_names_read(path) for path in
                         [*package.glob("*.py"), *(root / "perfbench").glob("*.py")]
                         if path.name != "__init__.py"))  # its table lists every name
    readme = (root / "README.md").read_text(encoding="utf-8")
    unread = [name for name in cw.__all__
              if name not in read and not re.search(rf"\b{name}\b", readme)]
    assert unread == []


def test_batched_flags_are_keyword_only():
    keyword_only = inspect.Parameter.KEYWORD_ONLY
    positional = [f"{f.__qualname__}({name})" for f, name in KEYWORD_ONLY
                  if inspect.signature(f).parameters[name].kind is not keyword_only]
    assert positional == []


def test_parameters_that_every_caller_passes_declare_no_default():
    defaults = [f"{f.__qualname__}({name})" for f, name in NO_DEFAULT
                if inspect.signature(f).parameters[name].default is not inspect.Parameter.empty]
    assert defaults == []


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
