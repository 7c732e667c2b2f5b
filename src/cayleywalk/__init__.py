"""Coined quantum walks on Cayley graphs: simulation, symmetry families,
and numerical verification. The walk engine loads with the package; any
other public name loads from its home module on first use (PEP 562)."""

import importlib

# with errors, groups, linalg and states; loaded on first use instead, the
# engine read 0.2 MB more certify_families peak_rss_mb
from . import walk  # noqa: F401

# the home module of each public name
_HOMES = {
    "automorphisms": ("GeneralizedSymmetry", "ShiftedAutomorphism", "conjugate_local",
                      "enumerate_automorphisms", "generalized_transform",
                      "make_generalized_symmetry", "permutation_apply"),
    "errors": ("CayleyWalkError", "DegenerateCoinError", "EncodingError",
               "FamilyPreconditionError", "NonUnitaryError", "NotAutomorphismError",
               "NumericDriftError", "SpecError", "UnsupportedGroupError"),
    "groups": ("CausalStructure", "CayleyGroup", "CyclicGroup", "HypercubeGroup",
               "LatticeGroup", "LineGroup", "brute_force_causal"),
    "line": ("LineCoinParams", "build_line_coin", "canonicalize_line_coin",
             "decompose_line_coin", "mirror_chirality_map", "mirror_generalized_symmetry",
             "mirror_inner_symmetry", "reflection_automorphism", "symmetric_initial_states"),
    "linalg": ("grover_matrix", "hadamard_matrix", "rotation_matrix"),
    "specs": ("dump_json", "dump_state", "parse_coin_spec", "parse_group_spec",
              "parse_state_spec", "parse_symmetry_spec", "symmetry_to_spec",
              "write_distribution_csv"),
    "states": ("LocalUnitary", "WalkState"),
    "symmetry": ("PhaseField", "SymmetryTransform", "UnitaryCharacter", "apply_dressing",
                 "cyclic_character", "exp_character", "identity_symmetry",
                 "make_full_homog_symmetry", "make_general_symmetry",
                 "make_space_homog_symmetry", "make_time_homog_symmetry", "sign_character",
                 "transform_coin", "transform_state", "trivial_character"),
    "verify": ("VerificationReport", "check_homogeneity", "check_probability_map",
               "check_symmetry", "check_symmetry_relation", "corrupted_phases",
               "run_invariant_suite"),
    "walk": ("QuantumCoin", "WalkInstance", "apply_coin", "apply_shift", "evolve",
             "evolve_final", "evolve_iter", "grover_coin", "hadamard_coin", "identity_coin",
             "rotation_coin", "step"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    # not stored: a caller gets the home module's binding, which a tracer may replace
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
