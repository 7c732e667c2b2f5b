"""Coined quantum walks on Cayley graphs: simulation, symmetry families,
and numerical verification."""

import types

from .automorphisms import (GeneralizedSymmetry, ShiftedAutomorphism, conjugate_local,
                            enumerate_automorphisms, generalized_transform,
                            make_generalized_symmetry, permutation_apply)
from .errors import (CayleyWalkError, DegenerateCoinError, EncodingError,
                     FamilyPreconditionError, NonUnitaryError,
                     NotAutomorphismError, NumericDriftError, SpecError,
                     UnsupportedGroupError)
from .groups import (CausalStructure, CayleyGroup, CyclicGroup, HypercubeGroup,
                     LatticeGroup, LineGroup, brute_force_causal, make_group)
from .line import (LineCoinParams, build_line_coin, canonicalize_line_coin,
                   decompose_line_coin, mirror_chirality_map,
                   mirror_generalized_symmetry, mirror_inner_symmetry,
                   reflection_automorphism, symmetric_initial_states)
from .linalg import grover_matrix, hadamard_matrix, rotation_matrix
from .specs import (dump_json, dump_state, parse_coin_spec, parse_group_spec,
                    parse_state_spec, parse_symmetry_spec, symmetry_to_spec,
                    write_distribution_csv)
from .states import LocalUnitary, WalkState
from .symmetry import (PhaseField, SymmetryTransform, UnitaryCharacter,
                       apply_dressing, cyclic_character, exp_character,
                       identity_symmetry, make_full_homog_symmetry,
                       make_general_symmetry, make_space_homog_symmetry,
                       make_time_homog_symmetry, sign_character,
                       transform_coin, transform_state, trivial_character)
from .verify import (VerificationReport, check_homogeneity,
                     check_probability_map, check_symmetry, check_symmetry_relation,
                     corrupted_phases, run_invariant_suite)
from .walk import (QuantumCoin, WalkInstance, apply_coin, apply_shift, evolve,
                   evolve_final, evolve_iter, grover_coin, hadamard_coin, identity_coin,
                   rotation_coin, step)

__version__ = "0.1.0"

# every public name imported above, once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
