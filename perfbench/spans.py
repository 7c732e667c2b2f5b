"""Span tracing of the package from outside it.

`Tracer.install` replaces selected package functions and methods by
wrappers, at every name a caller looks them up by: a function imported with
``from .walk import evolve`` is bound again in each importing module, so the
wrapper goes wherever the original object is bound in a ``cayleywalk``
module namespace. Methods are replaced on the class that defines them.
`uninstall` puts the originals back.

A span records name, start, end, parent span and operation id in flat
arrays kept in memory; `save` writes them once, at the end of a run. Counted
names record only their calls, without a span; a few spanned names also add
work units read from their arguments (`_units`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute) for functions; (span name, class path, method)
# for methods. The module or class is resolved under the cayleywalk package.
SPANNED_FUNCTIONS = [
    ("walk.apply_shift", "walk", "apply_shift"),
    ("walk.apply_coin", "walk", "apply_coin"),
    ("walk.evolve", "walk", "evolve"),
    ("linalg.require_unitary", "linalg", "require_unitary"),
    ("symmetry.apply_dressing", "symmetry", "apply_dressing"),
    ("symmetry.transform_coin", "symmetry", "transform_coin"),
    ("symmetry.construct", "symmetry", "make_general_symmetry"),
    ("symmetry.construct", "symmetry", "make_space_homog_symmetry"),
    ("symmetry.construct", "symmetry", "make_time_homog_symmetry"),
    ("symmetry.construct", "symmetry", "make_full_homog_symmetry"),
    ("symmetry.construct", "symmetry", "exp_character"),
    ("symmetry.construct", "symmetry", "sign_character"),
    ("symmetry.construct", "symmetry", "cyclic_character"),
    ("symmetry.construct", "line", "mirror_generalized_symmetry"),
    ("automorphisms.permutation_apply", "automorphisms", "permutation_apply"),
    ("automorphisms.generalized_transform", "automorphisms", "generalized_transform"),
    ("verify.check_symmetry_relation", "verify", "check_symmetry_relation"),
    ("verify.check_probability_map", "verify", "check_probability_map"),
    ("verify.run_invariant_suite", "verify", "run_invariant_suite"),
    ("specs.parse", "specs", "parse_group_spec"),
    ("specs.parse", "specs", "parse_coin_spec"),
    ("specs.parse", "specs", "parse_state_spec"),
    ("specs.parse", "specs", "parse_symmetry_spec"),
    ("specs.write_csv", "specs", "write_distribution_csv"),
    ("specs.dump_json", "specs", "dump_json"),
    ("cli.main", "cli", "main"),
]

SPANNED_METHODS = [
    ("walk.coin_matrix", "walk.QuantumCoin", "matrix_at"),
    ("symmetry.phase_at", "symmetry.PhaseField", "at"),
    ("states.combine", "states.WalkState", "__add__"),
    ("states.combine", "states.WalkState", "__sub__"),
    ("states.local_apply", "states.LocalUnitary", "apply"),
    ("states.norm", "states.WalkState", "norm"),
    ("states.position_distribution", "states.WalkState", "position_distribution"),
] + [("groups.shift_rows", f"groups.{cls}", "shift_rows")
     for cls in ("LineGroup", "CyclicGroup", "LatticeGroup", "HypercubeGroup")]

COUNTED_METHODS = [
    (f"groups.{method}", f"groups.{cls}", method)
    for cls in ("LineGroup", "CyclicGroup", "LatticeGroup", "HypercubeGroup")
    for method in ("validate", "coset_index")
]


def _units(name: str, args) -> int:
    """Work units a call brings, read from its arguments."""
    if name == "groups.shift_rows":          # (self, rows, gen_index)
        return int(args[1].shape[0])
    if name == "walk.apply_coin":            # (coin, state, n): coined positions
        return int(args[1].n_positions)
    if name == "symmetry.apply_dressing":    # (t, n, state): dressed amplitudes, n >= 1
        state = args[2]
        return int(state.amps.size) if int(args[1]) >= 1 else 0
    return 0


_UNIT_NAMES = {"groups.shift_rows", "walk.apply_coin", "symmetry.apply_dressing"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.calls: dict[str, int] = {}
        self.units: dict[str, int] = {}
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ----------------------------------------------------------------

    def _spanned(self, name: str, fn):
        nid = self._intern(name)
        start, end, parent, names, ops, stack = (self.start, self.end, self.parent,
                                                 self.name, self.op, self._stack)
        clock = time.perf_counter
        units = self.units if name in _UNIT_NAMES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            if units is not None:
                units[name] = units.get(name, 0) + _units(name, args)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for _, mod, _ in SPANNED_FUNCTIONS:
            importlib.import_module(f"cayleywalk.{mod}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cayleywalk" or key.startswith("cayleywalk."))]
        for span, mod, attr in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[f"cayleywalk.{mod}"], attr)
            wrapper = self._spanned(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for table, make in ((SPANNED_METHODS, self._spanned), (COUNTED_METHODS, self._counted)):
            for span, path, attr in table:
                mod, cls_name = path.rsplit(".", 1)
                cls = getattr(sys.modules[f"cayleywalk.{mod}"], cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, make(span, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def count_spans(self) -> int:
        return len(self.start)

    def totals(self, first: int = 0) -> dict:
        """Per name: calls, inclusive and self seconds over spans[first:]."""
        start = np.frombuffer(self.start, dtype=np.float64)[first:]
        end = np.frombuffer(self.end, dtype=np.float64)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:] - first
        names = np.frombuffer(self.name, dtype=np.int32)[first:]
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selfs = dur - child
        # inclusive time counts only the outermost span of a name, so that
        # recursion (nested parse or construct calls) is not counted twice
        outer = np.ones_like(has_parent)
        outer[has_parent] = names[parent[has_parent]] != names[has_parent]
        count = len(self.names)
        return {name: {"calls": int(c), "self_s": float(s), "incl_s": float(i)}
                for name, c, s, i in zip(
                    self.names,
                    np.bincount(names, minlength=count),
                    np.bincount(names, weights=selfs, minlength=count),
                    np.bincount(names, weights=np.where(outer, dur, 0.0), minlength=count))}

    def save(self, path: Path) -> None:
        """Write every span as columns of one .npz file, with the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int64),
                 names=np.array(json.dumps(self.names)))
