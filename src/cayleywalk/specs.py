"""JSON/CLI spec parsing and deterministic serialization.

Complex numbers travel as {"re": ..., "im": ...} (plain numbers, [re, im]
pairs and "a+bi" strings are accepted on input); group elements as an int or
a list of ints; matrices as nested lists. Every dump is deterministic:
sorted JSON keys, repr-style float formatting, stable row order.
"""

from __future__ import annotations

import functools
import json
from typing import TYPE_CHECKING

import numpy as np

from .errors import CayleyWalkError, FamilyPreconditionError, SpecError
from .groups import (CayleyGroup, CyclicGroup, HypercubeGroup, LatticeGroup, LineGroup,
                     _integer)
from .states import LocalUnitary, WalkState
from .walk import QuantumCoin, grover_coin, hadamard_coin, identity_coin, rotation_coin

# The symmetry side (automorphisms, line, symmetry, verify) is imported by
# the parsers that build from it, so that reading walk specs and writing
# distributions does not load it.
if TYPE_CHECKING:
    from .automorphisms import ShiftedAutomorphism
    from .line import LineCoinParams
    from .symmetry import SymmetryTransform, UnitaryCharacter


def _reads_input(parse):
    """Mark `parse` as a reader of outside input: a malformed value it meets
    (a missing field, a value of the wrong type, an unparsable number) is
    reported as SpecError, not as the KeyError, TypeError or ValueError
    Python raises for it. The package's own errors pass through."""
    @functools.wraps(parse)
    def reader(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except CayleyWalkError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed input to {parse.__name__}: {exc!r}") from exc
    return reader


def parse_complex(value) -> complex:
    """Accept {"re","im"}, [re, im], a number, or an "a+bi" string."""
    if isinstance(value, complex):
        return value
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, dict):
        return complex(float(value.get("re", 0.0)), float(value.get("im", 0.0)))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, str):
        text = value.strip().replace(" ", "")
        try:
            return complex(text.replace("i", "j"))
        except ValueError as exc:
            raise SpecError(f"cannot parse complex number {value!r}") from exc
    raise SpecError(f"cannot parse complex number {value!r}")


def dump_complex(z) -> dict:
    z = complex(z)
    return {"im": float(z.imag), "re": float(z.real)}


def parse_matrix(value, dim: int | None = None) -> np.ndarray:
    rows = [[parse_complex(v) for v in row] for row in value]
    mat = np.array(rows, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SpecError("matrix spec must be a square nested list")
    if dim is not None and mat.shape[0] != dim:
        raise SpecError(f"matrix has size {mat.shape[0]}, expected {dim}")
    return mat


def dump_matrix(matrix) -> list:
    return [[dump_complex(v) for v in row] for row in np.asarray(matrix, dtype=complex)]


def parse_element(group: CayleyGroup, value):
    if isinstance(value, str):
        value = _parse_element_text(value)
    if isinstance(value, list):
        value = tuple(value)
    # validate takes integer coordinates only (groups._integer)
    return group.validate(value)


def dump_element(x):
    return list(x) if isinstance(x, tuple) else x


def _parse_element_text(text: str):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        return tuple(int(v) for v in inner.split(",")) if inner else ()
    return int(text)


def _load_obj(value):
    """Inline JSON (or a literal dict) from a CLI argument."""
    if isinstance(value, (dict, list)):
        return value
    text = str(value).strip()
    if text.startswith("{") or text.startswith("["):
        return json.loads(text)
    return text


# -- group specs ------------------------------------------------------------------


# each shorthand's dict spec, and the fields that its ":"-separated integers
# fill in order ("lattice:d" leaves out the period)
_GROUP_SHORTHANDS = {
    "line": ({"kind": "line"}, ()),
    "halfline": ({"kind": "line", "generators": [1]}, ()),
    "cyclic": ({"kind": "cyclic"}, ("N",)),
    "lattice": ({"kind": "lattice"}, ("d", "N")),
    "hypercube": ({"kind": "hypercube"}, ("d",)),
}

# each kind's constructor, then its required and its optional dict-spec
# fields, each mapped to the constructor keyword it fills; every kind also
# takes "c0_index"
_GROUP_KINDS = {
    "line": (LineGroup, {}, {"generators": "generators"}),
    "cyclic": (CyclicGroup, {"N": "n"}, {"generators": "generators"}),
    "lattice": (LatticeGroup, {"d": "d"}, {"N": "period"}),
    "hypercube": (HypercubeGroup, {"d": "d"}, {}),
}


@_reads_input
def parse_group_spec(value) -> CayleyGroup:
    """Group from a dict spec or a shorthand string.

    Dict specs: {"kind": "line", "generators"}, {"kind": "cyclic", "N",
    "generators"}, {"kind": "lattice", "d", "N"} (N the torus period) and
    {"kind": "hypercube", "d"}, each with an optional "c0_index".
    Shorthands: "line", "halfline" (single generator, infinite coset count),
    "cyclic:N", "lattice:d" or "lattice:d:N", "hypercube:d".
    """
    value = _load_obj(value)
    if isinstance(value, str):
        head, *args = value.lower().split(":")
        spec, fields = _GROUP_SHORTHANDS.get(head, (None, ()))
        if spec is None or not min(len(fields), 1) <= len(args) <= len(fields):
            raise SpecError(f"unknown group shorthand {value!r}")
        value = dict(spec, **{f: int(a) for f, a in zip(fields, args)})
    if not isinstance(value, dict):
        raise SpecError(f"group spec must be a string or object, got {value!r}")
    if "kind" not in value:
        raise SpecError("group spec needs a 'kind'")
    kind = str(value["kind"]).lower()
    if kind not in _GROUP_KINDS:
        raise SpecError(f"unknown group kind {kind!r}")
    make, required, optional = _GROUP_KINDS[kind]
    missing = [f for f in required if f not in value]
    if missing:
        raise SpecError(f"{kind} group spec requires {', '.join(missing)}")
    keyword = {**required, **optional, "c0_index": "c0_index"}
    unknown = sorted(set(value) - set(keyword) - {"kind"})
    if unknown:
        raise SpecError(f"{kind} group spec takes no {', '.join(unknown)}; its fields are "
                        f"{', '.join(keyword)}")
    return make(**{keyword[f]: v for f, v in value.items() if f != "kind"})


# -- coin specs -------------------------------------------------------------------


_NAMED_COINS = {
    "hadamard": hadamard_coin,
    "grover": grover_coin,
    "identity": identity_coin,
}


@_reads_input
def parse_line_params(value) -> LineCoinParams:
    from .line import LineCoinParams
    value = _load_obj(value)
    if isinstance(value, str):
        value = {"named": value}
    if "named" in value:
        name = value["named"].lower()
        if name == "hadamard":
            return LineCoinParams(1j, -1j, 1.0 + 0j, float(np.pi / 4))
        raise SpecError(f"unknown named line coin {value['named']!r}")
    return LineCoinParams(parse_complex(value["omega"]), parse_complex(value["mu"]),
                          parse_complex(value["nu"]), float(value["psi"]))


@_reads_input
def parse_coin_spec(group: CayleyGroup, value) -> QuantumCoin:
    """Coin from a named shorthand or a structured spec.

    Shorthands: "hadamard", "grover", "identity", "rotation:<angle>". Kinds:
    uniform_matrix {"matrix"}; line_params (the line factorization);
    rule_table {"default", "entries": [{"n", "x", "matrix"}]} keyed by step
    and optionally position.
    """
    value = _load_obj(value)
    if isinstance(value, str):
        name = value.lower()
        if name in _NAMED_COINS:
            return _NAMED_COINS[name](group)
        if name.startswith("rotation:"):
            return rotation_coin(group, float(name.split(":", 1)[1]))
        raise SpecError(f"unknown coin shorthand {value!r}")
    if not isinstance(value, dict):
        raise SpecError(f"coin spec must be a string or object, got {value!r}")
    kind = value.get("kind")
    if kind == "uniform_matrix":
        return QuantumCoin.uniform(group, parse_matrix(value["matrix"], group.coin_dim))
    if kind == "line_params":
        from .line import build_line_coin
        if group.kind != "line" or group.coin_dim != 2:
            raise SpecError("line_params coins need the two-generator line group")
        return QuantumCoin.uniform(group, build_line_coin(parse_line_params(value)))
    if kind == "rule_table":
        default = parse_matrix(value["default"], group.coin_dim)
        by_step: dict = {}
        positional = False
        for entry in value.get("entries", []):
            n = _integer(entry["n"], "rule_table n")
            mat = parse_matrix(entry["matrix"], group.coin_dim)
            if "x" in entry and entry["x"] is not None:
                positional = True
                key = (n, group.encode(parse_element(group, entry["x"])))
            else:
                key = (n, None)
            by_step[key] = mat

        def rule(n, x):
            hit = by_step.get((n, group.encode(group.validate(x))))
            if hit is None:
                hit = by_step.get((n, None), default)
            return hit

        return QuantumCoin.from_rule(group, rule, time_homogeneous=not by_step,
                                     space_homogeneous=not positional)
    raise SpecError(f"unknown coin spec kind {kind!r}")


# -- state specs ------------------------------------------------------------------


@_reads_input
def parse_state_spec(group: CayleyGroup, value) -> WalkState:
    """Normalized state from records or the "x:(a0,a1,...)" shorthand."""
    value = _load_obj(value)
    if isinstance(value, str):
        state = _parse_state_text(group, value)
    else:
        if isinstance(value, dict):
            value = value.get("records", value.get("terms"))
            if value is None:
                raise SpecError("state spec object needs a 'records' list")
        state = load_state(group, value)
    return state.normalized()


def _parse_state_text(group: CayleyGroup, text: str) -> WalkState:
    depth, split = 0, -1
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ":" and depth == 0:
            split = i
            break
    if split < 0:
        raise SpecError(f"state shorthand must look like 'x:(a,b)', got {text!r}")
    x = parse_element(group, text[:split])
    vec_text = text[split + 1:].strip()
    if not (vec_text.startswith("(") and vec_text.endswith(")")):
        raise SpecError(f"coin vector must be parenthesized in {text!r}")
    depth = 0
    for i, ch in enumerate(vec_text):
        depth += (ch == "(") - (ch == ")")
        if not depth:
            break
    if i < len(vec_text) - 1:
        raise SpecError(f"unexpected {vec_text[i + 1:]!r} after the coin vector in {text!r}: "
                        "the shorthand gives one site; give several as records, "
                        '[{"x": ..., "c": ..., "re": ..., "im": ...}, ...]')
    comps = [parse_complex(v) for v in vec_text[1:-1].split(",")]
    if len(comps) != group.coin_dim:
        raise SpecError(f"coin vector needs {group.coin_dim} components")
    return WalkState.localized(group, x, comps)


def load_state(group: CayleyGroup, records) -> WalkState:
    """State of {"x", "c", "re", "im"} records (dump_state's format); the
    amplitudes of repeated (x, c) pairs add up."""
    return WalkState.from_terms(group, [
        (rec["x"], rec["c"], complex(float(rec.get("re", 0.0)), float(rec.get("im", 0.0))))
        for rec in records])


def dump_state(state: WalkState) -> list:
    recs = []
    for (x, c), amp in state.terms().items():  # (key, coin) order
        recs.append({"c": c, "im": float(amp.imag), "re": float(amp.real),
                     "x": dump_element(x)})
    return recs


# -- characters and symmetries ------------------------------------------------------


def parse_character_spec(group: CayleyGroup, value, domain: str) -> UnitaryCharacter:
    from .symmetry import cyclic_character, exp_character, sign_character, trivial_character
    if value is None:
        return trivial_character(group, domain)
    value = _load_obj(value)
    if value == "trivial":
        return trivial_character(group, domain)
    if not isinstance(value, dict):
        raise SpecError(f"character spec must be an object, got {value!r}")
    kind = value.get("kind")
    if kind == "trivial":
        return trivial_character(group, domain)
    if kind == "exp_linear":
        return exp_character(group, value["phi"], domain)
    if kind == "sign":
        return sign_character(group, value["mask"], domain)
    if kind == "cyclic_exp":
        return cyclic_character(group, _integer(value["j"], "cyclic_exp j"), domain)
    raise SpecError(f"unknown character kind {kind!r}")


def _parse_eta(value):
    if value is None:
        return None
    return [parse_complex(v) for v in value]


def _parse_uprime(group: CayleyGroup, value, allow_matrix: bool):
    """U' from a spec: a list of lists is read as matrix rows, any other list
    as the diagonal. So [[0, 1], [1, 0]] is Pauli X, never the [re, im]
    pairs of diag(i, 1), which is written [{"re": 0, "im": 1}, 1] or
    ["1i", 1]. Without allow_matrix only a diagonal matrix is accepted."""
    if value is None:
        return None
    value = _load_obj(value)
    arr = np.array([[parse_complex(v) for v in row] for row in value]
                   if value and isinstance(value[0], list) else
                   [parse_complex(v) for v in value], dtype=complex)
    if arr.ndim == 2 and not allow_matrix:
        diag = np.diagonal(arr)
        if np.abs(arr - np.diag(diag)).max() > 1e-12:
            raise FamilyPreconditionError(
                "U' must be diagonal; a list of lists is read as matrix rows, so write a "
                'complex diagonal entry as {"re": a, "im": b} or "a+bi"')
        return diag.copy()
    return arr


@_reads_input
def parse_symmetry_spec(group: CayleyGroup, value):
    """Symmetry from a family spec; returns (transform, dressing override).

    Families: general (U0 matrix + phase table), space_homog, time_homog,
    full_homog, generalized ({"perm", "inner"}). An optional "corrupt_phase"
    {"n","x","c","factor"} builds a deliberately wrong dressing for negative
    controls; it is returned separately and never alters the transform.
    """
    from .automorphisms import GeneralizedSymmetry, make_generalized_symmetry
    from .symmetry import (make_full_homog_symmetry, make_general_symmetry,
                           make_space_homog_symmetry, make_time_homog_symmetry)
    from .verify import corrupted_phases
    value = _load_obj(value)
    if not isinstance(value, dict):
        raise SpecError(f"symmetry spec must be an object, got {value!r}")
    family = value.get("family")
    inner, dressing = None, None
    if family == "generalized":
        perm = parse_automorphism_spec(group, value.get("perm", {}))
        if value.get("inner") is not None:
            inner, dressing = parse_symmetry_spec(group, value["inner"])
            if isinstance(inner, GeneralizedSymmetry):
                raise SpecError("generalized symmetries cannot be nested")
        transform = make_generalized_symmetry(perm, inner)
    elif family == "general":
        u0_spec = value.get("U0")
        u0 = LocalUnitary.uniform(group, np.eye(group.coin_dim) if u0_spec is None
                                  else parse_matrix(u0_spec, group.coin_dim))
        table = {}
        for entry in value.get("phase_table", []):
            key = (_integer(entry["n"], "phase_table n"), parse_element(group, entry["x"]),
                   _integer(entry["c"], "phase_table c"))
            table[key] = parse_complex(entry["value"])
        phases = LocalUnitary.from_table(group, table,
                                         parse_complex(value.get("default", 1.0)))
        transform = make_general_symmetry(u0, phases)
    elif family == "space_homog":
        rho = parse_character_spec(group, value.get("character"), "causal_subgroup")
        transform = make_space_homog_symmetry(
            group, eta=_parse_eta(value.get("eta")), rho=rho,
            uprime=_parse_uprime(group, value.get("Uprime"), allow_matrix=True))
    elif family == "time_homog":
        delta = None
        if value.get("delta_table") is not None:
            delta = {}
            for entry in value["delta_table"]:
                xc = (parse_element(group, entry["x"]), _integer(entry["c"], "delta_table c"))
                delta[xc] = parse_complex(entry["value"])
        transform = make_time_homog_symmetry(
            group, epsilon=parse_complex(value.get("epsilon", 1.0)),
            eta=_parse_eta(value.get("eta")), delta=delta)
    elif family == "full_homog":
        gamma = parse_character_spec(group, value.get("character"), "full_group")
        transform = make_full_homog_symmetry(
            group, eta=_parse_eta(value.get("eta")),
            epsilon=parse_complex(value.get("epsilon", 1.0)), gamma=gamma,
            uprime=_parse_uprime(group, value.get("Uprime"), allow_matrix=False))
    else:
        raise SpecError(f"unknown symmetry family {family!r}")
    corrupt = value.get("corrupt_phase")
    if corrupt is not None:
        at = (_integer(corrupt["n"], "corrupt_phase n"), parse_element(group, corrupt["x"]),
              _integer(corrupt["c"], "corrupt_phase c"))
        dressing = corrupted_phases(getattr(transform, "inner", transform).phases, at,
                                    parse_complex(corrupt.get("factor", -1.0)))
    return transform, dressing


def symmetry_to_spec(t: SymmetryTransform) -> dict:
    """Serializable spec of a family symmetry (inverse of parse for the
    homogeneous families)."""
    if t.family == "full_homog":
        gamma = t.params["gamma"]
        if gamma.descriptor is None:
            raise SpecError("cannot serialize a character without a descriptor")
        window = t.group.chi if t.group.chi is not None else 1
        return {
            "Uprime": [dump_complex(v) for v in t.params["uprime"]],
            "character": gamma.descriptor,
            "epsilon": dump_complex(t.params["epsilon"]),
            "eta": [dump_complex(t.params["eta"](m)) for m in range(window)],
            "family": "full_homog",
        }
    raise SpecError(f"serialization is only defined for full_homog, not {t.family!r}")


def parse_automorphism_spec(group: CayleyGroup, value) -> ShiftedAutomorphism:
    from .automorphisms import ShiftedAutomorphism
    value = _load_obj(value)
    if not isinstance(value, dict):
        raise SpecError(f"automorphism spec must be an object, got {value!r}")
    shift = value.get("shift", dump_element(group.identity))
    perm = value.get("perm", list(range(group.coin_dim)))
    return ShiftedAutomorphism(group, parse_element(group, shift), perm)


# -- output writers ----------------------------------------------------------------


def _fill_rows(row: str, sep: str, columns: list) -> str:
    """`row` once per row, joined by `sep` and filled in one % operation:
    row i takes the i-th entry of each column, in column order."""
    width, count = len(columns), len(columns[0])
    values = [None] * (width * count)
    for j, column in enumerate(columns):
        values[j::width] = column
    return sep.join([row] * count) % tuple(values)


def write_distribution_csv(fp, group: CayleyGroup, states) -> None:
    """CSV of per-step distributions: columns step, x, probability.

    Each step's rows are written as soon as the step is drawn from `states`
    (any iterable, such as `evolve_iter`), in key order, with the
    probability as %.17g. A label holding a comma is quoted.

    The rows of a step are filled by one % operation (`_fill_rows`), about
    70 % of a 1000-step line run (385,707 rows) in process. `repr` and
    `ndarray.astype(str)` are slower; an exact numpy formatter (a Dekker
    product for the 17 digits, a %d row fill, %.17g for rows outside
    [1e-4, 1)) gave the same bytes in 0.68-0.94x of the time, a byte-matrix
    one in 1.35-1.43x. That is 0.5-4 % of the benchmark's CLI pass, too
    little for a second formatter that must match %.17g byte for byte."""
    label = group.label_template
    if "," in label:
        label = f'"{label}"'
    fp.write("step,x,probability\n")
    for n, state in enumerate(states):
        keys, probs = state.position_probabilities()
        fp.write(_fill_rows(f"{n},{label},%.17g\n", "",
                            group.unpack(keys).T.tolist() + [probs.tolist()]))


# json.dumps's spelling of the floats that have no JSON literal
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_distribution_json(fp, group: CayleyGroup, states) -> None:
    """The JSON list [{"distribution": [{"p", "x"}, ...], "step"}, ...] of
    per-step distributions, in the bytes dump_json gives the whole list.
    Each step is written as soon as it is drawn from `states`, rows in key
    order."""
    # one row in dump_json's layout: indent=2, sorted keys, three levels deep
    e = group.identity
    x = ("[" + ",".join(["\n          %d"] * len(e)) + "\n        ]"
         if isinstance(e, tuple) else "%d")
    row = '{\n        "p": %s,\n        "x": ' + x + "\n      }"
    n = -1
    for n, state in enumerate(states):
        keys, probs = state.position_probabilities()
        ps = probs.tolist()
        if not np.isfinite(probs).all():
            ps = [_JSON_NONFINITE.get(repr(p), p) for p in ps]
        rows = _fill_rows(row, ",\n      ", [ps] + group.unpack(keys).T.tolist())
        distribution = f"[\n      {rows}\n    ]" if rows else "[]"
        fp.write(("[\n  " if n == 0 else ",\n  ")
                 + f'{{\n    "distribution": {distribution},\n    "step": {n}\n  }}')
    fp.write("[]\n" if n < 0 else "\n]\n")


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
