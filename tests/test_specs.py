"""Spec parsing, serialization, CSV output."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from cayleywalk import (CyclicGroup, EncodingError, FamilyPreconditionError, HypercubeGroup,
                        LatticeGroup, LineGroup, LocalUnitary, SpecError, WalkState,
                        make_time_homog_symmetry, canonicalize_line_coin, check_symmetry_relation,
                        corrupted_phases, cyclic_character,
                        dump_json, dump_state, hadamard_coin, parse_coin_spec,
                        parse_group_spec, parse_state_spec, parse_symmetry_spec,
                        symmetry_to_spec, transform_coin, write_distribution_csv)
from cayleywalk.linalg import hadamard_matrix, rotation_matrix
from cayleywalk.specs import (dump_complex, dump_element, parse_automorphism_spec,
                              parse_complex, parse_element, parse_line_params,
                              load_state, parse_matrix, write_distribution_json)
from cayleywalk.states import PRUNE_TOL
from cayleywalk.walk import WalkInstance, evolve

from conftest import probabilities


def test_parse_complex_forms():
    assert parse_complex(2) == 2.0 + 0j
    assert parse_complex({"re": 1.0, "im": -2.0}) == 1.0 - 2.0j
    assert parse_complex([0.5, 0.25]) == 0.5 + 0.25j
    assert parse_complex("1+2i") == 1.0 + 2.0j
    assert parse_complex("-i") == -1j
    assert parse_complex(1.5 - 0.5j) == 1.5 - 0.5j
    with pytest.raises(SpecError):
        parse_complex("one")


def test_complex_roundtrip():
    z = 0.3 - 0.7j
    assert parse_complex(dump_complex(z)) == z


def test_parse_element_forms():
    line = LineGroup()
    assert parse_element(line, -3) == -3
    assert parse_element(line, "-3") == -3
    cube = HypercubeGroup(3)
    assert parse_element(cube, [1, 0, 1]) == (1, 0, 1)
    assert parse_element(cube, "(1,0,1)") == (1, 0, 1)
    assert dump_element((1, 0, 1)) == [1, 0, 1]
    assert dump_element(-3) == -3


def _general(**entry):
    return {"family": "general", "phase_table": [{"n": 1, "x": [0, 0], "c": 0, "value": 1,
                                                  **entry}]}


def _time_homog(**entry):
    return {"family": "time_homog", "delta_table": [{"x": [0, 0], "c": 0, "value": 1, **entry}]}


# a spec field naming a step, a coin index or a coordinate, given a value that
# is not an integer, which must be rejected rather than truncated to one
NON_INTEGER_SPECS = {
    "element": lambda g: parse_element(g, [1.5, 2]),
    "record_c": lambda g: load_state(g, [{"x": [0, 0], "c": 1.9, "re": 1.0}]),
    "phase_table_n": lambda g: parse_symmetry_spec(g, _general(n=2.9)),
    "phase_table_c": lambda g: parse_symmetry_spec(g, _general(c=0.5)),
    "phase_table_x": lambda g: parse_symmetry_spec(g, _general(x=[0, 0.5])),
    "delta_table_x": lambda g: parse_symmetry_spec(g, _time_homog(x=[0.5, 0.5])),
    "delta_table_c": lambda g: parse_symmetry_spec(g, _time_homog(c=1.5)),
    "corrupt_phase_n": lambda g: parse_symmetry_spec(g, {
        "family": "time_homog", "corrupt_phase": {"n": 2.5, "x": [0, 0], "c": 0}}),
    "corrupt_phase_c": lambda g: parse_symmetry_spec(g, {
        "family": "time_homog", "corrupt_phase": {"n": 2, "x": [0, 0], "c": 0.5}}),
    "rule_table_n": lambda g: parse_coin_spec(g, {
        "kind": "rule_table", "default": np.eye(4).tolist(),
        "entries": [{"n": 1.5, "matrix": np.eye(4).tolist()}]}),
    "rule_table_x": lambda g: parse_coin_spec(g, {
        "kind": "rule_table", "default": np.eye(4).tolist(),
        "entries": [{"n": 1, "x": [0.5, 0], "matrix": np.eye(4).tolist()}]}),
    "sign_mask": lambda g: parse_symmetry_spec(g, {
        "family": "full_homog", "character": {"kind": "sign", "mask": [1.5, 0]}}),
    "cyclic_j": lambda g: parse_symmetry_spec(CyclicGroup(8), {
        "family": "full_homog", "character": {"kind": "cyclic_exp", "j": 1.5}}),
    "perm": lambda g: parse_symmetry_spec(g, {
        "family": "generalized", "perm": {"perm": [1.0, 0, 2, 3]}}),
    "from_terms_c": lambda g: WalkState.from_terms(g, [((0, 0), 1.9, 1.0)]),
    "lookup_rows_c": lambda g: make_time_homog_symmetry(g, delta={((0, 0), 0.5): 1.0}),
}


@pytest.mark.parametrize("build", NON_INTEGER_SPECS.values(), ids=NON_INTEGER_SPECS)
def test_a_non_integer_step_coin_or_coordinate_is_rejected(build):
    with pytest.raises(SpecError, match="must be an integer"):
        build(LatticeGroup(2))


def _line_walk():
    group = LineGroup()
    return group, hadamard_coin(group), WalkState.localized(group, 0, [1.0, 0.0])


# the same values handed to the API, which must reject them as the parser does
NON_INTEGER_CALLS = {
    "cyclic_character_j": lambda: cyclic_character(CyclicGroup(8), 1.5),
    "from_table_n": lambda: LocalUnitary.from_table(LineGroup(), {(2.9, 0, 0): -1}),
    "amplitude_c": lambda: _line_walk()[2].amplitude(0, 0.5),
    "at_c": lambda: _line_walk()[1].at(0, 0, 0.5),
    "corrupted_phases_n": lambda: corrupted_phases(
        make_time_homog_symmetry(LineGroup()).phases, (2.7, 0, 0)),
    "corrupted_phases_c": lambda: corrupted_phases(
        make_time_homog_symmetry(LineGroup()).phases, (2, 0, 0.4)),
    "evolve_n_max": lambda: evolve(WalkInstance(*_line_walk()), 2.5),
    "check_n_max": lambda: check_symmetry_relation(
        *_line_walk()[1:], make_time_homog_symmetry(LineGroup()), n_max=2.5),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS)
def test_the_api_rejects_a_non_integer_step_or_coin_index(call):
    with pytest.raises(SpecError, match="must be an integer"):
        call()


def test_parse_matrix_checks_shape():
    with pytest.raises(SpecError):
        parse_matrix([[1, 0]], 2)
    mat = parse_matrix([[0, 1], [1, 0]], 2)
    assert mat.dtype == complex


def test_group_shorthands():
    assert parse_group_spec("line").kind == "line"
    assert parse_group_spec("halfline").chi is None
    assert parse_group_spec("cyclic:8").order == 8
    assert parse_group_spec("lattice:2:6").order == 36
    assert parse_group_spec("hypercube:4").coin_dim == 4
    group = parse_group_spec({"kind": "cyclic", "N": 8, "generators": [1]})
    assert group.chi == 8
    with pytest.raises(SpecError):
        parse_group_spec("moebius")


def test_coin_specs():
    group = LineGroup()
    named = parse_coin_spec(group, "hadamard")
    assert np.allclose(named.matrix_at(0), hadamard_matrix())
    rot = parse_coin_spec(group, "rotation:0.5")
    assert np.allclose(rot.matrix_at(0), rotation_matrix(0.5))
    mat = parse_coin_spec(group, {"kind": "uniform_matrix",
                                  "matrix": [[0, 1], [1, 0]]})
    assert mat.space_homogeneous
    table = parse_coin_spec(group, {
        "kind": "rule_table",
        "default": [[1, 0], [0, 1]],
        "entries": [{"n": 0, "matrix": [[0, 1], [1, 0]]}]})
    assert np.allclose(table.matrix_at(0), np.array([[0, 1], [1, 0]]))
    assert np.allclose(table.matrix_at(2), np.eye(2))


def test_coin_spec_rejects_unknown():
    with pytest.raises(SpecError):
        parse_coin_spec(LineGroup(), "biased")


def test_state_shorthand_and_records():
    group = LineGroup()
    state = parse_state_spec(group, "0:(1,0)")
    assert state.amplitude(0, 0) == pytest.approx(1.0)
    cube = HypercubeGroup(3)
    state = parse_state_spec(cube, "(0,1,0):(1,0,0)")
    assert state.support() == [(0, 1, 0)]
    records = parse_state_spec(group, [
        {"x": 0, "c": 0, "re": 1.0, "im": 0.0},
        {"x": 2, "c": 1, "re": 0.0, "im": 1.0}])
    assert records.norm() == pytest.approx(1.0)


def test_state_dump_roundtrip():
    group = LineGroup()
    state = parse_state_spec(group, "0:(0.6,0.8i)")
    again = load_state(group, dump_state(state))
    assert (state - again).norm() < 1e-12


def test_load_state_adds_repeated_pairs_and_rejects_bad_elements():
    cube = HypercubeGroup(3)
    state = load_state(cube, [{"x": [0, 1, 0], "c": 2, "re": 0.5},
                              {"x": [1, 1, 0], "c": 0, "re": 1.0},
                              {"x": [0, 1, 0], "c": 2, "im": 0.25}])
    assert state.terms() == {((0, 1, 0), 2): 0.5 + 0.25j, ((1, 1, 0), 0): 1.0}
    for bad in ([0, 2, 0], [0, 1], 3):
        with pytest.raises(EncodingError):
            load_state(cube, [{"x": bad, "c": 0, "re": 1.0}])
    with pytest.raises(EncodingError):
        load_state(LineGroup(), [{"x": [4], "c": 0, "re": 1.0}])


def test_symmetry_spec_families():
    group = LineGroup()
    coin = hadamard_coin(group)
    start = parse_state_spec(group, "0:(1,0)")
    specs = [
        {"family": "time_homog", "epsilon": [0, 1]},
        {"family": "space_homog", "character": {"kind": "exp_linear", "phi": 0.4}},
        {"family": "full_homog", "epsilon": -1,
         "character": {"kind": "sign", "mask": 1}},
        {"family": "general", "U0": [[0, 1], [1, 0]], "default": 1},
    ]
    for spec in specs:
        t, dressing = parse_symmetry_spec(group, spec)
        assert dressing is None
        report = check_symmetry_relation(coin, start, t, n_max=10)
        assert report.passed, (spec, report)


def test_symmetry_spec_generalized():
    group = LineGroup()
    t, _ = parse_symmetry_spec(group, {
        "family": "generalized",
        "perm": {"shift": 0, "perm": [1, 0]},
        "inner": {"family": "full_homog", "epsilon": 1, "Uprime": [1, -1]},
    })
    coin = hadamard_coin(group)
    start = parse_state_spec(group, "0:(1,0)")
    report = check_symmetry_relation(coin, start, t, n_max=10)
    assert report is not None


def test_uprime_list_of_lists_is_read_as_matrix_rows():
    group = LineGroup()
    pauli_x = [[0, 1], [1, 0]]
    # on space_homog any U'(0) is allowed, so the rows are taken as Pauli X
    t, _ = parse_symmetry_spec(group, {"family": "space_homog", "Uprime": pauli_x})
    assert np.array_equal(t.params["uprime0"], np.array(pauli_x, dtype=complex))
    # full_homog needs a diagonal U': the rejection says how to write diag(i, 1)
    with pytest.raises(FamilyPreconditionError,
                       match=r"U' must be diagonal; a list of lists is read as matrix rows.*re"):
        parse_symmetry_spec(group, {"family": "full_homog", "Uprime": pauli_x})
    for diag_i_1 in ([{"re": 0, "im": 1}, 1], ["0+1i", 1], [[1j, 0], [0, 1]]):
        t, _ = parse_symmetry_spec(group, {"family": "full_homog", "Uprime": diag_i_1})
        assert t.params["uprime"].tolist() == [1j, 1]


def test_corrupt_phase_produces_dressing():
    group = LineGroup()
    t, dressing = parse_symmetry_spec(group, {
        "family": "time_homog", "epsilon": [0, 1],
        "corrupt_phase": {"n": 2, "x": 0, "c": 0}})
    assert dressing is not None
    coin = hadamard_coin(group)
    start = parse_state_spec(group, "0:(1,0)")
    report = check_symmetry_relation(coin, start, t, n_max=8, dressing=dressing)
    assert not report.passed


def test_canonicalization_spec_roundtrip():
    group = LineGroup()
    psi, t = canonicalize_line_coin(hadamard_matrix(), group)
    spec = symmetry_to_spec(t)
    parsed, _ = parse_symmetry_spec(group, spec)
    coin = hadamard_coin(group)
    for t2 in (t, parsed):
        new_coin = transform_coin(t2, coin)
        assert np.abs(new_coin.matrix_at(1) - rotation_matrix(psi)).max() < 1e-12
    assert json.loads(dump_json(spec))["family"] == "full_homog"


def test_automorphism_spec():
    group = LineGroup()
    a = parse_automorphism_spec(group, {"shift": 2, "perm": [1, 0]})
    assert a.apply_element(3) == -1


def test_line_params_spec():
    p = parse_line_params({"named": "hadamard"})
    assert p.psi == pytest.approx(np.pi / 4)
    q = parse_line_params({"omega": [0, 1], "mu": 1, "nu": 1, "psi": 0.3})
    assert q.omega == 1j


def test_csv_output_is_deterministic():
    group = HypercubeGroup(2)
    coin = parse_coin_spec(group, "grover")
    start = parse_state_spec(group, "(0,0):(1,0)")
    history = evolve(WalkInstance(group, coin, start), 3)
    a, b = io.StringIO(), io.StringIO()
    write_distribution_csv(a, group, history)
    write_distribution_csv(b, group, history)
    assert a.getvalue() == b.getvalue()
    lines = a.getvalue().splitlines()
    assert lines[0] == "step,x,probability"
    assert lines[1].startswith('0,"(0,0)",')


def test_line_csv_labels_are_bare_integers():
    group = LineGroup()
    coin = hadamard_coin(group)
    start = parse_state_spec(group, "0:(1,0)")
    history = evolve(WalkInstance(group, coin, start), 1)
    buf = io.StringIO()
    write_distribution_csv(buf, group, history)
    assert buf.getvalue().splitlines()[1] == "0,0,1"


def _rowwise_csv(group, states) -> str:
    """The row-wise CSV writer that the streaming one replaced, kept as its
    oracle: a dict per step, sorted by encode, labels filled in label_template."""
    lines = ["step,x,probability\n"]
    for n, state in enumerate(states):
        dist = probabilities(state)
        for x in sorted(dist, key=group.encode):
            label = group.label_template % group.encode(x)
            text = f'"{label}"' if "," in label else label
            lines.append(f"{n},{text},{format(float(dist[x]), '.17g')}\n")
    return "".join(lines)


def _payload_json(group, states) -> str:
    """dump_json of the whole `simulate --format json` payload, the oracle
    of the streaming JSON writer."""
    payload = [{"distribution": [
                    {"p": p, "x": dump_element(x)}
                    for x, p in sorted(probabilities(st).items(),
                                       key=lambda kv: group.encode(kv[0]))],
                "step": n}
               for n, st in enumerate(states)]
    return dump_json(payload) + "\n"


WRITER_GROUPS = ["line", "cyclic:8", "lattice:2", "lattice:2:6", "hypercube:3"]


def _writer_history(spec: str) -> tuple:
    """A few steps of a walk on the group, then a state holding a NaN row and
    a row whose probability is below PRUNE_TOL."""
    group = parse_group_spec(spec)
    dim = group.coin_dim
    start = WalkState.localized(group, group.identity, np.arange(1, dim + 1) / np.sqrt(
        np.sum(np.arange(1, dim + 1) ** 2)))
    coin = hadamard_coin(group) if dim == 2 else parse_coin_spec(group, "grover")
    history = evolve(WalkInstance(group, coin, start), 4)
    x, y, z = history[-1].elements()[:3]
    odd = WalkState.from_terms(group, [(x, 0, np.nan), (y, dim - 1, 0.1 * np.sqrt(PRUNE_TOL)),
                                       (z, 0, 0.6), (z, dim - 1, 0.8j)])
    return group, history + [odd, WalkState.zero(group)]


@pytest.mark.parametrize("spec", WRITER_GROUPS)
def test_csv_writer_matches_rowwise_oracle(spec):
    group, history = _writer_history(spec)
    buf = io.StringIO()
    write_distribution_csv(buf, group, iter(history))
    text = buf.getvalue()
    assert text == _rowwise_csv(group, history)
    odd_rows = [line for line in text.splitlines() if line.startswith(f"{len(history) - 2},")]
    assert len(odd_rows) == 2 and odd_rows[0].endswith(",nan")


@pytest.mark.parametrize("spec", WRITER_GROUPS)
def test_json_writer_matches_whole_payload_dump(spec):
    group, history = _writer_history(spec)
    for states in (history, history[:1], []):
        buf = io.StringIO()
        write_distribution_json(buf, group, iter(states))
        assert buf.getvalue() == _payload_json(group, states)


@pytest.mark.parametrize("writer, oracle, tail", [
    (write_distribution_csv, _rowwise_csv, 0),
    (write_distribution_json, _payload_json, len("\n]\n"))], ids=["csv", "json"])
def test_writers_stream_each_step_before_drawing_the_next(writer, oracle, tail):
    group, history = _writer_history("lattice:2")
    buf = io.StringIO()
    drawn = []

    def states():
        for k, state in enumerate(history):
            if k:
                # step k-1 is written in full before step k is drawn
                expected = oracle(group, history[:k])
                assert buf.getvalue() == expected[:len(expected) - tail]
            drawn.append(k)
            yield state

    writer(buf, group, states())
    assert drawn == list(range(len(history)))
    assert buf.getvalue() == oracle(group, history)


# Long histories, so that each step is many rows of one bulk-formatted
# template; lattice:1 has tuple labels without a comma, left unquoted.
LONG_HISTORIES = [("line", 200), ("lattice:2", 20), ("lattice:2:6", 20), ("hypercube:6", 6),
                  ("lattice:1", 10)]


@pytest.mark.parametrize("spec, steps", LONG_HISTORIES)
def test_writers_match_oracles_on_long_histories(spec, steps):
    group = parse_group_spec(spec)
    dim = group.coin_dim
    weights = np.arange(1, dim + 1)
    start = WalkState.localized(group, group.identity, weights / np.linalg.norm(weights))
    coin = hadamard_coin(group) if dim == 2 else parse_coin_spec(group, "grover")
    history = evolve(WalkInstance(group, coin, start), steps)
    for writer, oracle in ((write_distribution_csv, _rowwise_csv),
                           (write_distribution_json, _payload_json)):
        buf = io.StringIO()
        writer(buf, group, iter(history))
        assert buf.getvalue() == oracle(group, history)


class _NegatedProbabilities(WalkState):
    """A state that reports its probabilities negated, so an inf row reads -inf."""

    __slots__ = ()

    def position_probabilities(self):
        keys, probs = super().position_probabilities()
        return keys, -probs


def test_writers_spell_infinite_probabilities_as_csv_and_json_do():
    group = parse_group_spec("lattice:2")
    state = WalkState.from_terms(group, [((0, 1), 0, np.inf), ((1, 0), 1, 0.5)])
    history = [state, _NegatedProbabilities(group, state.positions, state.amps)]
    csv, js = io.StringIO(), io.StringIO()
    write_distribution_csv(csv, group, iter(history))
    write_distribution_json(js, group, iter(history))
    assert csv.getvalue() == _rowwise_csv(group, history)
    assert js.getvalue() == _payload_json(group, history)
    assert csv.getvalue().splitlines()[1:] == ['0,"(0,1)",inf', '0,"(1,0)",0.25',
                                               '1,"(0,1)",-inf', '1,"(1,0)",-0.25']
    assert [line.strip() for line in js.getvalue().splitlines() if '"p"' in line] == [
        '"p": Infinity,', '"p": 0.25,', '"p": -Infinity,', '"p": -0.25,']


def test_dump_state_lists_records_in_key_and_coin_order():
    group = parse_group_spec("lattice:2")
    state = WalkState.from_terms(group, [((1, -2), 1, 0.5), ((-3, 4), 0, 0.5),
                                         ((1, -2), 0, 0.5j), ((-3, -4), 1, 0.5)])
    order = [(tuple(r["x"]), r["c"]) for r in dump_state(state)]
    assert order == sorted(order, key=lambda xc: (group.encode(xc[0]), xc[1]))
    assert len(order) == 4


def test_dump_json_is_sorted():
    text = dump_json({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
