"""Command-line interface, exercised through subprocesses."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "cayleywalk"]


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=120, **kwargs)


def test_simulate_csv_to_file(tmp_path):
    out = tmp_path / "dist.csv"
    result = run_cli("simulate", "--group", "line", "--coin", "hadamard",
                     "--start", "0:(1,0)", "--steps", "50", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "step,x,probability"
    assert lines[1] == "0,0,1"
    assert len(lines) > 50


def test_simulate_zero_steps():
    result = run_cli("simulate", "--group", "line", "--coin", "hadamard",
                     "--start", "0:(1,0)", "--steps", "0")
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["step,x,probability", "0,0,1"]


def test_simulate_json_format():
    result = run_cli("simulate", "--group", "cyclic:8", "--coin", "hadamard",
                     "--start", "0:(1,0)", "--steps", "2", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload[0]["step"] == 0
    assert payload[0]["distribution"] == [{"p": 1.0, "x": 0}]


def test_simulate_rejects_non_unitary_coin():
    result = run_cli("simulate", "--group", "line", "--coin",
                     '{"kind": "uniform_matrix", "matrix": [[1, 0], [0, 2]]}',
                     "--start", "0:(1,0)", "--steps", "1")
    assert result.returncode == 2
    assert "error:" in result.stderr


@pytest.mark.parametrize("args", [
    ["simulate", "--group", "lattice:2", "--coin", "grover", "--steps", "1",
     "--start", '{"records": [{"x": [0, 0], "c": 1.9, "re": 1}]}'],
    ["verify", "--group", "line", "--coin", "hadamard", "--start", "0:(1,0)", "--steps", "4",
     "--symmetry", '{"family": "general", "phase_table": [{"n": 2.9, "x": 0, "c": 0, '
     '"value": -1}]}'],
    ["verify", "--group", "lattice:2", "--coin", "grover", "--start", "(0,0):(1,0,0,0)",
     "--steps", "4", "--symmetry", '{"family": "time_homog", "delta_table": '
     '[{"x": [0.5, 0.5], "c": 0, "value": -1}]}'],
], ids=["record_c", "phase_table_n", "delta_table_x"])
def test_a_non_integer_spec_entry_exits_2(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr and "must be an integer" in result.stderr


def test_simulate_rejects_a_nan_start_state_as_invalid_input(tmp_path):
    out = tmp_path / "dist.csv"
    args = ["simulate", "--group", "line", "--coin", "hadamard", "--start", "0:(nan,0)",
            "--steps", "2"]
    result = run_cli(*args, "--out", str(out))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr and "error: cannot normalize" in result.stderr
    assert not out.exists()
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""


# A coin that fails only at step 7, after the probe steps (0, 1, 2, 3, 5)
# accepted it, so the run fails while rows are already being written.
H = 2 ** -0.5
LATE_BAD_COIN = json.dumps({"kind": "rule_table", "default": [[H, H], [H, -H]],
                            "entries": [{"n": 7, "matrix": [[1, 0], [0, 2]]}]})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failing_simulate_leaves_no_partial_file(tmp_path, fmt):
    out = tmp_path / f"dist.{fmt}"
    args = ["simulate", "--group", "line", "--coin", LATE_BAD_COIN, "--start", "0:(1,0)",
            "--steps", "10", "--format", fmt]
    result = run_cli(*args, "--out", str(out))
    assert result.returncode == 2
    assert "step-7 coin" in result.stderr
    assert not out.exists()
    if fmt == "csv":
        # on stdout the rows of the steps before the failure are already out
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stdout.splitlines()[-1].startswith("7,")


# `python -m cayleywalk ARGS` that writes its own peak resident memory (VmHWM)
# to the file named by its first argument.
HWM_MAIN = """
import runpy, sys
hwm_file = sys.argv.pop(1)
try:
    runpy.run_module("cayleywalk", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as src, open(hwm_file, "w") as dst:
        dst.write(next(line for line in src if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for the peak resident memory")
def test_simulate_memory_does_not_grow_with_steps(tmp_path):
    peaks = {}
    for steps in (100, 1000):
        hwm = tmp_path / f"hwm{steps}"
        result = subprocess.run(
            [sys.executable, "-c", HWM_MAIN, str(hwm), "simulate", "--group", "line",
             "--coin", "hadamard", "--start", "0:(1,0)", "--steps", str(steps),
             "--out", str(tmp_path / "dist.csv")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        peaks[steps] = int(hwm.read_text().split()[1]) / 1024.0
    # a held history of 1000 line states and its rows took ~90 MB more
    assert abs(peaks[1000] - peaks[100]) < 20.0, peaks


def test_verify_passes_for_valid_symmetry():
    result = run_cli("verify", "--group", "line", "--coin", "hadamard",
                     "--start", "0:(1,0)", "--steps", "20",
                     "--symmetry", '{"family": "time_homog", "epsilon": [0, 1]}')
    assert result.returncode == 0, result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert {r["case"] for r in reports} == {"symmetry_relation", "probability_map"}
    assert all(r["passed"] for r in reports)


def test_verify_fails_on_corrupted_phase():
    result = run_cli("verify", "--group", "line", "--coin", "hadamard",
                     "--start", "0:(1,0)", "--steps", "10",
                     "--symmetry",
                     '{"family": "time_homog", "epsilon": [0, 1], '
                     '"corrupt_phase": {"n": 1, "x": 1, "c": 0}}')
    assert result.returncode == 1
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    by_case = {r["case"]: r for r in reports}
    assert not by_case["symmetry_relation"]["passed"]


def test_verify_suite_alone():
    result = run_cli("verify", "--group", "cyclic:8")
    assert result.returncode == 0, result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(reports) >= 5
    assert all(r["passed"] for r in reports)


def test_verify_exit_4_on_precondition():
    result = run_cli("verify", "--group", "halfline", "--coin",
                     '{"kind": "uniform_matrix", "matrix": [[1]]}',
                     "--start", "0:(1)",
                     "--symmetry", '{"family": "time_homog", "epsilon": [0, 1]}')
    assert result.returncode == 4
    assert "error:" in result.stderr


def test_transform_outputs_coin_table():
    result = run_cli("transform", "--group", "line", "--coin", "hadamard",
                     "--start", "0:(1,0)",
                     "--symmetry", '{"family": "full_homog", "epsilon": -1}',
                     "--window", "2")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["time_homogeneous"] is True
    assert payload["space_homogeneous"] is True
    assert {row["n"] for row in payload["coin_table"]} == {0, 1}


def test_line_canonicalize_hadamard():
    result = run_cli("line", "canonicalize", "--coin", "hadamard")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert abs(payload["psi"] - np.pi / 4) < 1e-10
    assert payload["symmetry"]["family"] == "full_homog"


def test_line_canonicalize_then_verify(tmp_path):
    canon = run_cli("line", "canonicalize", "--coin", "hadamard")
    symmetry = json.dumps(json.loads(canon.stdout)["symmetry"])
    spec_file = tmp_path / "symmetry.json"
    spec_file.write_text(symmetry)
    result = run_cli("verify", "--group", "line", "--coin", "hadamard",
                     "--start", "0:(1,0)", "--steps", "25",
                     "--symmetry", str(spec_file))
    assert result.returncode == 0, result.stderr


def test_line_symmetric_states_values():
    result = run_cli("line", "symmetric-states", "--nu", "1+0i", "--psi", "0.5")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert payload["plus"][0]["re"] == pytest.approx(inv_sqrt2)
    assert payload["plus"][1]["im"] == pytest.approx(inv_sqrt2)
    assert payload["minus"][1]["im"] == pytest.approx(-inv_sqrt2)


def test_line_symmetric_states_degenerate_exits_5():
    result = run_cli("line", "symmetric-states", "--nu", "1+0i", "--psi", "0")
    assert result.returncode == 5
    assert "error:" in result.stderr


def test_line_mirror_output():
    result = run_cli("line", "mirror", "--coin", "hadamard")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    q = payload["Q"]
    assert q[0][1] == {"im": -1.0, "re": -0.0} or q[0][1] == {"im": -1.0, "re": 0.0}
    assert payload["symmetry"]["perm"]["perm"] == [1, 0]


@pytest.mark.parametrize("group", ["cyclic:8", "halfline"])
@pytest.mark.parametrize("command", [["canonicalize", "--coin", "hadamard"],
                                     ["mirror", "--coin", "hadamard"],
                                     ["symmetric-states", "--nu", "1+0i", "--psi", "0.5"]])
def test_line_tools_need_the_two_generator_line(command, group):
    result = run_cli("line", *command, "--group", group)
    assert result.returncode == 2
    assert result.stderr == "error: line toolkit needs the two-generator line group\n"


@pytest.mark.parametrize("spec,window", [("line", 3), ("halfline", 4), ("lattice:2", 3),
                                         ("hypercube:9", 2), ("cyclic:8", 1)])
def test_transform_window_is_the_ball_around_the_identity(spec, window):
    from cayleywalk import parse_group_spec
    from cayleywalk.cli import _window_positions
    group = parse_group_spec(spec)
    ball = {group.identity}
    for _ in range(window):
        ball |= {group.mul(x, s) for x in ball for s in group.generators}
    if group.is_finite and group.order <= 256:  # the whole group
        ball = set(group.elements())
    assert _window_positions(group, window) == sorted(ball, key=group.encode)


def test_group_causal_output():
    result = run_cli("group", "causal", "--group", "cyclic:8")
    payload = json.loads(result.stdout)
    assert payload["chi"] == 2
    assert payload["subgroup"] == [0, 2, 4, 6]
    assert payload["brute_force_chi"] == 2


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_capped(*args):
    """run_cli in a child with 1 GiB of address space, so that a quadratic
    oracle fails fast instead of paging the host, and one BLAS thread, so
    that the cap does not depend on the number of cores."""
    return run_cli(*args, preexec_fn=_cap_address_space,
                   env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))


def test_group_causal_on_a_large_cyclic_group_within_1_gib():
    result = run_capped("group", "causal", "--group", "cyclic:100000")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert (payload["subgroup_order"], payload["chi"], payload["brute_force_chi"]) == (50000, 2, 2)
    assert payload["subgroup"][:3] == [0, 2, 4] and payload["subgroup"][-1] == 99998


def test_verify_suite_on_a_large_cyclic_group_within_1_gib():
    result = run_capped("verify", "--group", "cyclic:10000", "--suite")
    assert result.returncode == 0, result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert "causal_subgroup_agreement" in {r["case"] for r in reports}
    assert all(r["passed"] for r in reports)


def test_group_automorphisms_output():
    result = run_cli("group", "automorphisms", "--group", "hypercube:3")
    payload = json.loads(result.stdout)
    assert payload["count"] == 6


@pytest.mark.parametrize("spec, field", [
    ('{"kind": "cyclic", "N": 8.5}', "N"),
    ('{"kind": "lattice", "d": 2.7}', "d"),
    ('{"kind": "line", "generators": [1.5]}', "generators"),
    ('{"kind": "hypercube", "d": 3, "c0_index": 1.9}', "c0_index"),
    ('{"kind": "cyclic", "N": true}', "N"),
])
def test_non_integer_group_parameter_exits_2(spec, field):
    result = run_cli("group", "causal", "--group", spec)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"error: {field}" in result.stderr and "Traceback" not in result.stderr


def test_bad_subcommand_exits_2():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_log_level_env(tmp_path):
    def simulate(level):
        # Inherit the environment so the child imports cayleywalk the same
        # way this process does (PYTHONPATH or an installed package).
        return run_cli("simulate", "--group", "line", "--coin", "hadamard",
                       "--start", "0:(1,0)", "--steps", "1",
                       env={**os.environ, "WALK_LOG_LEVEL": level})

    result = simulate("info")
    assert result.returncode == 0
    assert "INFO cayleywalk: simulated 1 steps on line" in result.stderr
    # Control: at the default level the INFO line must stay silent.
    quiet = simulate("error")
    assert quiet.returncode == 0
    assert "simulated 1 steps" not in quiet.stderr


# A coin inside the unitarity tolerance (|a|^2 - 1 = 9.8e-13 < 1e-12) whose
# norm still grows by |a| each step, past the drift tolerance after ~20400.
DRIFTING_COIN = json.dumps({"kind": "uniform_matrix",
                            "matrix": [[1.00000000000049, 0], [0, 1.00000000000049]]})
LINE_WALK = ["--group", "line", "--coin", "hadamard", "--start", "0:(1,0)"]


@pytest.mark.parametrize("code, args", [
    (0, ["simulate", *LINE_WALK, "--steps", "3"]),
    (1, ["verify", *LINE_WALK, "--steps", "6", "--symmetry",
         '{"family": "time_homog", "corrupt_phase": {"n": 2, "x": 0, "c": 0}}']),
    (2, ["simulate", "--group", "line", "--coin", "rotation:abc", "--start", "0:(1,0)",
         "--steps", "1"]),
    (3, ["simulate", "--group", "line", "--coin", DRIFTING_COIN, "--start", "0:(1,0)",
         "--steps", "30000"]),
    (4, ["verify", "--group", "halfline", "--coin", '{"kind": "uniform_matrix", "matrix": [[1]]}',
         "--start", "0:(1)", "--symmetry", '{"family": "time_homog", "epsilon": -1}']),
    (5, ["line", "symmetric-states", "--nu", "1+0i", "--psi", "0"]),
], ids=["ok", "check_failed", "invalid_config", "norm_drift", "precondition", "degenerate"])
def test_each_documented_exit_code(tmp_path, code, args):
    result = run_cli(*args, "--out", str(tmp_path / "out"))
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    assert ("error:" in result.stderr) == (code >= 2)


@pytest.mark.parametrize("args", [
    ["simulate", "--group", "cyclic:x", "--coin", "hadamard", "--start", "0:(1,0)", "--steps", "1"],
    ["simulate", *LINE_WALK[:4], "--start", '[{"c": 0, "re": 1}]', "--steps", "1"],
    ["simulate", *LINE_WALK[:4], "--start", "0:(1,0)", "--steps", "1", "--coin", "{bad"],
    ["verify", *LINE_WALK, "--symmetry",
     '{"family": "general", "phase_table": [{"x": 0, "c": 0, "value": 1}]}'],
    ["verify", *LINE_WALK, "--symmetry",
     '{"family": "space_homog", "character": {"kind": "exp_linear"}}'],
    ["verify", *LINE_WALK, "--symmetry", '{"family": "time_homog", "corrupt_phase": {"n": 1}}'],
], ids=["group_count", "record_without_x", "bad_json", "table_entry_without_n",
        "character_without_phi", "corruption_without_x"])
def test_malformed_specs_exit_2_without_a_traceback(args):
    result = run_cli(*args)
    assert result.returncode == 2, result.stderr
    assert "error:" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("args", [
    ["simulate", *LINE_WALK, "--steps", "3", "--out"],
    ["verify", "--group", "hypercube:3", "--out"],
], ids=["simulate", "verify"])
def test_an_out_path_that_cannot_be_opened_exits_2(tmp_path, args):
    out = tmp_path / "missing" / "x.csv"
    result = run_cli(*args, str(out))
    assert result.returncode == 2, result.stderr
    assert f"error: cannot open --out {out}: No such file or directory" in result.stderr
    assert "Traceback" not in result.stderr and not out.parent.exists()


def test_a_second_site_in_the_state_shorthand_points_to_the_records_form():
    """The shorthand gives one site: text after its coin vector is named as
    such, not misread as a complex number."""
    result = run_cli("simulate", *LINE_WALK[:4], "--start", "0:(1,0),1:(0,1)", "--steps", "1")
    assert result.returncode == 2, result.stderr
    assert "unexpected ',1:(0,1)' after the coin vector" in result.stderr
    assert "give several as records" in result.stderr
    assert "complex" not in result.stderr and "Traceback" not in result.stderr


def test_key_error_in_a_handler_is_not_reported_as_invalid_configuration(monkeypatch):
    from cayleywalk import cli

    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_simulate", broken)
    with pytest.raises(KeyError, match="internal"):
        cli.main(["simulate", *LINE_WALK, "--steps", "1"])


# `python -m cayleywalk ARGS` with a simulate handler that fails on a bug
BROKEN_MAIN = """
import runpy
from cayleywalk import cli

def broken(args):
    raise KeyError("internal")

cli.cmd_simulate = broken
runpy.run_module("cayleywalk", run_name="__main__", alter_sys=True)
"""


def test_an_internal_error_exits_70_not_as_a_failed_check(monkeypatch, capsys):
    from cayleywalk import cli

    def broken(args):
        raise KeyError("internal")

    # package errors keep their codes through the wrapper
    assert cli.run(["simulate", "--group", "line", "--coin", "nonsense",
                    "--start", "0:(1,0)", "--steps", "1"]) == 2
    monkeypatch.setattr(cli, "cmd_simulate", broken)
    capsys.readouterr()
    assert cli.run(["simulate", *LINE_WALK, "--steps", "1"]) == 70
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "KeyError: 'internal'" in err
    # `python -m cayleywalk` goes through the same wrapper
    result = subprocess.run([sys.executable, "-c", BROKEN_MAIN, "simulate", *LINE_WALK,
                             "--steps", "1"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 70
    assert "internal error:" in result.stderr and "Traceback" in result.stderr


def test_the_installed_script_is_the_wrapper():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"cayleywalk": "cayleywalk.cli:run"}


@pytest.mark.parametrize("family", ["general", "space_homog", "time_homog", "full_homog"])
def test_step_zero_corruption_fails_verify(family):
    spec = {"family": family, "corrupt_phase": {"n": 0, "x": 0, "c": 0}}
    result = run_cli("verify", *LINE_WALK, "--steps", "6", "--symmetry", json.dumps(spec))
    assert result.returncode == 1, result.stderr
    by_case = {r["case"]: r for r in map(json.loads, result.stdout.splitlines())}
    assert not by_case["symmetry_relation"]["passed"]
    assert by_case["symmetry_relation"]["steps"][0] > 0.5
    assert by_case["probability_map"]["passed"]


def test_non_diagonal_full_homog_uprime_exits_4_with_the_spelling_hint():
    spec = {"family": "full_homog", "Uprime": [[0, 1], [1, 0]]}
    result = run_cli("verify", *LINE_WALK, "--steps", "2", "--symmetry", json.dumps(spec))
    assert result.returncode == 4, result.stderr
    assert "a list of lists is read as matrix rows" in result.stderr
    assert '{"re": a, "im": b} or "a+bi"' in result.stderr


def test_negative_corruption_step_exits_2():
    spec = {"family": "time_homog", "corrupt_phase": {"n": -1, "x": 0, "c": 0}}
    result = run_cli("verify", *LINE_WALK, "--steps", "6", "--symmetry", json.dumps(spec))
    assert result.returncode == 2
    assert "error:" in result.stderr


# -- verify --symmetry: one evolution of each walk ------------------------------------

PHASED_COIN = json.dumps({"kind": "uniform_matrix",
                          "matrix": [[0.6, "0.8i"], ["0.8i", 0.6]]})
FAMILY_SPECS = {
    "general": {"family": "general", "U0": [[0, 1], [1, 0]], "default": "0.6+0.8i",
                "phase_table": [{"n": 2, "x": 0, "c": 1, "value": "1i"},
                                {"n": 5, "x": -1, "c": 0, "value": -1}]},
    "space_homog": {"family": "space_homog", "eta": ["1i", 1],
                    "character": {"kind": "exp_linear", "phi": 0.7},
                    "Uprime": [[0.6, 0.8], [-0.8, 0.6]]},
    "time_homog": {"family": "time_homog", "epsilon": -1, "eta": [1, "1i"],
                   "delta_table": [{"x": 1, "c": 0, "value": "-1i"}]},
    "full_homog": {"family": "full_homog", "epsilon": "1i", "eta": [1, -1],
                   "character": {"kind": "exp_linear", "phi": 1.1},
                   "Uprime": ["1i", -1]},
}


def _two_pass_dict_reports(argv: list, tol: float = 1e-10) -> list:
    """The verify --symmetry reports as two separate passes wrote them: the
    relation check, then the probability map with per-element dicts."""
    from dataclasses import replace

    from cayleywalk import (GeneralizedSymmetry, WalkInstance, apply_dressing, evolve_iter,
                            permutation_apply)
    from cayleywalk.automorphisms import transform_pair
    from cayleywalk.cli import _read_spec_arg
    from cayleywalk.specs import (parse_coin_spec, parse_group_spec, parse_state_spec,
                                  parse_symmetry_spec)
    from cayleywalk.verify import _report

    args = dict(zip(argv[::2], argv[1::2]))
    group = parse_group_spec(_read_spec_arg(args["--group"]))
    coin = parse_coin_spec(group, _read_spec_arg(args["--coin"]))
    start = parse_state_spec(group, _read_spec_arg(args["--start"]))
    symmetry, dressing = parse_symmetry_spec(group, _read_spec_arg(args["--symmetry"]))
    steps = int(args["--steps"])
    generalized = symmetry if isinstance(symmetry, GeneralizedSymmetry) else None
    inner = symmetry.inner if generalized else symmetry

    def walk_pair():
        new_coin, new_state = transform_pair(symmetry, coin, start)
        return zip(evolve_iter(WalkInstance(group, coin, start), steps),
                   evolve_iter(WalkInstance(group, new_coin, new_state), steps))

    dress = inner if dressing is None else replace(inner, phases=dressing)
    relation = []
    for n, (psi, phi) in enumerate(walk_pair()):
        expected = apply_dressing(dress, n, psi)
        if generalized:
            expected = permutation_apply(generalized.perm, expected)
        relation.append((phi - expected).norm())
    relabel = generalized.perm.apply_element if generalized else (lambda x: x)
    probability = []
    for a, b in walk_pair():
        pa = {relabel(x): p for x, p in a.position_distribution().items()}
        pb = b.position_distribution()
        probability.append(max(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in set(pa) | set(pb)))
    return [_report("symmetry_relation", relation, tol), _report("probability_map", probability, tol)]


@pytest.mark.parametrize("corrupt", [False, True], ids=["valid", "corrupted"])
@pytest.mark.parametrize("family", [*FAMILY_SPECS, "mirror"])
def test_verify_symmetry_matches_the_two_pass_dict_residuals(family, corrupt, tmp_path):
    from cayleywalk import cli
    if family == "mirror":  # a generalized symmetry, relabeled by the reflection
        mirror = tmp_path / "mirror.json"
        assert cli.main(["line", "mirror", "--coin", "hadamard", "--out", str(mirror)]) == 0
        spec = json.loads(mirror.read_text())["symmetry"]
        target = spec["inner"]
    else:
        spec = target = dict(FAMILY_SPECS[family])
    if corrupt:
        target["corrupt_phase"] = {"n": 3, "x": 1, "c": 0}
    argv = ["--group", "line", "--coin", "hadamard" if family == "mirror" else PHASED_COIN,
            "--start", "0:(0.6,0.8i)", "--steps", "12", "--symmetry", json.dumps(spec)]
    out = tmp_path / "reports.jsonl"
    code = cli.main(["verify", *argv, "--out", str(out)])
    reports = _two_pass_dict_reports(argv)
    assert out.read_text() == "".join(r.to_json() + "\n" for r in reports)
    assert code == (0 if all(r.passed for r in reports) else 1)
    assert [r.passed for r in reports] == [not corrupt, True]


# -- what a CLI run imports ---------------------------------------------------------

# numpy.random loads secrets -> hashlib -> OpenSSL's libcrypto, about 6 MB of
# peak memory per process; the CLI samples with the stdlib random instead.
HEAVY_MODULES = ("numpy.random", "hashlib", "secrets")
# `python -m cayleywalk ARGS` that writes, on exit, which of HEAVY_MODULES are
# in sys.modules to the file named by its first argument.
LOADED_MAIN = """
import runpy, sys
out_file = sys.argv.pop(1)
try:
    runpy.run_module("cayleywalk", run_name="__main__", alter_sys=True)
finally:
    with open(out_file, "w") as dst:
        dst.write(" ".join(m for m in %r if m in sys.modules))
""" % (HEAVY_MODULES,)


@pytest.mark.parametrize("args", [
    *(["verify", "--group", "line", "--coin", PHASED_COIN, "--start", "0:(0.6,0.8i)",
       "--steps", "6", "--symmetry", json.dumps(spec)] for spec in FAMILY_SPECS.values()),
    ["verify", "--group", "hypercube:3", "--suite", "--seed", "1"],
    ["simulate", *LINE_WALK, "--steps", "6"],
    ["simulate", "--group", "lattice:2", "--coin", "grover", "--start", "(0,0):(1,0,0,0)",
     "--steps", "4", "--format", "json"],
], ids=[*FAMILY_SPECS, "suite", "simulate_csv", "simulate_json"])
def test_cli_run_loads_no_numpy_random_or_hashlib(tmp_path, args):
    loaded = tmp_path / "loaded"
    result = subprocess.run([sys.executable, "-c", LOADED_MAIN, str(loaded), *args,
                             "--out", str(tmp_path / "out")],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert loaded.read_text() == ""


@pytest.mark.parametrize("seed", ["-1", "1"])
def test_verify_suite_takes_a_negative_seed(seed):
    result = run_cli("verify", "--group", "hypercube:3", "--suite", "--seed", seed)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert reports and all(r["passed"] for r in reports)


def test_verify_suite_output_is_the_same_in_every_process():
    outputs = set()
    for hash_seed in ("1", "2"):
        result = subprocess.run(CLI + ["verify", "--group", "lattice:2", "--suite", "--seed", "3"],
                                capture_output=True, timeout=120,
                                env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1
