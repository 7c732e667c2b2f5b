"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

A tiny-size smoke run of every workload in both modes must print exactly the
metrics BENCHMARK.json names, and each output oracle must reject a copy of a
real output with one injected fault.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cayleywalk as cw  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def test_benchmark_json_names_the_script_workloads():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                           "per_layer"}
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "walk_uniform", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(v) for v in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


# -- oracles catch injected faults ------------------------------------------------


def test_walk_oracle_catches_a_perturbed_amplitude(tmp_path):
    w = workloads.WalkUniform(cw, 5, "tiny", tmp_path)
    w.prepare()
    for task in w.tasks():
        history = task.run()
        assert task.check(history)
        final = history[-1]
        amps = final.amps.copy()
        amps[len(amps) // 2, 0] += 1e-8
        history[-1] = cw.WalkState(final.group, final.positions, amps)
        assert not task.check(history)


def test_negative_control_that_passes_is_a_failure(tmp_path):
    w = workloads.CertifyFamilies(cw, 5, "tiny", tmp_path)
    tasks = {t.label: t for t in w.tasks()}
    controls = [label for label in tasks if label.endswith(".corrupted")]
    assert len(controls) == len(workloads.FAMILIES)
    for label in controls:
        real = tasks[label].run()
        assert not real.passed and tasks[label].check(real)
        honest = tasks[label[:-len(".corrupted")]].run()
        assert honest.passed and not tasks[label].check(honest)


def test_cli_oracles_catch_wrong_codes_and_outputs(tmp_path):
    w = workloads.CliRoundtrip(cw, 5, "tiny", tmp_path)
    w.prepare()
    by_label = {inv.label: inv for inv in w.invocations}
    for label in ("verify.general", "verify.general.corrupted"):
        inv = by_label[label]
        code = w._run_in_process(inv)
        assert w.check_result(inv, code)
        w._run_in_process(inv)
        assert not w.check_result(inv, 1 - code)

    inv = by_label["simulate.line.csv"]
    assert w.check_result(inv, w._run_in_process(inv))
    w._run_in_process(inv)
    lines = inv.out.read_text(encoding="utf-8").splitlines()
    step, x, p = lines[-1].split(",")
    lines[-1] = f"{step},{x},{float(p) + 1e-8!r}"
    inv.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert not w.check_result(inv, 0)

    inv = by_label["simulate.lattice2.json"]
    w._run_in_process(inv)
    payload = json.loads(inv.out.read_text(encoding="utf-8"))
    payload[-1]["distribution"][0]["p"] += 1e-8
    inv.out.write_text(json.dumps(payload), encoding="utf-8")
    assert not w.check_result(inv, 0)


# -- inputs depend on the seed only ----------------------------------------------

DIGEST = """
import hashlib, json, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {here!r}]
import cayleywalk as cw, numpy as np, workloads
h = hashlib.sha256()
cw_round = lambda values: np.round(np.array(values), 12).tolist()
cli = workloads.CliRoundtrip(cw, {seed}, "full", Path("."))
h.update(json.dumps([inv.argv[:-1] for inv in cli.invocations]).encode())
cert = workloads.CertifyFamilies(cw, {seed}, "full", Path("."))
for label, coin, start, t, steps, dressing, expect in cert.checks:
    phases = dressing or getattr(t, "inner", t).phases
    g = coin.group
    xs = [g.identity] + list(g.generators)
    h.update(repr([label, coin.matrix_at(0).round(12).tolist(), start.amps.round(12).tolist(),
                   cw_round([phases.at(n, x, c) for n in (1, 2, 3) for x in xs
                             for c in range(g.coin_dim)])]).encode())
walk = workloads.WalkUniform(cw, {seed}, "full", Path("."))
h.update(repr([case[3].round(12).tolist() for case in walk.cases]).encode())
print(h.hexdigest())
"""


def _digest(seed: int, hash_seed: str) -> str:
    code = DIGEST.format(src=str(ROOT / "src"), here=str(HERE), seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    return proc.stdout.strip()


def test_inputs_depend_on_the_seed_not_on_string_hashing():
    first = _digest(11, "0")
    assert first == _digest(11, "12345")
    assert first != _digest(12, "0")


def test_tracer_wraps_imported_names_and_restores_them():
    import cayleywalk.verify as verify
    original = verify.evolve
    group = cw.LineGroup()
    start = cw.WalkState.localized(group, 0, [1.0, 0.0])
    instance = cw.WalkInstance(group, cw.hadamard_coin(group), start)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert verify.evolve is not original and cw.evolve is verify.evolve
        verify.evolve(instance, 3)
    finally:
        tracer.uninstall()
    assert verify.evolve is original and cw.evolve is original
    totals = tracer.totals()
    assert totals["walk.evolve"]["calls"] == 1
    assert totals["walk.apply_shift"]["calls"] == 3
    assert tracer.units["groups.shift_rows"] == 2 * (1 + 2 + 3)
    self_sum = sum(t["self_s"] for t in totals.values())
    assert self_sum == pytest.approx(totals["walk.evolve"]["incl_s"], rel=1e-9)
