"""The benchmark's seeded workloads.

Each workload turns a seed into a fixed list of tasks. A task is one
operation on the package (an evolution, a relation check, or a CLI
invocation) plus a check of its output against `oracles`, which does not
use the package. Every random input comes from
``np.random.default_rng([seed, stream])`` with a fixed integer stream per
use, so one seed gives the same inputs in every process; ``hash()`` of
strings is salted per process and is never used.

Phase, delta and coin rules are closed forms evaluated per call, never a
per-call random draw, so that rule cost stays a small part of a check.
"""

from __future__ import annotations

import cmath
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from operator import mul
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

SIZES = {
    "full": {"line_steps": 2000, "lattice_steps": 100, "cube_d": 10, "cube_steps": 50,
             "check_line_steps": 100, "check_small_steps": 30,
             "cli_csv_steps": 1000, "cli_json_steps": 40, "cli_verify_steps": 50},
    "tiny": {"line_steps": 30, "lattice_steps": 5, "cube_d": 4, "cube_steps": 5,
             "check_line_steps": 8, "check_small_steps": 4,
             "cli_csv_steps": 20, "cli_json_steps": 3, "cli_verify_steps": 6},
}

FAMILIES = ("general", "space_homog", "time_homog", "full_homog", "mirror")

# Smallest |amplitude| at a negative control's corrupted site, so that the
# corruption changes the dressed state by far more than the check tolerance.
CONTROL_MIN_AMP = 1e-3


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def phased_coin(rng: np.random.Generator, dim: int) -> np.ndarray:
    """diag(a) M diag(b) with seeded unit phases a, b and M the Hadamard
    (dim 2) or Grover matrix. Every seed gives the same |entries|, so a walk
    spreads, and is pruned, the same way whatever the seed, and the work of
    a task does not depend on the seed."""
    if dim == 2:
        m = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    else:
        m = np.full((dim, dim), 2.0 / dim, dtype=complex) - np.eye(dim)
    return units(rng, dim)[:, None] * m * units(rng, dim)[None, :]


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def units(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(count))


def _linear_form(group, w: np.ndarray):
    """x -> w . x for the group's element encoding (int or tuple)."""
    if isinstance(group.identity, int):
        w0 = float(w[0])
        return lambda x: w0 * x
    ws = [float(v) for v in w]
    return lambda x: sum(map(mul, ws, x))


def control_site(coin: np.ndarray, psi0: np.ndarray, steps: int, rng) -> tuple:
    """Seeded (n, x, c) on a line walk from x = 0 where the reference
    amplitude is large, so a corrupted phase there must show."""
    n = int(rng.integers(max(1, steps // 4), steps + 1))
    amps, _ = oracles.line_walk(coin, psi0, n, with_probs=False)
    sites = np.argwhere(np.abs(amps) > CONTROL_MIN_AMP)
    i, c = sites[rng.integers(len(sites))]
    return n, int(i) - n, int(c)


# -- walk_uniform ------------------------------------------------------------


class WalkUniform:
    """Uniform-coin evolutions on large supports, histories kept."""

    name = "walk_uniform"

    def __init__(self, cw, seed: int, size: str, workdir: Path):
        s = SIZES[size]
        line, plane, cube = cw.LineGroup(), cw.LatticeGroup(2), cw.HypercubeGroup(s["cube_d"])
        self.cases = []
        for i, (label, group, coin, steps) in enumerate((
                ("line_hadamard", line, cw.hadamard_coin(line), s["line_steps"]),
                ("lattice2_grover", plane, cw.grover_coin(plane), s["lattice_steps"]),
                ("hypercube_grover", cube, cw.grover_coin(cube), s["cube_steps"]))):
            psi0 = unit_vector(rng_for(seed, 10 + i), group.coin_dim)
            start = cw.WalkState.localized(group, group.identity, psi0)
            self.cases.append((label, group, coin, psi0, steps,
                               cw.WalkInstance(group, coin, start)))
        self.cw = cw
        self.reference = {}
        self.amp_updates = {}

    def prepare(self) -> None:
        for label, group, coin, psi0, steps, _ in self.cases:
            matrix = coin.matrix_at(0)
            if group.kind == "line":
                final, _ = oracles.line_walk(matrix, psi0, steps, with_probs=False)
                self.reference[label] = (final, steps)
            elif group.kind == "lattice":
                final, _ = oracles.lattice2_walk(matrix, psi0, steps, with_probs=False)
                self.reference[label] = (final, steps)
            else:
                self.reference[label] = (oracles.hypercube_final(group.d, matrix, psi0, steps), 0)

    def check_history(self, label: str, group, steps: int, history) -> bool:
        want, offset = self.reference[label]
        if len(history) != steps + 1:
            return False
        got = oracles.terms_to_dense(history[-1].terms(), group.kind, want.shape, offset)
        self.amp_updates[label] = group.coin_dim * sum(st.n_positions for st in history[:-1])
        return oracles.max_deviation(got, want) <= oracles.TOL

    def tasks(self, in_process: bool = False) -> list[Task]:
        cw = self.cw
        out = []
        for label, group, _, _, steps, instance in self.cases:
            out.append(Task(
                label,
                lambda instance=instance, steps=steps: cw.evolve(instance, steps),
                lambda history, label=label, group=group, steps=steps:
                    self.check_history(label, group, steps, history)))
        return out

    def info(self) -> dict:
        return {"amp_updates_per_pass": sum(self.amp_updates.values()),
                "amp_updates_by_task": dict(self.amp_updates)}


# -- certify_families ----------------------------------------------------------


def _causal_character(cw, group, rng):
    if group.kind == "line":
        return cw.exp_character(group, float(rng.uniform(0, 2 * np.pi)), "causal_subgroup")
    if group.kind == "cyclic":
        return cw.cyclic_character(group, int(rng.integers(group.n)), "causal_subgroup")
    return cw.sign_character(group, rng.integers(0, 2, size=group.d), "causal_subgroup")


def _full_character(cw, group, rng):
    if group.kind == "line":
        return cw.exp_character(group, float(rng.uniform(0, 2 * np.pi)))
    if group.kind == "cyclic":
        return cw.cyclic_character(group, int(rng.integers(group.n)))
    return cw.sign_character(group, rng.integers(0, 2, size=group.d))


def build_family(cw, family: str, group, coin: np.ndarray, rng):
    """A seeded symmetry of the given family on `group`."""
    dim = group.coin_dim
    width = 1 if isinstance(group.identity, int) else len(group.identity)
    lin = _linear_form(group, rng.uniform(0, 2 * np.pi, size=width))
    if family == "general":
        u0 = cw.LocalUnitary.uniform(group, random_unitary(rng, dim))
        a = float(rng.uniform(0, 2 * np.pi))
        theta = [float(v) for v in rng.uniform(0, 2 * np.pi, size=dim)]
        phases = cw.PhaseField(group, lambda n, x, c: cmath.exp(1j * (a * n + lin(x) + theta[c])))
        return cw.make_general_symmetry(u0, phases)
    if family == "space_homog":
        u_first = random_unitary(rng, dim)
        alpha, beta = rng.uniform(0, 2 * np.pi, size=(2, dim))
        return cw.make_space_homog_symmetry(
            group, eta=units(rng, group.chi), rho=_causal_character(cw, group, rng),
            uprime=lambda n: u_first if n == 0 else np.exp(1j * (alpha + beta * n)))
    if family == "time_homog":
        kappa = [float(v) for v in rng.uniform(0, 2 * np.pi, size=dim)]
        return cw.make_time_homog_symmetry(
            group, epsilon=units(rng, 1)[0], eta=units(rng, group.chi),
            delta=lambda x, c: cmath.exp(1j * (lin(x) + kappa[c])))
    if family == "full_homog":
        return cw.make_full_homog_symmetry(
            group, eta=units(rng, group.chi), epsilon=units(rng, 1)[0],
            gamma=_full_character(cw, group, rng), uprime=units(rng, dim))
    if family == "mirror":
        return cw.mirror_generalized_symmetry(cw.decompose_line_coin(coin), group)
    raise ValueError(f"unknown family {family!r}")


class CertifyFamilies:
    """Relation checks for every family, with corrupted negative controls."""

    name = "certify_families"

    def __init__(self, cw, seed: int, size: str, workdir: Path):
        s = SIZES[size]
        self.cw = cw
        self.checks = []  # (label, coin, start, transform, steps, dressing, expect_pass)
        groups = (("line", cw.LineGroup(), s["check_line_steps"]),
                  ("cyclic8", cw.CyclicGroup(8), s["check_small_steps"]),
                  ("hypercube3", cw.HypercubeGroup(3), s["check_small_steps"]))
        for gi, (gname, group, steps) in enumerate(groups):
            rng = rng_for(seed, 100 + gi)
            matrix = phased_coin(rng, group.coin_dim)
            psi0 = unit_vector(rng, group.coin_dim)
            coin = cw.QuantumCoin.uniform(group, matrix)
            start = cw.WalkState.localized(group, group.identity, psi0)
            for fi, family in enumerate(FAMILIES):
                if family == "mirror" and gname != "line":
                    continue
                frng = rng_for(seed, 1000 + 10 * gi + fi)
                transform = build_family(cw, family, group, matrix, frng)
                self.checks.append((f"{gname}.{family}", coin, start, transform, steps,
                                    None, True))
                if gname == "line":
                    inner = transform.inner if family == "mirror" else transform
                    site = control_site(matrix, psi0, steps, frng)
                    self.checks.append((f"{gname}.{family}.corrupted", coin, start, transform,
                                        steps, cw.corrupted_phases(inner.phases, site), False))

    def prepare(self) -> None:
        pass

    def tasks(self, in_process: bool = False) -> list[Task]:
        cw = self.cw
        out = []
        for label, coin, start, transform, steps, dressing, expect in self.checks:
            out.append(Task(
                label,
                lambda coin=coin, start=start, transform=transform, steps=steps,
                dressing=dressing: cw.check_symmetry_relation(
                    coin, start, transform, n_max=steps, dressing=dressing),
                lambda report, expect=expect: report.passed == expect))
        return out

    def info(self) -> dict:
        return {"checks_per_pass": len(self.checks),
                "negative_controls": sum(1 for c in self.checks if not c[6])}


# -- cli_roundtrip --------------------------------------------------------------


def _complex_text(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _matrix_spec(m: np.ndarray) -> list:
    return [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in m]


def _unit_spec(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def cli_family_spec(family: str, steps: int, rng) -> dict:
    """Seeded JSON symmetry spec of one family on the line."""
    if family == "general":
        table = []
        for _ in range(16):
            n = int(rng.integers(1, steps + 1))
            table.append({"n": n, "x": int(rng.integers(-n, n + 1)), "c": int(rng.integers(2)),
                          "value": _unit_spec(units(rng, 1)[0])})
        return {"family": "general", "U0": _matrix_spec(random_unitary(rng, 2)),
                "phase_table": table, "default": _unit_spec(units(rng, 1)[0])}
    if family == "space_homog":
        return {"family": "space_homog",
                "character": {"kind": "exp_linear", "phi": float(rng.uniform(0, 2 * np.pi))},
                "eta": [_unit_spec(u) for u in units(rng, 2)],
                "Uprime": _matrix_spec(random_unitary(rng, 2))}
    if family == "time_homog":
        table = [{"x": x, "c": c, "value": _unit_spec(units(rng, 1)[0])}
                 for x in range(-3, 4) for c in range(2)]
        return {"family": "time_homog", "epsilon": _unit_spec(units(rng, 1)[0]),
                "eta": [_unit_spec(u) for u in units(rng, 2)], "delta_table": table}
    if family == "full_homog":
        return {"family": "full_homog",
                "character": {"kind": "exp_linear", "phi": float(rng.uniform(0, 2 * np.pi))},
                "epsilon": _unit_spec(units(rng, 1)[0]),
                "eta": [_unit_spec(u) for u in units(rng, 2)],
                "Uprime": [_unit_spec(u) for u in units(rng, 2)]}
    raise ValueError(f"unknown family {family!r}")


# `python -m cayleywalk ARGS`, run as `python -c CLI_MAIN HWM_FILE ARGS` so that
# the child writes its own peak resident memory (VmHWM) to HWM_FILE on exit.
# On Linux a child's ru_maxrss starts at its parent's high-water mark, so
# getrusage in the benchmark process cannot see the CLI's own peak.
CLI_MAIN = """
import runpy, sys
hwm_file = sys.argv.pop(1)
try:
    runpy.run_module("cayleywalk", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as src, open(hwm_file, "w") as dst:
        dst.write(next(line for line in src if line.startswith("VmHWM:")))
"""


@dataclass
class Invocation:
    label: str
    argv: list
    out: Path
    expect_code: int
    check_output: Callable[[str], bool]


class CliRoundtrip:
    """Sequential `python -m cayleywalk` runs: simulate and verify."""

    name = "cli_roundtrip"

    def __init__(self, cw, seed: int, size: str, workdir: Path):
        import cayleywalk.cli
        s = SIZES[size]
        self.cli = cayleywalk.cli
        self.src = Path(cw.__file__).resolve().parent.parent
        self.workdir = workdir
        self.invocations: list[Invocation] = []
        self.output_bytes = 0
        self.hwm_file = workdir / "vmhwm"
        self.peak_rss_mb = 0.0  # largest VmHWM of a CLI run

        rng = rng_for(seed, 200)
        self.line_coin = phased_coin(rng, 2)
        self.line_psi0 = unit_vector(rng, 2)
        line_coin = json.dumps({"kind": "uniform_matrix", "matrix": _matrix_spec(self.line_coin)})
        line_start = "0:(" + ",".join(_complex_text(z) for z in self.line_psi0) + ")"
        self.csv_steps = s["cli_csv_steps"]
        self._add("simulate.line.csv",
                  ["simulate", "--group", "line", "--coin", line_coin, "--start", line_start,
                   "--steps", str(self.csv_steps)], ".csv", 0, self._check_csv)

        rng = rng_for(seed, 201)
        self.plane_psi0 = unit_vector(rng, 4)
        plane_start = "(0,0):(" + ",".join(_complex_text(z) for z in self.plane_psi0) + ")"
        self.json_steps = s["cli_json_steps"]
        self._add("simulate.lattice2.json",
                  ["simulate", "--group", "lattice:2", "--coin", "grover", "--start", plane_start,
                   "--steps", str(self.json_steps), "--format", "json"],
                  ".json", 0, self._check_json)

        steps = s["cli_verify_steps"]
        rng = rng_for(seed, 202)
        verify_coin = phased_coin(rng, 2)
        verify_psi0 = unit_vector(rng, 2)
        common = ["verify", "--group", "line",
                  "--coin", json.dumps({"kind": "uniform_matrix",
                                        "matrix": _matrix_spec(verify_coin)}),
                  "--start", "0:(" + ",".join(_complex_text(z) for z in verify_psi0) + ")",
                  "--steps", str(steps)]
        for fi, family in enumerate(FAMILIES[:4]):
            frng = rng_for(seed, 2000 + fi)
            spec = cli_family_spec(family, steps, frng)
            self._add(f"verify.{family}", common + ["--symmetry", json.dumps(spec)], ".jsonl", 0,
                      lambda text: oracles.verify_reports(text) == {
                          "symmetry_relation": True, "probability_map": True})
            n, x, c = control_site(verify_coin, verify_psi0, steps, frng)
            spec["corrupt_phase"] = {"n": n, "x": x, "c": c}
            self._add(f"verify.{family}.corrupted", common + ["--symmetry", json.dumps(spec)],
                      ".jsonl", 1, lambda text: oracles.verify_reports(text) == {
                          "symmetry_relation": False, "probability_map": True})
        self._add("verify.suite.hypercube3",
                  ["verify", "--group", "hypercube:3", "--suite", "--seed", str(seed)],
                  ".jsonl", 0, lambda text: bool(oracles.verify_reports(text))
                  and all(oracles.verify_reports(text).values()))
        self.reference = {}

    def _add(self, label, argv, suffix, expect_code, check_output):
        out = self.workdir / (label + suffix)
        self.invocations.append(Invocation(label, argv + ["--out", str(out)], out,
                                           expect_code, check_output))

    def prepare(self) -> None:
        _, self.reference["csv"] = oracles.line_walk(self.line_coin, self.line_psi0,
                                                     self.csv_steps)
        grover = np.full((4, 4), 0.5) - np.eye(4)
        _, self.reference["json"] = oracles.lattice2_walk(grover, self.plane_psi0,
                                                          self.json_steps)

    def _check_csv(self, text: str) -> bool:
        got = oracles.csv_line_probabilities(text, self.csv_steps)
        return oracles.max_deviation(got, self.reference["csv"]) <= oracles.TOL

    def _check_json(self, text: str) -> bool:
        got = oracles.json_lattice2_probabilities(text, self.json_steps)
        return oracles.max_deviation(got, self.reference["json"]) <= oracles.TOL

    def _run_subprocess(self, inv: Invocation) -> int:
        env = dict(os.environ, PYTHONPATH=str(self.src))
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, str(self.hwm_file)] + inv.argv,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=170, check=False)
        hwm_kb = int(self.hwm_file.read_text(encoding="utf-8").split()[1])
        self.hwm_file.unlink()
        self.peak_rss_mb = max(self.peak_rss_mb, hwm_kb / 1024.0)
        return proc.returncode

    def _run_in_process(self, inv: Invocation) -> int:
        return self.cli.main(inv.argv)

    def check_result(self, inv: Invocation, code: int) -> bool:
        if code != inv.expect_code or not inv.out.exists():
            return False
        text = inv.out.read_text(encoding="utf-8")
        self.output_bytes += len(text.encode("utf-8"))
        inv.out.unlink()
        return inv.check_output(text)

    def tasks(self, in_process: bool = False) -> list[Task]:
        runner = self._run_in_process if in_process else self._run_subprocess
        return [Task(inv.label, lambda inv=inv: runner(inv),
                     lambda code, inv=inv: self.check_result(inv, code))
                for inv in self.invocations]

    def info(self) -> dict:
        return {"invocations_per_pass": len(self.invocations)}


WORKLOADS = {w.name: w for w in (WalkUniform, CertifyFamilies, CliRoundtrip)}
