"""cayleywalk benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload walk_uniform --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):
  walk_uniform      uniform-coin evolutions on large supports; the shift and
                    row merge do the work.
  certify_families  check_symmetry_relation for all four families and the
                    line mirror, with corrupted negative controls; per-point
                    phase and coin rules do the work.
  cli_roundtrip     sequential `python -m cayleywalk` simulate/verify runs;
                    interpreter start, import, spec parsing and output do
                    the work.

One run builds the workload from --seed, runs one untimed warm-up pass, then
repeats passes over the task list (closed loop, one operation at a time) for
--seconds, stopping at the first operation due after them. Every output is checked against references that do not use the
package; a failed check, an exception or a wrong exit code counts as a
failed operation.

--trace 0 prints the end-to-end metrics, which every workload has:
setup_s (median of several fresh processes timed from start to inputs
built), wall_s (one pass: the sum of each task's median) and peak_rss_mb
(peak resident memory of this process, or for cli_roundtrip the largest
peak of a CLI run; this process's own is in the detail line).
Times are scaled to a fixed machine speed (see REFERENCE_S). Metrics that only
some workloads have go to the detail line: check_s_p50/check_s_tail and
cli_s_p50/cli_s_tail (time per operation; the tail is the highest percentile
with at least ten samples beyond it, with the sample count) and
amp_updates_per_s.

--trace 1 prints per-layer metrics instead. It alternates untraced passes
with passes in which the package's public functions are wrapped (spans.py);
self-time shares are of the traced passes, counts are per pass, and the
difference of the traced and untraced pass times is the tracing overhead. The spans are
written to perfbench/out/trace-<workload>.npz.

The last line of standard output is the result object; the line before it
holds run details (sample counts, per-task medians, unscaled times, failed
fraction, context). spread.py runs several seeds in a row and reports each
metric's spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Metric names and units come from BENCHMARK.json; a per-layer metric named
# <span>.self_pct is that span's self time as a share of the traced pass.
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {kind: {m["name"]: m["unit"] for m in CONFIG[kind]}
           for kind in ("end_to_end", "per_layer")}
SELF_PCT = ".self_pct"

# Layers each workload was chosen to stress ("why" in BENCHMARK.json).
WHY_LAYERS = {
    "walk_uniform": ["groups.shift_rows", "walk.apply_shift"],
    "certify_families": ["symmetry.phase_at", "symmetry.apply_dressing",
                         "symmetry.transform_coin", "walk.coin_matrix",
                         "linalg.require_unitary"],
    "cli_roundtrip": ["specs.parse", "specs.write_csv", "specs.dump_json"],
}

SETUP_PROBES = 7
IMPORT_PROBES = 3
TAIL_BEYOND = 10

# Times are reported at one fixed machine speed. The 2-core host these bounds
# were set on changes speed by up to 1.8x within a minute (a fixed pure-Python
# loop took 12.6 to 23.3 ms in 3-second windows). So a run times a reference
# that runs no package code, a fresh interpreter importing numpy, right before
# every operation and probe, and reports each time t as
# t * REFERENCE_S / reference time. REFERENCE_S is the reference's median
# time on the host in a quiet minute; the unscaled times are in the detail
# line. One reference serves every workload: with this one, an interpreter
# loop and a numpy row-unique each timed before every operation for 160 s,
# the IQR/median of 20-s pass times scaled by each was 2.6 / 5.4 / 13.9 % on
# walk_uniform, 5.3 / 6.8 / 5.8 % on certify_families and 4.6 / 20 / 21 % on
# cli_roundtrip (unscaled: 22, 14 and 5.1 %).
REFERENCE_S = 0.13


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cap_blas_threads() -> int:
    """Limit BLAS/OpenMP threads of this process and its children to nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        want = os.environ.get(var, "")
        n = min(int(want), nproc) if want.isdigit() and int(want) > 0 else nproc
        os.environ[var] = str(n)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def context(blas_threads: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "cayleywalk").glob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
            "src_lines": src_lines}


class Stats:
    """Timings of one phase: per task, unscaled and at the nominal speed."""

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.pass_times: list[float] = []

    def add(self, label: str, raw: float, scaled: float) -> None:
        self.raw.setdefault(label, []).append(raw)
        self.scaled.setdefault(label, []).append(scaled)

    def ops(self) -> list[float]:
        return [t for times in self.scaled.values() for t in times]

    def task_p50(self) -> dict[str, float]:
        return {label: statistics.median(times) for label, times in self.scaled.items()}

    def wall(self) -> float:
        """One pass at the nominal speed: the sum of each task's median."""
        return sum(self.task_p50().values())

    def speed(self) -> float:
        """Scaled over unscaled time, summed over all operations."""
        return sum(self.ops()) / sum(self.pass_times)


class Runner:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None

    def run_pass(self, tasks, stats: Stats | None, deadline: float = float("inf")) -> float:
        total = 0.0
        for task in tasks:
            if time.perf_counter() >= deadline:
                break
            ref = reference_time() if stats is not None else 0.0
            if self.tracer is not None:
                self.tracer.op_id += 1
            error = None
            t0 = time.perf_counter()
            try:
                out = task.run()
            except Exception as exc:  # a failing operation is counted, not fatal
                out, error = None, exc
            dt = time.perf_counter() - t0
            total += dt
            self.attempted += 1
            if error is None:
                try:
                    ok = bool(task.check(out))
                except Exception as exc:  # a malformed output fails its check
                    ok, error = False, exc
            else:
                ok = False
            out = None  # callers do not keep one result while computing the next
            if not ok:
                self.failed += 1
                reason = type(error).__name__ if error is not None else "check failed"
                self.failures.append(f"{task.label}: {reason}")
            if stats is not None:
                stats.add(task.label, dt, dt * REFERENCE_S / ref)
        if stats is not None:
            stats.pass_times.append(total)
        return total

    def run_for(self, tasks, seconds: float) -> Stats:
        """Passes for `seconds`: the first whole, so that every task has a
        sample, and the last cut at the deadline, so that a run does not
        overrun by most of a pass."""
        stats = Stats()
        deadline = time.perf_counter() + seconds
        self.run_pass(tasks, stats)
        while time.perf_counter() < deadline:
            self.run_pass(tasks, stats, deadline)
        return stats


def _probe(argv: list[str], env: dict | None = None) -> float:
    """Seconds from spawning a fresh interpreter to its first output line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.PIPE, text=True,
                            env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"probe {argv} exited with {code}")
    return elapsed


def reference_time() -> float:
    """Seconds of the reference: a fresh interpreter importing numpy."""
    return _probe(["-c", "import numpy; print('ready')"])


def probes(argv: list[str], count: int, env: dict | None = None):
    """Unscaled and scaled seconds of `count` probes, each timed right after
    the reference."""
    raw, scaled = [], []
    for _ in range(count):
        ref = reference_time()
        raw.append(_probe(argv, env))
        scaled.append(raw[-1] * REFERENCE_S / ref)
    return raw, scaled


def measure_setup(args):
    argv = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--setup-only"]
    return probes(argv, SETUP_PROBES)


def measure_import() -> float:
    """Fresh-interpreter `import cayleywalk`, at the nominal speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    _, scaled = probes(["-c", "import cayleywalk; print('ready')"], IMPORT_PROBES, env)
    return statistics.median(scaled)


def criterion9(cw, task_times: dict) -> dict:
    """Margins to the README budgets, in unscaled seconds: 200-step line walk
    < 100 ms and 50-step hypercube(10) walk < 10 s (information, not gated)."""
    group = cw.LineGroup()
    instance = cw.WalkInstance(group, cw.hadamard_coin(group),
                               cw.WalkState.localized(group, 0, [1.0, 0.0]))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        cw.evolve_final(instance, 200)
        times.append(time.perf_counter() - t0)
    line_ms = 1e3 * statistics.median(times)
    out = {"line_200_ms": line_ms, "line_200_margin_ms": 100.0 - line_ms}
    if "hypercube_grover" in task_times:
        cube = statistics.median(task_times["hypercube_grover"])
        out.update({"hypercube10_50_s": cube, "hypercube10_50_margin_s": 10.0 - cube})
    return out


# Per-operation timings under the names the workloads were specified with;
# they are reported in the detail line, not gated (see BENCHMARK.json).
OP_METRICS = {"certify_families": "check_s", "cli_roundtrip": "cli_s"}


def end_to_end(args, cw, workload, runner: Runner, detail: dict) -> dict:
    setup_raw, setup = measure_setup(args)
    tasks = workload.tasks()
    workload.prepare()
    runner.run_pass(tasks, None)
    stats = runner.run_for(tasks, args.seconds)
    wall = stats.wall()
    # peak resident memory of the process that runs the package: this one, or
    # for the CLI workload the largest of the CLI runs' own peaks
    self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peak_rss_mb = getattr(workload, "peak_rss_mb", self_rss_mb)
    info = workload.info()
    if args.workload in OP_METRICS:
        ops = stats.ops()
        op_tail, tail_pct = tail(ops)
        prefix = OP_METRICS[args.workload]
        info.update({f"{prefix}_p50": statistics.median(ops), f"{prefix}_tail": op_tail,
                     "tail_percentile": tail_pct, "samples": len(ops)})
    if "amp_updates_per_pass" in info:
        info["amp_updates_per_s"] = info["amp_updates_per_pass"] / wall
        if args.size == "full":
            info["criterion9"] = criterion9(cw, stats.raw)
    detail.update({
        "passes": len(stats.pass_times),
        "speed_scale": stats.speed(), "raw_pass_s": stats.pass_times,
        "raw_setup_s": setup_raw, "setup_s_samples": setup,
        "task_p50_s": stats.task_p50(), "workload_info": info,
        "self_peak_rss_mb": self_rss_mb,
    })
    return {"setup_s": statistics.median(setup), "wall_s": wall, "peak_rss_mb": peak_rss_mb}


def per_layer(args, cw, workload_cls, runner: Runner, workdir: Path, detail: dict) -> dict:
    from spans import Tracer
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    t0 = time.perf_counter()
    workload = workload_cls(cw, args.seed, args.size, workdir)
    setup_wall = time.perf_counter() - t0
    tracer.uninstall()
    setup_totals = tracer.totals()
    mark = tracer.count_spans()
    tracer.calls.clear()
    tracer.units.clear()

    # the CLI workload is traced in process: main(argv) with the same arguments
    tasks = workload.tasks(in_process=True)
    workload.prepare()
    runner.run_pass(tasks, None)
    # untraced and traced passes alternate, so that drift in machine speed
    # does not show as tracing overhead
    untraced, traced = Stats(), Stats()
    bytes_before = getattr(workload, "output_bytes", 0)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        runner.run_pass(tasks, untraced)
        tracer.install()
        try:
            runner.run_pass(tasks, traced)
        finally:
            tracer.uninstall()
    passes = len(traced.pass_times)
    out_bytes = (getattr(workload, "output_bytes", 0) - bytes_before) / (2 * passes)
    totals = tracer.totals(mark)
    import_s = measure_import()
    tracer.save(OUT / f"trace-{args.workload}.npz")

    wall = sum(traced.pass_times)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def per_pass(table, name):
        return table.get(name, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {name: 100.0 * self_s(name[:-len(SELF_PCT)]) / wall
               for name in METRICS["per_layer"] if name.endswith(SELF_PCT)}
    calls = {name: t["calls"] for name, t in totals.items()}
    calls.update(tracer.calls)
    metrics.update({
        "groups.shift_rows.rows": per_pass(tracer.units, "groups.shift_rows"),
        "groups.validate.calls": per_pass(calls, "groups.validate"),
        "groups.coset_index.calls": per_pass(calls, "groups.coset_index"),
        "walk.coin_matrix.calls": per_pass(calls, "walk.coin_matrix"),
        "walk.coin_matrix.per_amp": ratio(calls.get("walk.coin_matrix", 0),
                                          tracer.units.get("walk.apply_coin", 0)),
        "linalg.require_unitary.calls": per_pass(calls, "linalg.require_unitary"),
        "symmetry.phase_at.calls": per_pass(calls, "symmetry.phase_at"),
        "symmetry.phase_at.per_amp": ratio(calls.get("symmetry.phase_at", 0),
                                           tracer.units.get("symmetry.apply_dressing", 0)),
        "symmetry.construct.setup_pct":
            100.0 * setup_totals.get("symmetry.construct", {}).get("incl_s", 0.0) / setup_wall,
        "specs.output_bytes": out_bytes,
        "cli.import_s": import_s,
        "trace.wall_s": traced.wall(),
        "trace.overhead_pct": 100.0 * (traced.wall() / untraced.wall() - 1.0),
    })
    why = sum(self_s(name) for name in WHY_LAYERS[args.workload])
    if args.workload == "cli_roundtrip":
        # each subprocess invocation pays a fresh interpreter and import,
        # which the in-process traced pass does not
        spawn = import_s * len(tasks) * passes / traced.speed()
        why_share = (spawn + why) / (spawn + wall)
    else:
        why_share = why / wall
    metrics["why.share_pct"] = 100.0 * why_share
    detail.update({
        "untraced_wall_s": untraced.wall(), "spans": tracer.count_spans(),
        "untraced_raw_pass_s": untraced.pass_times, "traced_raw_pass_s": traced.pass_times,
        "untraced_speed_scale": untraced.speed(), "traced_speed_scale": traced.speed(),
        "setup_traced_s": setup_wall,
        "layer_self_s_per_pass": {name: t["self_s"] / passes for name, t in totals.items()},
        "why_layers": WHY_LAYERS[args.workload],
    })
    return metrics


def parse_args(argv):
    from workloads import SIZES, WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=CONFIG["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="'tiny' shrinks every task, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    blas_threads = cap_blas_threads()
    args = parse_args(argv)
    args.seed %= 2 ** 32  # seed sequences take non-negative entropy only
    sys.path.insert(0, str(SRC))
    try:
        import cayleywalk as cw
    except ImportError as exc:
        print(f"error: cannot import cayleywalk from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload_cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workload_cls(cw, args.seed, args.size, workdir)
            print("ready", flush=True)
            return 0
        runner = Runner()
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "size": args.size, "trace": args.trace, "context": context(blas_threads)}
        if args.trace:
            metrics = per_layer(args, cw, workload_cls, runner, workdir, detail)
            units = METRICS["per_layer"]
        else:
            workload = workload_cls(cw, args.seed, args.size, workdir)
            metrics = end_to_end(args, cw, workload, runner, detail)
            units = METRICS["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update({"attempted": runner.attempted, "failed": runner.failed,
                   "failed_frac": runner.failed / runner.attempted,
                   "failures": runner.failures[:20]})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
