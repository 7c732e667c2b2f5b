"""The span tracer of the benchmark (perfbench/spans.py) must find every
package name it wraps, so that a refactor that drops one fails here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import cayleywalk as cw

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(spans) -> list:
    """(owner, attribute) of every traced name, as the tracer resolves it."""
    out = []
    for _, mod, attr in spans.SPANNED_FUNCTIONS:
        out.append((importlib.import_module(f"cayleywalk.{mod}"), attr))
    for _, path, attr in spans.SPANNED_METHODS + spans.COUNTED_METHODS:
        mod, cls = path.rsplit(".", 1)
        out.append((getattr(importlib.import_module(f"cayleywalk.{mod}"), cls), attr))
    return out


def test_tracer_installs_every_traced_name_and_uninstalls():
    spans = _load_spans()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in _traced(spans)]
    group = cw.LineGroup()
    start = cw.WalkState.localized(group, 0, [1.0, 0.0])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        t = cw.make_time_homog_symmetry(group, epsilon=1j)
        assert cw.check_symmetry_relation(cw.hadamard_coin(group), start, t, n_max=3).passed
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    totals = tracer.totals()
    for name in ("verify.check_symmetry_relation", "symmetry.transform_coin",
                 "symmetry.apply_dressing", "walk.apply_coin", "walk.apply_shift"):
        assert totals[name]["calls"] >= 1, name


def test_every_traced_name_resolves_where_the_tracer_looks():
    """A spanned function is looked up on its module; a spanned or counted
    method in its class's own __dict__, where the tracer replaces it."""
    missing = [(owner.__name__, attr) for owner, attr in _traced(_load_spans())
               if attr not in vars(owner)]
    assert missing == []


def test_a_traced_line_evolution_spans_every_step_and_counts_its_shifted_rows():
    """The benchmark reads the coin and shift layers from their spans, and
    the shift's work from the rows each group.shift_rows call is given:
    one span each per step, and every generator's shift of each stepped
    state's rows, whichever path the step takes."""
    spans = _load_spans()
    group = cw.LineGroup()
    start = cw.WalkState.localized(group, 0, [0.6, 0.8j])
    instance = cw.WalkInstance(group, cw.hadamard_coin(group), start)
    tracer = spans.Tracer()
    tracer.install()
    try:
        history = cw.evolve(instance, 50)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["walk.apply_coin"]["calls"] == 50
    assert totals["walk.apply_shift"]["calls"] == 50
    assert tracer.units["groups.shift_rows"] == \
        group.coin_dim * sum(state.n_positions for state in history[:-1])
