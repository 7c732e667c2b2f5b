"""Command-line front end.

Subcommands: simulate, transform, verify, line (canonicalize | mirror |
symmetric-states), group (causal | automorphisms). Spec-valued flags accept
inline JSON, a path to a JSON file, or documented shorthands. Exit codes:
0 success, 1 verification failure, 2 invalid configuration, 3 numeric norm
drift, 4 symmetry-family precondition violation, 5 degenerate line coin,
70 internal error (see `run`).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import traceback

import numpy as np

from .automorphisms import enumerate_automorphisms, transform_pair
from .errors import (CayleyWalkError, DegenerateCoinError, FamilyPreconditionError,
                     NumericDriftError, SpecError)
from .groups import CayleyGroup, brute_force_causal
from .line import (LineCoinParams, canonicalize_line_coin, decompose_line_coin,
                   mirror_chirality_map, mirror_inner_symmetry, reflection_automorphism,
                   symmetric_initial_states)
from .specs import (dump_complex, dump_element, dump_json, dump_matrix, dump_state,
                    parse_coin_spec, parse_complex, parse_group_spec, parse_line_params,
                    parse_state_spec, parse_symmetry_spec, symmetry_to_spec,
                    write_distribution_csv, write_distribution_json)
from .verify import check_homogeneity, check_symmetry, run_invariant_suite
from .walk import WalkInstance, evolve_iter

logger = logging.getLogger("cayleywalk")

# Exit code of each error class, first match wins (see the module docstring).
EXIT_CODES = ((DegenerateCoinError, 5), (FamilyPreconditionError, 4), (NumericDriftError, 3),
              (CayleyWalkError, 2))
# Exit code of any other exception: a bug, not an outcome (EX_SOFTWARE).
EXIT_INTERNAL = 70


def _read_spec_arg(value: str):
    """A spec flag is inline JSON, a path to a JSON file, or a shorthand."""
    if value is None:
        return None
    text = value.strip()
    try:
        if text.startswith("{") or text.startswith("["):
            return json.loads(text)
        if os.path.isfile(text):
            with open(text, "r", encoding="utf-8") as fh:
                return json.load(fh)
    except ValueError as exc:  # bad JSON, or a file that is not UTF-8 text
        raise SpecError(f"invalid JSON: {exc}") from exc
    return text


def _open_out(args):
    if args.out and args.out != "-":
        return open(args.out, "w", encoding="utf-8")
    return None


def _emit(args, text: str) -> None:
    fh = _open_out(args)
    if fh is None:
        sys.stdout.write(text)
    else:
        with fh:
            fh.write(text)


def _line_group_from(args) -> CayleyGroup:
    spec = getattr(args, "group", None) or "line"
    group = parse_group_spec(_read_spec_arg(spec))
    if group.kind != "line":
        raise SpecError("this subcommand is defined on the line group only")
    return group


def _coin_matrix(group, coin_spec) -> np.ndarray:
    coin = parse_coin_spec(group, _read_spec_arg(coin_spec))
    if not (coin.time_homogeneous and coin.space_homogeneous):
        raise SpecError("line tools need a single uniform coin matrix")
    return coin.matrix_at(0)


def cmd_simulate(args) -> int:
    group = parse_group_spec(_read_spec_arg(args.group))
    coin = parse_coin_spec(group, _read_spec_arg(args.coin))
    start = parse_state_spec(group, _read_spec_arg(args.start))
    if args.steps < 0:
        raise SpecError("steps must be nonnegative")
    states = evolve_iter(WalkInstance(group, coin, start), args.steps)
    write = write_distribution_csv if args.format == "csv" else write_distribution_json
    fh = _open_out(args)
    if fh is None:
        write(sys.stdout, group, states)
    else:
        try:
            with fh:
                write(fh, group, states)
        except BaseException:
            # the rows are written as the walk runs: a failed run must not
            # leave a truncated file behind
            os.remove(args.out)
            raise
    logger.info("simulated %d steps on %s", args.steps, group.kind)
    return 0


def cmd_transform(args) -> int:
    group = parse_group_spec(_read_spec_arg(args.group))
    coin = parse_coin_spec(group, _read_spec_arg(args.coin))
    start = parse_state_spec(group, _read_spec_arg(args.start))
    symmetry, _ = parse_symmetry_spec(group, _read_spec_arg(args.symmetry))
    new_coin, new_state = transform_pair(symmetry, coin, start)
    positions = _window_positions(group, args.window)
    table = [{"matrix": dump_matrix(new_coin.matrix_at(n, x)),
              "n": n, "x": dump_element(x)}
             for n in range(args.window) for x in positions]
    time_h, space_h = check_homogeneity(new_coin, positions_probe=positions)
    payload = {
        "coin_table": table,
        "initial_state": dump_state(new_state),
        "space_homogeneous": space_h,
        "time_homogeneous": time_h,
    }
    _emit(args, dump_json(payload) + "\n")
    return 0


def _window_positions(group: CayleyGroup, window: int) -> list:
    """Ball of radius `window` around the identity (whole group if finite
    and small)."""
    if group.is_finite and group.order <= 256:
        return sorted(group.elements(), key=group.encode)
    seen = {group.encode(group.identity): group.identity}
    frontier = [group.identity]
    for _ in range(window):
        new_frontier = []
        for x in frontier:
            for s in group.generators:
                y = group.mul(x, s)
                key = group.encode(y)
                if key not in seen:
                    seen[key] = y
                    new_frontier.append(y)
        frontier = new_frontier
    return [seen[key] for key in sorted(seen)]


def cmd_verify(args) -> int:
    group = parse_group_spec(_read_spec_arg(args.group))
    reports = []
    if args.symmetry:
        coin = parse_coin_spec(group, _read_spec_arg(args.coin))
        start = parse_state_spec(group, _read_spec_arg(args.start))
        symmetry, dressing = parse_symmetry_spec(group, _read_spec_arg(args.symmetry))
        reports.extend(check_symmetry(coin, start, symmetry, n_max=args.steps, tol=args.tol,
                                      dressing=dressing))
    if args.suite or not args.symmetry:
        reports.extend(run_invariant_suite(group, seed=args.seed))
    lines = "\n".join(r.to_json() for r in reports) + "\n"
    _emit(args, lines)
    failed = [r.case_id for r in reports if not r.passed]
    if failed:
        logger.info("failed cases: %s", ", ".join(failed))
        return 1
    return 0


def cmd_line_canonicalize(args) -> int:
    group = _line_group_from(args)
    psi, symmetry = canonicalize_line_coin(_coin_matrix(group, args.coin), group)
    payload = {"psi": psi, "symmetry": symmetry_to_spec(symmetry)}
    _emit(args, dump_json(payload) + "\n")
    return 0


def _line_params_from(args, group) -> LineCoinParams:
    if getattr(args, "params", None):
        return parse_line_params(_read_spec_arg(args.params))
    if getattr(args, "coin", None):
        return decompose_line_coin(_coin_matrix(group, args.coin))
    raise SpecError("provide --coin or --params")


def cmd_line_mirror(args) -> int:
    group = _line_group_from(args)
    p = _line_params_from(args, group)
    inner = mirror_inner_symmetry(p, group)
    refl = reflection_automorphism(group)
    payload = {
        "Q": dump_matrix(mirror_chirality_map(p)),
        "params": {"mu": dump_complex(p.mu), "nu": dump_complex(p.nu),
                   "omega": dump_complex(p.omega), "psi": p.psi},
        "symmetry": {
            "family": "generalized",
            "inner": symmetry_to_spec(inner),
            "perm": {"perm": list(refl.perm), "shift": dump_element(refl.shift)},
        },
    }
    _emit(args, dump_json(payload) + "\n")
    return 0


def cmd_line_symmetric_states(args) -> int:
    group = _line_group_from(args)
    if args.nu is not None or args.psi is not None:
        if args.nu is None or args.psi is None:
            raise SpecError("--nu and --psi go together")
        p = LineCoinParams(1.0 + 0j, 1.0 + 0j, parse_complex(args.nu), float(args.psi))
    else:
        p = _line_params_from(args, group)
    plus, minus = symmetric_initial_states(p)
    payload = {"minus": [dump_complex(v) for v in minus],
               "plus": [dump_complex(v) for v in plus]}
    _emit(args, dump_json(payload) + "\n")
    return 0


def cmd_group_causal(args) -> int:
    group = parse_group_spec(_read_spec_arg(args.group))
    payload = {"chi": group.chi, "kind": group.kind,
               "nonseparating": group.nonseparating}
    if group.is_finite:
        causal = brute_force_causal(group)
        members = sorted(causal.subgroup, key=group.encode)
        payload["subgroup"] = [dump_element(x) for x in members]
        payload["subgroup_order"] = len(members)
        payload["future_variant_equal"] = causal.future_subgroup == causal.subgroup
        payload["brute_force_chi"] = causal.chi
    _emit(args, dump_json(payload) + "\n")
    return 0


def cmd_group_automorphisms(args) -> int:
    group = parse_group_spec(_read_spec_arg(args.group))
    auts = enumerate_automorphisms(group)
    payload = {"automorphisms": [{"perm": list(a.perm)} for a in auts],
               "count": len(auts)}
    _emit(args, dump_json(payload) + "\n")
    return 0


def _add_common_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleywalk",
        description="Simulate coined walks on Cayley graphs and verify their symmetries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="evolve a walk and write distributions")
    p.add_argument("--group", required=True)
    p.add_argument("--coin", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_out(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("transform", help="apply a symmetry to a coin and state")
    p.add_argument("--group", required=True)
    p.add_argument("--coin", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--symmetry", required=True)
    p.add_argument("--window", type=int, default=3,
                   help="tabulate the coin for n < window over nearby positions")
    _add_common_out(p)
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("verify", help="run verification checks, one JSON line each")
    p.add_argument("--group", required=True)
    p.add_argument("--coin", default="hadamard")
    p.add_argument("--start", default=None)
    p.add_argument("--symmetry", default=None)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", action="store_true",
                   help="also run the structural invariant battery")
    _add_common_out(p)
    p.set_defaults(handler=cmd_verify)

    line = sub.add_parser("line", help="line-walk toolkit")
    line_sub = line.add_subparsers(dest="line_command", required=True)

    p = line_sub.add_parser("canonicalize",
                            help="symmetry reducing a coin to a real rotation")
    p.add_argument("--coin", required=True)
    p.add_argument("--group", default=None)
    _add_common_out(p)
    p.set_defaults(handler=cmd_line_canonicalize)

    p = line_sub.add_parser("mirror", help="reflection symmetry data for a coin")
    p.add_argument("--coin", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--group", default=None)
    _add_common_out(p)
    p.set_defaults(handler=cmd_line_mirror)

    p = line_sub.add_parser("symmetric-states",
                            help="initial chiralities with mirror-symmetric walks")
    p.add_argument("--coin", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--nu", default=None)
    p.add_argument("--psi", type=float, default=None)
    p.add_argument("--group", default=None)
    _add_common_out(p)
    p.set_defaults(handler=cmd_line_symmetric_states)

    grp = sub.add_parser("group", help="group structure queries")
    grp_sub = grp.add_subparsers(dest="group_command", required=True)

    p = grp_sub.add_parser("causal", help="zero-net-exponent subgroup data")
    p.add_argument("--group", required=True)
    _add_common_out(p)
    p.set_defaults(handler=cmd_group_causal)

    p = grp_sub.add_parser("automorphisms", help="generator permutations that extend")
    p.add_argument("--group", required=True)
    _add_common_out(p)
    p.set_defaults(handler=cmd_group_automorphisms)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("WALK_LOG_LEVEL", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CayleyWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


def run(argv=None) -> int:
    """The `cayleywalk` script and `python -m cayleywalk`: main, with any
    exception that main does not map reported as an internal error, so that
    it cannot pass for a failed check (exit 1). main itself still raises it
    for API callers."""
    try:
        return main(argv)
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(run())
