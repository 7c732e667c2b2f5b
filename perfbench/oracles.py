"""Reference results the benchmark checks the package against.

Nothing here imports cayleywalk: the dense evolutions below are written
directly from the walk definition (coin, then the conditional shift
|x, c> -> |x s_c, c>), with the package's generator orders
(+1, -1) on the line, (+e1, -e1, +e2, -e2) on the plane lattice and the
basis vectors e_0..e_{d-1} on the hypercube.
"""

from __future__ import annotations

import json

import numpy as np

# Largest |difference| allowed between an amplitude or probability the
# package reports and the dense reference value.
TOL = 1e-10


def line_walk(coin: np.ndarray, psi0: np.ndarray, steps: int, with_probs: bool = True):
    """Line walk started at x = 0 over positions -n..n (n = steps).

    Returns the final amplitudes, shape (2n+1, 2), and the position
    probabilities after every step, shape (steps+1, 2n+1), or None for
    them when `with_probs` is false.
    """
    n = steps
    psi = np.zeros((2 * n + 1, 2), dtype=complex)
    psi[n] = psi0
    probs = np.empty((steps + 1 if with_probs else 1, 2 * n + 1))
    probs[0] = (np.abs(psi) ** 2).sum(axis=1)
    for k in range(steps):
        psi = psi @ coin.T
        new = np.zeros_like(psi)
        new[1:, 0] = psi[:-1, 0]
        new[:-1, 1] = psi[1:, 1]
        psi = new
        if with_probs:
            probs[k + 1] = (np.abs(psi) ** 2).sum(axis=1)
    return psi, probs if with_probs else None


def lattice2_walk(coin: np.ndarray, psi0: np.ndarray, steps: int, with_probs: bool = True):
    """Z^2 walk started at the origin over coordinates -n..n (n = steps).

    Returns the final amplitudes, shape (2n+1, 2n+1, 4), and the position
    probabilities after every step, shape (steps+1, 2n+1, 2n+1), or None
    for them when `with_probs` is false.
    """
    n = steps
    psi = np.zeros((2 * n + 1, 2 * n + 1, 4), dtype=complex)
    psi[n, n] = psi0
    probs = np.empty((steps + 1 if with_probs else 1, 2 * n + 1, 2 * n + 1))
    probs[0] = (np.abs(psi) ** 2).sum(axis=2)
    for k in range(steps):
        psi = psi @ coin.T
        new = np.zeros_like(psi)
        new[1:, :, 0] = psi[:-1, :, 0]
        new[:-1, :, 1] = psi[1:, :, 1]
        new[:, 1:, 2] = psi[:, :-1, 2]
        new[:, :-1, 3] = psi[:, 1:, 3]
        psi = new
        if with_probs:
            probs[k + 1] = (np.abs(psi) ** 2).sum(axis=2)
    return psi, probs if with_probs else None


def hypercube_final(d: int, coin: np.ndarray, psi0: np.ndarray, steps: int) -> np.ndarray:
    """Final amplitudes of a hypercube walk started at the zero vertex, shape
    (2^d, d); vertex (b_0, ..., b_{d-1}) has row index sum(b_i << i)."""
    index = np.arange(2 ** d)
    psi = np.zeros((2 ** d, d), dtype=complex)
    psi[0] = psi0
    for _ in range(steps):
        psi = psi @ coin.T
        new = np.empty_like(psi)
        for c in range(d):
            new[:, c] = psi[index ^ (1 << c), c]
        psi = new
    return psi


def terms_to_dense(terms: dict, kind: str, shape: tuple, offset: int) -> np.ndarray | None:
    """Scatter {(x, c): amplitude} into a dense array laid out like the
    reference; None if a term lies outside it."""
    dense = np.zeros(shape, dtype=complex)
    for (x, c), amp in terms.items():
        if kind == "line":
            idx = (x + offset, c)
        elif kind == "lattice":
            idx = (x[0] + offset, x[1] + offset, c)
        else:
            idx = (sum(int(b) << i for i, b in enumerate(x)), c)
        if any(not 0 <= i < s for i, s in zip(idx, shape)):
            return None
        dense[idx] = amp
    return dense


def max_deviation(got: np.ndarray | None, want: np.ndarray) -> float:
    if got is None:
        return float("inf")
    return float(np.abs(got - want).max())


def csv_line_probabilities(text: str, steps: int) -> np.ndarray | None:
    """Parse `step,x,probability` rows of a line walk into a dense
    (steps+1, 2n+1) array; None if the text is malformed."""
    header, _, body = text.partition("\n")
    if header != "step,x,probability":
        return None
    try:
        rows = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float).reshape(-1, 3)
    except ValueError:
        return None
    step, x = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64) + steps
    if step.min(initial=0) < 0 or step.max(initial=0) > steps or x.min(initial=0) < 0 \
            or x.max(initial=0) > 2 * steps:
        return None
    probs = np.zeros((steps + 1, 2 * steps + 1))
    probs[step, x] = rows[:, 2]
    return probs


def json_lattice2_probabilities(text: str, steps: int) -> np.ndarray | None:
    """Parse the `simulate --format json` output of a Z^2 walk into a dense
    (steps+1, 2n+1, 2n+1) array; None if the text is malformed."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    probs = np.zeros((steps + 1, 2 * steps + 1, 2 * steps + 1))
    if [entry.get("step") for entry in payload] != list(range(steps + 1)):
        return None
    for entry in payload:
        for point in entry["distribution"]:
            i, j = point["x"][0] + steps, point["x"][1] + steps
            if not (0 <= i <= 2 * steps and 0 <= j <= 2 * steps):
                return None
            probs[entry["step"], i, j] = point["p"]
    return probs


def verify_reports(text: str) -> dict | None:
    """case name -> passed flag from `verify` JSON lines; None if malformed."""
    try:
        reports = [json.loads(line) for line in text.splitlines() if line.strip()]
        return {r["case"]: bool(r["passed"]) for r in reports}
    except (json.JSONDecodeError, KeyError, TypeError):
        return None
