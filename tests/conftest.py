"""Shared test helpers."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from cayleywalk import WalkState

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """CLI tests run `python -m cayleywalk` in child processes, which do not
    see pytest's `pythonpath` setting; put the same source tree on theirs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        yield


def random_state(group, rng, count: int = 4) -> WalkState:
    """Normalized random state supported on a few sampled positions."""
    xs = group.random_elements(rng, count)
    terms = []
    for x in xs:
        for c in range(group.coin_dim):
            amp = rng.normal() + 1j * rng.normal()
            terms.append((x, c, amp))
    return WalkState.from_terms(group, terms).normalized()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)
