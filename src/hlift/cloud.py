"""Deterministic probe clouds over states and points.

Checks that quantify "zero over a cloud of states" need the same cloud
on every run, on every machine, with no RNG state to carry around.  A
Halton sequence gives low-discrepancy coverage of the sampling box and
is fully determined by the index, so residual maxima are reproducible
to the bit.

Default box: x and x' components in [-2, 2], u in [0, 2], w in [-1, 1].
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .dynamics import ReducedState
from .geometry import Point

__all__ = ["halton", "point_cloud", "state_cloud", "DEFAULT_BOUNDS",
           "MAX_DIMENSIONS"]

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
           53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
# halton's limit: one prime base per dimension, so a point cloud takes
# n <= 28 and a state cloud n <= 14
MAX_DIMENSIONS = len(_PRIMES)

DEFAULT_BOUNDS: Dict[str, Tuple[float, float]] = {
    "x": (-2.0, 2.0),
    "xp": (-2.0, 2.0),
    "u": (0.0, 2.0),
    "w": (-1.0, 1.0),
}


def halton(count: int, dim: int, start: int = 1) -> np.ndarray:
    """(count, dim) Halton points in [0, 1); rows start at index `start`.

    Column c is the radical inverse of the row index in base _PRIMES[c],
    summed digit by digit from the lowest, as out += f * (i % base);
    i //= base; f /= base (a row whose index ran out adds 0.0)."""
    if dim > MAX_DIMENSIONS:
        raise ValueError(f"at most {MAX_DIMENSIONS} dimensions supported")
    bases = np.array(_PRIMES[:dim], dtype=np.int64)
    i = np.maximum(np.arange(start, start + count, dtype=np.int64), 0)
    i = np.repeat(i[:, None], dim, axis=1)
    out = np.zeros((count, dim))
    f = 1.0 / bases
    while i.any():
        out += f * (i % bases)
        i //= bases
        f /= bases
    return out


def _span(lo: float, hi: float, t: np.ndarray) -> np.ndarray:
    return lo + (hi - lo) * t


def point_cloud(n: int, count: int = 100,
                bounds: Optional[Dict] = None) -> List[Point]:
    """Deterministic points (x, u, w) filling the sampling box."""
    b = {**DEFAULT_BOUNDS, **(bounds or {})}
    raw = halton(count, n + 2)
    x = _span(*b["x"], raw[:, :n])
    u, w = (_span(*b[k], raw[:, c]).tolist()
            for k, c in (("u", n), ("w", n + 1)))
    return [Point(*p) for p in zip(x, u, w)]


def state_cloud(n: int, count: int = 100,
                bounds: Optional[Dict] = None) -> List[ReducedState]:
    """Deterministic reduced states (x, x', u, w) filling the box."""
    b = {**DEFAULT_BOUNDS, **(bounds or {})}
    raw = halton(count, 2 * n + 2)
    x, xp = _span(*b["x"], raw[:, :n]), _span(*b["xp"], raw[:, n:2 * n])
    u, w = (_span(*b[k], raw[:, c]).tolist()
            for k, c in (("u", 2 * n), ("w", 2 * n + 1)))
    return [ReducedState(*s) for s in zip(x, xp, u, w)]
