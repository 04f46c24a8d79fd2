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

__all__ = ["halton", "point_cloud", "state_cloud", "DEFAULT_BOUNDS"]

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
           53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]

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
    if dim > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} dimensions supported")
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
    pts = []
    for row in raw:
        x = _span(*b["x"], row[:n])
        pts.append(Point(x, float(_span(*b["u"], row[n])),
                         float(_span(*b["w"], row[n + 1]))))
    return pts


def state_cloud(n: int, count: int = 100,
                bounds: Optional[Dict] = None) -> List[ReducedState]:
    """Deterministic reduced states (x, x', u, w) filling the box."""
    b = {**DEFAULT_BOUNDS, **(bounds or {})}
    raw = halton(count, 2 * n + 2)
    states = []
    for row in raw:
        x = _span(*b["x"], row[:n])
        xp = _span(*b["xp"], row[n:2 * n])
        states.append(ReducedState(x, xp, float(_span(*b["u"], row[2 * n])),
                                   float(_span(*b["w"], row[2 * n + 1]))))
    return states
