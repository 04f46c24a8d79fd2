"""Deterministic low-discrepancy sampling."""

import numpy as np
import pytest

from hlift.cloud import (_PRIMES, DEFAULT_BOUNDS, halton, point_cloud,
                         state_cloud)

from numpy_oracle import radical_inverse


def test_halton_base2_prefix():
    # radical inverse of 1, 2, 3, 4 in base 2
    pts = halton(4, 1)
    assert np.allclose(pts[:, 0], [0.5, 0.25, 0.75, 0.125])


def test_halton_deterministic_and_in_range():
    a = halton(64, 5)
    b = halton(64, 5)
    assert np.array_equal(a, b)
    assert a.shape == (64, 5)
    assert np.all((a >= 0) & (a < 1))
    # equidistribution sanity
    assert np.allclose(a.mean(axis=0), 0.5, atol=0.08)


def test_halton_is_the_scalar_radical_inverse_bit_for_bit():
    # the benchmark's starts (1 + 4096 seed, seeds 0-64), every dimension
    # and counts 1-512, each a prefix of the oracle's 512 x 30 block
    for seed in range(65):
        start = 1 + 4096 * seed
        want = np.array([[radical_inverse(start + r, p) for p in _PRIMES]
                         for r in range(512)])
        assert halton(512, 30, start).tobytes() == want.tobytes()
        for dim in range(1, 31):
            count = 1 + (37 * seed + 17 * dim) % 512
            got = halton(count, dim, start)
            assert got.shape == (count, dim)
            assert got.tobytes() == want[:count, :dim].tobytes()
    # an index of at most zero has no digits
    assert halton(3, 2, -1).tobytes() == np.array(
        [[radical_inverse(i, p) for p in (2, 3)] for i in (-1, 0, 1)]).tobytes()
    with pytest.raises(ValueError, match="at most 30 dimensions"):
        halton(1, 31)


def test_point_cloud_bounds():
    pts = point_cloud(2, 100)
    assert len(pts) == 100
    for p in pts:
        assert p.x.shape == (2,)
        lo, hi = DEFAULT_BOUNDS["x"]
        assert np.all(p.x >= lo) and np.all(p.x <= hi)
        assert DEFAULT_BOUNDS["u"][0] <= p.u <= DEFAULT_BOUNDS["u"][1]
        assert DEFAULT_BOUNDS["w"][0] <= p.w <= DEFAULT_BOUNDS["w"][1]


def test_state_cloud_bounds_and_determinism():
    a = state_cloud(3, 50)
    b = state_cloud(3, 50)
    assert len(a) == 50
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.x, rb.x) and np.array_equal(ra.xp, rb.xp)
        assert ra.u == rb.u and ra.w == rb.w
    lo, hi = DEFAULT_BOUNDS["xp"]
    for rs in a:
        assert np.all(rs.xp >= lo) and np.all(rs.xp <= hi)


def test_custom_bounds():
    pts = point_cloud(1, 10, bounds={"x": (5.0, 6.0), "u": (0.0, 1.0),
                                     "w": (-0.5, 0.5)})
    for p in pts:
        assert 5.0 <= p.x[0] <= 6.0
        assert -0.5 <= p.w <= 0.5
