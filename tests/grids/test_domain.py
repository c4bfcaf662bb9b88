"""Tests for the BoxDomain affine mapping."""

import numpy as np
import pytest

from repro.grids.domain import BoxDomain


class TestConstruction:
    def test_cube(self):
        box = BoxDomain.cube(3, -1.0, 2.0)
        assert box.dim == 3
        np.testing.assert_allclose(box.widths, 3.0)

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0, 0.0], [1.0, 0.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0, 0.0], [1.0])


class TestMapping:
    def test_roundtrip(self):
        box = BoxDomain([1.0, -2.0], [3.0, 2.0])
        rng = np.random.default_rng(0)
        u = rng.random((20, 2))
        np.testing.assert_allclose(box.to_unit(box.from_unit(u)), u, atol=1e-14)

    def test_corners(self):
        box = BoxDomain([1.0, -2.0], [3.0, 2.0])
        np.testing.assert_allclose(box.to_unit(np.array([1.0, -2.0])), [0.0, 0.0])
        np.testing.assert_allclose(box.to_unit(np.array([3.0, 2.0])), [1.0, 1.0])

    def test_clipping(self):
        box = BoxDomain([0.0], [1.0])
        assert box.to_unit(np.array([2.0]))[0] == 1.0
        assert box.to_unit(np.array([-1.0]))[0] == 0.0

    def test_contains(self):
        box = BoxDomain([0.0, 0.0], [1.0, 2.0])
        inside = np.array([[0.5, 1.0], [0.0, 0.0]])
        outside = np.array([[1.5, 1.0], [0.5, -0.1]])
        assert box.contains(inside).all()
        assert not box.contains(outside).any()

    def test_sample_inside(self):
        box = BoxDomain([-5.0, 2.0], [-1.0, 8.0])
        pts = box.sample(100, rng=1)
        assert box.contains(pts).all()

    def test_sample_deterministic_with_seed(self):
        box = BoxDomain.cube(2)
        np.testing.assert_allclose(box.sample(5, rng=7), box.sample(5, rng=7))
