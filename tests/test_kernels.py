"""Kernel behaviour that no geometry oracle covers."""

import numpy as np
import pytest

from geovos import kernels


def test_render_axis_parallel_rays():
    # rays with exact zero components exercise the parallel-slab branch
    origin = np.array([0.5, 0.5, -2.0])
    dirs = np.zeros((2, 2, 3))
    dirs[..., 2] = 1.0
    boxes = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
    depth, owner = kernels.render_boxes(origin, dirs, boxes, 1e-9)
    assert np.all(depth == 2.0) and np.all(owner == 0)


def test_erode_radius_validation():
    with pytest.raises(ValueError):
        kernels.erode_mask(np.ones((3, 3), bool), -1)
