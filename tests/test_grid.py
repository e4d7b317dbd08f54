import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbulab.grid import boundary_distance, build_grid


def test_interval_three_nodes():
    g = build_grid((0.0, 1.0), 3)
    assert g.shape == (3,)
    assert g.spacing == (0.5,)
    assert np.array_equal(g.axis_coords(0), [0.0, 0.5, 1.0])
    assert np.array_equal(g.boundary_mask(), [True, False, True])


def test_square_5x5_classification():
    g = build_grid([(0, 1), (0, 1)], (5, 5))
    assert g.num_nodes() == 25
    assert np.count_nonzero(~g.boundary_mask()) == 9
    assert g.spacing == (0.25, 0.25)


def test_interval_0_2_interior():
    g = build_grid((0.0, 2.0), 5)
    assert g.spacing == (0.5,)
    interior = g.axis_coords(0)[g.interior_slice()]
    assert np.allclose(interior, [0.5, 1.0, 1.5])


def test_spacing_exact_identity():
    g = build_grid((0.0, 1.0), 201)
    a, b = g.extents[0]
    assert g.spacing[0] == (b - a) / (201 - 1)


@pytest.mark.parametrize("n", [2, 1])
def test_too_few_nodes_rejected(n):
    with pytest.raises(ValueError):
        build_grid((0.0, 1.0), n)


def test_degenerate_extent_rejected():
    with pytest.raises(ValueError):
        build_grid((1.0, 1.0), 5)
    with pytest.raises(ValueError):
        build_grid((2.0, 1.0), 5)


def test_boundary_distance_interval():
    g = build_grid((0.0, 1.0), 11)
    d = boundary_distance(g)
    x = g.axis_coords(0)
    assert d[3] == pytest.approx(0.3)
    assert np.allclose(d, np.minimum(x, 1 - x))
    assert d[0] == 0.0 and d[-1] == 0.0


def test_boundary_distance_square():
    g = build_grid([(0, 1), (0, 1)], (5, 5))
    d = boundary_distance(g)
    # (0.25, 0.5) is node (1, 2); nearest face is x = 0
    assert d[1, 2] == pytest.approx(0.25)
    bd = g.boundary_mask()
    assert np.all(d[bd] == 0.0)
    assert np.all(d[~bd] > 0.0)


def test_distance_is_1_lipschitz_on_grid():
    g = build_grid([(0, 2), (0, 1)], (9, 7))
    d = boundary_distance(g)
    xs, ys = g.coords()
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    dd = d.ravel()
    rng = np.random.default_rng(7)
    idx = rng.integers(0, len(pts), size=(500, 2))
    sep = np.linalg.norm(pts[idx[:, 0]] - pts[idx[:, 1]], axis=1)
    assert np.all(np.abs(dd[idx[:, 0]] - dd[idx[:, 1]]) <= sep + 1e-14)


def test_refinement_keeps_delta_bit_identical_at_coarse_nodes():
    coarse = build_grid((0.0, 1.0), 11)
    fine = build_grid((0.0, 1.0), 21)
    dc = boundary_distance(coarse)
    df = boundary_distance(fine)
    assert np.array_equal(dc, df[::2])


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-5, 5),
    width=st.floats(0.1, 10),
    n=st.integers(3, 50),
)
def test_grid_invariants_property(a, width, n):
    g = build_grid((a, a + width), n)
    x = g.axis_coords(0)
    assert x[0] == a and x[-1] == a + width
    assert len(x) == n
    d = boundary_distance(g)
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.all(d[1:-1] > 0.0)
