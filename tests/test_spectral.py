import numpy as np
import pytest

from gbulab.grid import build_grid
from gbulab.problem import SolutionState
from gbulab.spectral import (
    DegenerateSeriesError,
    EmptyAlphaWindow,
    alpha_window,
    blowup_functional,
    blowup_ode_fit,
    criterion_experiment,
    principal_eigenpair,
)
from gbulab.stepping import StepControl


def discrete_lambda1(h: float, length: float = 1.0) -> float:
    # 2/h^2 (1 - cos(pi h/L)), written without the cancellation of 1 - cos,
    # which costs about eps/(pi h/L)^2 relative (4e-12 at h = 1/400)
    return 4.0 / h**2 * np.sin(np.pi * h / (2.0 * length)) ** 2


# -- eigenpair ------------------------------------------------------------------

def test_eigenpair_1d_discrete_and_continuum():
    g = build_grid((0.0, 1.0), 401)
    eig = principal_eigenpair(g)
    h = g.spacing[0]
    assert abs(eig.lambda1 - discrete_lambda1(h)) < 1e-10
    assert abs(eig.lambda1 - np.pi**2) < 1e-3
    assert eig.residual < 1e-10


def test_eigenpair_1d_eigenvector_matches_sine():
    g = build_grid((0.0, 1.0), 101)
    eig = principal_eigenpair(g)
    x = g.axis_coords(0)
    assert np.max(np.abs(eig.phi1 - np.sin(np.pi * x))) < 1e-6


def test_eigenpair_positive_interior_zero_boundary_normalized():
    g = build_grid((0.0, 2.0), 81)
    eig = principal_eigenpair(g)
    bd = g.boundary_mask()
    assert np.all(eig.phi1[bd] == 0.0)
    assert np.all(eig.phi1[~bd] > 0.0)
    assert np.max(np.abs(eig.phi1)) == pytest.approx(1.0, rel=1e-15)


def test_eigenpair_2d_square():
    g = build_grid([(0, 1), (0, 1)], (101, 101))
    eig = principal_eigenpair(g)
    h = g.spacing[0]
    assert abs(eig.lambda1 - 2 * discrete_lambda1(h)) < 1e-9
    assert abs(eig.lambda1 - 2 * np.pi**2) < 1e-2
    x, y = g.coords()
    assert np.max(np.abs(eig.phi1 - np.sin(np.pi * x) * np.sin(np.pi * y))) < 1e-4


def test_eigenpair_scaled_interval():
    # lambda1 of (0, 2) tends to (pi/2)^2
    g = build_grid((0.0, 2.0), 201)
    eig = principal_eigenpair(g)
    assert eig.lambda1 == pytest.approx((np.pi / 2) ** 2, abs=1e-3)


def dense_neg_laplacian(grid) -> np.ndarray:
    """-Delta_h on the interior nodes as a dense matrix, assembled node by node."""
    inner = [n - 2 for n in grid.shape]
    size = int(np.prod(inner))
    a = np.zeros((size, size))
    for k, idx in enumerate(np.ndindex(*inner)):
        for axis, h in enumerate(grid.spacing):
            a[k, k] += 2.0 / h**2
            for step in (-1, 1):
                nb = list(idx)
                nb[axis] += step
                if 0 <= nb[axis] < inner[axis]:
                    a[k, np.ravel_multi_index(nb, inner)] -= 1.0 / h**2
    return a


@pytest.mark.parametrize(("extents", "points"), [
    ((0.0, 2.0), 9),
    ((0.0, 2.0), 10),
    ([(0, 1), (0, 3)], (7, 11)),
    ([(0, 1), (0, 3)], (9, 5)),
    ([(0, 1), (0, 3)], (8, 6)),
], ids=["1d_0_2_n9", "1d_0_2_n10", "2d_7x11", "2d_9x5", "2d_8x6"])
def test_eigenpair_matches_dense_eigh(extents, points):
    g = build_grid(extents, points)
    vals, vecs = np.linalg.eigh(dense_neg_laplacian(g))
    ref = vecs[:, 0] * np.sign(vecs[:, 0].sum())
    ref /= np.max(np.abs(ref))
    eig = principal_eigenpair(g)
    assert abs(eig.lambda1 - vals[0]) <= 1e-12 * vals[0]
    interior = eig.phi1[g.interior_slice()].ravel()
    assert np.max(np.abs(interior - ref)) < 1e-10
    assert np.all(eig.phi1[g.boundary_mask()] == 0.0)
    assert np.max(eig.phi1) == 1.0


@pytest.mark.parametrize("n", [201, 401, 501, 551, 601, 1001])
def test_eigenpair_fine_1d_stops_at_rounding_floor(n):
    # the residual stays within the rounding floor eps * ||-Delta_h||_inf =
    # eps * 4/h^2; sin(pi i/(n-1)) evaluated without the mirror exceeds it
    # from n=501 on, and is not symmetric
    g = build_grid((0.0, 1.0), n)
    eig = principal_eigenpair(g)
    h = g.spacing[0]
    assert eig.residual <= np.finfo(float).eps * 4.0 / h**2
    exact = discrete_lambda1(h)
    assert abs(eig.lambda1 - exact) <= 1e-12 * exact
    assert np.array_equal(eig.phi1, eig.phi1[::-1])


def test_eigenpair_2d_is_product_of_axis_pairs():
    g = build_grid([(0, 1), (0, 2)], (41, 61))
    x, y = (principal_eigenpair(build_grid(ext, n))
            for ext, n in zip(g.extents, g.points_per_axis))
    eig = principal_eigenpair(g)
    assert eig.lambda1 == x.lambda1 + y.lambda1
    assert np.array_equal(eig.phi1, np.multiply.outer(x.phi1, y.phi1))
    assert np.max(eig.phi1) == 1.0
    assert eig.residual <= x.residual + y.residual + 1e-12


# -- alpha window ------------------------------------------------------------------

def test_alpha_window_p3_q5():
    w = alpha_window(3.0, 5.0)
    assert w.lo == 1.0 and w.lo_inclusive
    assert w.hi == 4.0
    assert w.contains(1.0) and w.contains(3.9) and not w.contains(4.0)


def test_alpha_window_p3_q4():
    w = alpha_window(3.0, 4.0)
    assert w.lo == pytest.approx(1.0)
    assert not w.lo_inclusive
    assert w.hi == 3.0
    assert not w.contains(1.0) and w.contains(2.0)
    assert w.midpoint() == pytest.approx(2.0)


def test_alpha_window_p3_q31():
    w = alpha_window(3.0, 3.1)
    assert w.lo == pytest.approx(2.0 / 1.1)
    assert w.hi == pytest.approx(2.1)
    assert not w.lo_inclusive


def test_alpha_window_empty_when_q_not_above_p():
    with pytest.raises(EmptyAlphaWindow):
        alpha_window(3.0, 3.0)
    with pytest.raises(EmptyAlphaWindow):
        alpha_window(3.0, 2.5)


# -- functional ----------------------------------------------------------------------

def test_functional_zero_field():
    g = build_grid((0.0, 1.0), 51)
    eig = principal_eigenpair(g)
    st = SolutionState(g, np.zeros(51))
    assert blowup_functional(st, eig.phi1, 1.0) == 0.0


def test_functional_constant_alpha_one_matches_sine_integral():
    # int sin(pi x) dx = 2/pi
    vals = []
    for n in (101, 201):
        g = build_grid((0.0, 1.0), n)
        eig = principal_eigenpair(g)
        st = SolutionState(g, np.ones(n))
        vals.append(blowup_functional(st, eig.phi1, 1.0))
    assert vals[1] == pytest.approx(2 / np.pi, abs=5e-4)
    err0 = abs(vals[0] - 2 / np.pi)
    err1 = abs(vals[1] - 2 / np.pi)
    assert err1 < err0  # quadrature + eigenvector error shrink under refinement


def test_functional_constant_alpha_two():
    # int sin^2(pi x) dx = 1/2
    g = build_grid((0.0, 1.0), 201)
    eig = principal_eigenpair(g)
    st = SolutionState(g, np.ones(201))
    assert blowup_functional(st, eig.phi1, 2.0) == pytest.approx(0.5, abs=5e-4)


def test_functional_quadrature_order_at_least_two():
    # smooth u: successive grid refinements converge at order >= 2
    ys = []
    for n in (51, 101, 201):
        g = build_grid((0.0, 1.0), n)
        eig = principal_eigenpair(g)
        x = g.axis_coords(0)
        st = SolutionState(g, x * (1 - x) + 0.5)
        ys.append(blowup_functional(st, eig.phi1, 1.5))
    d1, d2 = abs(ys[1] - ys[0]), abs(ys[2] - ys[1])
    order = np.log2(d1 / d2)
    assert order >= 1.7


def test_functional_monotone_in_u():
    g = build_grid((0.0, 1.0), 51)
    eig = principal_eigenpair(g)
    rng = np.random.default_rng(5)
    u = rng.uniform(0, 1, 51)
    v = u + rng.uniform(0, 1, 51)
    yu = blowup_functional(SolutionState(g, u), eig.phi1, 1.5)
    yv = blowup_functional(SolutionState(g, v), eig.phi1, 1.5)
    assert yu <= yv


# -- ODE inequality fit -----------------------------------------------------------------

def test_ode_fit_exact_square_law():
    t = np.linspace(0.0, 0.9, 2001)
    y = 1.0 / (1.0 - t)
    fit = blowup_ode_fit(t, y, 2.0)
    assert fit.c1 >= 1.0 - 0.05
    assert fit.c2 <= 0.01 * np.max(y**2)
    assert fit.margin >= 0.0
    assert fit.compliant


def test_ode_fit_decreasing_series_noncompliant():
    t = np.linspace(0.0, 1.0, 50)
    fit = blowup_ode_fit(t, 2.0 - t, 2.0)
    assert fit.c1 == 0.0
    assert not fit.compliant


def test_ode_fit_decaying_series_with_positive_c1_noncompliant():
    # the fit keeps a small C1 > 0, but C2 outweighs it: the net forcing
    # C1 y^q - C2 at the final sample is about -1, so the series is not blowing up
    t = np.linspace(0.0, 1.0, 40)
    y = np.exp(-t)
    fit = blowup_ode_fit(t, y, 4.0)
    assert fit.c1 == pytest.approx(0.0138, abs=1e-4)
    assert fit.c1 * y[-1] ** 4 - fit.c2 == pytest.approx(-0.999, abs=1e-3)
    assert not fit.compliant


def test_ode_fit_constant_series_degenerate():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(DegenerateSeriesError):
        blowup_ode_fit(t, np.ones(50), 2.0)


def test_ode_fit_needs_ten_samples():
    with pytest.raises(ValueError):
        blowup_ode_fit(np.linspace(0, 1, 5), np.linspace(1, 2, 5), 2.0)


def test_ode_fit_margin_nonnegative_by_construction():
    rng = np.random.default_rng(9)
    t = np.linspace(0.0, 1.0, 100)
    y = np.cumsum(rng.uniform(0, 0.1, 100)) + 1.0
    fit = blowup_ode_fit(t, y, 3.0)
    assert fit.margin >= -1e-12


# -- criterion experiment -----------------------------------------------------------------

def test_criterion_experiment_brackets_threshold():
    g = build_grid((0.0, 1.0), 101)
    ctl = StepControl(t_end=0.05, gbu_threshold=60.0)
    res = criterion_experiment(
        g, 3.0, 4.0, alpha=2.0, control=ctl,
        amplitude_low=0.0, amplitude_high=2.0, bisect_iters=3,
    )
    assert 0.0 <= res.amplitude_low < res.amplitude_high
    assert res.functional_low < res.functional_high
    assert res.t_detect is not None and res.t_detect > 0
    assert res.threshold_functional > 0
    # zero data completed; the bracket shrank 2^-3
    assert res.amplitude_high - res.amplitude_low == pytest.approx(2.0 / 8, abs=1e-12)


def test_criterion_experiment_doubles_a_completing_high_amplitude():
    # 0.25, 0.5 and 1.0 complete, 2.0 blows up: the bracket is [1, 2]
    g = build_grid((0.0, 1.0), 51)
    ctl = StepControl(t_end=0.05, gbu_threshold=40.0)
    res = criterion_experiment(g, 3.0, 4.0, alpha=2.0, control=ctl,
                               amplitude_high=0.25, bisect_iters=0)
    assert [h["amplitude"] for h in res.history] == [0.0, 0.25, 0.5, 1.0, 2.0]
    assert (res.amplitude_low, res.amplitude_high, res.runs) == (1.0, 2.0, 5)
    assert res.t_detect is not None


def test_criterion_experiment_gives_up_after_max_expand_doublings():
    g = build_grid((0.0, 1.0), 51)
    ctl = StepControl(t_end=0.05, gbu_threshold=40.0)
    with pytest.raises(RuntimeError, match="no blow-up found while expanding"):
        criterion_experiment(g, 3.0, 4.0, alpha=2.0, control=ctl,
                             amplitude_high=1e-6, bisect_iters=0)


def test_criterion_experiment_rejects_bad_exponents():
    g = build_grid((0.0, 1.0), 51)
    ctl = StepControl(t_end=0.01)
    with pytest.raises(ValueError):
        criterion_experiment(g, 3.0, 2.5, alpha=2.0, control=ctl)


@pytest.mark.parametrize(("low", "high"), [(-1.0, 2.0), (0.0, np.nan), (1.0, 0.5)])
def test_criterion_experiment_rejects_bad_bracket(low, high):
    g = build_grid((0.0, 1.0), 51)
    ctl = StepControl(t_end=0.01)
    with pytest.raises(ValueError, match="0 <= amplitude_low < amplitude_high"):
        criterion_experiment(g, 3.0, 4.0, alpha=2.0, control=ctl,
                             amplitude_low=low, amplitude_high=high)


def test_criterion_experiment_rejects_a_negative_bisection_count():
    g = build_grid((0.0, 1.0), 51)
    ctl = StepControl(t_end=0.01)
    with pytest.raises(ValueError, match="bisect_iters must be >= 0"):
        criterion_experiment(g, 3.0, 4.0, alpha=2.0, control=ctl, bisect_iters=-3)


def test_criterion_experiment_rejects_alpha_outside_window():
    g = build_grid((0.0, 1.0), 51)
    ctl = StepControl(t_end=0.01)
    with pytest.raises(ValueError):
        criterion_experiment(g, 3.0, 4.0, alpha=3.5, control=ctl)
