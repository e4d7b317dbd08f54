import numpy as np
import pytest

from scheme_reference import reference_dt, reference_gradient, reference_step

from gbulab.grid import build_grid
from gbulab.operators import (
    StepKernel,
    gradient_source,
    integrate,
    quadrature_weights,
    regularized_diffusion,
)
from gbulab.problem import ProblemSpec, SolutionState, make_spec


def state_1d(f, n=11, extent=(0.0, 1.0)):
    g = build_grid(extent, n)
    return SolutionState(g, f(g.axis_coords(0)))


def state_2d(f, n=11):
    g = build_grid([(0, 1), (0, 1)], (n, n))
    x, y = g.coords()
    return SolutionState(g, f(x, y))


# -- step kernel ----------------------------------------------------------------

@pytest.mark.parametrize("shape", [(41,), (9, 11)])
def test_kernel_pins_g_on_a_field_loaded_with_other_boundary_values(shape):
    # boundary nodes are pinned once per slot, and `load` pins the field it
    # copies in, so W and the step bound are the pinned field's; the update
    # writes interior nodes only. 2 * 5 steps pass every slot of the default
    # 2-slot ring and of a 5-slot one twice.
    extents = [(0.0, 1.0), (0.0, 1.5)][: len(shape)]
    g = build_grid(extents, shape)
    spec = make_spec(g, p=3.0, q=2.5, profile="sine", amplitude=1.0)
    bd = g.boundary_mask()
    loaded = spec.initial + 0.25
    pinned = np.where(bd, spec.boundary_values, loaded)
    for slots in (None, 5):
        kernel = StepKernel.of(spec, slots=slots).load(loaded)
        assert np.array_equal(kernel.u, pinned)
        assert kernel.w == reference_gradient(pinned, g, 0.0)[2]
        assert kernel.bound == reference_dt(pinned, spec, 0.5)
        for _ in range(10):
            kernel.step(1e-5)
            assert np.array_equal(kernel.u[bd], spec.boundary_values[bd])


@pytest.mark.parametrize("p, q, eps, mu", [
    (3.0, 4.0, 0.0, 1.0),  # sqrt and multiply for the powers; the source is s_half
    (3.0, 4.0, 1e-3, 0.9),
    (3.4, 2.7, 1e-3, 0.9),  # np.power for both
    (3.0, 2.5, 1e-3, 1.0),  # no multiply by mu
    (3.0, 4.0, 0.0, 0.9),  # no subtraction of eps^(q/2)
])
@pytest.mark.parametrize("shape", [(201,), (17, 21)])
def test_kernel_steps_bitwise_as_plain_numpy(shape, p, q, eps, mu):
    # the kernel's prebuilt calls and its step bound against the scheme
    # written out once more in plain numpy: 8 steps on a 3-slot ring write
    # every slot and wrap from the last slot into the first twice
    extents = [(0.0, 1.0), (0.0, 1.5)][: len(shape)]
    g = build_grid(extents, shape)
    spec = make_spec(g, p, q, epsilon=eps, mu=mu, profile="sine", amplitude=1.0)
    rng = np.random.default_rng(7)
    u = spec.initial + 1e-3 * rng.standard_normal(g.shape) * ~g.boundary_mask()
    dt, theta = 0.02 * g.h_min ** 2, 0.7
    kernel = StepKernel.of(spec, slots=3, theta=theta).load(u)
    assert kernel.bound == reference_dt(u, spec, theta)
    for k in range(8):
        grads, mag, w, _ = reference_gradient(u, g, eps)
        assert all(np.array_equal(a, b) for a, b in zip(kernel.grad, grads))
        assert np.array_equal(kernel.mag, mag) and kernel.w == w
        new, rhs, s_half = reference_step(u, spec, dt)
        bound = kernel.step(dt)
        assert np.array_equal(kernel.u, new)
        assert np.array_equal(kernel.rhs_slots[k % 3], rhs)
        assert np.array_equal(kernel.s_half_slots[k % 3], s_half)
        assert bound == kernel.bound == reference_dt(new, spec, theta)
        u = new


# -- gradient ------------------------------------------------------------------

def gradient(st):
    """The nodal gradient of a state, one array per axis, from a kernel
    that computes the gradient only."""
    return StepKernel(st.grid).load(st.u).grad


def test_gradient_constant_is_zero():
    st = state_1d(lambda x: np.full_like(x, 5.0))
    assert np.all(gradient(st)[0] == 0.0)
    st2 = state_2d(lambda x, y: np.full_like(x, 5.0))
    gx, gy = gradient(st2)
    assert np.all(gx == 0.0) and np.all(gy == 0.0)


def test_gradient_exact_on_linear_everywhere():
    st = state_1d(lambda x: x)
    assert np.allclose(gradient(st)[0], 1.0, atol=1e-13)


def test_gradient_exact_on_quadratic():
    # central difference of x^2 at x=0.5 with h=0.1 is exactly 1.0
    st = state_1d(lambda x: x * x, n=11)
    g = gradient(st)[0]
    assert g[5] == pytest.approx(1.0, abs=1e-13)
    x = st.grid.axis_coords(0)
    assert np.allclose(g, 2 * x, atol=1e-12)  # one-sided ends exact too


def test_gradient_2d_components():
    st = state_2d(lambda x, y: 2 * x + 3 * y)
    gx, gy = gradient(st)
    assert np.allclose(gx, 2.0, atol=1e-12)
    assert np.allclose(gy, 3.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_gradient_magnitude_bitwise_from_the_gradient(dim):
    # |g| in 1D, sqrt(gx*gx + gy*gy) in 2D, of the reference gradient
    if dim == 1:
        st = state_1d(lambda x: np.sin(3 * x) + x * x, n=31)
    else:
        st = state_2d(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, n=13)
    assert np.array_equal(st.grad_mag, reference_gradient(st.u, st.grid, 0.0)[1])


# -- regularized diffusion -------------------------------------------------------

def test_diffusion_constant_zero():
    st = state_1d(lambda x: np.full_like(x, 2.0))
    assert np.all(regularized_diffusion(st, 3.0, 0.1) == 0.0)


def test_diffusion_linear_zero_flux_divergence():
    # flux of u = x is the constant (1 + eps)^((p-2)/2)
    st = state_1d(lambda x: x)
    out = regularized_diffusion(st, 3.0, 0.01)
    assert np.allclose(out, 0.0, atol=1e-13)


def test_diffusion_quadratic_1d_closed_form():
    # d/dx(|2x| 2x) = 8x for x > 0; flux form is exact on this data
    st = state_1d(lambda x: x * x, n=11)
    out = regularized_diffusion(st, 3.0, 0.0)
    assert out[5] == pytest.approx(4.0, abs=1e-10)
    x = st.grid.axis_coords(0)
    assert np.allclose(out[1:-1], 8 * x[1:-1], atol=1e-9)


def closed_form_diffusion_1d(x, p, eps):
    # d/dx[ (4x^2+eps)^((p-2)/2) * 2x ] for u = x^2
    s = 4 * x * x + eps
    return (p - 2.0) * s ** ((p - 4.0) / 2.0) * 4 * x * 2 * x + s ** ((p - 2.0) / 2.0) * 2.0


def test_diffusion_order_two_on_regularized_quadratic():
    # eps > 0 makes the flux non-polynomial, so the error is genuinely O(h^2)
    p, eps = 3.0, 0.5
    errs = []
    hs = []
    for n in (33, 65, 129):
        g = build_grid((0.0, 1.0), n)
        x = g.axis_coords(0)
        st = SolutionState(g, x * x)
        out = regularized_diffusion(st, p, eps)
        exact = closed_form_diffusion_1d(x, p, eps)
        inner = slice(1, -1)
        errs.append(np.max(np.abs(out[inner] - exact[inner])))
        hs.append(g.spacing[0])
    order = np.log(errs[0] / errs[2]) / np.log(hs[0] / hs[2])
    assert order == pytest.approx(2.0, abs=0.3)


def test_diffusion_order_two_on_sine():
    p, eps = 3.0, 0.1

    def exact(x):
        up = np.pi * np.cos(np.pi * x)
        upp = -np.pi**2 * np.sin(np.pi * x)
        s = up * up + eps
        return (p - 2.0) * s ** ((p - 4.0) / 2.0) * up * upp * up + s ** ((p - 2.0) / 2.0) * upp

    errs, hs = [], []
    for n in (33, 65, 129):
        g = build_grid((0.0, 1.0), n)
        x = g.axis_coords(0)
        st = SolutionState(g, np.sin(np.pi * x))
        out = regularized_diffusion(st, p, eps)
        inner = slice(1, -1)
        errs.append(np.max(np.abs(out[inner] - exact(x)[inner])))
        hs.append(g.spacing[0])
    order = np.log(errs[0] / errs[2]) / np.log(hs[0] / hs[2])
    assert order == pytest.approx(2.0, abs=0.3)


def test_diffusion_conservative_dirichlet_1d():
    st = state_1d(lambda x: np.sin(2.2 * x) + x, n=41)
    p, eps = 3.5, 0.2
    out = regularized_diffusion(st, p, eps)
    kernel = StepKernel(st.grid, p=p, eps=eps).load(st.u)
    kernel.diffusion()
    flux = kernel.flux[0]
    h = st.grid.spacing[0]
    interior_sum = np.sum(out[1:-1]) * h
    assert interior_sum == pytest.approx(flux[-1] - flux[0], rel=1e-12)


def test_diffusion_conservative_dirichlet_2d():
    st = state_2d(lambda x, y: np.sin(2 * x) * np.cos(y) + x * y, n=17)
    p, eps = 3.0, 0.3
    out = regularized_diffusion(st, p, eps)
    kernel = StepKernel(st.grid, p=p, eps=eps).load(st.u)
    kernel.diffusion()
    fx, fy = kernel.flux
    hx, hy = st.grid.spacing
    interior_sum = np.sum(out[1:-1, 1:-1]) * hx * hy
    net = (
        np.sum(fx[-1, 1:-1] - fx[0, 1:-1]) * hy
        + np.sum(fy[1:-1, -1] - fy[1:-1, 0]) * hx
    )
    assert interior_sum == pytest.approx(net, rel=1e-12)


def test_diffusion_conservative_periodic_wrapper():
    # test-only periodic wrap: fluxes on all faces of the circle sum to zero
    n, h = 40, 1.0 / 40
    x = np.arange(n) * h
    u = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    du = (np.roll(u, -1) - u) / h
    coef = np.power(du * du + 0.2, 0.5)
    flux = coef * du
    div = (flux - np.roll(flux, 1)) / h
    assert np.sum(div) == pytest.approx(0.0, abs=1e-12)


def test_diffusion_rejects_bad_args():
    st = state_1d(lambda x: x)
    with pytest.raises(ValueError):
        regularized_diffusion(st, 2.0, 0.1)
    with pytest.raises(ValueError):
        regularized_diffusion(st, 3.0, -0.1)


# -- gradient source ---------------------------------------------------------------

def test_source_constant_cancels_exactly():
    for eps in (0.0, 0.5, 1.0):
        st = state_1d(lambda x: np.full_like(x, 3.0))
        assert np.all(gradient_source(st, 3.0, eps) == 0.0)


def test_source_ramp_values():
    st = state_1d(lambda x: x)
    src = gradient_source(st, 3.0, 0.0, 1.0)
    assert np.allclose(src[1:-1], 1.0, atol=1e-12)  # |u'| = 1, 1^3
    src2 = gradient_source(st, 2.0, 1.0, 1.0)
    assert np.allclose(src2[1:-1], 1.0, atol=1e-12)  # (1+1)^1 - 1


def test_source_nonnegative_on_random_fields():
    rng = np.random.default_rng(3)
    g = build_grid((0.0, 1.0), 33)
    for _ in range(20):
        st = SolutionState(g, rng.uniform(0, 2, size=33))
        for eps in (0.0, 1e-3, 1.0):
            assert np.all(gradient_source(st, 2.7, eps) >= 0.0)


def test_source_epsilon_monotonicity_bound():
    # mean-value bound on the eps sensitivity of the source
    g = build_grid((0.0, 1.0), 65)
    x = g.axis_coords(0)
    st = SolutionState(g, np.sin(np.pi * x))
    q = 3.0
    e1, e2 = 0.01, 0.05
    s1 = gradient_source(st, q, e1)
    s2 = gradient_source(st, q, e2)
    w2 = st.grad_mag**2
    bound = abs(e2 ** (q / 2) - e1 ** (q / 2)) + q / 2 * (e2 - e1) * np.power(
        w2 + e2, q / 2 - 1
    )
    assert np.all(np.abs(s2 - s1) <= bound + 1e-12)


def test_source_exact_on_quadratic_gradient():
    # central differences are exact on x^2, so the source matches the closed
    # form to machine precision for every eps
    g = build_grid((0.0, 1.0), 33)
    x = g.axis_coords(0)
    st = SolutionState(g, x * x)
    q, eps, mu = 3.5, 0.3, 0.7
    src = gradient_source(st, q, eps, mu)
    exact = mu * (np.power(4 * x * x + eps, q / 2) - eps ** (q / 2))
    assert np.max(np.abs(src - exact)) < 1e-12


# -- strong residual ----------------------------------------------------------------

def test_strong_residual_stationary_constant():
    # u = 2 solves the equation with u_t = 0: the rhs a step applies is 0
    spec = make_spec(build_grid((0.0, 1.0), 41), p=3.0, q=2.5, profile="constant", amplitude=2.0)
    kernel = StepKernel.of(spec).load(spec.initial)
    kernel.step(1e-3)
    assert np.all(kernel.rhs_slots[0] == 0.0)  # a step after a load writes slot 0
    assert np.array_equal(kernel.u, spec.initial)


def test_strong_residual_manufactured_quadratic():
    # u(x, t) = x^2 + t solves u_t = 1; the residual 1 - rhs of the rhs a
    # step applies is O(h^2)-accurate against the closed form because the
    # operators are exact/2nd order
    errs = []
    for n in (33, 65):
        g = build_grid((0.0, 1.0), n)
        x = g.axis_coords(0)
        spec = ProblemSpec(
            grid=g, p=3.0, q=2.5, epsilon=0.1, mu=1.0,
            boundary_values=x * x, initial=x * x,
        )
        kernel = StepKernel.of(spec).load(spec.initial)
        kernel.step(1e-6)
        res = 1.0 - kernel.rhs_slots[0]
        assert np.array_equal(kernel.u[1:-1], spec.initial[1:-1] + 1e-6 * kernel.rhs_slots[0])
        exact_rhs = closed_form_diffusion_1d(x, 3.0, 0.1) + (
            np.power(4 * x * x + 0.1, 2.5 / 2) - 0.1 ** (2.5 / 2)
        )
        exact_res = 1.0 - exact_rhs
        errs.append(np.max(np.abs(res - exact_res[1:-1])))
    assert errs[1] < errs[0] / 3.0  # ~O(h^2)


@pytest.mark.parametrize(("p", "q"), [(3.0, 4.0), (2.5, 4.0), (2.5, 3.0), (4.0, 5.0)])
def test_rhs_of_the_singular_steady_state_converges_at_order_two(p, q):
    # for q > p, U = d x^(1-gamma)/(1-gamma) with gamma = 1/(q-p+1) and
    # d = ((p-1) gamma)^gamma solves (|U'|^(p-2) U')' + |U'|^q = 0 (at p=3,
    # q=4: U = 2 sqrt(x)); away from its singular gradient at x = 0 the rhs
    # the scheme applies to U vanishes at order 2 (3.9e-3, 9.8e-4, 2.4e-4 on
    # [0.1, 0.4] at p=3, q=4)
    gamma = 1.0 / (q - p + 1.0)
    d = ((p - 1.0) * gamma) ** gamma
    errs = []
    for n in (401, 801, 1601):
        g = build_grid((0.0, 1.0), n)
        x = g.axis_coords(0)
        st = SolutionState(g, d * x ** (1.0 - gamma) / (1.0 - gamma))
        rhs = regularized_diffusion(st, p, 0.0) + gradient_source(st, q, 0.0)
        away = (x >= 0.1) & (x <= 0.4)
        errs.append(np.max(np.abs(rhs[away])))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9), orders


# -- quadrature -----------------------------------------------------------------------

def test_trapezoid_weights_sum_to_measure():
    g = build_grid((0.0, 2.0), 21)
    assert integrate(g, np.ones(21)) == pytest.approx(2.0)
    g2 = build_grid([(0, 1), (0, 3)], (11, 13))
    assert integrate(g2, np.ones((11, 13))) == pytest.approx(3.0)


def test_quadrature_weights_boundary_halved():
    g = build_grid((0.0, 1.0), 11)
    w = quadrature_weights(g)
    assert w[0] == pytest.approx(w[5] / 2)
