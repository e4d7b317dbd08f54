import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbulab import barriers
from gbulab.barriers import (
    BarrierParams,
    beta_exponent,
    certify,
    check_invariants,
    collar_lipschitz_bound,
    exp_barrier_residual,
    find_barrier_params,
    is_admissible,
    phi,
    phi_prime,
    phi_second,
    supersolution_residual,
    t0_window,
)


def test_phi_vanishes_at_zero():
    for delta in (0.1, 1.0, 3.0):
        for beta in (0.1, 0.5, 0.9):
            assert phi(0.0, delta, beta) == 0.0


def test_phi_prime_at_zero_closed_form():
    # phi'(0) = delta * delta^(-beta-1) = delta^(-beta)
    assert phi_prime(0.0, 2.0, 0.25) == pytest.approx(2.0 ** (-0.25), rel=1e-14)
    assert phi_prime(0.0, 1.0, 1 / 6) == pytest.approx(1.0, rel=1e-14)


def test_phi_derivatives_match_finite_differences():
    h = 1e-5
    for s in (0.1, 0.5, 2.0):
        for delta in (0.3, 1.0):
            for beta in (0.2, 0.7):
                fd1 = (phi(s + h, delta, beta) - phi(s - h, delta, beta)) / (2 * h)
                assert phi_prime(s, delta, beta) == pytest.approx(fd1, abs=2e-9)
                fd2 = (
                    phi(s + h, delta, beta)
                    - 2 * phi(s, delta, beta)
                    + phi(s - h, delta, beta)
                ) / h**2
                assert phi_second(s, delta, beta) == pytest.approx(fd2, abs=2e-5)


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(0.0, 50.0),
    delta=st.floats(1e-3, 10.0),
    beta=st.floats(0.01, 0.99),
)
def test_phi_increasing_concave_property(s, delta, beta):
    assert phi_prime(s, delta, beta) > 0.0
    assert phi_second(s, delta, beta) < 0.0


def test_phi_rejects_domain_violations():
    with pytest.raises(ValueError):
        phi(-0.1, 1.0, 0.5)
    with pytest.raises(ValueError):
        phi(0.1, 0.0, 0.5)
    with pytest.raises(ValueError):
        phi(0.1, 1.0, 1.0)


# -- parameter search -----------------------------------------------------------

def test_beta_pinned_to_exponent_formula():
    params = find_barrier_params(3.0, 4.0, 1, 0.5)
    assert params.beta == 1.0 / 6.0
    assert beta_exponent(3.0, 4.0) == 1.0 / 6.0


def test_delta_bound_from_closed_form_inequality():
    # 4^(p-q-4) beta >= delta^((q-p+3)/(2(q-p+2))) binds for g = 0:
    # delta <= (4^-5 / 6)^(3/2) ~ 2.08e-6 for (p, q) = (3, 4)
    params = find_barrier_params(3.0, 4.0, 1, 0.5)
    bound = (4.0**-5 / 6.0) ** 1.5
    assert params.delta <= bound * (1 + 1e-9)
    assert params.delta == pytest.approx(bound, rel=1e-3)  # bisection finds the edge
    assert params.eta == params.delta


def test_k_exceeds_rate_floor():
    params = find_barrier_params(3.0, 4.0, 2, 0.5)
    assert params.K > (2 + 3 - 3) / 0.5  # must exceed 4


def test_found_params_satisfy_all_invariants():
    for (p, q) in ((3.0, 4.0), (3.0, 3.5), (4.0, 5.0)):
        for n_dim in (1, 2):
            params = find_barrier_params(p, q, n_dim, 0.5)
            assert is_admissible(params)
            margins = check_invariants(params)
            assert margins["beta_formula"] == 0.0
            assert all(v >= 0 for v in margins.values())


def test_found_params_bitwise_reproducible():
    a = find_barrier_params(3.0, 3.7, 2, 0.4, g_norms=(0.2, 0.1, 0.5))
    b = find_barrier_params(3.0, 3.7, 2, 0.4, g_norms=(0.2, 0.1, 0.5))
    assert a == b


def test_shrinking_admissible_delta_stays_admissible():
    params = find_barrier_params(3.0, 4.0, 2, 0.5, g_norms=(0.1, 0.2, 0.3))
    for factor in (0.5, 0.1, 1e-3):
        assert is_admissible(params.scaled_delta(factor))


def test_nonzero_g_norms_shrink_delta():
    clean = find_barrier_params(3.0, 4.0, 1, 0.5)
    rough = find_barrier_params(3.0, 4.0, 1, 0.5, g_norms=(50.0, 0.0, 1.0))
    assert rough.delta < clean.delta
    assert is_admissible(rough)


def test_invalid_exponents_rejected():
    with pytest.raises(ValueError):
        find_barrier_params(2.0, 3.0, 1, 0.5)  # p - 1 = 1, hypothesis fails
    with pytest.raises(ValueError):
        find_barrier_params(3.0, 1.9, 1, 0.5)  # q <= p - 1


@pytest.mark.parametrize(("kwargs", "message"), [
    ({"q": math.inf}, "requires finite q > p - 1 > 1"),
    ({"g_min": math.nan}, "data norms and g_min must be finite and nonnegative"),
    ({"g_min": -1.0}, "data norms and g_min must be finite and nonnegative"),
    ({"data_sup": math.nan}, "data norms and g_min must be finite and nonnegative"),
    ({"g_norms": (0.0, math.inf, 0.0)}, "data norms and g_min must be finite and nonnegative"),
    ({"g_norms": (1e300, 0.0, 0.0)}, "no admissible delta within the float range"),
], ids=["q_inf", "g_min_nan", "g_min_negative", "data_sup_nan", "hess_g_inf",
        "grad_g_overflow"])
def test_search_rejects_nonfinite_or_overflowing_input(kwargs, message):
    args = {"p": 3.0, "q": 4.0, "N": 1, "rho": 0.5, **kwargs}
    with pytest.raises(ValueError, match=message):
        find_barrier_params(**args)



def at_the_edge(params: BarrierParams) -> bool:
    """params' delta is admissible and the next float above it is not."""
    up = float(np.nextafter(params.delta, math.inf))
    return is_admissible(params) and not is_admissible(replace(params, delta=up, eta=up))


@pytest.mark.parametrize("rho", [0.5, 10.0, 1e3, 1e50])
def test_search_ends_at_the_admissible_edge_from_any_rho(rho):
    # the ing edge binds at every rho; a bisection of a fixed 80 steps over
    # [lo, rho] ended short of it once rho/lo passed about 2^28 (rho = 1e50
    # gave 2.039e-6 against 2.0764581831047703e-6)
    params = find_barrier_params(3.0, 4.0, 1, rho)
    assert params.delta == find_barrier_params(3.0, 4.0, 1, 0.5).delta
    assert at_the_edge(params)


def test_search_with_a_rough_boundary_ends_at_the_edge():
    assert at_the_edge(find_barrier_params(3.0, 4.0, 1, 0.5, g_norms=(50.0, 0.0, 1.0)))


def test_certify_searches_no_delta(monkeypatch):
    # the search is find_barrier_params's: certify tests the parameters it
    # is given, once
    params = find_barrier_params(3.0, 4.0, 1, 0.5)
    calls = []

    def counted(checked):
        calls.append(checked)
        return is_admissible(checked)

    monkeypatch.setattr(barriers, "is_admissible", counted)
    assert certify(params, eps_values=(0.0,), n_radial=200)["certified"]
    assert calls == [params]


def test_certify_rejects_params_without_an_admissible_delta():
    # |grad g| = 1e300: no delta in the float range meets jal
    params = replace(find_barrier_params(3.0, 4.0, 1, 0.5), grad_g=1e300)
    with np.errstate(over="ignore", invalid="ignore"):  # the residuals of such norms overflow
        report = certify(params, eps_values=(0.0,), n_radial=200)
    assert not report["certified"]


# -- supersolution certificate -----------------------------------------------------

@pytest.mark.parametrize("p,q", [(3.0, 4.0), (3.0, 3.5), (4.0, 5.0)])
@pytest.mark.parametrize("n_dim", [1, 2])
def test_supersolution_certified_for_all_eps(p, q, n_dim):
    params = find_barrier_params(p, q, n_dim, 0.5)
    for eps in (0.0, 1e-3, 1e-1, 1.0):
        cert = supersolution_residual(params, eps, 2000)
        assert cert.certified, f"eps={eps}: min residual {cert.min_residual}"
        assert all(v >= 0 for v in cert.per_kappa.values())


def test_supersolution_certified_on_eps_net():
    # the construction is uniform in the regularization: a sampled net of
    # [0, 1] stays certified
    params = find_barrier_params(3.0, 4.0, 2, 0.5)
    for eps in np.linspace(0.0, 1.0, 11):
        assert supersolution_residual(params, float(eps), 500).certified


def test_supersolution_kappa_endpoints_nonnegative():
    params = find_barrier_params(3.0, 4.0, 1, 0.5)
    cert = supersolution_residual(params, 0.0, 2000)
    assert cert.per_kappa[0.0] >= 0.0
    assert cert.per_kappa[params.p - 2.0] >= 0.0


def test_supersolution_inflated_delta_fails():
    params = find_barrier_params(3.0, 4.0, 1, 0.5)
    cert = supersolution_residual(params.scaled_delta(100.0), 0.0, 2000)
    assert cert.min_residual < 0.0
    assert not cert.certified


def test_supersolution_rejects_eps_outside_unit():
    params = find_barrier_params(3.0, 4.0, 1, 0.5)
    with pytest.raises(ValueError):
        supersolution_residual(params, 1.5)


# -- exponential comparison function -----------------------------------------------

def test_exp_barrier_valid_k_certifies():
    cert = exp_barrier_residual(2.0, 5.0, 0.5, 3.0, 4.0, 2, eps=0.0, n_radial=2000)
    assert cert.k_condition_ok
    assert cert.min_diffusion_term >= 0.0
    assert cert.min_residual >= 0.0
    assert cert.certified


def test_exp_barrier_low_k_reported_failed():
    # (N+p-3)/rho = 4 for N=2, p=3, rho=0.5; K below it fails the K check
    cert = exp_barrier_residual(2.0, 3.9, 0.5, 3.0, 4.0, 2, eps=0.0, n_radial=500)
    assert not cert.k_condition_ok
    assert not cert.certified


def test_exp_barrier_time_term_dominates_source():
    # |grad| <= C K, so the time term beats the source for every eps in [0,1]
    for eps in (0.0, 0.5, 1.0):
        cert = exp_barrier_residual(3.0, 8.0, 0.5, 3.5, 4.2, 1, eps=eps, n_radial=500)
        assert cert.min_residual >= 0.0


# -- Lipschitz bound and T0 window ---------------------------------------------------

def test_collar_lipschitz_bound_unit_case():
    params = BarrierParams(
        rho=0.5, delta=1.0, eta=1.0, beta=1 / 6, K=5.0, C=1.0,
        p=3.0, q=4.0, N=1, grad_g=0.0,
    )
    assert collar_lipschitz_bound(params) == pytest.approx(1.0, rel=1e-14)


def test_collar_lipschitz_decreasing_in_delta():
    prev = math.inf
    for delta in (0.5, 1.0, 2.0):
        params = BarrierParams(
            rho=0.5, delta=delta, eta=delta, beta=0.25, K=5.0, C=1.0,
            p=3.0, q=4.0, N=1,
        )
        m2 = collar_lipschitz_bound(params)
        assert m2 < prev
        prev = m2


def test_collar_sup_attained_at_left_endpoint():
    params = find_barrier_params(3.0, 4.0, 1, 0.5)
    s = np.linspace(0.0, params.delta, 20001)
    grid_sup = float(np.max(phi_prime(s, params.delta, params.beta)))
    assert abs(grid_sup - params.delta ** (-params.beta)) < 1e-12 * grid_sup


def test_t0_window_positive_for_found_params():
    params = find_barrier_params(3.0, 4.0, 1, 0.5)
    assert t0_window(params) > 0.0


def test_certify_report_structure():
    params = find_barrier_params(3.0, 4.0, 1, 0.5)
    report = certify(params, eps_values=(0.0, 1.0), n_radial=500)
    assert report["certified"]
    assert set(report) == {"params", "invariant_margins", "collar_lipschitz_bound",
                           "t0_window", "supersolution", "exp_barrier", "certified"}
    assert set(report["supersolution"]) == {"0.0", "1.0"}
    assert report["t0_window"] >= 0.0
