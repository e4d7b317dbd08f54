import math

import numpy as np
import pytest

from gbulab.grid import build_grid
from gbulab.operators import StepKernel
from gbulab.problem import ProblemSpec, SolutionState, make_spec


@pytest.mark.parametrize("field", ["initial", "boundary_values"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_rejects_nonfinite_data(field, value):
    g = build_grid((0.0, 1.0), 41)
    data = {"initial": make_spec(g, p=3.0, q=2.5).initial.copy(),
            "boundary_values": np.zeros(41)}
    node = 20 if field == "initial" else 0
    data[field][node] = value
    if field == "boundary_values":
        data["initial"][node] = value  # keep u0 = g on the boundary
    with pytest.raises(ValueError, match="finite"):
        ProblemSpec(grid=g, p=3.0, q=2.5, **data)


def test_nan_amplitude_profile_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        make_spec(build_grid((0.0, 1.0), 41), p=3.0, q=2.5, profile="sine", amplitude=math.nan)


@pytest.mark.parametrize("value", [math.nan, -1.0])
@pytest.mark.parametrize(("spec_key", "kernel_key", "message"), [
    ("epsilon", "eps", "eps >= 0"), ("mu", "mu", "mu >= 0")])
def test_spec_and_kernel_reject_nan_or_negative_eps_and_mu(spec_key, kernel_key, message, value):
    g = build_grid((0.0, 1.0), 41)
    with pytest.raises(ValueError, match=message):
        make_spec(g, p=3.0, q=2.5, **{spec_key: value})
    with pytest.raises(ValueError, match=message):
        StepKernel(g, p=3.0, q=2.5, **{kernel_key: value})


@pytest.mark.parametrize("key", ["q", "epsilon", "mu"])
def test_spec_rejects_infinite_exponents_and_coefficients(key):
    # each once made a run that stalled at step 0 instead of an input error
    with pytest.raises(ValueError, match="requires finite p, q, eps and mu"):
        make_spec(build_grid((0.0, 1.0), 41), **{"p": 3.0, "q": 2.5, key: math.inf})


def test_solution_state_holds_its_field_only():
    # grad_mag is computed on every read; nothing is kept on the state, so
    # thousands of snapshots hold their fields and no more
    st = make_spec(build_grid((0.0, 1.0), 41), p=3.0, q=2.5).initial_state()
    assert SolutionState.__slots__ == ("grid", "u", "t")
    assert not hasattr(st, "__dict__")
    mag = st.grad_mag
    assert st.grad_mag is not mag and np.array_equal(st.grad_mag, mag)
