import math

import numpy as np
import pytest

from gbulab import ProblemSpec, build_grid, make_spec


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
