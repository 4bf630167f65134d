import os

import pytest
from hypothesis import settings

from wavetorus import make_nonlinearity

# CI runs the property tests on a fixed example sequence, so a failure there
# reproduces locally with CI=1
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

# the default cubic problem used across solver and acceptance tests:
# f(x, u) = (1 + sin(2x)/2) u^3 + tanh(u)
DEFAULT_NL_SPEC = {
    "s": 3,
    "a": [{"j": 0, "c": 1.0}, {"j": 1, "c_sin": 0.5}],
    "m": {"kind": "tanh", "alpha": 1.0},
    "b": [],
}


@pytest.fixture(scope="session")
def default_nl():
    return make_nonlinearity(3, DEFAULT_NL_SPEC["a"], DEFAULT_NL_SPEC["m"],
                             DEFAULT_NL_SPEC["b"])
