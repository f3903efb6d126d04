import pytest
from hypothesis import HealthCheck, settings

import graphdenoise.lanes

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


@pytest.fixture(autouse=True)
def fresh_lane_workers():
    """A lane worker is forked at a test's first parallel batch, so it runs
    the code as the test has patched it, and none outlives the test."""
    graphdenoise.lanes.shutdown()
    yield
    graphdenoise.lanes.shutdown()
