"""Shared fixtures.

Heavy artefacts (collar atlases, gradient-flow analyses) are built once
per session and shared across test modules; every consumer treats them
as read-only.
"""

import numpy as np
import pytest

from strataglue import analyze, build_collars, cube_family, double_system, tilted_torus


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def cube3_family():
    return cube_family(3)


@pytest.fixture(scope="session")
def cube3_atlas(cube3_family):
    return build_collars(cube3_family, rng=np.random.default_rng(1))


@pytest.fixture(scope="session")
def torus_analysis():
    return analyze(tilted_torus())


@pytest.fixture(scope="session")
def double_analysis():
    return analyze(double_system())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status, tag in (("passed", "PASS"), ("failed", "FAIL"),
                        ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "::" in nodeid and nodeid.split("::")[0].endswith("test_acceptance.py"):
                lines.append((nodeid.split("::")[-1], tag))
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name, tag in sorted(lines):
            terminalreporter.write_line(f"{tag} {name}")
