"""Session-wide results shared by the analysis tests.

Linting the whole ``repro`` package takes about two seconds, so the
repo-level checks that inspect a report (rather than drive the CLI) read
one result per configuration instead of re-linting the tree each.
"""

import pytest

import repro
from repro.analysis import check_protocol, lint_paths
from repro.analysis.linter import LintConfig
from repro.analysis.sources import discover_package


@pytest.fixture(scope="session")
def repo_lint():
    """``lint_paths()`` over the package with the default rules."""
    return lint_paths()


@pytest.fixture(scope="session")
def repo_protocol_lint():
    """``lint_paths()`` with the protocol pass enabled."""
    return lint_paths(config=LintConfig(protocol=True))


@pytest.fixture(scope="session")
def repo_protocols():
    """``(findings, protocols)`` of the registered SPMD programs."""
    return check_protocol(discover_package(repro.__file__.rsplit("/", 1)[0]))
