from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from exatlas.archive import load_archive
from exatlas.cli import toy_archive_path
from exatlas.composer import ComposerConfig
from exatlas.representation import DeterministicStubProvider, feature_matrix


@pytest.fixture(scope="session")
def toy_archive():
    return load_archive(toy_archive_path())


@pytest.fixture(scope="session")
def stub_provider():
    return DeterministicStubProvider(dimension=8, seed=1)


@pytest.fixture(scope="session")
def toy_features(toy_archive, stub_provider):
    return feature_matrix(toy_archive, stub_provider)


@pytest.fixture
def default_cfg():
    return ComposerConfig()


_ACCEPTANCE_PREFIX = "test_criterion_"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, in criterion order."""
    lines = []
    for status in ("passed", "failed", "skipped", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = getattr(report, "location", ("", "", ""))[2]
            if _ACCEPTANCE_PREFIX in name:
                short = name.split("[")[0]
                lines.append((short, status.upper()))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, status in sorted(set(lines)):
        terminalreporter.write_line(f"{status:8s} {name}")
