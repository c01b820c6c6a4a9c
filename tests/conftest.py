"""Pytest configuration: make test-local helper modules importable, and
share the one cold whole-repo self-lint between the tests that need it."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Walk seeds the cross-suite differential tests sweep (the default seed
#: plus one distinct from every generation seed in use).
SUITE_SEEDS = (7, 11)


@pytest.fixture(scope="session")
def repo_self_lint():
    """``(report, seconds)`` of one cold lint of ``src`` with every rule.

    The whole-program analysis takes about ten seconds, so the tests that
    check the committed tree's findings and the lint's own wall time share
    this one run instead of each repeating it.
    """
    from repro.lint import LintEngine, all_rules
    engine = LintEngine(root=REPO_ROOT, rules=all_rules())
    started = time.monotonic()
    report = engine.run([REPO_ROOT / "src"])
    return report, time.monotonic() - started
