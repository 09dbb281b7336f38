"""The acceptance criteria that run in seconds, at their pinned sizes.

Criteria 1, 6, 7, 8 and 10 need 1e5-path sweeps and stay in ``girsanovlab
verify``; the rest run here unchanged, so a change to the scheme machinery
fails tier-1 instead of only the full suite.
"""

import pytest

from girsanovlab.acceptance import AcceptanceSuite


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite()


@pytest.mark.parametrize("index", [2, 3, 4, 5, 9, 11, 12])
def test_cheap_criterion_passes(suite, index):
    result = getattr(suite, f"criterion_{index}")()
    assert result.passed, result.line


def test_run_takes_each_named_criterion_once():
    suite = AcceptanceSuite()
    assert [r.index for r in suite.run(only=(3, 2, 3))] == [2, 3]
    assert suite.run(only=()) == []
