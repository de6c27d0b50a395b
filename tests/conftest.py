"""Shared fixtures.

Every solver query needs an explicit :class:`SolverContext`.  Tests get a
fresh one per test function: a module- or session-scoped context would
keep the formulas it cached interned across tests, and interning order
steers conjunct order, so later tests would see different solver work.
"""

import pytest

from repro.arith.context import SolverContext


@pytest.fixture
def ctx() -> SolverContext:
    return SolverContext()
