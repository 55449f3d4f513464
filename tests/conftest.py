import sys
from pathlib import Path

import pytest

from routedmpst import semantics

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def rules_restored():
    """Fail any test that leaves `semantics.RULES` otherwise than it found
    it, and restore the table so that later tests run on the real rules."""
    before = dict(semantics.RULES)
    yield
    after = dict(semantics.RULES)
    semantics.RULES.clear()
    semantics.RULES.update(before)
    assert after == before, "the test left semantics.RULES changed"
