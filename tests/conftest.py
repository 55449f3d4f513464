import sys
from pathlib import Path

import pytest

from routedmpst import core, semantics

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


@pytest.fixture
def unfoldings(monkeypatch):
    """Every recursion binder `core.unfold_once` unfolds during the test, in
    call order; a module that imported the name itself would bypass it.  The
    list keeps the binders, and so their ids, alive."""
    calls = []
    real = core.unfold_once

    def recording(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(core, "unfold_once", recording)
    return calls
