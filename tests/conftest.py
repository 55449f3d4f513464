import sys
from pathlib import Path

import pytest

from routedmpst import semantics
from routedmpst.core import CanonicalIds

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
def substitutions(monkeypatch):
    """`(substituted, forms)`: each unfolding `CanonicalIds.unfold_id`
    computes during the test, as `(interner, binder id)` in call order, and
    the arguments of each canonical form built."""
    substituted, forms, running = [], [], [0]
    real_subst, real_form = CanonicalIds._subst, CanonicalIds.form

    def subst(self, x, c, d, sid, memo):
        if not running[0]:  # a substitution's root call: one unfolding
            substituted.append((self, sid))
        running[0] += 1
        try:
            return real_subst(self, x, c, d, sid, memo)
        finally:
            running[0] -= 1

    def form(self, *args):
        forms.append(args)
        return real_form(self, *args)
    monkeypatch.setattr(CanonicalIds, "_subst", subst)
    monkeypatch.setattr(CanonicalIds, "form", form)
    return substituted, forms
