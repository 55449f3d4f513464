"""Mutation testing of the checkers: switch rules of `semantics.RULES` off
for the length of a `with` block."""

from contextlib import contextmanager

from routedmpst import semantics

GLOBAL_RULES = tuple(name for name in semantics.RULES if name.startswith("Gr"))


@contextmanager
def rules_disabled(*names):
    """Within the block the named rules (e.g. "Gr4") never fire.  Unknown
    names raise KeyError.  Step tables made inside the block follow the
    disabled rules; do not use them after it."""
    saved = {name: semantics.RULES[name] for name in names}
    semantics.RULES.update(dict.fromkeys(names, semantics.no_steps))
    try:
        yield
    finally:
        semantics.RULES.update(saved)
