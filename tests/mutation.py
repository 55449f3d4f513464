"""Mutation testing of the checkers: switch rules of `semantics.RULES` off,
or count their calls, for the length of a `with` block."""

from contextlib import contextmanager

from routedmpst import semantics

GLOBAL_RULES = tuple(name for name in semantics.RULES if name.startswith("Gr"))


def no_steps(node, me, ids, stack) -> list:
    """A rule that never fires."""
    return []


@contextmanager
def rules_disabled(*names):
    """Within the block the named rules (e.g. "Gr4") never fire.  Unknown
    names raise KeyError.  A `semantics.Tables` steps by the rules as they
    were when it was made: one made inside the block keeps the disabled
    rules after it, and one made before keeps all of them inside it."""
    saved = {name: semantics.RULES[name] for name in names}
    semantics.RULES.update(dict.fromkeys(names, no_steps))
    try:
        yield
    finally:
        semantics.RULES.update(saved)


@contextmanager
def rules_counted():
    """Within the block every rule of `semantics.RULES` counts its calls.
    Yields `{(rule, id(node), role, stack): [node, calls]}`; each entry keeps
    its node alive, so an id is not reused while the map lives."""
    saved = dict(semantics.RULES)
    calls: dict = {}

    def counted(name, rule):
        def count(node, me, ids, stack):
            calls.setdefault((name, id(node), me, stack), [node, 0])[1] += 1
            return rule(node, me, ids, stack)
        return count

    semantics.RULES.update({name: counted(name, rule) for name, rule in saved.items()})
    try:
        yield calls
    finally:
        semantics.RULES.update(saved)
