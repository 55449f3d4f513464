"""The compiled configuration LTS (per-role step tables over id tuples)
against `config_steps`, and the step maps it is built from."""

import pytest

from routedmpst.core import InvalidType, LEnd, LVar, Role, direct_send
from routedmpst.encoding import encode_global
from routedmpst.semantics import (
    CompiledConfigurations, config_steps, dict_of_steps, project_configuration,
)

from corpus import CORPUS_ROUTERS, M1, load
from strategies import ROLE_POOL


@pytest.mark.parametrize("name", sorted(CORPUS_ROUTERS))
def test_compiled_configurations_match_config_steps(name):
    """Breadth-first over the encoded configuration LTS: each compiled key
    stands for a canonical configuration whose `config_steps`, canonicalised,
    are exactly the compiled steps."""
    router = Role(CORPUS_ROUTERS[name])
    lts = CompiledConfigurations(project_configuration(encode_global(load(name), router)))
    seen = {lts.initial}
    frontier = [lts.initial]
    while frontier:
        key = frontier.pop(0)
        want = [(label, succ.canonical()) for label, succ in config_steps(lts.configuration(key))]
        got = sorted(lts.steps(key), key=lambda step: step[0].sort_key())
        assert [(label, lts.configuration(succ)) for label, succ in got] == want
        for _, succ in got:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert len(seen) > 1
    assert lts.configuration(lts.initial) == \
        project_configuration(encode_global(load(name), router)).canonical()


def test_conflicting_duplicate_label_raises():
    a, b = ROLE_POOL[:2]
    label = direct_send(a, b, M1)
    assert dict_of_steps([(label, LEnd()), (label, LEnd())]) == {label: LEnd()}
    with pytest.raises(InvalidType):
        dict_of_steps([(label, LEnd()), (label, LVar("t"))])
