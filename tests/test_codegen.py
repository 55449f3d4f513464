import re
from pathlib import Path

import pytest

from routedmpst.codegen import (
    FLAVORS, UnsupportedFlavor, _default_templates, _fill, emit_skeleton, load_fragments,
)
from routedmpst.efsm import build_efsm
from routedmpst.core import LEnd, Role
from routedmpst.projection import project

from corpus import A, B, S, load

GOLDEN = Path(__file__).resolve().parent / "golden"


def machine(role, protocol="TravelAgency"):
    g = load(protocol)
    return build_efsm(project(g, role), role)


def emitted(role, flavor):
    return emit_skeleton(machine(role), flavor)


@pytest.mark.parametrize("role,flavor", [(S, "server"), (B, "client")])
def test_travel_agency_skeletons_match_golden_files(role, flavor):
    files = emitted(role, flavor)
    for name, text in files.items():
        golden = GOLDEN / f"travel_{role.name}_{flavor}_{name.replace('.ts', '')}.txt"
        assert text == golden.read_text(), f"{golden} drifted"


def test_emission_is_deterministic():
    assert emitted(S, "server") == emitted(S, "server")
    assert emitted(B, "client") == emitted(B, "client")


def test_server_surface_shape():
    files = emitted(S, "server")
    factory = files["factory.ts"]
    # Initial aliases the opening receive state; the send state's factory
    # exposes one constructor per label.
    assert "export const Initial = S1;" in factory
    assert "Full: S2_Full" in factory and "Available: S2_Available" in factory
    handler = files["handler.ts"]
    assert '"Query": (Next: typeof Factory.S2' in handler
    assert "export const Terminal = S4;" in factory


def test_client_receive_states_expose_abstract_handlers():
    state = emitted(B, "client")["state.ts"]
    assert "abstract Quote(payload1: number): MaybePromise<void>;" in state
    assert "abstract Full(): MaybePromise<void>;" in state


def test_every_transition_appears_once_in_handler_unit():
    for role, flavor in ((S, "server"), (A, "server"), (B, "client")):
        e = machine(role)
        handler = emit_skeleton(e, flavor)["handler.ts"]
        for tr in e.transitions:
            pattern = (rf'"{tr.action.msg.name}": \(Next: typeof Factory.S{tr.target}'
                       if flavor == "server" and tr.action.direction == "?"
                       else rf"S{tr.source}_{tr.action.msg.name}")
            hits = re.findall(pattern, handler)
            assert hits, (role.name, tr)
        # one handler entry per transition, no duplicates
        if flavor == "server":
            entries = re.findall(r'^\s*(?:\| \["|\s*")(\w+)"', handler, re.M)
            assert len(entries) == len(e.transitions)


def test_skeleton_state_sections_match_machine_size():
    for name in ("TravelAgency", "PingPong", "Game", "Battleships"):
        g = load(name)
        from routedmpst.core import participants
        for role in sorted(participants(g)):
            e = build_efsm(project(g, role), role)
            text = emit_skeleton(e, "server")["state.ts"]
            classes = set(re.findall(r"export class S(\d+)", text))
            assert classes == {str(s.id) for s in e.states}


def test_end_only_machine_emits_terminal_only_skeleton():
    e = build_efsm(LEnd(), Role("X"))
    files = emit_skeleton(e, "server")
    assert "ITerminal" in files["state.ts"]
    assert "export class S1 implements ITerminal" in files["state.ts"]
    assert "export const Terminal = S1;" in files["factory.ts"]
    assert "interface" not in files["message.ts"]


def test_unsupported_flavor_rejected():
    with pytest.raises(UnsupportedFlavor):
        emit_skeleton(machine(S), "desktop")


@pytest.mark.parametrize("text,message", [
    ("@fragment a\n@fragment b\n@end\n", "nested fragment inside a"),
    ("@end\n", "@end outside a fragment"),
    ("@fragment a\nx\n", "unterminated fragment a"),
])
def test_load_fragments_rejects_a_malformed_file(text, message):
    with pytest.raises(ValueError, match=message):
        load_fragments(text)


def _fill_reference(fragment, **values):
    """The earlier `_fill`: one regex substitution with a callback."""
    def sub(match):
        key = match.group(1)
        if key not in values:
            raise KeyError(f"template placeholder {{{{{key}}}}} has no value")
        return str(values[key])

    return re.sub(r"\{\{([a-z_]+)\}\}", sub, fragment)


BRACE_FRAGMENTS = (
    "{ {{role}} }",             # single literal braces around a placeholder
    "{{{role}}}",               # a placeholder inside literal braces
    "{{inits}}    }}",          # the literal `}}` of client.tmpl's state_send
    "x }} {{role}}}}{{",        # doubled and unmatched literal braces
    "{0} {role} {role!r} {role:>3}",  # format syntax is literal text here
    "{{Role}} {{ role }}",      # not placeholders: upper case, spaces
    "{{role}}-{{role}}-{{inits}}",    # a repeated placeholder
    "",
)


@pytest.mark.parametrize("fragment", BRACE_FRAGMENTS)
def test_fill_keeps_literal_braces_and_repeats_placeholders(fragment):
    values = {"role": "A", "inits": 7, "unused": "x"}
    assert _fill(fragment, **values) == _fill_reference(fragment, **values)


def test_fill_matches_the_regex_substitution_on_the_shipped_fragments():
    values = dict.fromkeys(("role", "flavor", "state", "label", "payloads", "successor",
                            "peer", "args", "items", "inits", "methods"), "V")
    for flavor in FLAVORS:
        for fragment in _default_templates(flavor).values():
            assert _fill(fragment, **values) == _fill_reference(fragment, **values)


def test_fill_names_a_placeholder_without_a_value():
    with pytest.raises(KeyError) as raised:
        _fill("{ {{role}} {{nope}} }", role="A")
    assert raised.value.args == ("template placeholder {{nope}} has no value",)
