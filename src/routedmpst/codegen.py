"""Callback-style endpoint skeleton emission from an EFSM.

Emission is template-driven: fragments live in data files using a
`{{placeholder}}` grammar ({{role}}, {{state}}, {{label}}, {{payloads}},
{{successor}}, {{peer}}, {{args}}, {{items}}, ...) and mimic TypeScript
declarations, as do the union members, fields and argument lists that
`emit_skeleton` writes itself.  Four units are produced per role: message
shapes, handler signatures, state classes, and state factories with
Initial/Terminal aliases.  Output is a pure function of (machine, flavor) and
byte-identical across runs.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

from .efsm import Efsm, STATE_SEND, STATE_TERMINAL

FLAVORS = ("server", "client")


class UnsupportedFlavor(ValueError):
    pass


_PLACEHOLDER = re.compile(r"\{\{([a-z_]+)\}\}")


def load_fragments(text: str) -> dict[str, str]:
    """Parse a template file into named fragments.

    Fragments are delimited by `@fragment NAME` / `@end` lines; everything
    between is taken verbatim.
    """
    fragments: dict[str, str] = {}
    name = None
    buf: list[str] = []
    for line in text.splitlines():
        if line.startswith("@fragment "):
            if name is not None:
                raise ValueError(f"nested fragment inside {name}")
            name = line[len("@fragment "):].strip()
            buf = []
        elif line.strip() == "@end":
            if name is None:
                raise ValueError("@end outside a fragment")
            fragments[name] = "\n".join(buf)
            name = None
        elif name is not None:
            buf.append(line)
    if name is not None:
        raise ValueError(f"unterminated fragment {name}")
    return fragments


def _compile(fragment: str) -> str:
    """The fragment as a `%` template: each literal `%` doubled, each
    `{{name}}` turned into `%(name)s`.  `template % values` fills it in one
    C-level call; a placeholder without a value raises KeyError naming it."""
    parts = _PLACEHOLDER.split(fragment)  # literal, name, literal, ..., literal
    parts[::2] = [lit.replace("%", "%%") for lit in parts[::2]]
    parts[1::2] = [f"%({name})s" for name in parts[1::2]]
    return "".join(parts)


@functools.cache
def _default_templates(flavor: str) -> Mapping[str, str]:
    """The shipped fragments of a flavor as `%` templates (`_compile`), read
    and compiled once per process and shared read-only."""
    data = Path(__file__).with_name("templates") / f"{flavor}.tmpl"
    fragments = load_fragments(data.read_text(encoding="utf-8"))
    return MappingProxyType({name: _compile(text) for name, text in fragments.items()})


def _peer_of(e: Efsm, transitions) -> str:
    peers = set()
    for tr in transitions:
        act = tr.action
        peers.add(act.receiver if act.sender == e.role else act.sender)
    assert len(peers) == 1, "states of a projected local type have one peer"
    return peers.pop().name


def _args(sorts: tuple[str, ...]) -> str:
    return ", ".join([f"payload{i}: {sort}" for i, sort in enumerate(sorts, 1)])


def emit_skeleton(e: Efsm, flavor: str) -> dict[str, str]:
    """Emit the four skeleton units for one role's machine.

    Returns a mapping of file name to file text; the caller owns placement
    (conventionally out/<Protocol>/<Role>/).  Router forwarding never appears
    in the emitted surface: skeletons are generated from canonical
    projections, where routing is a transport concern.
    """
    if flavor not in FLAVORS:
        raise UnsupportedFlavor(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    frag = _default_templates(flavor)  # each filled by `%` with a dict of its values
    server = flavor == "server"
    header = frag["file_header"] % {"role": e.role.name, "flavor": flavor}

    messages: list[str] = [header]
    handlers: list[str] = [header]
    states: list[str] = [header]
    factories: list[str] = [header]

    if server:
        states.append(frag["state_preamble"] % {})

    terminal_id = None
    for st in e.states:
        sid, outs = st.id, e.outgoing(st.id)
        if st.kind == STATE_TERMINAL:
            terminal_id = sid
            states.append(frag["state_terminal"] % {"state": sid})
            if server:
                factories.append(frag["factory_terminal"] % {"state": sid})
            continue

        peer = _peer_of(e, outs)
        # Per transition: its label's name, payload sorts and target state.
        edges = [(tr.action.msg.name, tr.action.msg.payload_sorts, tr.target) for tr in outs]

        # Message unit: one interface per label plus the per-state union.
        for label, sorts, _ in edges:
            messages.append(frag["message_interface"] % {
                "state": sid, "label": label, "payloads": ", ".join(sorts)})
        messages.append(frag["message_union"] % {
            "state": sid, "items": " ".join([f"| S{sid}_{label}" for label, _, _ in edges])})

        # Handler + state + factory units, by state kind and flavor.
        if st.kind == STATE_SEND:
            if server:
                item = frag["handler_send_item"]
                items = "\n".join([item % {"state": sid, "label": label, "successor": target}
                                   for label, _, target in edges])
                handlers.append(frag["handler_send_open"] % {"state": sid, "items": items})
                states.append(frag["state_send"] % {"state": sid, "peer": peer})
                for label, _, target in edges:
                    factories.append(frag["factory_send_fn"] % {
                        "state": sid, "label": label, "successor": target})
                obj_items = ",\n    ".join([f"{label}: S{sid}_{label}" for label, _, _ in edges])
                factories.append(frag["factory_send_obj"] % {"state": sid, "items": obj_items})
            else:
                member, init = frag["state_send_member"], frag["state_send_init"]
                for label, sorts, target in edges:
                    handlers.append(frag["handler_send_item"] % {
                        "state": sid, "label": label, "payloads": ", ".join(sorts),
                        "successor": target})
                members = "\n".join([member % {"label": label, "payloads": ", ".join(sorts)}
                                     for label, sorts, _ in edges])
                inits = "".join([init % {"label": label, "payloads": ", ".join(sorts),
                                         "peer": peer, "successor": target} + "\n"
                                 for label, sorts, target in edges])
                states.append(frag["state_send"] % {"state": sid, "items": members,
                                                    "inits": inits})
        elif server:
            handlers.append(frag["handler_recv_open"] % {"state": sid})
            for label, _, target in edges:
                handlers.append(frag["handler_recv_item"] % {
                    "state": sid, "label": label, "successor": target})
            handlers.append(frag["handler_recv_close"] % {})
            states.append(frag["state_recv"] % {"state": sid, "peer": peer})
            factories.append(frag["factory_recv"] % {"state": sid})
        else:
            case, method = frag["state_recv_case"], frag["state_recv_method"]
            for label, sorts, _ in edges:
                handlers.append(frag["handler_recv_item"] % {
                    "state": sid, "label": label, "args": _args(sorts)})
            cases = "".join([case % {"label": label, "successor": target} + "\n"
                             for label, _, target in edges])
            methods = "\n".join([method % {"label": label, "args": _args(sorts)}
                                 for label, sorts, _ in edges])
            states.append(frag["state_recv"] % {"state": sid, "peer": peer,
                                                "items": cases, "methods": methods})

    if not server:
        factories.append(frag["factory_mapping_open"] % {})
        item = frag["factory_mapping_item"]
        factories += [item % {"state": st.id} for st in e.states]
        factories.append(frag["factory_mapping_close"] % {})
    factories.append(frag["factory_initial"] % {"state": e.initial})
    if terminal_id is not None:
        factories.append(frag["factory_terminal_alias"] % {"state": terminal_id})

    def unit(parts: list[str]) -> str:
        return "\n\n".join(part for part in parts if part.strip()) + "\n"

    return {
        "message.ts": unit(messages),
        "handler.ts": unit(handlers),
        "state.ts": unit(states),
        "factory.ts": unit(factories),
    }
