"""Callback-style endpoint skeleton emission from an EFSM.

Emission is template-driven: fragments live in data files using a
`{{placeholder}}` grammar ({{role}}, {{state}}, {{label}}, {{payloads}},
{{successor}}, {{peer}}, {{args}}, {{items}}, ...) and may target any surface
syntax; the shipped defaults mimic TypeScript declarations.  Four units are
produced per role: message shapes, handler signatures, state classes, and
state factories with Initial/Terminal aliases.  Output is a pure function of
(machine, flavor, templates) and byte-identical across runs.
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


def _fill(fragment: str, **values) -> str:
    """Substitute `values` for the `{{placeholder}}`s of a fragment.

    Each distinct fragment text is compiled once (`_compile`) into a
    `str.format_map` string.  A placeholder without a value raises KeyError.
    """
    try:
        return _compile(fragment).format_map(values)
    except KeyError as missing:
        key = missing.args[0]
        raise KeyError(f"template placeholder {{{{{key}}}}} has no value") from None


@functools.lru_cache(maxsize=1024)
def _compile(fragment: str) -> str:
    """The fragment as a `str.format_map` string: literal braces doubled,
    each `{{name}}` turned into `{name}`."""
    parts = _PLACEHOLDER.split(fragment)  # literal, name, literal, ..., literal
    parts[::2] = [lit.replace("{", "{{").replace("}", "}}") for lit in parts[::2]]
    parts[1::2] = [f"{{{name}}}" for name in parts[1::2]]
    return "".join(parts)


@functools.cache
def _default_templates(flavor: str) -> Mapping[str, str]:
    """The shipped fragments of a flavor, read once per process and shared
    read-only."""
    data = Path(__file__).with_name("templates") / f"{flavor}.tmpl"
    return MappingProxyType(load_fragments(data.read_text(encoding="utf-8")))


def _peer_of(e: Efsm, transitions) -> str:
    peers = set()
    for tr in transitions:
        act = tr.action
        peers.add(act.receiver if act.sender == e.role else act.sender)
    assert len(peers) == 1, "states of a projected local type have one peer"
    return peers.pop().name


def _payloads(tr) -> str:
    return ", ".join(tr.action.msg.payload_sorts)


def _args(tr) -> str:
    return ", ".join(f"payload{i + 1}: {sort}"
                     for i, sort in enumerate(tr.action.msg.payload_sorts))


def emit_skeleton(e: Efsm, flavor: str,
                  templates: dict[str, str] | None = None) -> dict[str, str]:
    """Emit the four skeleton units for one role's machine.

    Returns a mapping of file name to file text; the caller owns placement
    (conventionally out/<Protocol>/<Role>/).  Router forwarding never appears
    in the emitted surface: skeletons are generated from canonical
    projections, where routing is a transport concern.
    """
    if flavor not in FLAVORS:
        raise UnsupportedFlavor(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    frag = templates if templates is not None else _default_templates(flavor)
    header = _fill(frag["file_header"], role=e.role.name, flavor=flavor)

    messages: list[str] = [header]
    handlers: list[str] = [header]
    states: list[str] = [header]
    factories: list[str] = [header]

    if flavor == "server" and "state_preamble" in frag:
        states.append(frag["state_preamble"])

    terminal_id = None
    for st in e.states:
        outs = e.outgoing(st.id)
        if st.kind == STATE_TERMINAL:
            terminal_id = st.id
            if flavor == "server":
                states.append(_fill(frag["state_terminal"], state=st.id))
                factories.append(_fill(frag["factory_terminal"], state=st.id))
            else:
                states.append(_fill(frag["state_terminal"], state=st.id))
            continue

        peer = _peer_of(e, outs)

        # Message unit: one interface per label plus the per-state union.
        union_parts = []
        for tr in outs:
            messages.append(_fill(frag["message_interface"], state=st.id,
                                  label=tr.action.msg.name, payloads=_payloads(tr)))
            union_parts.append(f"| S{st.id}_{tr.action.msg.name}")
        messages.append(_fill(frag["message_union"], state=st.id,
                              items=" ".join(union_parts)))

        # Handler + state + factory units, by state kind and flavor.
        if st.kind == STATE_SEND:
            if flavor == "server":
                items = "\n".join(_fill(frag["handler_send_item"], state=st.id,
                                        label=tr.action.msg.name, successor=tr.target)
                                  for tr in outs)
                handlers.append(_fill(frag["handler_send_open"], state=st.id, items=items))
                states.append(_fill(frag["state_send"], state=st.id, peer=peer))
                for tr in outs:
                    factories.append(_fill(frag["factory_send_fn"], state=st.id,
                                           label=tr.action.msg.name, successor=tr.target))
                obj_items = ",\n    ".join(
                    f"{tr.action.msg.name}: S{st.id}_{tr.action.msg.name}" for tr in outs)
                factories.append(_fill(frag["factory_send_obj"], state=st.id, items=obj_items))
            else:
                for tr in outs:
                    handlers.append(_fill(frag["handler_send_item"], state=st.id,
                                          label=tr.action.msg.name, payloads=_payloads(tr),
                                          successor=tr.target))
                members = "\n".join(_fill(frag["state_send_member"],
                                          label=tr.action.msg.name, payloads=_payloads(tr))
                                    for tr in outs)
                inits = "".join(_fill(frag["state_send_init"], label=tr.action.msg.name,
                                      payloads=_payloads(tr), peer=peer,
                                      successor=tr.target) + "\n"
                                for tr in outs)
                states.append(_fill(frag["state_send"], state=st.id,
                                    items=members, inits=inits))
        else:
            if flavor == "server":
                handlers.append(_fill(frag["handler_recv_open"], state=st.id))
                for tr in outs:
                    handlers.append(_fill(frag["handler_recv_item"], state=st.id,
                                          label=tr.action.msg.name, successor=tr.target))
                handlers.append(frag["handler_recv_close"])
                states.append(_fill(frag["state_recv"], state=st.id, peer=peer))
                factories.append(_fill(frag["factory_recv"], state=st.id))
            else:
                for tr in outs:
                    handlers.append(_fill(frag["handler_recv_item"], state=st.id,
                                          label=tr.action.msg.name, args=_args(tr)))
                cases = "".join(_fill(frag["state_recv_case"], label=tr.action.msg.name,
                                      successor=tr.target) + "\n" for tr in outs)
                methods = "\n".join(_fill(frag["state_recv_method"],
                                          label=tr.action.msg.name, args=_args(tr))
                                    for tr in outs)
                states.append(_fill(frag["state_recv"], state=st.id, peer=peer,
                                    items=cases, methods=methods))

    if flavor == "client":
        factories.append(frag["factory_mapping_open"])
        for st in e.states:
            factories.append(_fill(frag["factory_mapping_item"], state=st.id))
        factories.append(frag["factory_mapping_close"])
    factories.append(_fill(frag["factory_initial"], state=e.initial))
    if terminal_id is not None:
        factories.append(_fill(frag["factory_terminal_alias"], state=terminal_id))

    def unit(parts: list[str]) -> str:
        return "\n\n".join(part for part in parts if part.strip()) + "\n"

    return {
        "message.ts": unit(messages),
        "handler.ts": unit(handlers),
        "state.ts": unit(states),
        "factory.ts": unit(factories),
    }
