"""Toolkit for routed multiparty session types: parse Scribble-style global
protocols, project them to local types, check well-formedness, encode
protocols through a router role, execute the transition semantics, verify
trace equivalence / deadlock freedom / encoding preservation on concrete
protocols, extract endpoint state machines, emit endpoint skeletons, and run
sessions deterministically through a router.
"""

from .core import (
    ActionLabel, GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar,
    GlobalType, InvalidType, LBranch, LEnd, LRec, LRouter, LRouterTransit,
    LRoutedBranch, LRoutedSelect, LSelect, LVar, LocalType, MsgLabel,
    Role, canonicalize, direct_recv, direct_send, free_vars,
    participants, pretty_global, pretty_local, routed_recv,
    routed_send, validate,
)
from .scribble import ProtocolDecl, ScribbleError, elaborate, parse_module, pretty_module
from .projection import MergeFailure, merge, project
from .wellformed import check_wf, check_wf_routed, is_centroid
from .encoding import (
    AlreadyRouted, NotCanonical, RouterPerspectiveWarning, encode_global,
    encode_label, encode_local,
)
from .semantics import (
    Configuration, config_steps, global_steps, local_steps,
    project_configuration,
)
from .analysis import (
    ExplorationReport, StateBudgetExceeded, TraceSet, check_deadlock_freedom,
    check_encoding_bisim, check_trace_equivalence, config_traces,
    global_traces,
)

__all__ = [
    # submodules the imports above load
    "analysis", "core", "encoding", "projection", "scribble", "semantics", "wellformed",
    # core
    "ActionLabel", "GComm", "GEnd", "GRec", "GRouted", "GRoutedTransit", "GTransit", "GVar",
    "GlobalType", "InvalidType", "LBranch", "LEnd", "LRec", "LRouter", "LRouterTransit",
    "LRoutedBranch", "LRoutedSelect", "LSelect", "LVar", "LocalType", "MsgLabel",
    "Role", "canonicalize", "direct_recv", "direct_send", "free_vars",
    "participants", "pretty_global", "pretty_local", "routed_recv", "routed_send",
    "validate",
    # scribble, projection, wellformed, encoding
    "ProtocolDecl", "ScribbleError", "elaborate", "parse_module", "pretty_module",
    "MergeFailure", "merge", "project", "check_wf", "check_wf_routed", "is_centroid",
    "AlreadyRouted", "NotCanonical", "RouterPerspectiveWarning", "encode_global",
    "encode_label", "encode_local",
    # semantics, analysis
    "Configuration", "config_steps", "global_steps", "local_steps", "project_configuration",
    "ExplorationReport", "StateBudgetExceeded", "TraceSet", "check_deadlock_freedom",
    "check_encoding_bisim", "check_trace_equivalence", "config_traces", "global_traces",
]
