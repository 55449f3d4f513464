"""Every record class of the package, made by `core.record`, against a
reference `dataclasses.dataclass` built from the same fields and options:
construction, `==`, hash, the absence of ordering, repr, `__match_args__`,
the frozen guard, pickle and copy.  The atoms (`Role`, `MsgLabel`,
`ActionLabel`) are tuples, not records: `test_atoms.py` pins them.  And
importing the CLI does not load `dataclasses`, whose code generation the
records exist to avoid, nor `argparse`, which only help and usage errors
need."""

import copy
import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from routedmpst import analysis, core, efsm, scribble, semantics, simulator, wellformed
from routedmpst.core import (
    GComm, GEnd, GRec, GRouted, GRoutedTransit, GTransit, GVar, LBranch, LEnd, LRec, LRouter,
    LRouterTransit, LRoutedBranch, LRoutedSelect, LSelect, LVar, MsgLabel, direct_send,
)
from routedmpst.projection import project

from corpus import A, B, S, load

SRC = Path(__file__).resolve().parent.parent / "src"

M, N = MsgLabel("Quote", ("number",)), MsgLabel("No")
END, LEND = GEnd(), LEnd()
SPAN, OTHER_SPAN = scribble.SourceSpan("a.scr", 1, 2), scribble.SourceSpan("b.scr", 3, 4)
ACT = direct_send(A, B, M)
ENV = simulator.Envelope(A, B, M)
TERMINAL = efsm.EfsmState(1, efsm.STATE_TERMINAL)

# Two constructor argument tuples per record class (one for the classes
# with a single value), which differ in at least one compared field.
SAMPLES = {
    GEnd: [()],
    GVar: [("x",), ("y",)],
    GRec: [("x", END), ("y", END)],
    GComm: [(A, B, ((M, END),)), (B, A, ((M, END),))],
    GRouted: [(A, B, S, ((M, END),)), (A, B, S, ((N, END),))],
    GTransit: [(A, B, M, ((M, END),)), (B, A, M, ((M, END),))],
    GRoutedTransit: [(A, B, S, M, ((M, END),)), (B, A, S, M, ((M, END),))],
    LEnd: [()],
    LVar: [("x",), ("y",)],
    LRec: [("x", LEND), ("y", LEND)],
    LSelect: [(A, ((M, LEND),)), (B, ((M, LEND),))],
    LBranch: [(A, ((M, LEND),)), (A, ((N, LEND),))],
    LRoutedSelect: [(A, S, ((M, LEND),)), (B, S, ((M, LEND),))],
    LRoutedBranch: [(A, S, ((M, LEND),)), (A, B, ((M, LEND),))],
    LRouter: [(A, B, ((M, LEND),)), (B, A, ((M, LEND),))],
    LRouterTransit: [(A, B, M, ((M, LEND),)), (B, A, M, ((M, LEND),))],
    scribble.SourceSpan: [("a.scr", 1, 2), ("a.scr", 1, 3)],
    scribble.MsgStmt: [("m", (), "A", "B", SPAN), ("m", ("int",), "A", "B", SPAN)],
    scribble.ChoiceStmt: [("A", ((),), SPAN), ("B", ((),), SPAN)],
    scribble.DoStmt: [("P", ("A",), SPAN), ("Q", ("A",), SPAN)],
    scribble.TypeAlias: [("int", "java", "java.lang.Integer", "rt.jar", SPAN),
                         ("str", "java", "java.lang.String", "rt.jar", SPAN)],
    scribble.ProtocolDecl: [("P", ("A", "B"), False, (), (), SPAN),
                            ("P", ("A", "B"), True, (), (), SPAN)],
    simulator.Envelope: [(A, B, M), (A, B, None, simulator.CANCEL, "stop")],
    simulator.SimConfig: [(), (3, "seeded-random", 10, (A, 2))],
    simulator.LogRecord: [(0, ENV), (1, ENV)],
    simulator.CancellationRecord: [(A, frozenset({B})), (B, frozenset())],
    simulator.SessionLog: [((simulator.LogRecord(0, ENV),), None, ()),
                           ((), simulator.CancellationRecord(A, frozenset()), ((A, ()),))],
    simulator.Violation: [(0, "x"), (1, "x")],
    analysis.TraceSet: [(1, frozenset({(), (ACT,)})), (0, frozenset({()}))],
    analysis.Counterexample: [((ACT,), "d"), ((), "d")],
    analysis.ExplorationReport: [("c", analysis.PASS, 1, 1),
                                 ("c", analysis.FAIL, 2, 2, analysis.Counterexample((), "d"))],
    efsm.EfsmState: [(1, efsm.STATE_TERMINAL), (2, efsm.STATE_TERMINAL)],
    efsm.EfsmTransition: [(1, 2, ACT), (2, 1, ACT)],
    efsm.Efsm: [(A, (TERMINAL,), ()), (B, (TERMINAL,), (), 1)],
    wellformed.CentroidResult: [(True,), (False, ("m",), "w")],
    wellformed.WfReport: [(True,), (False, (("A", "msg"),), wellformed.CentroidResult(False))],
    semantics.Configuration: [(((A, LEND),), ()), (((B, LEND),), ())],
}
CLASSES = list(SAMPLES)


def _record_classes():
    modules = (analysis, core, efsm, scribble, semantics, simulator, wellformed)
    return {c for m in modules for c in vars(m).values()
            if isinstance(c, type) and "__record_fields__" in vars(c)}


def _reference(cls):
    """The `dataclass` the record decorator stands in for."""
    fields = []
    for f in cls.__record_fields__:
        options = dict(compare=f.compare)
        if f.default is not core._MISSING:
            options["default"] = f.default
        fields.append((f.name, "object", dataclasses.field(**options)))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True,
                                      slots="__slots__" in vars(cls))


REFERENCES = {cls: _reference(cls) for cls in CLASSES}


def _compared(x):
    return tuple(getattr(x, f.name) for f in type(x).__record_fields__ if f.compare)


def _pairs(cls):
    return [(cls(*args), REFERENCES[cls](*args)) for args in SAMPLES[cls]]


def test_the_table_covers_every_record_class():
    assert _record_classes() == set(CLASSES)
    assert len(CLASSES) == 37


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_by_position_keyword_and_default(cls):
    ref = REFERENCES[cls]
    fields = cls.__record_fields__
    required = sum(f.default is core._MISSING for f in fields)
    defaults = tuple(f.default for f in fields[required:])
    for args in SAMPLES[cls]:
        full = args + defaults[len(args) - required:]
        x = cls(*args)
        assert repr(x) == repr(ref(*args))
        assert cls(**dict(zip(cls.__match_args__, full))) == x == cls(*full)
        if required:
            with pytest.raises(TypeError):
                cls(*args[:required - 1])
        with pytest.raises(TypeError):
            cls(*full, "extra")
        with pytest.raises(TypeError):
            cls(*args, no_such_field=1)
    # The first sample's required fields also make a valid value on their own.
    args = SAMPLES[cls][0][:required]
    assert repr(cls(*args)) == repr(ref(*args)) == repr(cls(*args, *defaults))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_hash_ordering_repr_and_match_args_are_the_dataclasses(cls):
    pairs = _pairs(cls)
    assert cls.__match_args__ == REFERENCES[cls].__match_args__
    for (x, rx), (y, ry) in itertools.product(pairs, repeat=2):
        assert (x == y) is (rx == ry) and (x != y) is (rx != ry)
        assert (x == y) is (x is y or _compared(x) == _compared(y))
        with pytest.raises(TypeError):
            x < y
    for x, rx in pairs:
        assert hash(x) == hash(_compared(x)) == hash(rx)
        assert repr(x) == repr(rx)
        assert x != rx and not x == rx


@pytest.mark.parametrize("cls", [c for c in CLASSES if "span" in c.__match_args__],
                         ids=lambda c: c.__name__)
def test_a_field_left_out_of_comparison_changes_neither_equality_nor_hash(cls):
    for args in SAMPLES[cls]:
        x = cls(*args)
        y = cls(*args[:-1], OTHER_SPAN)
        assert x == y and hash(x) == hash(y) and repr(x) != repr(y)


def test_values_of_different_classes_are_unequal():
    values = [(cls, cls(*args)) for cls in CLASSES for args in SAMPLES[cls]]
    for (c, x), (d, y) in itertools.product(values, repeat=2):
        if c is not d:
            assert x != y and not x == y
    assert GEnd() != LEnd() and GVar("x") != LVar("x")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    for x, _ in _pairs(cls):
        for name in (*(f.name for f in cls.__record_fields__), "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_copy_and_deepcopy_round_trip(cls):
    for x, _ in _pairs(cls):
        copies = [pickle.loads(pickle.dumps(x, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies + [copy.copy(x), copy.deepcopy(x)]:
            assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_the_machines_cached_index_is_per_instance_and_survives_copies():
    machine = efsm.build_efsm(project(load("TravelAgency"), A), A)
    assert "_by_source" not in vars(machine)
    first = machine.outgoing(machine.initial)
    assert first and vars(machine)["_by_source"][machine.initial] is first
    assert machine.outgoing(machine.initial) is first
    for other in (pickle.loads(pickle.dumps(machine)), copy.deepcopy(machine)):
        assert other == machine and other.outgoing(other.initial) == first


def test_importing_the_cli_loads_no_dataclasses():
    # Without `site` (`-S`), which on some installs loads modules of its own.
    # The script loads nothing before it looks, `json` included: `efsm_ir`
    # imports `json` only for a string it cannot write as it is.
    script = ("import sys; before = set(sys.modules); import routedmpst.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60, check=True).stdout.split()
    assert not {"dataclasses", "typing", "importlib.resources", "argparse", "gettext",
                "locale", "json"} & set(loaded)
    modules = ["analysis", "cli", "codegen", "core", "efsm", "encoding", "projection",
               "scribble", "semantics", "simulator", "wellformed"]
    assert [m for m in loaded if m.startswith("routedmpst")] == \
        ["routedmpst"] + [f"routedmpst.{m}" for m in modules]
