"""The atoms every step memo hashes: `Role`, `MsgLabel` and `ActionLabel`
are tuples of their fields, so `==`, hash and ordering run in C.  Each
keeps what it had as a record: construction by position, keyword and
default, validation, `repr`, `==` and a hash equal to the hash of its field
tuple, ordering (none for `ActionLabel`), `__match_args__`, immutability,
pickle and copy.  Equal atoms hash equal whichever path built them, and a
pickle rebuilds an atom from its fields, so it keeps its key under another
hash seed.  One behaviour is new: an atom equals a plain tuple of its
fields."""

import copy
import itertools
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from routedmpst import simulator
from routedmpst.core import (
    RECV, SEND, ActionLabel, GComm, GVar, InvalidType, LVar, MsgLabel, Role, direct_recv,
    direct_send, routed_recv, routed_send,
)
from routedmpst.encoding import encode_label
from routedmpst.semantics import config_steps, global_steps, project_configuration

from corpus import A, B, S, SUGGEST, load

SRC = Path(__file__).resolve().parent.parent / "src"

M = MsgLabel("Quote", ("number",))

# Per atom class: its fields with their defaults, and two constructor
# argument tuples that differ in at least one field.
FIELDS = {
    Role: (("name",), ()),
    MsgLabel: (("name", "payload_sorts"), ((),)),
    ActionLabel: (("direction", "sender", "receiver", "msg", "via"), (None,)),
}
SAMPLES = {
    Role: [("A",), ("B",)],
    MsgLabel: [("Quote", ("number",)), ("Quote",)],
    ActionLabel: [(SEND, A, B, M), (RECV, A, B, M, S)],
}
ATOM_CLASSES = list(SAMPLES)


def _same(a, b):
    assert a == b and hash(a) == hash(b)
    assert {a: 1}.get(b) == 1 and b in {a}


def _atoms():
    return [A, M, direct_send(A, B, M), direct_recv(A, B, M),
            routed_send(A, B, S, M), routed_recv(A, B, S, M)]


def _full(cls, args):
    names, defaults = FIELDS[cls]
    return args + defaults[len(args) - (len(names) - len(defaults)):]


@pytest.mark.parametrize("cls", ATOM_CLASSES, ids=lambda c: c.__name__)
def test_construction_by_position_keyword_and_default(cls):
    names, defaults = FIELDS[cls]
    required = len(names) - len(defaults)
    assert cls.__match_args__ == names
    for args in SAMPLES[cls]:
        full = _full(cls, args)
        x = cls(*args)
        assert cls(**dict(zip(names, full))) == x == cls(*full)
        assert tuple(getattr(x, name) for name in names) == full == tuple(x)
        assert type(x) is cls
        with pytest.raises(TypeError):
            cls(*args[:required - 1])
        with pytest.raises(TypeError):
            cls(*full, "extra")
        with pytest.raises(TypeError):
            cls(*args, no_such_field=1)


def test_construction_validates():
    for bad in (lambda: Role("1x"), lambda: Role(""), lambda: MsgLabel("a b"),
                lambda: ActionLabel("?!", A, B, M), lambda: ActionLabel(SEND, A, A, M),
                lambda: ActionLabel(SEND, A, B, M, A), lambda: ActionLabel(RECV, A, B, M, B)):
        with pytest.raises(InvalidType):
            bad()


def test_repr_is_the_records():
    assert repr(A) == "Role(name='A')"
    assert repr(M) == "MsgLabel(name='Quote', payload_sorts=('number',))"
    assert repr(direct_send(A, B, M)) == ("ActionLabel(direction='!', sender=Role(name='A'), "
                                          "receiver=Role(name='B'), msg=" + repr(M) + ", via=None)")
    assert (str(A), str(M), str(MsgLabel("No"))) == ("A", "Quote(number)", "No")
    assert str(routed_send(A, B, S, M)) == "A->B!Quote via S"


@pytest.mark.parametrize("cls", ATOM_CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_are_those_of_the_field_tuple(cls):
    values = [cls(*args) for args in SAMPLES[cls]]
    for x, y in itertools.product(values, repeat=2):
        assert (x == y) is (tuple(x) == tuple(y)) and (x != y) is (tuple(x) != tuple(y))
    for args, x in zip(SAMPLES[cls], values):
        assert hash(x) == hash(_full(cls, args))
        # The one new behaviour: an atom equals a plain tuple of its fields.
        assert x == _full(cls, args) and _full(cls, args) == x


def test_the_hash_is_the_hash_of_the_fields():
    # The hash of the field tuple, as a record of the same fields computes
    # it, so sets and dicts of atoms iterate in the order they did as records.
    assert hash(A) == hash(("A",))
    assert hash(M) == hash(("Quote", ("number",)))
    assert hash(routed_send(A, B, S, M)) == hash((SEND, A, B, M, S))
    assert hash(direct_recv(A, B, M)) == hash((RECV, A, B, M, None))


def test_atoms_of_different_classes_and_records_are_unequal():
    values = [cls(*args) for cls in ATOM_CLASSES for args in SAMPLES[cls]]
    values += [GVar("A"), LVar("A"), GComm(A, B, ((M, GVar("x")),))]
    for x, y in itertools.product(values, repeat=2):
        if x is not y:
            assert x != y and not x == y


def test_roles_and_message_labels_order_as_their_field_tuples():
    assert sorted([Role("b"), Role("B"), Role("a")]) == [Role("B"), Role("a"), Role("b")]
    assert MsgLabel("m") < MsgLabel("m", ("int",)) < MsgLabel("n")
    for cls in (Role, MsgLabel):
        x, y = (cls(*args) for args in SAMPLES[cls])
        assert [x < y, x <= y, x > y, x >= y] == \
            [tuple(x) < tuple(y), tuple(x) <= tuple(y), tuple(x) > tuple(y), tuple(x) >= tuple(y)]


def test_action_labels_are_not_ordered():
    x, y = (ActionLabel(*args) for args in SAMPLES[ActionLabel])
    for compare in (lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y):
        with pytest.raises(TypeError):
            compare()
    assert sorted([y, x], key=ActionLabel.sort_key) == [x, y]


@pytest.mark.parametrize("cls", ATOM_CLASSES, ids=lambda c: c.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    for args in SAMPLES[cls]:
        x = cls(*args)
        for name in (*FIELDS[cls][0], "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert not hasattr(x, "__dict__")


def test_constructors_and_the_encoding_build_equal_hashing_labels():
    _same(direct_send(A, B, M), ActionLabel(SEND, Role("A"), Role("B"), MsgLabel("Quote", ("number",))))
    _same(routed_recv(A, B, S, M), ActionLabel(RECV, A, B, M, via=Role("S")))
    _same(encode_label(direct_send(A, B, M), S), routed_send(A, B, S, M))
    _same(encode_label(direct_recv(A, B, M), S), routed_recv(A, B, S, M))
    _same(encode_label(direct_send(A, S, M), S), direct_send(A, S, M))


def test_parsed_atoms_hash_as_constructed_ones():
    g = load("TravelAgency")
    first = g.body
    assert isinstance(first, GComm)
    _same(first.sender, B)
    _same(first.receiver, A)
    _same(first.branches[0][0], SUGGEST)
    # The global LTS and the configuration LTS build their labels apart;
    # trace equivalence compares them as dict keys.
    (label, succ), = global_steps(g)
    _same(label, direct_send(B, A, SUGGEST))
    (c_label, _), = config_steps(project_configuration(g))
    _same(c_label, label)
    (label, _), = global_steps(succ)
    _same(label, direct_recv(B, A, SUGGEST))


def test_the_simulators_labels_hash_as_constructed_ones():
    log = simulator.parse_session_log("0,A,B,data,Quote\n")
    env = log.records[0].envelope
    assert simulator.ActionLabel is ActionLabel
    _same(simulator.ActionLabel(RECV, env.sender, env.receiver, env.msg, via=S),
          routed_recv(A, B, S, MsgLabel("Quote")))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
def test_copies_hash_as_their_originals(duplicate):
    for atom in _atoms():
        twin = duplicate(atom)
        _same(twin, atom)
        assert type(twin) is type(atom) and repr(twin) == repr(atom)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickles_round_trip(protocol):
    for atom in _atoms():
        twin = pickle.loads(pickle.dumps(atom, protocol))
        _same(twin, atom)
        assert type(twin) is type(atom) and repr(twin) == repr(atom)


def test_a_pickle_rebuilds_through_the_class_and_so_validates():
    # The reduction calls the class with the fields, never `tuple.__new__`.
    assert A.__reduce__() == (Role, ("A",))
    assert routed_send(A, B, S, M).__reduce__() == (ActionLabel, (SEND, A, B, M, S))


_ATOMS = """
from routedmpst.core import MsgLabel, Role, routed_send
m = MsgLabel("Quote", ("number",))
atoms = [Role("A"), m, routed_send(Role("A"), Role("B"), Role("S"), m)]
"""

# Writes the pickled atoms to stdout as hex.
_DUMP = _ATOMS + """
import pickle, sys
sys.stdout.write(pickle.dumps(atoms).hex())
"""

# Reads pickled atoms from stdin as hex; prints, for each, whether it equals
# the atom built here and is found as a key of a dict of it.
_LOAD = _ATOMS + """
import json, pickle, sys
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
print(json.dumps([[a == b, {b: 1}.get(a)] for a, b in zip(loaded, atoms)]))
"""


def _run_under_hash_seed(seed, script, stdin=""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], input=stdin, env=env,
                          capture_output=True, text=True, timeout=60, check=True).stdout


def test_a_pickled_atom_keeps_its_key_under_another_hash_seed():
    dumped = _run_under_hash_seed(1, _DUMP)
    assert json.loads(_run_under_hash_seed(2, _LOAD, dumped)) == [[True, 1]] * 3
