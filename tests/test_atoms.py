"""The atoms every step table hashes: `Role`, `MsgLabel` and `ActionLabel`
hash once, when built.  Equal atoms hash equal whichever path built them,
and the cached hash never crosses processes: a pickle rebuilds the atom."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from routedmpst import simulator
from routedmpst.core import (
    RECV, SEND, ActionLabel, GComm, MsgLabel, Role, direct_recv, direct_send, routed_recv,
    routed_send,
)
from routedmpst.encoding import encode_label
from routedmpst.semantics import config_steps, global_steps, project_configuration

from corpus import A, B, S, SUGGEST, load

SRC = Path(__file__).resolve().parent.parent / "src"

M = MsgLabel("Quote", ("number",))


def _same(a, b):
    assert a == b and hash(a) == hash(b)
    assert {a: 1}.get(b) == 1 and b in {a}


def _atoms():
    return [A, M, direct_send(A, B, M), direct_recv(A, B, M),
            routed_send(A, B, S, M), routed_recv(A, B, S, M)]


def test_the_cached_hash_is_the_hash_of_the_fields():
    # The hash of the tuple of compared fields, as every other record
    # computes it, so sets and dicts of atoms iterate in the same order as
    # without the cache.
    assert hash(A) == hash(("A",))
    assert hash(M) == hash(("Quote", ("number",)))
    assert hash(routed_send(A, B, S, M)) == hash((SEND, A, B, M, S))
    assert hash(direct_recv(A, B, M)) == hash((RECV, A, B, M, None))


def test_the_cached_hash_is_invisible_to_equality_ordering_and_repr():
    assert repr(A) == "Role(name='A')"
    assert repr(M) == "MsgLabel(name='Quote', payload_sorts=('number',))"
    assert repr(direct_send(A, B, M)) == ("ActionLabel(direction='!', sender=Role(name='A'), "
                                          "receiver=Role(name='B'), msg=" + repr(M) + ", via=None)")
    assert sorted([Role("b"), Role("B"), Role("a")]) == [Role("B"), Role("a"), Role("b")]
    assert MsgLabel("m") < MsgLabel("m", ("int",)) < MsgLabel("n")
    assert Role.__match_args__ == ("name",)


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
        _same(duplicate(atom), atom)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickles_round_trip(protocol):
    for atom in _atoms():
        _same(pickle.loads(pickle.dumps(atom, protocol)), atom)


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
