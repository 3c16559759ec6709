"""The record types: what they print, compare and refuse, and what importing
the command line costs."""

import copy
import pickle

import pytest

import basilica
from basilica import InputError, Perm, Portrait, parse_system
from basilica.checks import CheckReport, CheckResult
from basilica.descent import (
    DescentCertificate,
    FailureReport,
    NotInLattice,
    ProdenseCertificate,
)
from basilica.norms import Ball, ball
from basilica.permgrp import SchreierTable
from basilica.structure import LIFT_SUBSTITUTION, HeisenbergElement, tau

from conftest import BASILICA_TEXT, fresh_interpreter_output

RECORD_TYPES = (
    Portrait,
    Ball,
    HeisenbergElement,
    SchreierTable,
    DescentCertificate,
    NotInLattice,
    ProdenseCertificate,
    FailureReport,
    CheckResult,
    CheckReport,
)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call and every cold certify worker pays for the modules
    # imported here; dataclasses (and inspect, which it imports) cost more
    # than the search behind a typical prodense call
    probe = "import sys, basilica.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert fresh_interpreter_output(probe) == "[]\n"


def test_import_basilica_loads_no_module_but_core():
    # the benchmark's setup_s times a cold `import basilica` on every
    # workload; an eager import in __init__ would add its compile time
    # there, and `string` cost about a millisecond for two constant strings
    probe = """
import sys
before = set(sys.modules)
import basilica
new = set(sys.modules) - before
print(sorted(m for m in new if m.startswith('basilica.')), 'string' in new)
"""
    assert fresh_interpreter_output(probe) == "['basilica.core'] False\n"


def test_cli_import_compiles_only_package_sources():
    # record classes are built without generating source: with a compiled
    # annotation or class template per record, a cold import of the
    # command line raised dozens of compile events for "<string>"
    probe = """
import os, sys
names = []
sys.addaudithook(lambda event, args: event == 'compile' and names.append(str(args[1])))
import basilica.cli
package = os.path.dirname(basilica.__file__) + os.sep
print([name for name in names if not name.startswith(package)])
"""
    assert fresh_interpreter_output(probe) == "[]\n"


def _records(B):
    """Each record type as (a field or property name, an instance, an equal
    instance)."""
    a = B.generator("a")
    budgets = {"states": 100000, "schreier": 64, "depth": 16}
    makers = [
        ("depth", lambda: Portrait(1, {"": Perm([0, 1])})),
        ("radius", lambda: Ball(0, ())),
        ("p", lambda: HeisenbergElement(1, 2, 3)),
        ("transversal", lambda: SchreierTable({"0": (), "1": (1,)})),
        ("steps", lambda: DescentCertificate(a, (0, 1), a)),
        ("basis", lambda: NotInLattice(((2, 0), (0, 2)))),
        ("vertex", lambda: ProdenseCertificate(("a", "b"), ("s",), "01", (1,), (2,), budgets)),
        ("stage", lambda: FailureReport(1, "no", ((1, 0),), budgets)),
        ("status", lambda: CheckResult("x-01", "claim", "pass")),
        ("seed", lambda: CheckReport((CheckResult("x-01", "claim", "pass"),), 0)),
    ]
    return [(field, make(), make()) for field, make in makers]


def test_records_compare_by_value_and_refuse_assignment(B):
    for field, first, second in _records(B):
        assert first == second and not first != second
        with pytest.raises(AttributeError):
            setattr(first, field, None)
        with pytest.raises(AttributeError):
            first.extra = 1
    assert HeisenbergElement(1, 2, 3) != HeisenbergElement(1, 2, 4)
    assert FailureReport(1, "no", None, {}) != FailureReport(2, "no", None, {})
    assert CheckResult("x", "c", "pass") != CheckResult("x", "c", "fail")


def test_record_repr_and_defaults():
    assert repr(HeisenbergElement(1, -2, 3)) == "HeisenbergElement(p=1, q=-2, r=3)"
    assert str(HeisenbergElement(1, -2, 3)) == "a^1 b^-2 c^3"
    report = FailureReport(4, "target (1,1) not in the exponent lattice", ((1, 1),), {"depth": 16})
    assert repr(report) == (
        "FailureReport(stage=4, reason='target (1,1) not in the exponent lattice', "
        "lattice=((1, 1),), budgets={'depth': 16}, trace=())"
    )
    assert repr(NotInLattice(())) == "NotInLattice(basis=())"
    assert repr(CheckResult("x-01", "claim", "pass")) == (
        "CheckResult(check_id='x-01', claim='claim', status='pass', detail='')"
    )
    assert CheckReport((), 7).engine == basilica.ENGINE
    assert ProdenseCertificate((), (), "", (), (), {}).engine == basilica.ENGINE


def test_ball_len_and_truth(B):
    assert len(Ball(0, ())) == 0 and not Ball(0, ())
    sphere = ball(B, 1)
    assert len(sphere) == 5 and sphere
    assert len(sphere) == len(sphere.classes)


def test_heisenberg_arithmetic():
    g = HeisenbergElement(1, 2, 3)
    h = HeisenbergElement(-1, 1, 0)
    assert g * h == HeisenbergElement(0, 3, 5)
    assert g * g * g == HeisenbergElement(3, 6, 3)
    g_inv = HeisenbergElement(-1, -2, -5)
    assert (g * g_inv).is_identity() and (g_inv * g).is_identity()


def test_record_fields_follow_declaration_order():
    assert FailureReport._fields == ("stage", "reason", "lattice", "budgets", "trace")
    assert CheckResult._fields == ("check_id", "claim", "status", "detail")
    assert HeisenbergElement._fields == ("p", "q", "r")
    assert Portrait._fields == ("depth", "labels")


def test_record_defaults_and_keywords():
    assert CheckResult("x", "c", "pass") == CheckResult("x", "c", "pass", "")
    assert CheckResult(status="fail", claim="c", check_id="x").status == "fail"
    assert CheckResult("x", "c", "fail", detail="why").detail == "why"
    assert FailureReport(1, "no", None, budgets={}).trace == ()
    assert CheckReport((), 0, engine="other").engine == "other"


@pytest.mark.parametrize(
    "make",
    [
        lambda: HeisenbergElement(1, 2),
        lambda: HeisenbergElement(1, 2, 3, 4),
        lambda: HeisenbergElement(1, 2, 3, s=4),
        lambda: HeisenbergElement(1, 2, p=3),
        lambda: CheckResult("x", "c"),
        lambda: CheckResult("x", "c", "pass", "d", detail="d"),
        lambda: FailureReport(stage=1, reason="no", lattice=None),
    ],
)
def test_record_refuses_a_wrong_field_set(make):
    with pytest.raises(TypeError):
        make()


def test_record_make_and_tuple_behaviour():
    values = (1, -2, 3)
    g = HeisenbergElement._make(values)
    assert type(g) is HeisenbergElement and g == HeisenbergElement(*values)
    assert HeisenbergElement._make(iter(values)) == g
    assert g == values and hash(g) == hash(values)
    assert g[0] == g.p == 1 and g[-1] == g.r == 3 and g[1:] == (-2, 3)
    assert list(g) == [1, -2, 3] and tuple(g) == values
    p, q, r = g
    assert (p, q, r) == values
    result = CheckResult("x", "c", "pass")
    assert len(result) == 4 and result[3] == "" and result.passed


def test_every_record_type_survives_pickle_and_copy(B):
    assert {type(record) for _, record, _ in _records(B)} == set(RECORD_TYPES)
    for record_type in RECORD_TYPES:
        record = record_type(*range(len(record_type._fields)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(record, protocol))
            assert type(clone) is record_type and clone == record
        assert copy.copy(record) == record and copy.deepcopy(record) == record
    for _, record, _ in _records(B):
        clone = copy.copy(record)
        assert type(clone) is type(record) and clone == record


def test_elements_survive_pickle_and_copy():
    # a system whose walk tables, memos and ball registry are built
    system = parse_system(BASILICA_TEXT)
    ball(system, 3)
    assert system.word_is_trivial(tau(31).substitute(LIFT_SUBSTITUTION).word)
    a, b = system.generators()
    for value in (a * b, DescentCertificate(a, (0, 1), b * b)):
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        clones = [pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols]
        clones += [copy.copy(value), copy.deepcopy(value)]
        for clone in clones:
            assert type(clone) is type(value) and clone == value
    clone = pickle.loads(pickle.dumps(a * b))
    assert clone.system == system and clone.word == (1, 2)
    assert clone * b.inverse() == a and not (clone == b)


def test_systems_pickle_and_copy_as_their_definition():
    # the clone is rebuilt from the generator data, so neither the memo nor
    # the ball registry travel with an element
    system = parse_system(BASILICA_TEXT)
    ball(system, 8)
    a = system.generator("a")
    data = pickle.dumps(a)
    assert len(data) < 1024
    for clone in (pickle.loads(data), copy.deepcopy(a), copy.copy(a)):
        assert clone == a and clone.word == a.word
    for rebuilt in (pickle.loads(data).system, copy.deepcopy(system), copy.copy(system)):
        assert rebuilt == system and rebuilt is not system
        assert rebuilt._trivial_cache == {()}
        assert rebuilt._walks == {} and rebuilt._ball_registry is None
        with pytest.raises(InputError):
            rebuilt.generator("A")
    with pytest.raises(InputError):
        system.generator("A")
