"""The record types: what they print, compare and refuse, and what importing
the command line costs."""

import pytest

import basilica
from basilica import Perm, Portrait
from basilica.checks import CheckReport, CheckResult
from basilica.descent import (
    DescentCertificate,
    FailureReport,
    NotInLattice,
    ProdenseCertificate,
)
from basilica.norms import Ball, BallClass, ball
from basilica.permgrp import SchreierTable
from basilica.structure import HeisenbergElement

from conftest import fresh_interpreter_output


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


def _records(B):
    """Each record type as (a field name, an instance, an equal instance)."""
    a = B.generator("a")
    budgets = {"states": 100000, "schreier": 64, "depth": 16}
    makers = [
        ("depth", lambda: Portrait(1, {"": Perm([0, 1])})),
        ("norm", lambda: BallClass(a, 1)),
        ("radius", lambda: Ball(0, ())),
        ("p", lambda: HeisenbergElement(1, 2, 3)),
        ("orbit", lambda: SchreierTable(("0", "1"), {"0": (), "1": (1,)})),
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
    assert g.inverse() == HeisenbergElement(-1, -2, -5)
    assert (g * g.inverse()).is_identity()
