import pytest

from basilica import InputError, checks
from basilica.checks import run_checks
from basilica.core import ConsistencyError


def test_fast_suites_pass():
    report = run_checks(only=["psi1", "relators", "commutators", "quotients", "persist"])
    assert report.all_passed()
    assert report.failed == 0


def test_report_ids_unique_and_deterministic():
    one = run_checks(only=["psi1", "commutators"])
    two = run_checks(only=["psi1", "commutators"])
    assert one == two
    ids = [r.check_id for r in one.results]
    assert len(ids) == len(set(ids))


def test_report_render():
    report = run_checks(only=["psi1"])
    text = report.render()
    assert text.startswith("engine: basilica")
    assert "[PASS] psi1-01" in text
    assert text.rstrip().endswith("passed, 0 failed")


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_checks(only=["nonsense"])


def test_repeated_or_empty_selection_rejected():
    with pytest.raises(InputError, match="suite 'psi1' selected more than once"):
        run_checks(only=["psi1", "relators", "psi1"])
    with pytest.raises(InputError, match="no suite selected"):
        run_checks(only=[])


def test_seed_recorded():
    report = run_checks(only=["psi1"], seed=7)
    assert report.seed == 7


def test_descent_suite_surfaces_engine_errors(monkeypatch):
    # only an exhausted budget counts as a search failure; an engine fault
    # must not be reported as one
    def broken(g, max_states=100_000):
        raise ConsistencyError("broken descent")

    monkeypatch.setattr(checks, "find_ab", broken)
    with pytest.raises(ConsistencyError):
        run_checks(only=["descent"])


def test_duplicate_check_ids_are_an_engine_fault(monkeypatch):
    monkeypatch.setitem(checks.SUITES, "psi1-again", checks.SUITES["psi1"])
    with pytest.raises(ConsistencyError, match="duplicate check ids"):
        run_checks(only=["psi1", "psi1-again"])
