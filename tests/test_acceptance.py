"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer/word identities decided by the engine); the
asserted wall-clock budgets are the stated criterion limits.
"""

import itertools
import time

from basilica import basilica
from basilica.checks import (
    _Collector,
    check_commutators,
    check_descent,
    check_lengths,
    check_lifts,
    check_psi1,
    check_quotients,
    check_relators,
)
from basilica.core import ElementIndex
from basilica.descent import (
    FailureReport,
    ProdenseCertificate,
    prodense_projection_search,
    verify_certificate,
)
from basilica.permgrp import (
    SubgroupHandle,
    group_order,
    level_perms,
    orbit,
    stabilizer_generator_pairs,
)

import random


def report(capsys, name, limit, started, failures):
    elapsed = time.time() - started
    status = "PASS" if not failures else f"FAIL ({failures})"
    with capsys.disabled():
        print(f"acceptance {name}: {status} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert not failures, failures
    assert elapsed < limit, f"{name} exceeded its {limit}s budget: {elapsed:.1f}s"


def run_suite(fn, *args):
    collector = _Collector()
    fn(collector, *args)
    return [f"{r.check_id}: {r.detail}" for r in collector.results if not r.passed]


def test_c01_psi1_identity_suite(capsys):
    t0 = time.time()
    failures = run_suite(check_psi1)
    report(capsys, "1 section-identity suite", 5, t0, failures)


def test_c02_relator_suite(capsys):
    t0 = time.time()
    failures = run_suite(check_relators, random.Random(0))
    report(capsys, "2 relator suite", 60, t0, failures)


def test_c03_free_positive_semigroup(capsys):
    t0 = time.time()
    B = basilica()
    words = []
    for n in range(1, 11):
        for bits in itertools.product((1, 2), repeat=n):
            words.append(bits)
    assert len(words) == 2**11 - 2
    index = ElementIndex(B)
    failures = []
    for w in words:
        idx, new = index.find_or_insert(w)
        if not new:
            failures.append(f"{B.word_str(w)} equals {B.word_str(index.words[idx])}")
    report(capsys, "3 free positive semigroup", 120, t0, failures)


def test_c04_commutator_identities(capsys):
    t0 = time.time()
    failures = run_suite(check_commutators)
    report(capsys, "4 commutator identities", 60, t0, failures)


def test_c05_quotient_maps(capsys):
    t0 = time.time()
    failures = run_suite(check_quotients, random.Random(0))
    report(capsys, "5 quotient maps", 30, t0, failures)


def test_c06_length_lemma_sweep(capsys):
    t0 = time.time()
    failures = run_suite(check_lengths)
    report(capsys, "6 length lemmas over ball(8)", 600, t0, failures)


def test_c07_descent_totality(capsys):
    t0 = time.time()
    failures = run_suite(check_descent)
    report(capsys, "7 descent totality over ball(7)", 600, t0, failures)


def test_c08_end_to_end_projection(capsys):
    t0 = time.time()
    B = basilica()
    failures = []
    H = SubgroupHandle(B, list(B.generators()))
    cert = prodense_projection_search(H)
    if not isinstance(cert, ProdenseCertificate):
        failures.append(f"search on the full group failed: {cert}")
    else:
        if len(cert.vertex) > 8:
            failures.append(f"certificate vertex too deep: {cert.vertex}")
        if not verify_certificate(H, cert):
            failures.append("certificate failed replay")
    res = prodense_projection_search(SubgroupHandle(B, [B.element("ab")]))
    if not isinstance(res, FailureReport) or res.stage != 4:
        failures.append(f"<ab> did not fail at stage 4: {res}")
    elif res.lattice != ((1, 1),):
        failures.append(f"<ab> lattice wrong: {res.lattice}")
    report(capsys, "8 end-to-end projection search", 300, t0, failures)


def test_c09_permutation_machinery(capsys):
    t0 = time.time()
    B = basilica()
    failures = []
    level2 = level_perms(B, list(B.generators()), 2)
    closure = {p.images for p in level2}
    frontier = list(closure)
    while frontier:
        new = []
        for p in frontier:
            for q in level2:
                r = tuple(p[y] for y in q.images)
                if r not in closure:
                    closure.add(r)
                    new.append(r)
        frontier = new
    if group_order(level2) != len(closure):
        failures.append(
            f"level-2 order {group_order(level2)} != closure {len(closure)}"
        )
    battery = [
        SubgroupHandle(B, list(B.generators())),
        SubgroupHandle(B, [B.generator("b")]),
        SubgroupHandle.from_words(B, ["ab", "bb"]),
        SubgroupHandle.from_words(B, ["ba", "aB"]),
    ]
    for H in battery:
        for vertex in ("0", "1", "01", "110"):
            n = len(vertex) + 2
            stab = [s for s, _ in stabilizer_generator_pairs(H, vertex)]
            for s in stab:
                if s.act(vertex) != vertex:
                    failures.append(f"schreier generator moves {vertex}")
            left = group_order(level_perms(B, stab, n)) * len(orbit(H, vertex).orbit)
            right = group_order(level_perms(B, H.generators, n))
            if left != right:
                failures.append(
                    f"orbit-stabilizer mismatch for {H.words()} at {vertex}: "
                    f"{left} != {right}"
                )
    report(capsys, "9 permutation machinery", 30, t0, failures)


def test_c10_rigid_stabilizer_lifts(capsys):
    t0 = time.time()
    failures = run_suite(check_lifts, random.Random(0))
    report(capsys, "10 rigid-stabilizer lifts", 60, t0, failures)
