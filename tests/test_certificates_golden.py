"""Projection-search outputs for fixed subgroups, byte for byte.

``golden/certificates.txt`` lists subgroups of the Basilica group, each
with the certificate (``serialize()``) or the one-line failure
(``describe()``) that ``prodense_projection_search`` gives it.  After a
deliberate change to the search, rewrite the file from its own subgroup
lines with ``PYTHONPATH=src python tests/test_certificates_golden.py``.
The pool digest hashes the same texts for the 400 subgroups of the
benchmark's ``certify`` pool, which it only reads.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from basilica import basilica, certificate, cli
from basilica.descent import (
    FailureReport,
    parse_certificate,
    prodense_projection_search,
    verify_certificate,
)
from basilica.permgrp import SubgroupHandle

GOLDEN = Path(__file__).with_name("golden") / "certificates.txt"
POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "pools.json"
HEADER = """\
# prodense_projection_search on fixed subgroups of the Basilica group.
# Each entry is a "gens:" line with the subgroup's generator words, then
# the certificate text or the one-line failure report; a blank line ends it.
"""


def subgroups(text: str) -> list[list[str]]:
    lines = text.splitlines()
    return [line.removeprefix("gens: ").split(", ") for line in lines if line.startswith("gens: ")]


def result_text(words: list[str]) -> str:
    """The search's certificate text, or its failure line, for one subgroup."""
    H = SubgroupHandle.from_words(basilica(), words)
    result = prodense_projection_search(H)
    if isinstance(result, FailureReport):
        return result.describe() + "\n"
    text = result.serialize()
    parsed = parse_certificate(text)
    assert parsed.serialize() == text
    assert verify_certificate(H, result) and verify_certificate(H, parsed)
    return text


def render(groups: list[list[str]]) -> str:
    entries = [f"gens: {', '.join(words)}\n{result_text(words)}\n" for words in groups]
    return HEADER + "".join(entries)


def test_certificates_golden():
    text = GOLDEN.read_text()
    groups = subgroups(text)
    assert len(groups) >= 40
    assert render(groups) == text


def test_certify_pool_digest():
    # every subgroup of the benchmark's certify pool, in file order; a change
    # to any certificate or failure line changes the digest
    tiers = json.loads(POOLS.read_text())["certify"]["tiers"]
    assert [len(tiers[t]) for t in ("fast", "medium", "over")] == [338, 32, 30]
    texts = [result_text(words) for t in ("fast", "medium", "over") for words in tiers[t]]
    assert sum(text.startswith("stage=") for text in texts) == 130
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "1b3c35ba77bb77fc565864d432c14948f1c04834959d4612f6f74d9245aa94e5"


def test_golden_covers_failing_stages_and_long_descents():
    text = GOLDEN.read_text()
    assert "\nstage=1 " in text and "\nstage=4 " in text
    assert "gens: aBB, AAB, a\n" in text and "gens: AAB, Ab, aa\n" in text


def _edit_line(key, edit):
    def tamper(text):
        return re.sub(rf"(?m)^({key}: )(.*)$", lambda m: m[1] + edit(m[2]), text, count=1)

    return tamper


# one edit per certificate: the last vertex digit flipped, a digit outside
# the alphabet appended to the vertex, the case of the first expr-a token
# swapped, the case of the first subgroup word's first letter swapped; with
# the exit codes `verify` gives each golden certificate so edited (0 valid,
# 5 INVALID, 2 malformed)
TAMPERS = {
    "none": (lambda text: text, "0" * 32),
    "vertex": (_edit_line("vertex", lambda v: v[:-1] + "10"[int(v[-1])]), "5" * 32),
    "digit": (_edit_line("vertex", lambda v: v + "2"), "2" * 32),
    "token": (
        _edit_line("expr-a", lambda e: e[0].swapcase() + e[1:]),
        "55555555555555055555550050550005",
    ),
    "subgroup": (
        _edit_line("subgroup", lambda w: w[0].swapcase() + w[1:]),
        "55505555555555555555555555555555",
    ),
}


def _verdict(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # the exception's type is the verdict
        return type(exc)


@pytest.mark.parametrize("name", TAMPERS)
def test_golden_certificates_replay_alike(name, tmp_path, capsys):
    # descent.verify_certificate and certificate.replay are one replay: they
    # agree on every golden certificate and every edit of it, and `verify`
    # exits as before
    B = basilica()
    tamper, expected = TAMPERS[name]
    blocks = [b.partition("\n") for b in GOLDEN.read_text().split("\n\n")]
    texts = [(gens, text) for gens, _, text in blocks if text.startswith("basilica-certificate: ")]
    assert len(texts) == len(expected)
    path = tmp_path / "cert.txt"
    codes = []
    for gens, text in texts:
        edited = tamper(text)
        assert name == "none" or edited != text
        path.write_text(edited)
        codes.append(str(cli.main(["verify", "--cert", str(path)])))
        capsys.readouterr()
        cert = parse_certificate(edited)
        H = SubgroupHandle.from_words(B, gens.removeprefix("gens: ").split(", "))
        words = [g.word for g in H.generators]
        assert _verdict(verify_certificate, H, cert) == _verdict(certificate.replay, B, words, cert)
    assert "".join(codes) == expected


if __name__ == "__main__":
    GOLDEN.write_text(render(subgroups(GOLDEN.read_text())))
