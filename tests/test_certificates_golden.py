"""Projection-search outputs for fixed subgroups, byte for byte.

``golden/certificates.txt`` lists subgroups of the Basilica group, each
with the certificate (``serialize()``) or the one-line failure
(``describe()``) that ``prodense_projection_search`` gives it.  After a
deliberate change to the search, rewrite the file from its own subgroup
lines with ``PYTHONPATH=src python tests/test_certificates_golden.py``.
"""

from pathlib import Path

from basilica import basilica
from basilica.descent import (
    FailureReport,
    parse_certificate,
    prodense_projection_search,
    verify_certificate,
)
from basilica.permgrp import SubgroupHandle

GOLDEN = Path(__file__).with_name("golden") / "certificates.txt"
HEADER = """\
# prodense_projection_search on fixed subgroups of the Basilica group.
# Each entry is a "gens:" line with the subgroup's generator words, then
# the certificate text or the one-line failure report; a blank line ends it.
"""


def subgroups(text: str) -> list[list[str]]:
    lines = text.splitlines()
    return [line.removeprefix("gens: ").split(", ") for line in lines if line.startswith("gens: ")]


def render(groups: list[list[str]]) -> str:
    entries = []
    for words in groups:
        H = SubgroupHandle.from_words(basilica(), words)
        result = prodense_projection_search(H)
        if isinstance(result, FailureReport):
            text = result.describe() + "\n"
        else:
            text = result.serialize()
            parsed = parse_certificate(text)
            assert parsed.serialize() == text
            assert verify_certificate(H, result) and verify_certificate(H, parsed)
        entries.append(f"gens: {', '.join(words)}\n{text}\n")
    return HEADER + "".join(entries)


def test_certificates_golden():
    text = GOLDEN.read_text()
    groups = subgroups(text)
    assert len(groups) >= 40
    assert render(groups) == text


def test_golden_covers_failing_stages_and_long_descents():
    text = GOLDEN.read_text()
    assert "\nstage=1 " in text and "\nstage=4 " in text
    assert "gens: aBB, AAB, a\n" in text and "gens: AAB, Ab, aa\n" in text


if __name__ == "__main__":
    GOLDEN.write_text(render(subgroups(GOLDEN.read_text())))
