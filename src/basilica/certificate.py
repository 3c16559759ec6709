"""The projection certificate: its text format, the hword syntax of its
expressions, and its one replay.

A certificate claims that a subgroup's projection at a vertex is the whole
Basilica group, through two expressions over the subgroup's generators (an
"hword": signed 1-based indices into the generator list) whose sections at
the vertex are a and b.  This module imports only ``core``, so ``verify``
trusts the recursion engine and this file alone, and loads none of the
search code; a later certificate kind adds its header and replay here.
"""

from __future__ import annotations

from typing import Sequence

from . import ENGINE
from .core import (
    Element,
    GeneratorSystem,
    InputError,
    Record,
    Word,
    ascii_int,
    free_reduce,
    require_basilica,
    substitute_word,
    vertex_str,
)

DEFAULT_STATES = 100_000
# distinct section words one descent may visit
DEFAULT_SCHREIER_CAP = 64
# Schreier generators a vertex stabilizer keeps
DEFAULT_DEPTH = 16
# deepest vertex a projection search may use; a certificate records all
# three budgets it ran with (``budget-states``, ``budget-schreier``,
# ``budget-depth``)

HWord = tuple[int, ...]
# a word over a subgroup's generator list; letter +(i+1) is generator i,
# -(i+1) its inverse


def hword_str(hword: Sequence[int]) -> str:
    """Tokens like ``g0 g1 G0`` (uppercase marks the inverse)."""
    if not hword:
        return "e"
    return " ".join(f"g{l - 1}" if l > 0 else f"G{-l - 1}" for l in hword)


def hword_parse(text: str, num_generators: int) -> HWord:
    if text.strip() == "e":
        return ()
    letters = []
    for tok in text.split():
        idx = ascii_int(tok[1:])
        if tok[0] not in "gG" or idx is None:
            raise InputError(f"bad generator token {tok!r}")
        if idx >= num_generators:
            raise InputError(f"token {tok!r} names a generator outside the subgroup")
        letters.append(idx + 1 if tok[0] == "g" else -(idx + 1))
    return tuple(letters)


_BUDGET_KEYS = ("states", "schreier", "depth")
# the certificate lines before the stage lines, in order
_FIELDS = (
    "basilica-certificate",
    "engine",
    "subgroup",
    "vertex",
    "expr-a",
    "expr-b",
    *(f"budget-{key}" for key in _BUDGET_KEYS),
)


class ProdenseCertificate(Record):
    """Checkable witness that the subgroup's projection at ``vertex`` is the
    whole group: two expressions over the original subgroup generators whose
    sections at the vertex are a and b."""

    subgroup: tuple[str, ...]
    stages: tuple[str, ...]
    vertex: str
    expr_a: HWord
    expr_b: HWord
    budgets: dict
    engine: str = ENGINE

    def serialize(self) -> str:
        values = (
            1,
            self.engine,
            ", ".join(self.subgroup),
            vertex_str(self.vertex),
            hword_str(self.expr_a),
            hword_str(self.expr_b),
            *(self.budgets[key] for key in _BUDGET_KEYS),
        )
        lines = [f"{field}: {value}" for field, value in zip(_FIELDS, values)]
        lines.extend(f"stage{i + 1}: {s}" for i, s in enumerate(self.stages))
        return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> ProdenseCertificate:
    """Unknown keys are ignored; a key or stage label stated twice, like a
    missing field, raises ``InputError``."""
    fields: dict[str, str] = {}
    stages: dict[int, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise InputError(f"bad certificate line: {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        table, name = (stages, ascii_int(key[5:])) if key.startswith("stage") else (fields, key)
        if name is None:
            raise InputError(f"bad stage label {key!r}")
        if name in table:
            raise InputError(f"certificate states {key!r} twice")
        table[name] = value
    missing = set(_FIELDS) - set(fields)
    if missing:
        raise InputError(f"certificate misses fields: {sorted(missing)}")
    if fields["basilica-certificate"] != "1":
        raise InputError("unsupported certificate version")
    subgroup = tuple(w.strip() for w in fields["subgroup"].split(",") if w.strip())
    ngens = len(subgroup)
    budgets = {key: ascii_int(fields[f"budget-{key}"]) for key in _BUDGET_KEYS}
    if None in budgets.values():
        raise InputError("bad budget value")
    return ProdenseCertificate(
        subgroup=subgroup,
        stages=tuple(stages[label] for label in sorted(stages)),
        vertex=fields["vertex"],
        expr_a=hword_parse(fields["expr-a"], ngens),
        expr_b=hword_parse(fields["expr-b"], ngens),
        budgets=budgets,
        engine=fields["engine"],
    )


def evaluate_hword(hword: Sequence[int], generators: Sequence[Word]) -> Word:
    """The reduced word an hword denotes over reduced generator words."""
    for l in hword:
        if l == 0 or l is True or abs(l) > len(generators):
            raise InputError(f"hword letter {l} outside the generator range")
    return free_reduce(substitute_word(hword, generators))


def replay(system: GeneratorSystem, generators: Sequence[Word], cert: ProdenseCertificate) -> bool:
    """Check, re-deriving nothing, that the expressions over these reduced
    generator words fix the vertex and section there to a and b.  Malformed
    certificates raise InputError; honest mismatches return False."""
    require_basilica(system)
    words = [evaluate_hword(expr, generators) for expr in (cert.expr_a, cert.expr_b)]
    path = system.parse_vertex(cert.vertex)
    if tuple(cert.subgroup) != tuple(map(system.word_str, generators)):
        return False
    for word, name in zip(words, "ab"):
        section = Element._reduced(system, word).projection(path)
        if section is None or section != system.generator(name):
            return False
    return True
