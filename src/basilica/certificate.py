"""The projection certificate: its text format, the hword syntax of its
expressions, and its one replay.

A certificate claims that a subgroup's projection at a vertex is the whole
Basilica group, through two expressions over the subgroup's generators (an
"hword": signed 1-based indices into the generator list) whose sections at
the vertex are a and b.  The replay decides that claim through the Basilica
recursion a = (1, b), b = sigma (a, 1), written out below over the
certificate's own text, and through nothing of ``core``'s engine: no packed
words, walk tables or proof memo.  From ``core`` this module takes the error
classes, the closure budget and the word primitives that ``evaluate_hword``
gives the search, so ``verify`` loads none of the search code; a later
certificate kind adds its header and replay here.
"""

from __future__ import annotations

from typing import Sequence

from . import ENGINE, core
from .core import (
    BudgetExceededError,
    InputError,
    Record,
    Word,
    WordParseError,
    ascii_int,
    free_reduce,
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


def _check_hword(hword: Sequence[int], count: int) -> None:
    """A letter is an int, not a bool, and names one of ``count`` generators
    or its inverse."""
    for l in hword:
        if type(l) is not int or l == 0 or abs(l) > count:
            raise InputError(f"hword letter {l} outside the generator range")


def evaluate_hword(hword: Sequence[int], generators: Sequence[Word]) -> Word:
    """The reduced word an hword denotes over reduced generator words."""
    _check_hword(hword, len(generators))
    return free_reduce(substitute_word(hword, generators))


# -- the Basilica recursion, over words as text -----------------------------

_STEP = {
    "a": ((0, ""), (1, "b")),
    "A": ((0, ""), (1, "B")),
    "b": ((1, "a"), (0, "")),
    "B": ((1, ""), (0, "A")),
}
# per letter of a = (1, b) and b = sigma (a, 1), or of their inverses A =
# (1, B) and B = sigma (1, A), and per digit x: the letter's image of x and
# its section at x.  a and A fix both digits, b and B swap them


def reduce_text(word: str) -> str:
    """Free reduction of a word over ``aAbB``: each letter cancels the one
    below it on a stack whose bottom ``""`` no letter cancels."""
    stack = [""]
    for ch in word:
        if stack[-1] == ch.swapcase():
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


def digit_section(word: str, x: int) -> tuple[int, str]:
    """The image of the digit x under a word and the word's reduced section
    at x.  Letters act on the left, so the word is read right to left: each
    letter's section at the image so far is the section's next letter from
    the right, and the letter then moves the image."""
    parts = []
    for ch in reversed(word):
        x, s = _STEP[ch][x]
        parts.append(s)
    return x, reduce_text("".join(reversed(parts)))


def text_is_trivial(word: str) -> bool:
    """Whether a reduced word is the identity: no word of its section
    closure swaps the two subtrees.  Each letter has a one-letter section at
    one digit and none at the other, so a word's two sections hold at most
    its letters and the closure is finite; past ``core.MAX_CLOSURE_LETTERS`` letters in it, read
    at call time, this raises ``BudgetExceededError``, never a verdict."""
    budget = core.MAX_CLOSURE_LETTERS
    queue, seen, letters = [word], {word}, len(word)
    for w in queue:
        image, left = digit_section(w, 0)
        if image:
            return False
        for s in (left, digit_section(w, 1)[1]):
            if s and s not in seen:
                seen.add(s)
                queue.append(s)
                letters += len(s)
        if letters > budget:
            raise BudgetExceededError(
                f"section closure exceeded {budget} letters", partial=letters
            )
    return True


def _parse_text(text: str) -> str:
    """A generator word as text; ``e`` is the empty word."""
    if text == "e":
        return ""
    for col, ch in enumerate(text, start=1):
        if ch not in _STEP:
            raise WordParseError(f"unknown letter {ch!r}", col)
    return text


def _parse_path(vertex: str) -> tuple[int, ...]:
    """The digits of a vertex; ``""`` and ``e`` are the root."""
    if vertex == "e":
        return ()
    for col, ch in enumerate(vertex, start=1):
        if ch not in "01":
            raise InputError(f"bad vertex letter {ch!r} at position {col}")
    return tuple(map(int, vertex))


def replay(generators: Sequence[str], cert: ProdenseCertificate) -> bool:
    """Check, re-deriving nothing, that the expressions over these generator
    words fix the vertex and section there to a and b, through the
    recursion above alone.  The generators must be the certificate's
    subgroup words, each reduced.  Malformed certificates raise
    ``InputError``, a section closure past its budget
    ``BudgetExceededError``; honest mismatches return False."""
    words = [_parse_text(w) for w in generators]
    for expr in (cert.expr_a, cert.expr_b):
        _check_hword(expr, len(words))
    path = _parse_path(cert.vertex)
    if tuple(cert.subgroup) != tuple(generators) or list(map(reduce_text, words)) != words:
        return False
    images = {}
    for i, w in enumerate(words, start=1):
        images[i], images[-i] = w, w[::-1].swapcase()
    for expr, name in zip((cert.expr_a, cert.expr_b), "ab"):
        word = reduce_text("".join(map(images.__getitem__, expr)))
        for digit in path:
            image, word = digit_section(word, digit)
            if image != digit:
                return False
        if not text_is_trivial(reduce_text(word + name.upper())):
            return False
    return True
