"""Answers the benchmark checks against, computed without the library.

Words are strings over ``a A b B`` (uppercase is the inverse).  The
Basilica recursion a = (1, b), b = sigma (a, 1) is re-implemented here from
its definition, so a check never trusts the code it measures.  The tables
below come from the literature and from ROADMAP measurements made before any
rewrite.
"""

from __future__ import annotations

# |ball(r)| for r = 0..9
BALL_COUNTS = (1, 5, 17, 53, 153, 421, 1125, 2945, 7545, 18973)

# log2 |B / St(n)| for n = 1..8
FULL_LOG2_ORDER = {1: 1, 2: 3, 3: 6, 4: 12, 5: 23, 6: 45, 7: 88, 8: 174}

# per letter: does it swap the two subtrees, and its sections at 0 and 1
_SWAP = {"a": False, "A": False, "b": True, "B": True}
_SECTION = {"a": ("", "b"), "A": ("", "B"), "b": ("a", ""), "B": ("", "A")}


def reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def inverse(word: str) -> str:
    return word[::-1].swapcase()


def exponent_sums(word: str) -> tuple[int, int]:
    return (word.count("a") - word.count("A"), word.count("b") - word.count("B"))


def swaps(word: str) -> bool:
    return (word.count("b") + word.count("B")) % 2 == 1


def section(word: str, x: int) -> str:
    """The section at child x; letters act on the left, so read right to left."""
    parts = []
    for ch in reversed(word):
        parts.append(_SECTION[ch][x])
        if _SWAP[ch]:
            x = 1 - x
    return reduce("".join(reversed(parts)))


def act(word: str, vertex: str) -> str:
    out = []
    for ch in vertex:
        x = int(ch)
        image = 1 - x if swaps(word) else x
        out.append(str(image))
        word = section(word, x)
    return "".join(out)


def section_at(word: str, vertex: str) -> str:
    for ch in vertex:
        word = section(word, int(ch))
    return word


def is_trivial(word: str) -> bool:
    """Exact: a word is trivial iff no word in its section closure swaps.

    Section lengths at one vertex sum to at most the word's length, so the
    closure is finite.
    """
    word = reduce(word)
    seen = {word}
    todo = [word]
    while todo:
        w = todo.pop()
        if swaps(w):
            return False
        for x in (0, 1):
            s = section(w, x)
            if s and s not in seen:
                seen.add(s)
                todo.append(s)
    return True


def equal(u: str, v: str) -> bool:
    return is_trivial(u + inverse(v))


def lattice_contains(vectors, target: tuple[int, int]) -> bool:
    """Whether target lies in the integer span of 2-vectors (Hermite form)."""
    rows = [list(v) for v in vectors if v != (0, 0)]
    top = None  # basis row (g1, y) with g1 > 0
    for coord in (0, 1):
        while sum(1 for r in rows if r[coord]) > 1:
            rows.sort(key=lambda r: (r[coord] == 0, abs(r[coord])))
            pivot = rows[0]
            for r in rows[1:]:
                if r[coord]:
                    q = r[coord] // pivot[coord]
                    r[0] -= q * pivot[0]
                    r[1] -= q * pivot[1]
            rows = [r for r in rows if r != [0, 0]]
        lead = [r for r in rows if r[coord]]
        if coord == 0:
            top = lead[0] if lead else None
            rows = [r for r in rows if not r[0]]
    t0, t1 = target
    if top is None:
        if t0:
            return False
    else:
        if t0 % top[0]:
            return False
        t1 -= (t0 // top[0]) * top[1]
    g2 = rows[0][1] if rows else 0
    return t1 == 0 if g2 == 0 else t1 % g2 == 0
