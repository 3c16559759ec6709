"""Wreath-recursion engine for automorphism groups of regular rooted trees.

A generator system declares, for each generator, a permutation of the
d-letter alphabet (its action on the first letter of vertex words) and one
section word per letter (the automorphism induced on the subtree below that
letter).  Group elements are freely reduced words over the generators; all
arithmetic is exact integer/word computation.

Conventions, fixed once and validated by the test suite:

* left action: (gh) . v = g . (h . v);
* composition of sections: (gh)_x = g_{sigma_h(x)} h_x and
  sigma_{gh} = sigma_g o sigma_h, hence (g^-1)_x = (g_{sigma_g^-1(x)})^-1;
* section tuples are ordered with coordinate 0 leftmost (lexicographic
  vertex order);
* surface syntax: a lowercase generator name inverts to its uppercase, `e`
  denotes the empty word, and vertices (for at most 10 letters) are strings
  of one digit per level, the root empty and printed and read as `e`.

Triviality of an element is decided by closing its word under taking
sections: the element is the identity iff every word in the closure acts
trivially on the levels it is walked over.  For recursions whose section
lengths per letter sum to at most one (the built-in Basilica system is of
this kind) the closure only ever contains words no longer than the input,
so the procedure terminates; a closure-size guard protects against
pathological custom systems.

Words enter and leave the engine as bytes: ``parse_word`` translates the
text's ASCII bytes to one signed byte per letter with one 256-byte table and
unpacks them into the word's tuple, and ``word_str`` packs and translates
back with the inverse table.  The packing is ``_word_bytes``, which also
keys ``ElementIndex``'s word dict.  Products and powers of reduced words are
``product_word`` and ``power_word``, which cancel only where the words
meet; ``free_reduce`` is for letters that arrive unreduced.

The action and sections of a word on level k come from one pass over its
letters, right to left (``_walk_level``), one table step per letter: the
step of a letter from the action read so far, read from a list indexed by
the signed letter, pushes the letter's section letters onto per-vertex
stacks and leads to the next action's steps; when every letter pushes one
letter, as on the Basilica group, a step is one stack operation.  The
triviality closure walks a word one level, or ``_jump`` levels at once
when it is longer than ``MEMO_LETTERS``; such an input is first folded
through the graph of the level-``_jump`` actions, and one that acts
nontrivially there is rejected before any walk.  The breadth-first search
that builds the graph also closes that level's walk tables, under their
bound, so a long word walks on the steps the fold's graph was built
with.  ``word_at``, the walk down a vertex path behind
``Element.projection``, which the descent witnesses' replays check,
follows one vertex instead: per chunk of up to key-level levels of the
path, one pass whose state is a single point, and one reduction stack.
Both walks build their steps from per-level point tables of each letter's
action and sections, built once per system up to ``_chunk`` levels, each
level's from the level below.  ``word_level_perm`` (up to level 16) and
the index keys fold the action alone, since section tables grow as s^k when
a letter's sections hold s letters: up to the key level, one kept 256-byte
table per letter with ``bytes.translate``, and deeper, tables built per call.

No walk is kept per word: a section read walks the word again.  The one
per-word memo is of words proven trivial (no nontrivial verdict) of at most
``MEMO_LETTERS`` letters: in a contracting group such as Basilica sections
shrink (two levels down to about half the word), so a long input word
seldom comes back as the section of another, while short words recur
across calls.  A closure word that short is looked up, memoised on a
trivial verdict and walked one level; a longer one walks ``_jump`` levels
and is never looked up.

Element identity is decided in one place, ``ElementIndex``: by a registered
word's bytes, or by level-action buckets confirmed with the word problem.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import chain, islice
from struct import Struct, error as StructError
from typing import Iterable, Iterator, Mapping, Sequence


class InputError(ValueError):
    """Raised for malformed inputs: bad letters, vertices, mixed systems."""


class WordParseError(InputError):
    """Raised when a surface-syntax word fails to parse; knows its column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""


class ConsistencyError(RuntimeError):
    """Raised when an internal invariant breaks; signals an engine bug."""


class BudgetExceededError(RuntimeError):
    """Raised when a search or closure exceeds its configured budget."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class _RecordType(type):
    """Turns a record class's annotated names into its fields, in declaration
    order.  The annotations stay the strings the compiler wrote, so nothing
    is evaluated; a class-level value is the field's default.  Each field
    reads its tuple slot, and ``__slots__ = ()`` keeps instances free of a
    ``__dict__``.  Nothing is compiled per class."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["_fields"] = fields
        namespace["_field_defaults"] = {f: namespace[f] for f in fields if f in namespace}
        for i, field in enumerate(fields):
            namespace[field] = property(operator.itemgetter(i))
        namespace.setdefault("__slots__", ())
        return super().__new__(mcls, name, bases, namespace)


class Record(tuple, metaclass=_RecordType):
    """Immutable record base: a tuple with named fields, declared as

        class Point(Record):
            x: int
            y: int = 0

    Records are tuples, so they compare, hash, index and iterate as the tuple
    of their fields; they print as ``Point(x=1, y=0)`` and pickle by value,
    as ``typing.NamedTuple`` records do, but building a record class compiles
    no source.
    """

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if len(args) == len(fields) and not kwargs:
            return tuple.__new__(cls, args)
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{cls.__name__} has no field {field!r}")
            if field in values:
                raise TypeError(f"{cls.__name__} got field {field!r} twice")
        values.update(kwargs)
        defaults = cls._field_defaults
        missing = [f for f in fields if f not in values and f not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__} misses fields {missing}")
        return tuple.__new__(cls, [values[f] if f in values else defaults[f] for f in fields])

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"


Word = tuple[int, ...]
# A letter is a signed 1-based generator index: +(i+1) for generator i,
# -(i+1) for its inverse.  A word is a tuple of letters, kept freely reduced.


MAX_CLOSURE_LETTERS = 2_000_000
# letters one triviality decision may hold in its section closure (a jumping
# closure counts the deeper sections it queues), and one rigid-stabilizer
# lift (``structure.lift_section``) may build; the largest closure seen in
# real use has about 3000, while a length-expanding system doubles its words
# at every step, and a lift doubles every two levels

MEMO_LETTERS = 64
# longest word the memo of words proven trivial keeps: a closure word of at
# most this many letters is looked up, memoised on a trivial verdict and
# walked one level; a longer one walks ``_jump`` levels, never looked up.
# On a battery of 3200 decisions on 50..2000-letter words an unbounded memo
# answers 2534 closure lookups and holds 1994 words in 3.5 MB; with this
# bound it answers 2528 and holds 605 words in 0.2 MB

MAX_LEVEL_POINTS = 1 << 16
# vertices one level may have: of a level permutation, a portrait or an orbit
# search, which stops at a deeper vertex before it searches (level 16 of the
# binary tree); it bounds memory, not time: Basilica's abAAb on level 16
# allocates about 23 MB at its peak, doubling per level

_BYTE_IDENTITY = bytes(range(256))


def ascii_int(text: str) -> int | None:
    """The value of a decimal of ASCII digits only, else None; ``int()``
    alone also takes other scripts' digits, signs, ``_`` and spaces."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def free_reduce(letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence; idempotent."""
    word = tuple(letters)
    # adjacent letters cancel exactly when they sum to zero
    if 0 not in map(operator.add, word, word[1:]):
        return word
    out: list[int] = []
    for l in word:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


@lru_cache(maxsize=256)
def _word_struct(letters: int) -> Struct:
    # one per word length packed or unpacked, about 180 bytes each; a miss
    # builds one in about 0.5 us
    return Struct(f"{letters}b")


def _word_bytes(word: Word) -> bytes:
    """A word as one signed byte per letter, its key in ``ElementIndex``'s
    word dict.  Tuples of letters hash badly as keys: ``hash(-1) ==
    hash(-2)``, so words that differ only in which inverse letters they
    hold collide (512 of the Basilica ``ball(9)`` words share one hash)."""
    return _word_struct(len(word)).pack(*word)


def product_word(u: Word, v: Word) -> Word:
    """Reduced product of two reduced words; only the junction can cancel."""
    k = 0
    n = min(len(u), len(v))
    while k < n and u[-1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


def power_word(word: Word, n: int) -> Word:
    """Reduced n-th power of a reduced word w = u c u^-1, c cyclically
    reduced: u c^n u^-1 cancels nowhere.  A negative n inverts w first."""
    if n < 0:
        word, n = invert_word(word), -n
    if not n:
        return ()
    k, end = 0, len(word)
    while k < end - 1 - k and word[k] == -word[end - 1 - k]:
        k += 1
    return word[:k] + word[k : end - k] * n + word[end - k :]


def invert_word(word: Sequence[int]) -> Word:
    """Inverse word: reversed letters with flipped signs."""
    return tuple(map(operator.neg, reversed(word)))


def exponent_sums(word: Sequence[int], generators: int) -> tuple[int, ...]:
    """Exponent sum of each of the generators 1..``generators`` in ``word``,
    counted in its ``_word_bytes``, where -i is the byte 256 - i."""
    packed = _word_bytes(word)
    return tuple(packed.count(i) - packed.count(256 - i) for i in range(1, generators + 1))


def compose_images(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Image tuple of the permutation p o q: x goes to p[q[x]]."""
    return tuple(map(p.__getitem__, q))


def invert_images(p: Sequence[int]) -> tuple[int, ...]:
    """Image tuple of the inverse permutation.  Its entries are ``p``'s own
    int objects: past 256 points, where CPython caches no ints, an
    ``enumerate`` counter would add a 28-byte int per entry."""
    points = [0] * len(p)
    for y in p:
        points[y] = y
    out = [0] * len(p)
    for x, y in zip(points, p):
        out[y] = x
    return tuple(out)


def substitute_word(word: Sequence[int], images: Sequence[Sequence[int]]) -> Iterator[int]:
    """Letters of ``word`` with +(i+1) replaced by ``images[i]`` and -(i+1) by
    its inverse; not reduced, so the caller reduces once."""
    table = {}
    for i, image in enumerate(images, 1):
        table[i] = image
        table[-i] = invert_word(image)
    return chain.from_iterable(map(table.__getitem__, word))


class Perm:
    """An immutable permutation of {0..n-1} composing as a left action."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        # a point is an int: neither a bool nor a float equal to one is
        if any(type(x) is not int for x in images) or sorted(images) != list(range(len(images))):
            raise InputError(f"not a permutation: {images!r}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _computed(cls, images: tuple[int, ...]) -> "Perm":
        """Perm of an image tuple the engine computed (a level action), so it
        is not sorted and checked again."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    def __delattr__(self, name):
        raise AttributeError("Perm is immutable")

    def __reduce__(self):
        # pickle and copy would restore the slot with setattr
        return Perm, (self.images,)

    def is_identity(self) -> bool:
        return all(x == y for x, y in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen: set[int] = set()
        out = []
        for x in range(len(self.images)):
            if x in seen or self.images[x] == x:
                continue
            cyc = [x]
            y = self.images[x]
            while y != x:
                seen.add(y)
                cyc.append(y)
                y = self.images[y]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


_NAME_ALPHABET = set("abcdefghijklmnopqrstuvwxyz") - {"e"}  # `e` is the empty word

_ROOT_VERTEX = "e"  # how commands print the root; parse_vertex reads it back


def vertex_word(path: Iterable[int]) -> str:
    """The canonical string of a vertex path: its digits, empty for the root."""
    return "".join(map(str, path))


def vertex_str(vertex: str) -> str:
    """A canonical vertex string as commands print it: the root as ``e``."""
    return vertex or _ROOT_VERTEX


def _require_digit_vertices(alphabet_size: int) -> None:
    """One digit per level names vertices unambiguously only up to 10 letters."""
    if alphabet_size > 10:
        raise InputError("string vertices only supported for alphabets up to 10")


class GeneratorSystem:
    """A self-similar action: alphabet size plus recursion data per generator.

    ``generators`` is a sequence of (name, root permutation images, section
    words) triples; section words are given in surface syntax (e.g. ``"ab"``
    with ``"e"`` for the empty word).
    """

    def __init__(
        self,
        alphabet_size: int,
        generators: Sequence[tuple[str, Sequence[int], Sequence[str]]],
    ):
        if require_count(alphabet_size, "alphabet size") < 2:
            raise InputError("alphabet size must be at least 2")
        self.alphabet_size = alphabet_size

        names = [g[0] for g in generators]
        if not names:
            raise InputError("a generator system needs at least one generator")
        if len(set(names)) != len(names):
            raise InputError("generator names must be distinct")
        for name in names:
            if name not in _NAME_ALPHABET:
                raise InputError(
                    f"generator name {name!r} must be a single lowercase "
                    "letter other than 'e'"
                )
        self.names = tuple(names)
        # surface character -> letter, and the translation tables between
        # ASCII bytes and letters as signed bytes; every other byte goes to
        # 0, which is no letter and no name
        self._letters = {n: i + 1 for i, n in enumerate(names)}
        self._letters.update((n.upper(), -(i + 1)) for i, n in enumerate(names))
        to_letter, to_char = bytearray(256), bytearray(256)
        for ch, l in self._letters.items():
            to_letter[ord(ch)] = l & 0xFF
            to_char[l & 0xFF] = ord(ch)
        self._letter_table, self._char_table = bytes(to_letter), bytes(to_char)

        roots = []
        raw_sections = []
        for name, images, sections in generators:
            images = tuple(images)
            if len(images) != alphabet_size:
                raise InputError(f"generator {name!r}: root permutation size mismatch")
            roots.append(Perm(images).images)
            if len(sections) != alphabet_size:
                raise InputError(f"generator {name!r}: expected {alphabet_size} sections")
            raw_sections.append(tuple(sections))
        # sections reference generators by name, so parse after indexing
        sections_parsed = tuple(
            tuple(self.parse_word(s) for s in secs) for secs in raw_sections
        )

        # per signed letter: root permutation images and section words
        self._letter_root: dict[int, tuple[int, ...]] = {}
        self._letter_sections: dict[int, tuple[Word, ...]] = {}
        for i, (root, secs) in enumerate(zip(roots, sections_parsed)):
            inv_root = invert_images(root)
            self._letter_root[i + 1] = root
            self._letter_root[-(i + 1)] = inv_root
            self._letter_sections[i + 1] = secs
            self._letter_sections[-(i + 1)] = tuple(
                invert_word(secs[inv_root[x]]) for x in range(alphabet_size)
            )
        # the defining data, fixed once built: == and hash read it
        self._spec = (
            alphabet_size,
            tuple(
                (name, self._letter_root[i + 1], self._letter_sections[i + 1])
                for i, name in enumerate(self.names)
            ),
        )
        # per level k, the tables of _walk_level; built on first use
        self._walks: dict[int, tuple] = {}
        # the identity's node of _jump_graph, [] past its bound; built, with
        # level _jump's walk tables closed, on the first long word
        # word_is_trivial decides
        self._jump_nodes: list | None = None
        # levels the triviality closure walks a long word at once: when no
        # letter's sections hold more than one letter in all (grow <= 1), so
        # no section outgrows its word, the deepest level of at most 8
        # vertices (2^7 actions when d = 2)
        grow = max(sum(map(len, secs)) for secs in self._letter_sections.values())
        # whether no section of a letter holds more than one letter; then no
        # section on any level does, and _point_tables keeps the letter or 0
        self._single = all(len(w) <= 1 for secs in self._letter_sections.values() for w in secs)
        self._jump = 1
        if grow <= 1:
            while alphabet_size ** (self._jump + 1) <= 8:
                self._jump += 1

        # the one per-word memo, of words proven trivial; transparent, since
        # no result depends on it, and it holds only words of at most
        # MEMO_LETTERS letters
        self._trivial_cache: set[Word] = {()}
        # index keys and level permutations up to the key level fold one
        # 256-byte table per letter: its action on the key level, the
        # deepest of at most 256 vertices (the root when d > 256), with the
        # points past that level fixed
        key_level = 0
        while alphabet_size ** (key_level + 1) <= 256:
            key_level += 1
        self._key_size = alphabet_size**key_level
        getters, points = self._level_getters(key_level), range(self._key_size)
        fixed = bytes(range(self._key_size, 256))
        self._key_tables = {l: bytes(getters[l](points)) + fixed for l in self._letter_root}
        # at index n, y -> y // d^(key level - n): a key-level vertex to
        # the level-n vertex above it
        by_d, cuts = bytes(y // alphabet_size for y in range(256)), [_BYTE_IDENTITY]
        for _ in range(key_level):
            cuts.insert(0, cuts[0].translate(by_d))
        self._cuts = cuts
        # levels ``word_at`` walks at once: the key level (at least 1), cut
        # while a letter's sections there could hold more letters in all
        # than the key level has points.  A letter whose sections hold s
        # letters has at most s^k on level k, so the tables of an expanding
        # system stay small; Basilica, Grigorchuk, Gupta-Sidki, Hanoi and the
        # README's d = 3 system are not cut
        self._chunk = max(key_level, 1)
        while self._chunk > 1 and grow**self._chunk > self._key_size:
            self._chunk -= 1
        # per level k <= _chunk, the tables of word_at; built on first use
        self._points: dict[int, tuple] = {}
        # the ball registry of `norms`, built on first use
        self._ball_registry = None

    # -- surface syntax ----------------------------------------------------

    def parse_word(self, text: str) -> Word:
        """Parse surface syntax (``"abA"``, ``"e"`` for empty) to a reduced word.

        The text's ASCII bytes, one per character (a non-ASCII character
        becomes ``?``), are translated to letters as signed bytes and
        unpacked into the word; a 0 byte marks the first character that is
        no letter.  The text is reduced only when it holds a cancelling
        pair: a name and its inverse differ in bit 0x20 alone, so that is
        an adjacent pair of bytes whose XOR is 0x20, found from the text as
        one integer XORed with itself shifted by a byte.  That test costs
        about 0.3 us plus 4 ns a letter, whatever the number of generators
        (Python 3.11 on a 2-CPU VM); searching the text for each of the 2n
        cancelling pairs of n generators instead made parsing a 9-letter
        word over 25 generators take 2.0 us in place of 0.8 us.
        """
        if text == "e" or text == "":
            return ()
        surface = text.encode("ascii", "replace")
        packed = surface.translate(self._letter_table)
        col = packed.find(0) + 1
        if col:
            raise WordParseError(f"unknown letter {text[col - 1]!r}", col)
        word = _word_struct(len(packed)).unpack(packed)
        # byte i of x ^ (x >> 8) is the XOR of text bytes i - 1 and i; byte
        # 0 is the first letter itself
        x = int.from_bytes(surface, "big")
        if 0x20 in (x ^ (x >> 8)).to_bytes(len(surface), "big"):
            return free_reduce(word)
        return word

    def word_str(self, word: Sequence[int]) -> str:
        """Inverse of parse_word; the empty word prints as ``e``.  The word
        is packed by ``_word_bytes`` and translated to ASCII with one table;
        a letter outside the system raises ``InputError``."""
        return self._word_text(word).decode("ascii") if word else "e"

    def _word_text(self, word: Sequence[int]) -> bytes:
        """The surface text of a letter sequence, unreduced, as ASCII bytes;
        a letter outside the system raises ``InputError``."""
        try:
            text = _word_bytes(word).translate(self._char_table)
        except StructError:  # a letter past a signed byte, or not an int
            text = b"\0"
        if 0 in text:
            bad = next(l for l in word if not isinstance(l, int) or l not in self._letter_root)
            raise InputError(f"letter {bad!r} outside the generator range")
        return text

    def parse_vertex(self, vertex: str) -> tuple[int, ...]:
        """The path of a vertex string; ``""`` and ``e`` are the root."""
        _require_digit_vertices(self.alphabet_size)
        if vertex == _ROOT_VERTEX:
            return ()
        out = []
        for col, ch in enumerate(vertex, start=1):
            if ch not in "0123456789"[: self.alphabet_size]:
                raise InputError(f"bad vertex letter {ch!r} at position {col}")
            out.append(int(ch))
        return tuple(out)

    # -- element construction ----------------------------------------------

    def element(self, word) -> "Element":
        """Element from surface syntax or a raw letter sequence."""
        if isinstance(word, str):
            return Element._reduced(self, self.parse_word(word))
        return Element(self, word)

    def identity(self) -> "Element":
        return Element(self, ())

    def generator(self, name: str) -> "Element":
        if name not in self.names:
            raise InputError(f"no generator named {name!r}")
        return Element(self, (self._letters[name],))

    def generators(self) -> tuple["Element", ...]:
        return tuple(Element(self, (i + 1,)) for i in range(len(self.names)))

    # -- word-level recursion ----------------------------------------------

    def _walk_level(self, word: Word, k: int) -> tuple[tuple[int, ...], tuple[Word, ...]]:
        """Images of the d^k level-k vertices and the freely reduced section
        at each, from one pass over the word, right to left.

        The walk's state is the action p of the letters read so far, and
        each state keeps one step per letter read from it, in a list of 2n
        + 1 slots indexed by the signed letter, so an inverse letter reads
        its slot from the end, and slot 0 holds p; a step is built from the
        letter's row of the level's point tables.  When every letter pushes
        exactly one section letter on level k, as on every level of the
        Basilica group and the adding machine, a step is ``(vertex, cancel,
        letter, next state)``, one stack operation; otherwise it is
        ``(pushes, next state)`` with a tuple of such ``(vertex, cancel,
        letter)`` pushes."""
        # (l w)_v = l_{w(v)} w_v: reading l after w, of action p, pushes
        # l's section at c onto the stack of v = p^-1(c), reversed; the
        # state becomes l o p.  No letter cancels a stack's bottom 0
        states, p, single = self._walks.get(k) or self._walk_tables(k)
        state = states[p]
        stacks = [[0] for _ in p]
        if single:
            for l in reversed(word):
                v, t, s, state = state[l] or self._walk_step(k, state, l)
                stack = stacks[v]
                if stack[-1] == t:
                    stack.pop()
                else:
                    stack.append(s)
        else:
            for l in reversed(word):
                pushes, state = state[l] or self._walk_step(k, state, l)
                for v, t, s in pushes:
                    stack = stacks[v]
                    if stack[-1] == t:
                        stack.pop()
                    else:
                        stack.append(s)
        return state[0], tuple(tuple(stack[:0:-1]) for stack in stacks)

    def _walk_step(self, k: int, state: list, l: int) -> tuple:
        """The level-k step of letter ``l`` from the action p at slot 0 of
        ``state``, from l's row of the level's point tables; kept in
        ``state`` while the table holds at most ``MAX_LEVEL_POINTS`` images:
        the walk tables' bound, checked here alone."""
        states, _, single = self._walks[k]
        p, row = state[0], self._points[k][l]
        origin = invert_images(p)
        q = tuple(row[x][0] for x in p)
        if q not in states and (len(states) + 1) * len(q) <= MAX_LEVEL_POINTS:
            states[q] = [q] + [None] * (len(state) - 1)
        secs = (((s,) if s else ()) for _, s in row) if self._single else (s for _, s in row)
        pushes = tuple((origin[c], -s, s) for c, rev in enumerate(secs) for s in rev)
        after = states.get(q) or [q] + [None] * (len(state) - 1)
        step = pushes[0] + (after,) if single else (pushes, after)
        if q in states:
            state[l] = step
        return step

    def _walk_tables(self, k: int) -> tuple:
        """The steps of each level-k action, an empty list of one slot per
        signed letter to start; the identity action; and whether every
        letter pushes exactly one letter, read from the level's point tables."""
        rows = self._points.get(k) or self._point_tables(k)
        pushed = bool if self._single else len
        single = all(sum(pushed(s) for _, s in rows[l]) == 1 for l in self._letter_root)
        start = tuple(range(self.alphabet_size**k))
        walk = self._walks[k] = ({start: [start] + [None] * (len(rows) - 1)}, start, single)
        return walk

    def _point_tables(self, k: int) -> list:
        """The steps of ``word_at`` on level k, and of ``_walk_level`` on
        levels 1 and ``_jump``: per signed letter, at its index in a list of
        2n + 1, the list over the d^k level-k points x of ``(the letter's
        image of x, its section at x reversed)``.  When ``_single``, a step
        holds that section's letter, or 0 for none, in place of the tuple.

        A letter l sends x y, x a letter, to root(x) w(y) with w = l_x, so
        each block of its level-k list is the level-(k-1) list of w with
        shifted points: one list operation when w has at most one letter,
        and a walk of w from each point when it has more."""
        slots = 2 * len(self.names) + 1
        none = 0 if self._single else ()
        if k > 1:
            below = self._points.get(k - 1) or self._point_tables(k - 1)
        else:  # level 0: each letter fixes the root, and is its section there
            below = [None] * slots
            for l in self._letter_root:
                below[l] = [(0, l if self._single else (l,))]
        size = self.alphabet_size ** (k - 1)
        rows: list = [None] * slots
        for l, secs in self._letter_sections.items():
            row = rows[l] = []
            for root, w in zip(self._letter_root[l], secs):
                shift = root * size
                if not w:
                    row += [(shift + y, none) for y in range(size)]
                elif len(w) == 1:
                    row += [(shift + y, pushes) for y, pushes in below[w[0]]]
                else:
                    for y in range(size):
                        image, stack = self._follow_point(below, w, y)
                        row.append((shift + image, tuple(stack[1:])))
        self._points[k] = rows
        return rows

    def _jump_graph(self) -> list:
        """The closed graph of the level-``_jump`` actions.  A breadth-first
        search from the identity fills that level's walk tables, one
        ``_walk_step`` per (action, letter), so ``_walk_level`` never fills
        them lazily; beside them it builds, per action, a list of 2n + 1
        slots whose slot l holds the list of l o p, for a C-level fold.
        Kept and returned: the identity's list, or ``[]`` once a step is not
        kept, past the walk tables' bound."""
        k = self._jump
        states, start, _ = self._walks.get(k) or self._walk_tables(k)
        nodes, queue = {start: [None] * len(states[start])}, [start]
        self._jump_nodes = []
        for p in queue:
            node, state = nodes[p], states[p]
            for l in self._letter_root:
                q = (state[l] or self._walk_step(k, state, l))[-1][0]
                if not state[l]:
                    return []
                if q not in nodes:
                    nodes[q] = [None] * len(state)
                    queue.append(q)
                node[l] = nodes[q]
        self._jump_nodes = nodes[start]
        return self._jump_nodes

    def word_root(self, word: Word) -> tuple[int, ...]:
        """Root permutation images of a word."""
        return self._walk_level(word, 1)[0]

    def word_sections(self, word: Word) -> tuple[Word, ...]:
        """All first-level section words of a word, freely reduced."""
        return self._walk_level(word, 1)[1]

    def word_at(self, word: Word, path: Sequence[int]) -> tuple[tuple[int, ...], Word]:
        """The image of a vertex path under a word and the word's section
        there.  The word is walked once per ``_chunk`` levels of the path,
        right to left, following one point: the image of the chunk's vertex
        under the letters read so far.  Each letter's step gives its image
        of that point and pushes its section there onto one reduction
        stack; the section at the chunk's vertex is the word of the next
        chunk.  Raises ``InputError`` for a digit outside the alphabet."""
        d = self.alphabet_size
        image: list[int] = []
        for i in range(0, len(path), self._chunk):
            chunk = path[i : i + self._chunk]
            k = len(chunk)
            rows = self._points.get(k) or self._point_tables(k)
            x = 0
            for digit in chunk:
                if isinstance(digit, bool) or not (isinstance(digit, int) and 0 <= digit < d):
                    raise InputError(f"vertex letter {digit!r} outside the alphabet")
                x = x * d + digit
            x, stack = self._follow_point(rows, word, x)
            word = tuple(stack[:0:-1])
            image.extend(self._point_path(x, k))
        return tuple(image), word

    def _follow_point(self, rows: list, word: Word, x: int) -> tuple[int, list[int]]:
        """The image of point x under ``word`` and the stack of its section
        there, reversed above a bottom 0, walking ``word`` right to left by the
        steps ``rows`` of ``_point_tables``: reading l after w pushes l's
        section at w(x).  No letter cancels the bottom 0."""
        stack = [0]
        if self._single:
            for l in reversed(word):
                x, s = rows[l][x]
                if s:
                    if stack[-1] == -s:
                        stack.pop()
                    else:
                        stack.append(s)
        else:
            for l in reversed(word):
                x, pushes = rows[l][x]
                for s in pushes:
                    if stack[-1] == -s:
                        stack.pop()
                    else:
                        stack.append(s)
        return x, stack

    def _point_path(self, x: int, k: int) -> tuple[int, ...]:
        """The k base-d digits of x: the path of level k's x-th vertex."""
        d = self.alphabet_size
        return tuple(x // d**j % d for j in reversed(range(k)))

    def _level_getters(self, n: int) -> dict[int, operator.itemgetter]:
        """Per signed letter, the itemgetter that takes a level-n action p to
        p o (the letter's action), each level's built from the level below,
        starting at the root, which every letter fixes."""
        d = self.alphabet_size
        getters = dict.fromkeys(self._letter_root, operator.itemgetter(slice(None)))
        for k in range(1, n + 1):
            # a letter l with root sigma and sections s_x sends the vertex
            # x v to sigma(x) (s_x . v): its level-k table is its root
            # blown up over blocks of size d^(k-1), shifted by the level
            # k-1 action of each section word
            size = d ** (k - 1)
            tables = {}
            for l, secs in self._letter_sections.items():
                images: list[int] = []
                for root, sec in zip(self._letter_root[l], secs):
                    p = tuple(range(size))
                    for s in sec:
                        p = getters[s](p)
                    images.extend(map((root * size).__add__, p))
                tables[l] = operator.itemgetter(*images)
            getters = tables
        return getters

    def word_level_perm(self, word: Word, n: int) -> tuple[int, ...]:
        """Images of the d^n level-n vertices in lexicographic order.  The
        word acts as l1 o ... o lm, so each letter folds in on the right; up
        to the key level K, the fold starts from ``_cuts[n]``, so level-K
        vertex x d^(K-n) reads the level-n image of x."""
        require_count(n, "level")
        d, size = self.alphabet_size, self._key_size
        # d >= 2, so d^n passes the budget for every n past its bit length
        if n >= MAX_LEVEL_POINTS.bit_length() or d**n > MAX_LEVEL_POINTS:
            raise BudgetExceededError(
                f"level {n} of a {d}-letter alphabet has more than "
                f"{MAX_LEVEL_POINTS} vertices"
            )
        if d**n <= size:
            tables, p = self._key_tables, self._cuts[n]
            for l in word:
                p = tables[l].translate(p)
            return tuple(p[: size : size // d**n])
        getters, p = self._level_getters(n), tuple(range(d**n))
        for l in word:
            p = getters[l](p)
        return p

    def word_is_trivial(self, word: Word) -> bool:
        """Decide triviality by section closure; exact.  Each closure word is
        looked up and walked as ``MEMO_LETTERS`` says; a trivial verdict adds
        the closure's short words to the memo, a nontrivial one adds none.
        An input longer than ``MEMO_LETTERS`` is first folded through
        ``_jump_graph``, kept while the walk tables' bound holds: a
        nontrivial level-``_jump`` action returns ``False`` there, as the
        first walk would, before any budget check; a trivial one is walked
        on the tables the graph's search closed."""
        if len(word) > MEMO_LETTERS:
            start = self._jump_nodes
            if start is None:
                start = self._jump_graph()
            if start and reduce(operator.getitem, reversed(word), start) is not start:
                return False
        proven = self._trivial_cache
        queue: list[Word] = [word]
        seen = {word}
        letters = len(word)
        for u in queue:
            short = len(u) <= MEMO_LETTERS
            if short and u in proven:
                continue
            k = 1 if short else self._jump
            root, sections = self._walk_level(u, k)
            if root != self._walks[k][1]:
                return False
            for s in sections:
                if s and s not in seen:
                    seen.add(s)
                    queue.append(s)
                    letters += len(s)
            if letters > MAX_CLOSURE_LETTERS:
                raise BudgetExceededError(
                    f"section closure exceeded {MAX_CLOSURE_LETTERS} letters; "
                    "the recursion may not be length-contracting",
                    partial=letters,
                )
        # sections of closure members stay inside the closure, so every
        # member is trivial along with the input
        proven.update(u for u in queue if len(u) <= MEMO_LETTERS)
        return True

    # -- structural equality -----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorSystem) and self._spec == other._spec

    def __hash__(self) -> int:
        return hash(self._spec)

    def __reduce__(self):
        # pickle and copy rebuild it from its definition, without its memo
        d, gens = self._spec
        return GeneratorSystem, (d, [(n, r, tuple(map(self.word_str, s))) for n, r, s in gens])

    def __repr__(self) -> str:
        return f"GeneratorSystem(d={self.alphabet_size}, names={''.join(self.names)})"


def parse_system(text: str) -> GeneratorSystem:
    """Parse the group-definition format (lines or ``;``-separated).

    Example::

        alphabet 2
        gen a perm=0,1 sections=e,b
        gen b perm=1,0 sections=a,e
    """
    statements = []
    for raw_line in text.replace(";", "\n").splitlines():
        line = raw_line.strip()
        if line and not line.startswith("#"):
            statements.append(line)
    if not statements:
        raise InputError("empty group definition")
    head = statements[0].split()
    if len(head) != 2 or head[0] != "alphabet":
        raise InputError("group definition must start with 'alphabet <d>'")
    d = ascii_int(head[1])
    if d is None:
        raise InputError(f"bad alphabet size {head[1]!r}")
    gens = []
    for line in statements[1:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "gen":
            raise InputError(f"bad generator line: {line!r}")
        name = parts[1]
        fields = {}
        for part in parts[2:]:
            if "=" not in part:
                raise InputError(f"bad generator field: {part!r}")
            key, value = part.split("=", 1)
            fields[key] = value
        if set(fields) != {"perm", "sections"}:
            raise InputError(f"generator line needs perm= and sections=: {line!r}")
        images = [ascii_int(t) for t in fields["perm"].split(",")]
        if None in images:
            raise InputError(f"bad permutation {fields['perm']!r}")
        sections = fields["sections"].split(",")
        gens.append((name, images, sections))
    return GeneratorSystem(d, gens)


def load_system(path) -> GeneratorSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


_BASILICA_DEFINITION = "alphabet 2; gen a perm=0,1 sections=e,b; gen b perm=1,0 sections=a,e"
_basilica_singleton: GeneratorSystem | None = None


def basilica() -> GeneratorSystem:
    """The Basilica system: a = (1, b) and b = sigma (a, 1) on the binary tree."""
    global _basilica_singleton
    if _basilica_singleton is None:
        _basilica_singleton = parse_system(_BASILICA_DEFINITION)
    return _basilica_singleton


def require_basilica(g) -> GeneratorSystem:
    """Return the system of ``g`` after checking it is the Basilica system."""
    system = g.system if isinstance(g, Element) else g
    if system != basilica():
        raise PreconditionError("operation requires the Basilica system")
    return system


def require_count(value, what: str) -> int:
    """Return ``value`` if it is an int, not a bool, and non-negative: the
    rule for every level, depth, radius, budget and cap.  Raises
    ``InputError`` naming ``what`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, not {value!r}")
    if value < 0:
        raise InputError(f"{what} must be non-negative, got {value}")
    return value


def _same_system(g: "Element", h: "Element") -> GeneratorSystem:
    if g.system is h.system or g.system == h.system:
        return g.system
    raise InputError("elements belong to different generator systems")


class Element:
    """A group element: a freely reduced word over a generator system.

    ``==`` decides group equality (the word problem), so distinct words for
    the same automorphism compare equal; consequently elements are not
    hashable.  ``ElementIndex`` finds a registered word by the word and any
    other word by its level-action fingerprint, confirmed exactly.
    """

    __slots__ = ("system", "word")

    def __init__(self, system: GeneratorSystem, word: Iterable[int]):
        word = tuple(word)
        system._word_text(word)  # checks every letter, before reducing
        if bool in map(type, word):  # False is no letter, but True packs as 1
            raise InputError("letter True outside the generator range")
        _set_system(self, system)
        _set_word(self, free_reduce(word))

    @classmethod
    def _reduced(cls, system: GeneratorSystem, word: Word) -> "Element":
        """Element of a word the engine built reduced and in range (a parsed
        word, a section, a product), so it is not reduced and checked again."""
        g = object.__new__(cls)
        _set_system(g, system)
        _set_word(g, word)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __delattr__(self, name):
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        # pickle and copy would restore the slots with setattr
        return Element._reduced, (self.system, self.word)

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        _same_system(self, other)
        return Element._reduced(self.system, product_word(self.word, other.word))

    def inverse(self) -> "Element":
        return Element._reduced(self.system, invert_word(self.word))

    __invert__ = inverse

    def __pow__(self, n: int) -> "Element":
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputError(f"exponent must be an integer, not {n!r}")
        return Element._reduced(self.system, power_word(self.word, n))

    # -- recursion -----------------------------------------------------------

    def root_perm(self) -> Perm:
        """The permutation induced on the first letter of vertex words."""
        return Perm._computed(self.system.word_root(self.word))

    def section(self, x: int) -> "Element":
        """The automorphism induced on the subtree below letter x."""
        d = self.system.alphabet_size
        if isinstance(x, bool) or not (isinstance(x, int) and 0 <= x < d):
            raise InputError(f"letter {x} outside the alphabet")
        return Element._reduced(self.system, self.system.word_sections(self.word)[x])

    def sections(self) -> tuple["Element", ...]:
        return tuple(
            Element._reduced(self.system, w) for w in self.system.word_sections(self.word)
        )

    def section_at_vertex(self, vertex: str) -> "Element":
        """Iterated section along a vertex string; the empty vertex is the root."""
        path = self.system.parse_vertex(vertex)
        return Element._reduced(self.system, self.system.word_at(self.word, path)[1])

    def projection(self, path: Sequence[int]) -> "Element | None":
        """The section g_v at a vertex path v that g fixes; None if g moves v.
        Raises ``InputError`` for a digit of v outside the alphabet."""
        image, section = self.system.word_at(self.word, path)
        return Element._reduced(self.system, section) if image == tuple(path) else None

    def act(self, vertex: str) -> str:
        """Image of a vertex under the left action."""
        path = self.system.parse_vertex(vertex)
        return vertex_word(self.system.word_at(self.word, path)[0])

    def level_perm(self, n: int) -> Perm:
        """The permutation of the d^n level-n vertices (lexicographic order)."""
        return Perm._computed(self.system.word_level_perm(self.word, n))

    def is_trivial(self) -> bool:
        return self.system.word_is_trivial(self.word)

    def substitute(self, rule: Mapping[str, str]) -> "Element":
        """Apply a generator substitution letter-wise, then reduce.

        The rule must map every generator name to a word in surface syntax;
        inverse letters map to inverted images.
        """
        images = []
        for name in self.system.names:
            if name not in rule:
                raise InputError(f"substitution rule misses generator {name!r}")
            images.append(self.system.parse_word(rule[name]))
        return Element._reduced(self.system, free_reduce(substitute_word(self.word, images)))

    def portrait(self, depth: int) -> "Portrait":
        """Root permutations of all sections above the given depth, labelled
        level by level in lexicographic vertex order.

        Raises ``InputError`` when a label would name a vertex below the root
        over more than 10 letters, and ``BudgetExceededError`` (``partial``:
        the number of complete levels) before labelling a level of more than
        ``MAX_LEVEL_POINTS`` vertices.
        """
        if require_count(depth, "portrait depth") >= 2:
            _require_digit_vertices(self.system.alphabet_size)
        labels: dict[str, Perm] = {}
        frontier = [("", self.word)]
        for level in range(depth):
            if len(frontier) > MAX_LEVEL_POINTS:
                raise BudgetExceededError(
                    f"portrait level {level} has more than "
                    f"{MAX_LEVEL_POINTS} vertices",
                    partial=level,
                )
            next_frontier = []
            for vertex, w in frontier:
                root, secs = self.system._walk_level(w, 1)
                labels[vertex] = Perm._computed(root)
                for x, s in enumerate(secs):
                    next_frontier.append((vertex + str(x), s))
            frontier = next_frontier
        return Portrait(depth, labels)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return equals(self, other)

    __hash__ = None  # group equality is not compatible with word hashing

    def __repr__(self) -> str:
        return f"Element({self.system.word_str(self.word)!r})"

    def __str__(self) -> str:
        return self.system.word_str(self.word)


# the slots' own setters, which ``Element.__setattr__`` refuses to reach
_set_system = Element.system.__set__
_set_word = Element.word.__set__


def equals(g: Element, h: Element) -> bool:
    """Exact group equality: g equals h iff g h^-1 is the identity."""
    system = _same_system(g, h)
    if g.word == h.word:
        return True
    return system.word_is_trivial(product_word(g.word, invert_word(h.word)))


class Portrait(Record):
    """Finite portrait: root permutations at every vertex above ``depth``."""

    depth: int
    labels: dict[str, Perm]

    def to_dot(self) -> str:
        """DOT graph with one node per labeled vertex."""
        lines = ["digraph portrait {"]
        for vertex in self.labels:
            node = "root" if vertex == "" else f"v{vertex}"
            lines.append(f'  {node} [label="{self.labels[vertex]}"];')
        for vertex in self.labels:
            if vertex:
                parent = "root" if len(vertex) == 1 else f"v{vertex[:-1]}"
                lines.append(f'  {parent} -> v{vertex} [label="{vertex[-1]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


class ElementIndex:
    """Exact-equality registry of pairwise distinct elements, read with
    ``find_word`` and written with ``insert_word``, or, for the ball of
    ``norms``, a subclass, with ``grow``, which enumerates it sphere by
    sphere.  Stabilizer de-duplication and the descent goal are indexes too.

    Entry 0 is the identity, the empty word, so every word has a registered
    prefix.  An entry's own word is found in a dict, with no key fold: the
    entries are distinct, so that entry is the only one equal to it.  Any
    other word is compared only with the entries that act like it on the
    deepest level of at most 256 vertices (level 8 of the binary tree), since
    fingerprint inequality soundly separates elements.  That action, the
    word's key, a 256-byte table, is its longest registered prefix's key
    with the other letters folded in, and each candidate is confirmed by
    deciding the triviality of ``word . cand^-1``.  ``find_word(word,
    complete=True)`` is for a caller that knows an entry equals the word:
    every candidate but the last is confirmed, the last taken unchecked.
    ``words[i]`` is entry i's word: the index's own list, for reading only.
    No word is registered twice, so ``_by_word``'s keys are the entries'
    packed words in entry order.  ``radius_done`` is the radius ``grow``
    has completed, 0 to start with: entry 0 is the whole ball of radius 0.
    """

    def __init__(self, system: GeneratorSystem):
        self.system = system
        self.words: list[Word] = [()]
        self._by_word: dict[bytes, int] = {b"": 0}  # each entry's packed word to its index
        self._keys: list[bytes] = [_BYTE_IDENTITY]  # per entry, its bucket's key
        self._buckets: dict[bytes, tuple[int, ...]] = {_BYTE_IDENTITY: (0,)}
        self.radius_done = 0

    def find_word(self, word: Word, complete: bool = False) -> int | None:
        """Index of the registered element equal to ``word``, if any.  With
        ``complete``, some entry is known to equal it, so the last candidate
        is returned unchecked; ``None`` then means no candidate at all."""
        packed = _word_bytes(word)
        idx = self._by_word.get(packed)
        if idx is not None:
            return idx
        bucket = self._buckets.get(self._key(word, packed), ())
        words, is_trivial = self.words, self.system.word_is_trivial
        for i in bucket[:-1] if complete else bucket:
            if is_trivial(product_word(word, invert_word(words[i]))):
                return i
        return bucket[-1] if complete and bucket else None

    def insert_word(self, word: Word) -> int:
        """Register a word known to be a new class; returns its index."""
        packed = _word_bytes(word)
        return self._register(word, self._key(word, packed), packed)

    def grow(self, radius: int, limit: int) -> None:
        """Register every class of norm at most ``radius``, a sphere a pass,
        trying words in shortlex order (a < a^-1 < b < b^-1 < ...), on an
        index no other method writes: each entry is then the shortlex-least
        word of its class, and all those up to length ``radius_done`` are
        entries.  A prefix of such a word is one too, so radius r tries the
        extensions w.l of the entries of length r - 1, parents in order,
        then letters, but for the l cancelling w; so is a suffix, so w.l is
        tried only if w[1:].l is an entry's word.  It is keyed from w's key
        with one ``translate`` and confirmed against its bucket or
        registered.  Past ``limit`` entries, raises ``BudgetExceededError``
        with ``partial`` ``radius_done``; the entries, some maybe of length
        r, stay exact."""
        from bisect import bisect_left  # only a ball grows: ``import basilica`` skips it
        words, by_word, is_trivial = self.words, self._by_word, self.system.word_is_trivial
        tables, n = self.system._key_tables, len(self.system.names)
        letters = {l: _word_bytes((l,)) for i in range(1, n + 1) for l in (i, -i)}
        while self.radius_done < radius:
            r = self.radius_done + 1
            first, stop = bisect_left(words, r - 1, key=len), bisect_left(words, r, key=len)
            for parent, packed in enumerate(list(islice(by_word, first, stop)), first):
                w, key = words[parent], self._keys[parent]
                cancel, suffix = (-w[-1], packed[1:]) if w else (0, None)
                for l, lb in letters.items():
                    if l == cancel or suffix is not None and suffix + lb not in by_word:
                        continue
                    child, child_key = w + (l,), tables[l].translate(key)
                    for i in self._buckets.get(child_key, ()):
                        if is_trivial(product_word(child, invert_word(words[i]))):
                            break
                    else:
                        self._register(child, child_key, packed + lb)
                        if len(words) > limit:
                            raise BudgetExceededError(
                                f"ball radius {r} needs more than {limit} classes",
                                partial=self.radius_done,
                            )
            self.radius_done = r

    def _register(self, word: Word, key: bytes, packed: bytes) -> int:
        """Append an entry with its key and its packed word; returns its index."""
        idx = len(self.words)
        self.words.append(word)
        self._keys.append(key)
        self._by_word[packed] = idx
        self._buckets[key] = self._buckets.get(key, ()) + (idx,)
        return idx

    def _key(self, word: Word, packed: bytes) -> bytes:
        """The key of ``word``, packed as ``packed``: its longest registered
        prefix's key, with the other letters folded in, one ``translate``
        each.  The search starts one letter short of the word, which ``find_word``
        looked up, or at the last entry's length: entries come by nondecreasing
        length, and a lower start would only fold more letters into the same key."""
        by_word, k = self._by_word, min(len(word) - 1, len(self.words[-1]))
        while (idx := by_word.get(packed[:k])) is None:
            k -= 1  # the empty word is entry 0
        p, tables = self._keys[idx], self.system._key_tables
        for l in word[k:]:
            p = tables[l].translate(p)
        return p
