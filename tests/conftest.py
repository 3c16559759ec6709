import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import basilica as basilica_package
from basilica import basilica

BASILICA_TEXT = "alphabet 2\ngen a perm=0,1 sections=e,b\ngen b perm=1,0 sections=a,e\n"
# the Basilica system in the group-definition file format; parse_system of
# it is a fresh system equal to basilica(), with caches of its own

# the other test systems, in the same format
D3_TEXT = "alphabet 3\ngen a perm=1,2,0 sections=e,b,a\ngen b perm=0,2,1 sections=aB,e,b\n"
GRIGORCHUK_TEXT = (
    "alphabet 2\ngen a perm=1,0 sections=e,e\ngen b perm=0,1 sections=a,c\n"
    "gen c perm=0,1 sections=a,d\ngen d perm=0,1 sections=e,b\n"
)
GUPTA_SIDKI_TEXT = "alphabet 3\ngen a perm=1,2,0 sections=e,e,e\ngen b perm=0,1,2 sections=a,A,b\n"
# the Hanoi towers group H(3): its roots generate S3
HANOI_TEXT = (
    "alphabet 3\ngen a perm=1,0,2 sections=e,e,a\ngen b perm=2,1,0 sections=e,b,e\n"
    "gen c perm=0,2,1 sections=c,e,e\n"
)
# the adding machine a = sigma(1, a) beside a trivial b = (1, b): a adds one
# to a vertex read as a binary number, least significant digit first, so a
# word acts as adding its a-exponent sum n, and its section at a vertex v of
# level L is a^c with c the carry (v + n) >> L
ADDING_MACHINE_TEXT = "alphabet 2\ngen a perm=1,0 sections=e,a\ngen b perm=0,1 sections=e,b\n"
# the lamplighter automaton has Basilica's alphabet and generator names
LAMPLIGHTER_TEXT = "alphabet 2\ngen a perm=1,0 sections=a,b\ngen b perm=0,1 sections=a,b\n"
# a = (a^2, 1) is trivial and doubles a word's a's at every 0
EXPANDING_TEXT = "alphabet 2\ngen a perm=0,1 sections=aa,e\ngen b perm=1,0 sections=e,e\n"


def fresh_interpreter(probe: str) -> subprocess.CompletedProcess:
    """A new interpreter's run of ``probe`` on these sources, its output captured."""
    src = str(Path(basilica_package.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)


def fresh_interpreter_output(probe: str) -> str:
    """Standard output of a new interpreter running ``probe`` on these sources."""
    done = fresh_interpreter(probe)
    done.check_returncode()
    return done.stdout


@pytest.fixture(scope="session")
def B():
    return basilica()


@pytest.fixture()
def rng():
    return random.Random(0)


def random_element(system, rng, max_len=8):
    letters = [1, -1, 2, -2]
    w = []
    for _ in range(rng.randint(0, max_len)):
        l = rng.choice(letters)
        if w and w[-1] == -l:
            continue
        w.append(l)
    return system.element(w)


def reduced_words(system, length):
    """All freely reduced words of exactly ``length`` in lexicographic order
    (a < a^-1 < b < b^-1 < ...)."""
    letters = [l for i in range(len(system.names)) for l in (i + 1, -(i + 1))]
    words = [()]
    for _ in range(length):
        words = [w + (l,) for w in words for l in letters if not w or w[-1] != -l]
    return words
