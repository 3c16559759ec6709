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


def fresh_interpreter_output(probe: str) -> str:
    """Standard output of a new interpreter running ``probe`` on these sources."""
    src = str(Path(basilica_package.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout


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
