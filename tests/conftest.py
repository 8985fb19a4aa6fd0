import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rankgraph import Permutation, group_from_generators
from rankgraph.catalog import alternating, default_catalog, symmetric


@pytest.fixture(scope="session")
def A5():
    return alternating(5).group()


@pytest.fixture(scope="session")
def S4():
    return symmetric(4).group()


@pytest.fixture(scope="session")
def S5():
    return symmetric(5).group()


@pytest.fixture(scope="session")
def V4():
    return group_from_generators(4, [
        Permutation.from_cycles(4, [0, 1], [2, 3]),
        Permutation.from_cycles(4, [0, 2], [1, 3])])


@pytest.fixture(scope="session")
def Q8():
    """Quaternion group in its regular representation."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    table = {("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
             ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"),
             ("j", "i"): (-1, "k"), ("j", "k"): (1, "i"),
             ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
             ("i", "k"): (-1, "j")}

    def qmul(a, b):
        sa, ba = (-1, a[1:]) if a.startswith("-") else (1, a)
        sb, bb = (-1, b[1:]) if b.startswith("-") else (1, b)
        if ba == "1":
            s, base = sb, bb
        elif bb == "1":
            s, base = 1, ba
        else:
            s, base = table[(ba, bb)]
        s *= sa * sb
        return base if s > 0 and base != "1" else \
            ("1" if s > 0 else "-" + base if base != "1" else "-1")

    idx = {u: i for i, u in enumerate(units)}

    def right_mul(u):
        return Permutation([idx[qmul(v, u)] for v in units])

    return group_from_generators(8, [right_mul("i"), right_mul("j")])


@pytest.fixture(scope="session")
def catalog_entries():
    return default_catalog()


@pytest.fixture
def gc_disabled():
    """The cyclic GC off for one test: only reference counts free."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()
