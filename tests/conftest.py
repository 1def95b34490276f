import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from algdual.algebra import FiniteAlgebra, builtin
from algdual.systems import JoinSemilattice


@pytest.fixture
def wk():
    return builtin("wk")


@pytest.fixture
def two():
    return builtin("two")


@pytest.fixture
def s2():
    return builtin("s2")


@pytest.fixture
def three():
    return builtin("three")


@pytest.fixture
def chain2():
    return JoinSemilattice.from_table([[0, 1], [1, 1]], bottom=0)


@pytest.fixture
def trivial_ba():
    return FiniteAlgebra(1, {"join": [[0]], "meet": [[0]]}, {"neg": [0]},
                         {"zero": 0, "one": 0})
