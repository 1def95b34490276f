"""The whole-row builders of the Plonka path against their cell-by-cell
forms in ``tests/oracles.py``: ``plonka_sum``, ``permute_algebra`` and the
document writer behind ``dumps_document``.

Up to 256 elements the rows are bytes gathered by ``bytes.translate``,
above they are tuples (``algebra.row_kernel``), so each builder is also
run on carriers just above that bound.
"""

import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from algdual.algebra import FiniteAlgebra, builtin, permute_algebra
from algdual.systems import JoinSemilattice
from algdual.writer import _json, document_data, dumps_document
from algdual.duality import (
    FiniteSpace,
    ba_of_space,
    dual_of_bsl,
    dual_of_ibsl,
    lift_functor_dir_to_inv,
)
from algdual.generate import (
    _chain_index,
    random_boolean_algebra,
    random_direct_system,
    random_distributive_lattice,
    random_join_semilattice,
    random_permutation,
    random_poset,
    random_presheaf_system,
)
from algdual.lattices import lift_system_dl_to_posets
from algdual.systems import DirectSystem, plonka_decompose, plonka_sum

from oracles import loop_permute_algebra, loop_plonka_sum


# ---------------------------------------------------------------------------
# plonka_sum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [16, 32, 48])
def test_plonka_sum_matches_loops_on_the_ladder(k):
    # k=48 gives n=292: tuple rows
    system = random_presheaf_system(Random(3), _chain_index(k), 4)
    total = plonka_sum(system)
    assert total == loop_plonka_sum(system)
    assert total.size > 256 or k < 48


@pytest.mark.parametrize("kind", ["ba", "dl"])
def test_plonka_sum_matches_loops_on_seeded_systems(kind):
    rng = Random(f"whole-rows/{kind}")
    for _ in range(40):
        system = random_direct_system(rng, kind, rng.choice([3, 5]), 3)
        assert plonka_sum(system) == loop_plonka_sum(system)


def test_plonka_sum_matches_loops_with_names_and_a_one_element_fiber():
    # 256 + 1 elements: tuple rows, and a segment of a single entry
    big, point = ba_of_space(FiniteSpace(8)), ba_of_space(FiniteSpace(0))
    assert (big.size, point.size) == (256, 1)
    index = JoinSemilattice.from_table([[0, 1], [1, 1]], bottom=0)
    system = DirectSystem(index, {0: big, 1: point},
                          {(0, 0): tuple(range(256)), (1, 1): (0,),
                           (0, 1): (0,) * 256}, "ba")
    total = plonka_sum(system)
    assert total.size == 257
    assert total == loop_plonka_sum(system)
    named = plonka_decompose(builtin("wk"))
    assert plonka_sum(named).names is not None
    assert plonka_sum(named) == loop_plonka_sum(named)


# ---------------------------------------------------------------------------
# permute_algebra
# ---------------------------------------------------------------------------

def _random_algebra(rng: Random, n: int, names: bool) -> FiniteAlgebra:
    return FiniteAlgebra(
        n, {op: [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            for op in ("join", "meet")},
        {"neg": [rng.randrange(n) for _ in range(n)]},
        {"zero": rng.randrange(n), "one": rng.randrange(n)},
        tuple(f"e{x}" for x in range(n)) if names else None)


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 300])
def test_permute_algebra_matches_loops(n):
    rng = Random(n)
    for names in (False, True):
        a = _random_algebra(rng, n, names)
        perm = random_permutation(rng, n)
        assert permute_algebra(a, perm) == loop_permute_algebra(a, perm)
    assert permute_algebra(a, range(n)) == a


# ---------------------------------------------------------------------------
# The document writer
# ---------------------------------------------------------------------------

def _dumps(value) -> str:
    return json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True)


_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x7féλ😀 '),
                max_size=6)
_SCALARS = st.none() | st.booleans() | st.integers(-10**20, 10**20) | _TEXT
# what documents hold: every value here must be written
_WRITABLE = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25)
# plus values that json.dumps writes and the writer may refuse
_ANY = st.recursive(
    _SCALARS | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_WRITABLE)
def test_writer_matches_json_dumps(value):
    assert _json(value, "") == _dumps(value)


@settings(max_examples=200, deadline=None)
@given(_ANY)
def test_writer_matches_json_dumps_or_refuses(value):
    try:
        out = _json(value, "")
    except TypeError:
        return
    assert out == _dumps(value)


@pytest.mark.parametrize("value", [
    [1, True, 0, False], [True], (1, 2), {"a": (True, None)}, [[1, 2], [True]],
])
def test_writer_writes_bools_and_tuples_as_json_dumps_does(value):
    assert _json(value, "") == _dumps(value)


@pytest.mark.parametrize("value", [1.0, [1, 2.5], {1: 2}, {"a": {2: 3}}])
def test_writer_refuses_floats_and_keys_that_are_not_strings(value):
    with pytest.raises(TypeError):
        _json(value, "")


def _documents():
    rng = Random(11)
    ibsl_system = random_direct_system(rng, "ba", 3, 2)
    dl_system = random_direct_system(rng, "dl", 3, 2, bounded=True)
    return [
        (plonka_sum(ibsl_system), "ibsl"),
        (plonka_sum(dl_system), "bsl"),
        (random_boolean_algebra(rng, 3), "ba"),
        (random_distributive_lattice(rng, 3), "dl"),
        (random_join_semilattice(rng, 4).algebra, "sl"),
        (builtin("wk"), "ibsl"),
        (dual_of_bsl(builtin("three")), None),
        (dual_of_ibsl(builtin("wk")), None),
        (random_poset(rng, 4), None),
        (FiniteSpace(3), None),
        (ibsl_system, None),
        (lift_functor_dir_to_inv(ibsl_system), None),
        (lift_system_dl_to_posets(dl_system), None),
    ]


def test_dumps_document_matches_json_dumps_on_every_kind():
    kinds = set()
    for obj, kind in _documents():
        data = document_data(obj, kind)
        kinds.add(data["kind"])
        assert dumps_document(obj, kind) == _dumps(data) + "\n"
    assert kinds == {"ibsl", "bsl", "ba", "dl", "sl", "gr", "poset", "space",
                     "direct-system", "inverse-system"}
