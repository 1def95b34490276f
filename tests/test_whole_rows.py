"""The whole-row builders of the Plonka path against their cell-by-cell
forms in ``tests/oracles.py``: ``plonka_sum``, ``permute_algebra`` and the
document writer behind ``dumps_document``; and the checks of where two maps
disagree (``algebra.compose``, ``first_difference``, ``order_breaks``)
against their loops, through the witnesses of the system-morphism squares
and of the coherence checks of systems, on broken inputs.

Up to 256 elements the rows are bytes gathered by ``bytes.translate``,
above they are tuples (``algebra.row_kernel``), so each builder is also
run on carriers just above that bound.
"""

import json
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from algdual.algebra import (
    FiniteAlgebra,
    builtin,
    enumerate_homs,
    permute_algebra,
)
from algdual.errors import InvalidSystemMorphism
from algdual.morphisms import Morphism
from algdual.system_morphisms import (
    DirectSystemMorphism,
    InverseSystemMorphism,
)
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
from algdual.systems import (
    DirectSystem,
    check_system,
    plonka_decompose,
    plonka_sum,
)

from oracles import (
    loop_permute_algebra,
    loop_plonka_sum,
    loop_square_break,
    loop_system_witnesses,
)


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


# ---------------------------------------------------------------------------
# Where two maps disagree
# ---------------------------------------------------------------------------

def _square_message(pairs, square):
    """The error of the first square that does not commute, by the loop
    reference, or None; ``square(i, j)`` gives (g, p, q, f) of the square
    ``g . p = q . f`` at the comparable pair (i, j)."""
    for i, j in pairs:
        x = loop_square_break(*square(i, j))
        if x is not None:
            return f"square ({i},{j}) does not commute at {x}"
    return None


def _construction_error(make):
    try:
        make()
    except InvalidSystemMorphism as exc:
        return str(exc)
    return None


def test_direct_system_morphism_squares_match_the_loops():
    # identity components but one, which is a random endomorphism
    rng = Random("squares/direct")
    outcomes = set()
    for _ in range(40):
        kind = rng.choice(["ba", "dl"])
        s = random_direct_system(rng, kind, rng.choice([2, 3, 4]), 3)
        n = s.index.size
        comps = {i: Morphism.identity(s.fiber(i), kind) for i in range(n)}
        i = rng.randrange(n)
        comps[i] = rng.choice(enumerate_homs(s.fiber(i), s.fiber(i), kind))
        expected = _square_message(
            s.index.comparable_pairs(), lambda i, j: (
                comps[j].map, s.transitions[i, j], s.transitions[i, j],
                comps[i].map))
        phi = Morphism.identity(s.index.algebra, "sl")
        assert _construction_error(
            lambda: DirectSystemMorphism(s, s, phi, comps)) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_inverse_system_morphism_squares_match_the_loops():
    # identity components but one, which has one value redrawn
    rng = Random("squares/inverse")
    outcomes = set()
    for _ in range(40):
        s = lift_functor_dir_to_inv(
            random_direct_system(rng, "ba", rng.choice([2, 3, 4]), 3))
        n = s.index.size
        comps = {j: list(range(s.term(j).size)) for j in range(n)}
        if not any(comps.values()):
            continue
        j = rng.choice([j for j in range(n) if comps[j]])
        comps[j][rng.randrange(len(comps[j]))] = rng.randrange(len(comps[j]))
        expected = _square_message(
            s.index.comparable_pairs(), lambda j, j2: (
                comps[j], s.bondings[j, j2], s.bondings[j, j2], comps[j2]))
        phi = Morphism.identity(s.index.algebra, "sl")
        assert _construction_error(
            lambda: InverseSystemMorphism(s, s, phi, comps)) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("variant", ["direct", "inverse"])
def test_system_coherence_witnesses_match_the_loops(variant):
    # one value of one arrow redrawn, in range: the arrows stay well formed
    # and may stop being monotone or transitive
    rng = Random(f"coherence/{variant}")
    inverse = variant == "inverse"
    seen = set()
    for _ in range(60):
        d = random_direct_system(rng, "dl", rng.choice([3, 4, 5]), 3,
                                 bounded=True)
        s = lift_system_dl_to_posets(d) if inverse else d
        objects = s.terms if inverse else s.fibers
        arrows = dict(s.bondings if inverse else s.transitions)
        movable = [(i, j) for (i, j), vec in arrows.items() if i != j and vec]
        if not movable:
            continue
        i, j = rng.choice(movable)
        vec = list(arrows[i, j])
        vec[rng.randrange(len(vec))] = rng.randrange(
            objects[i if inverse else j].size)
        arrows[i, j] = tuple(vec)
        report = check_system(s.index.algebra, s.index.bottom, objects,
                              arrows, None if inverse else d.kind,
                              inverse=inverse)
        monotone, transitive = loop_system_witnesses(
            s.index.algebra.binary("join"), objects, arrows, inverse)
        assert report.check("arrows-transitive").witness == transitive
        seen.add(("arrows-transitive", transitive is None))
        if inverse:
            assert report.check("arrows-monotone").witness == monotone
            seen.add(("arrows-monotone", monotone is None))
    names = ("arrows-transitive", "arrows-monotone") if inverse else (
        "arrows-transitive",)
    assert seen == {(name, held) for name in names for held in (True, False)}
