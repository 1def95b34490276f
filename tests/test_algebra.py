import copy
import pickle

import pytest

from algdual.algebra import (
    FiniteAlgebra,
    builtin,
    enumerate_homs,
    find_isomorphism,
    ibsl_completion,
    permute_algebra,
    validate_bisemilattice,
    validate_boolean_algebra,
    validate_ibsl,
)
from algdual.systems import JoinSemilattice
from algdual.morphisms import Morphism
from algdual.orders import induced_orders
from algdual.errors import (
    InvalidMorphism,
    KindMismatch,
    MissingBottom,
    MissingOperation,
    UnknownBuiltin,
)
from algdual.systems import plonka_decompose
from oracles import naive_homs, naive_isomorphisms

# The weak Kleene tables, frozen cell for cell (carrier order 0, 1, a).
WK_JOIN = ((0, 1, 2), (1, 1, 2), (2, 2, 2))
WK_MEET = ((0, 0, 2), (0, 1, 2), (2, 2, 2))
WK_NEG = (1, 0, 2)


def test_builtin_three_matches_weak_kleene_tables(three):
    assert three.binary("join") == WK_JOIN
    assert three.binary("meet") == WK_MEET
    assert three.binary("meet")[0][2] == 2  # 0 . a = a
    assert all(three.binary("join")[2][x] == 2 for x in range(3))  # a + x = a


def test_builtin_wk_involution(wk):
    assert wk.binary("join") == WK_JOIN
    assert wk.binary("meet") == WK_MEET
    assert wk.unary("neg") == WK_NEG
    assert wk.unary("neg")[2] == 2
    assert (wk.const("zero"), wk.const("one")) == (0, 1)


def test_builtin_two_and_s2(two, s2):
    assert two.unary("neg") == (1, 0)
    assert two.binary("join") == ((0, 1), (1, 1))
    assert s2.unary("neg") == (0, 1)
    assert s2.const("one") == s2.const("zero") == 0
    assert s2.binary("meet") == s2.binary("join")


def test_builtin_unknown_name():
    with pytest.raises(UnknownBuiltin):
        builtin("four")


def test_validate_bisemilattice_three(three):
    assert validate_bisemilattice(three).ok


def test_validate_bisemilattice_one_element():
    one = FiniteAlgebra(1, {"join": [[0]], "meet": [[0]]})
    assert validate_bisemilattice(one).ok


def test_validate_bisemilattice_constant_meet_fails():
    a = FiniteAlgebra(2, {"join": [[0, 1], [1, 1]],
                          "meet": [[0, 0], [0, 0]]})
    report = validate_bisemilattice(a)
    assert not report.ok
    assert report.check("meet-idempotent").witness == (1,)


def test_validate_bisemilattice_missing_op():
    with pytest.raises(MissingOperation):
        validate_bisemilattice(FiniteAlgebra(2, {"join": [[0, 1], [1, 1]]}))


def test_validate_ibsl_builtins(wk, two, s2):
    for a in (wk, two, s2):
        report = validate_ibsl(a)
        assert report.ok
        assert [c.name for c in report.checks[:8]] == [
            f"I{i}" for i in range(1, 9)]


def test_validate_ibsl_lattice_with_identity_neg_fails_I6():
    a = FiniteAlgebra(
        2, {"join": [[0, 1], [1, 1]], "meet": [[0, 0], [0, 1]]},
        {"neg": [0, 1]}, {"zero": 0}, names=("0", "1"))
    report = validate_ibsl(a)
    assert not report.ok
    assert report.check("I6").witness == (1, 0)


def test_ibsl_completion_synthesizes_meet_and_one(wk):
    bare = wk.reduct(binary=("join",), unary=("neg",), constants=("zero",))
    full = ibsl_completion(bare)
    assert full.binary("meet") == wk.binary("meet")
    assert full.const("one") == wk.const("one")
    assert validate_ibsl(bare).ok


def test_ibsl_reduct_is_bisemilattice(wk, two, s2):
    for a in (wk, two, s2):
        full = ibsl_completion(a)
        assert validate_bisemilattice(
            full.reduct(binary=("join", "meet"))).ok


def test_validate_boolean_algebra(two):
    assert validate_boolean_algebra(two).ok


def test_validate_boolean_product_two_by_two():
    from algdual.duality import FiniteSpace, ba_of_space

    b4 = ba_of_space(FiniteSpace(2))
    assert validate_boolean_algebra(b4).ok
    assert b4.size == 4


def test_validate_boolean_chain3_de_morgan_fails():
    a = FiniteAlgebra(
        3, {"join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
            "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]]},
        {"neg": [2, 1, 0]}, {"zero": 0, "one": 2})
    report = validate_boolean_algebra(a)
    assert not report.ok
    assert report.check("join-complement").witness == (1,)


def test_boolean_sizes_are_powers_of_two():
    from algdual.lattices import atoms
    from algdual.duality import FiniteSpace, ba_of_space

    for k in range(4):
        b = ba_of_space(FiniteSpace(k))
        assert validate_boolean_algebra(b).ok
        assert b.size == 2 ** len(atoms(b))


def test_induced_orders_three(three):
    leq_plus, leq_times = induced_orders(three)
    # join order is the chain 0 < 1 < a
    assert leq_plus == ((True, True, True),
                        (False, True, True),
                        (False, False, True))
    # meet order is the chain a < 0 < 1
    assert leq_times == ((True, True, False),
                         (False, True, False),
                         (True, True, True))


def test_induced_orders_one_element():
    one = FiniteAlgebra(1, {"join": [[0]], "meet": [[0]]})
    assert induced_orders(one) == (((True,),), ((True,),))


def test_induced_orders_boolean_coincide():
    from algdual.duality import FiniteSpace, ba_of_space

    b4 = ba_of_space(FiniteSpace(2))
    leq_plus, leq_times = induced_orders(b4)
    assert leq_plus == leq_times
    # subset order on bitmask carrier
    assert all(leq_plus[x][y] == ((x & y) == x)
               for x in range(4) for y in range(4))


# Frozen from the naive oracle over all 27 maps: identity, three constants,
# and the two maps collapsing {0, 1} while fixing a.
THREE_ENDO_HOMS = [(0, 0, 0), (0, 0, 2), (0, 1, 2),
                   (1, 1, 1), (1, 1, 2), (2, 2, 2)]


def test_enumerate_homs_three_endos(three):
    homs = enumerate_homs(three, three, "bsl")
    assert [h.map for h in homs] == THREE_ENDO_HOMS
    assert [h.map for h in homs] == naive_homs(three, three, "bsl")


def test_enumerate_homs_wk_to_two_empty(wk, two):
    assert enumerate_homs(wk, two, "ibsl") == []
    assert naive_homs(wk, two, "ibsl") == []


def test_enumerate_homs_two_endos(two):
    homs = enumerate_homs(two, two, "ba")
    assert [h.map for h in homs] == [(0, 1)]


def test_enumerate_homs_matches_oracle_on_builtins(wk, two, s2, three):
    pool = {"wk": wk, "two": two, "s2": s2}
    for a in pool.values():
        for b in pool.values():
            assert ([h.map for h in enumerate_homs(a, b, "ibsl")]
                    == naive_homs(a, b, "ibsl"))


def test_enumerate_homs_rejects_invalid_input(three):
    broken = FiniteAlgebra(2, {"join": [[0, 1], [0, 1]],
                               "meet": [[0, 0], [0, 1]]})
    with pytest.raises(KindMismatch):
        enumerate_homs(broken, three, "bsl")


def test_homs_contain_identity_and_compose(wk, two, s2):
    for a in (wk, two, s2):
        homs = enumerate_homs(a, a, "ibsl")
        maps = {h.map for h in homs}
        assert tuple(range(a.size)) in maps
        for f in homs:
            for g in homs:
                assert g.compose(f).map in maps


def test_morphism_validation_rejects_non_hom(wk, s2):
    with pytest.raises(InvalidMorphism):
        Morphism(wk, s2, (0, 1, 1), "ibsl")


@pytest.mark.parametrize("vector", [(0.4, 1), (0, 1.9)])
def test_morphism_refuses_a_non_integer_value(two, vector):
    # truncated, either vector would be the identity
    with pytest.raises(InvalidMorphism, match="non-integer"):
        Morphism(two, two, vector, "ba")


def test_morphism_reads_bools_as_integers(two):
    assert Morphism(two, two, (False, True), "ba").map == (0, 1)


def test_find_isomorphism_identity_and_size_mismatch(wk, s2):
    assert find_isomorphism(wk, wk, "ibsl").map == (0, 1, 2)
    assert find_isomorphism(wk, s2, "ibsl") is None


def test_find_isomorphism_swapped_atoms():
    from algdual.duality import FiniteSpace, ba_of_space

    b4 = ba_of_space(FiniteSpace(2))
    # transposing the atoms is an automorphism, so the tables agree and the
    # lexicographically first isomorphism is the identity
    swapped = permute_algebra(b4, [0, 2, 1, 3])
    assert swapped.binary_ops == b4.binary_ops
    iso = find_isomorphism(b4, swapped, "ba")
    assert iso.map == min(naive_isomorphisms(b4, swapped, "ba")) == (0, 1, 2, 3)
    assert (0, 2, 1, 3) in naive_isomorphisms(b4, swapped, "ba")
    # a relabeling that moves the top forces a genuine search
    moved = permute_algebra(b4, [0, 1, 3, 2])
    iso = find_isomorphism(b4, moved, "ba")
    assert iso is not None
    assert iso.map == min(naive_isomorphisms(b4, moved, "ba"))


def test_find_isomorphism_symmetric(wk, two):
    from algdual.generate import random_ibsl
    from random import Random

    rng = Random(5)
    for _ in range(10):
        a = random_ibsl(rng, 2, 2)
        b = random_ibsl(rng, 2, 2)
        assert ((find_isomorphism(a, b, "ibsl") is None)
                == (find_isomorphism(b, a, "ibsl") is None))


def test_join_semilattice_requires_bottom():
    with pytest.raises(MissingBottom):
        JoinSemilattice.from_table([[0, 2, 2], [2, 1, 2], [2, 2, 2]])


def test_join_semilattice_comparable_pairs(chain2):
    assert chain2.comparable_pairs() == [(0, 0), (0, 1), (1, 1)]
    assert chain2.leq(0, 1) and not chain2.leq(1, 0)


def test_finite_algebra_is_read_only_and_hashable(wk):
    again = FiniteAlgebra(3, {"meet": WK_MEET, "join": WK_JOIN},
                          {"neg": WK_NEG}, {"zero": 0, "one": 1},
                          names=wk.names)
    assert again == wk and hash(again) == hash(wk)
    assert len({wk, again, builtin("two")}) == 2
    with pytest.raises(TypeError):
        wk.binary_ops["join"] = WK_MEET
    with pytest.raises(TypeError):
        wk.unary_ops["neg"] = (0, 1, 2)
    with pytest.raises(TypeError):
        wk.constants["zero"] = 1
    with pytest.raises(AttributeError):
        wk.size = 4
    assert wk.binary("join") == WK_JOIN and wk.unary("neg") == WK_NEG


def test_values_survive_pickle_and_deepcopy(wk):
    system = plonka_decompose(wk)
    for obj in (wk, system, Morphism.identity(wk, "ibsl")):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert clone == obj and clone is not obj
    clone = pickle.loads(pickle.dumps(wk))
    with pytest.raises(TypeError):
        clone.binary_ops["join"] = WK_MEET


def test_with_ops_equals_a_fully_constructed_algebra(wk):
    base = wk.reduct(binary=("join",), unary=("neg",), constants=("zero",))
    extended = base.with_ops(binary={"meet": [list(r) for r in WK_MEET]},
                             constants={"one": 1})
    full = FiniteAlgebra(3, {"join": WK_JOIN, "meet": WK_MEET},
                         {"neg": WK_NEG}, {"zero": 0, "one": 1},
                         names=wk.names)
    assert extended == full == wk
    assert hash(extended) == hash(full)
    assert list(extended.binary_ops) == ["join", "meet"]
    # the tables the algebra already held are shared, not rebuilt
    assert extended.binary("join") is base.binary("join")
    assert extended.unary("neg") is base.unary("neg")
    with pytest.raises(AttributeError):
        extended.size = 4
    # replacing a table keeps its place and checks the new one
    assert base.with_ops(unary={"neg": [0, 1, 2]}).unary("neg") == (0, 1, 2)


@pytest.mark.parametrize("extra, message", [
    ({"binary": {"meet": [[0, 0, 3], [0, 1, 2], [2, 2, 2]]}}, "out-of-range"),
    ({"binary": {"meet": [[0, 0], [0, 1]]}}, "is not 3x3"),
    ({"unary": {"dual": [0, 1]}}, "not a carrier self-map"),
    ({"constants": {"one": 3}}, "out of range"),
    ({"constants": {"neg": 0}}, "duplicate operation name"),
])
def test_with_ops_checks_the_new_tables(wk, extra, message):
    with pytest.raises(ValueError, match=message):
        wk.with_ops(**extra)
