"""Structural invariants as seeded property tests: hypothesis drives the
seeds, the generators build valid instances by construction, and the
properties are the representation and duality theorems."""

from random import Random

from hypothesis import given, settings, strategies as st

from algdual.algebra import (
    FiniteAlgebra,
    enumerate_homs,
    find_isomorphism,
    ibsl_completion,
    validate_bisemilattice,
    validate_ibsl,
)
from algdual.orders import induced_orders, is_partial_order
from algdual.duality import (
    dual_of_ibsl,
    eps_iso,
    lift_functor_dir_to_inv,
    lift_functor_inv_to_dir,
    stone_double_dual_iso,
    validate_gr_involution,
)
from algdual.generate import random_bsl, random_direct_system, random_ibsl
from algdual.lattices import plonka_decompose_bsl
from algdual.systems import local_units, plonka_decompose, plonka_sum
from algdual.system_morphisms import (
    enumerate_system_morphisms,
    system_morphism_to_hom,
)

seeds = st.integers(min_value=0, max_value=10 ** 9)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_sum_of_boolean_system_is_ibsl(seed):
    system = random_direct_system(Random(seed), "ba", 3, 3)
    assert validate_ibsl(plonka_sum(system)).ok


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=2))
def test_ibsl_axioms_imply_bisemilattice_laws(seed, changes):
    """Whenever I1-I8 hold, so do the bisemilattice laws of the join/meet
    reduct of the completion: the dual of an IBSL need not check them."""
    rng = Random(seed)
    a = random_ibsl(rng, 3, 1)
    join = [list(row) for row in a.binary("join")]
    neg = list(a.unary("neg"))
    for _ in range(changes):
        x, y, v = (rng.randrange(a.size) for _ in range(3))
        if rng.random() < 0.5:
            join[x][y] = join[y][x] = v
        else:
            neg[x] = v
    b = FiniteAlgebra(a.size, {"join": join}, {"neg": neg},
                      {"zero": a.const("zero")})
    if validate_ibsl(b).ok:
        reduct = ibsl_completion(b).reduct(binary=("join", "meet"))
        assert validate_bisemilattice(reduct).ok


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_decompose_sum_roundtrip(seed):
    b = random_ibsl(Random(seed), 3, 2)
    assert find_isomorphism(plonka_sum(plonka_decompose(b)), b,
                            "ibsl") is not None


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_fiber_count_is_local_unit_count(seed):
    b = random_ibsl(Random(seed), 3, 2)
    assert plonka_decompose(b).index.size == len(set(local_units(b)))


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_hom_system_morphism_bijection(seed):
    rng = Random(seed)
    a = plonka_sum(random_direct_system(rng, "ba", 2, 2))
    b = plonka_sum(random_direct_system(rng, "ba", 2, 2))
    da, db = plonka_decompose(a), plonka_decompose(b)
    homs = enumerate_homs(a, b, "ibsl")
    morphisms = enumerate_system_morphisms(da, db)
    assert len(homs) == len(morphisms)
    assert sorted(h.map for h in homs) == sorted(
        system_morphism_to_hom(m).map for m in morphisms)


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_dual_validates_and_evaluation_is_iso(seed):
    b = random_ibsl(Random(seed), 2, 2)
    if b.size > 8:
        return
    dual = dual_of_ibsl(b)
    assert validate_gr_involution(dual).ok
    assert eps_iso(b).is_bijective


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_double_lift_restores_fibers(seed):
    system = random_direct_system(Random(seed), "ba", 3, 2)
    back = lift_functor_inv_to_dir(lift_functor_dir_to_inv(system))
    for i in range(system.index.size):
        iso = stone_double_dual_iso(system.fiber(i))
        assert iso.target.binary_ops == back.fiber(i).binary_ops


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_bsl_orders_are_partial_and_decomposition_round_trips(seed):
    b = random_bsl(Random(seed), 3, 2)
    leq_plus, leq_times = induced_orders(b)
    assert is_partial_order(leq_plus) is None
    assert is_partial_order(leq_times) is None
    system = plonka_decompose_bsl(b)
    assert find_isomorphism(plonka_sum(system), b, "bsl") is not None
