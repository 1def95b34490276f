from random import Random

import pytest

import algdual.generate as generate
from algdual.algebra import (
    builtin,
    validate_bisemilattice,
    validate_boolean_algebra,
    validate_distributive_lattice,
    validate_ibsl,
)
from algdual.generate import (
    random_ba_hom,
    random_boolean_algebra,
    random_bsl,
    random_direct_system,
    random_distributive_lattice,
    random_dl_hom,
    random_ibsl,
    random_join_semilattice,
    random_chain_system,
    random_presheaf_system,
)
from algdual.lattices import dl_of_poset
from algdual.orders import FinitePoset
from algdual.systems import plonka_sum
from oracles import branch_chain_system, loop_dl_hom


def test_same_seed_reproduces():
    a = random_ibsl(Random(99), 3, 2)
    b = random_ibsl(Random(99), 3, 2)
    assert a == b
    s = random_direct_system(Random(4), "ba", 3, 3)
    t = random_direct_system(Random(4), "ba", 3, 3)
    assert s.transitions == t.transitions
    assert s.fibers == t.fibers


def test_random_instances_are_valid():
    rng = Random(1)
    for _ in range(10):
        assert validate_boolean_algebra(random_boolean_algebra(rng, 3)).ok
        assert validate_distributive_lattice(
            random_distributive_lattice(rng, 3)).ok
        assert validate_ibsl(random_ibsl(rng, 3, 2)).ok
        assert validate_bisemilattice(random_bsl(rng, 3, 2)).ok


def test_random_homs_validate():
    rng = Random(2)
    for _ in range(10):
        a, b = random_boolean_algebra(rng, 2, 1), random_boolean_algebra(rng, 2, 1)
        h = random_ba_hom(rng, a, b)
        assert h is not None and h.kind == "ba"
        d1, d2 = (random_distributive_lattice(rng, 2) for _ in range(2))
        random_dl_hom(rng, d1, d2)
        random_dl_hom(rng, d1, d2, bounded=True)


def test_semilattice_generator_bottomed():
    rng = Random(3)
    for _ in range(10):
        index = random_join_semilattice(rng, 6)
        assert index.size <= 6
        assert all(index.join(index.bottom, x) == x
                   for x in range(index.size))


def test_presheaf_system_over_non_chain():
    rng = Random(6)
    for _ in range(10):
        index = random_join_semilattice(rng, 5)
        system = random_presheaf_system(rng, index, 4)
        assert validate_ibsl(plonka_sum(system)).ok


def test_trivial_fiber_cascade():
    # once a Boolean chain hits a trivial fiber, everything above is trivial
    rng = Random(8)
    for _ in range(30):
        system = random_direct_system(rng, "ba", 3, 2)
        seen_trivial = False
        for i in range(system.index.size):
            if seen_trivial:
                assert system.fiber(i).size == 1
            if system.fiber(i).size == 1:
                seen_trivial = True


def test_dl_hom_fallback_is_a_bounded_hom():
    # no draw of a monotone map from the points of b to those of a
    # succeeds, and the top of a (the antichain's down-set lattice) is not
    # join-irreducible: every point goes to one maximal point of a
    a = dl_of_poset(FinitePoset(3, [[x == y for y in range(3)]
                                    for x in range(3)]))
    b = dl_of_poset(FinitePoset(3, [[1, 0, 1], [0, 1, 1], [0, 0, 1]]))
    rng, ref = Random(1161), Random(1161)
    h = random_dl_hom(rng, a, b, bounded=True)
    assert h.kind == "dl"
    assert (h.map[0], h.map[-1]) == (0, b.size - 1)
    assert h == loop_dl_hom(ref, a, b, bounded=True)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("bounded", [False, True])
def test_dl_hom_fallback_matches_the_loop(monkeypatch, bounded):
    # with every draw of a monotone map failing, each pair falls back
    monkeypatch.setattr(generate, "random_monotone_map",
                        lambda rng, p, q: None)
    for seed in range(300):
        rng = Random(seed)
        a, b = (random_distributive_lattice(rng, 3) for _ in range(2))
        rng, ref = Random(seed), Random(seed)
        assert random_dl_hom(rng, a, b, bounded) == loop_dl_hom(
            ref, a, b, bounded)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("max_fibers", [1, 3])
@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("kind", ["ba", "dl"])
def test_chain_systems_match_the_branching_form(kind, bounded, max_fibers):
    for seed in range(300):
        rng, ref = Random(seed), Random(seed)
        mine = random_chain_system(rng, kind, max_fibers, 3, bounded)
        theirs = branch_chain_system(ref, kind, max_fibers, 3, bounded)
        assert mine.fibers == theirs.fibers
        assert mine.transitions == theirs.transitions
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("kind, draw", [("ba", "random_ba_hom"),
                                        ("dl", "random_dl_hom")])
def test_chain_systems_draw_homs_through_the_module(monkeypatch, kind, draw):
    # a replacement installed on the module, as the loop generator of
    # test_point_map_hom does, draws every cover hom
    calls = []
    original = getattr(generate, draw)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(generate, draw, counted)
    system = random_chain_system(Random(0), kind, 3, 2, True)
    assert len(calls) == system.index.size - 1 > 0
