from random import Random

import pytest

from algdual.algebra import (
    FiniteAlgebra,
    JoinSemilattice,
    Morphism,
    builtin,
    find_isomorphism,
    validate_ibsl,
)
from algdual.errors import (
    DomainMismatch,
    InvalidSystem,
    InvalidSystemMorphism,
    NotIBSL,
)
from algdual.generate import random_direct_system, random_ibsl
from algdual.systems import (
    DirectSystem,
    DirectSystemMorphism,
    check_system,
    compose_system_morphisms,
    enumerate_system_morphisms,
    hom_to_system_morphism,
    identity_system_morphism,
    induced_index_map,
    local_units,
    plonka_decompose,
    plonka_sum,
    restrict_to_fibers,
    system_morphism_to_hom,
)


def wk_system(chain2, trivial_ba):
    return DirectSystem(chain2, {0: builtin("two"), 1: trivial_ba},
                        {(0, 0): (0, 1), (1, 1): (0,), (0, 1): (0, 0)}, "ba")


def singleton_system(fiber):
    point = JoinSemilattice.from_table([[0]], bottom=0)
    return DirectSystem(point, {0: fiber},
                        {(0, 0): tuple(range(fiber.size))}, "ba")


def s2_system(chain2, trivial_ba):
    return DirectSystem(chain2, {0: trivial_ba, 1: trivial_ba},
                        {(0, 0): (0,), (1, 1): (0,), (0, 1): (0,)}, "ba")


def test_plonka_sum_singleton_is_fiber(two):
    total = plonka_sum(singleton_system(two))
    assert total.binary_ops == two.binary_ops
    assert total.unary_ops == two.unary_ops
    assert total.constants == two.constants


def test_plonka_sum_two_trivial_fibers_is_s2(chain2, trivial_ba, s2):
    total = plonka_sum(s2_system(chain2, trivial_ba))
    assert find_isomorphism(total, s2, "ibsl") is not None
    assert total.const("one") == total.const("zero")


def test_plonka_sum_two_plus_trivial_is_wk(chain2, trivial_ba, wk):
    total = plonka_sum(wk_system(chain2, trivial_ba))
    assert total.binary_ops == wk.binary_ops
    assert total.unary_ops == wk.unary_ops
    assert total.constants == wk.constants
    assert validate_ibsl(total).ok


def test_local_units_wk(wk):
    assert local_units(wk) == [1, 1, 2]


def test_plonka_decompose_wk(wk):
    system = plonka_decompose(wk)
    assert system.index.size == 2
    assert system.index.bottom == 0
    assert system.index.algebra.names == ("1", "α")
    assert [system.fiber(i).size for i in (0, 1)] == [2, 1]
    assert system.transitions[(0, 1)] == (0, 0)
    assert find_isomorphism(system.fiber(0), builtin("two"), "ba") is not None


def test_plonka_decompose_two(two):
    system = plonka_decompose(two)
    assert system.index.size == 1
    assert system.fiber(0).binary_ops == two.binary_ops


def test_plonka_decompose_s2(s2):
    system = plonka_decompose(s2)
    assert system.index.size == 2
    assert [system.fiber(i).size for i in (0, 1)] == [1, 1]


def test_plonka_decompose_rejects_non_ibsl():
    # a lattice with identity negation: I5/I6 fail
    bad = FiniteAlgebra(2, {"join": [[0, 1], [1, 1]],
                            "meet": [[0, 0], [0, 1]]},
                        {"neg": [0, 1]}, {"zero": 0})
    with pytest.raises(NotIBSL):
        plonka_decompose(bad)


def test_decompose_of_canonical_sum_is_identity(chain2, trivial_ba):
    system = wk_system(chain2, trivial_ba)
    total = plonka_sum(system)
    back = plonka_decompose(total)
    assert back.index.algebra.binary_ops == system.index.algebra.binary_ops
    assert back.index.bottom == system.index.bottom
    assert back.transitions == system.transitions
    for i in (0, 1):
        assert back.fiber(i).binary_ops == system.fiber(i).binary_ops
        assert back.fiber(i).unary_ops == system.fiber(i).unary_ops
        assert back.fiber(i).constants == system.fiber(i).constants


def test_roundtrip_with_relabel():
    rng = Random(11)
    for _ in range(20):
        b = random_ibsl(rng, 3, 2)
        system = plonka_decompose(b)
        assert find_isomorphism(plonka_sum(system), b, "ibsl") is not None


def test_fiber_count_equals_local_unit_count():
    rng = Random(13)
    for _ in range(20):
        b = random_ibsl(rng, 3, 2)
        assert plonka_decompose(b).index.size == len(set(local_units(b)))


def test_invalid_system_non_transitive_transitions():
    chain3 = JoinSemilattice.from_table(
        [[max(i, j) for j in range(3)] for i in range(3)], bottom=0)
    two = builtin("two")
    ident = (0, 1)
    swap = (1, 0)
    with pytest.raises(InvalidSystem) as exc:
        DirectSystem(chain3, {0: two, 1: two, 2: two},
                     {(0, 0): ident, (1, 1): ident, (2, 2): ident,
                      (0, 1): swap, (1, 2): swap, (0, 2): swap}, "ba")
    report = exc.value.report
    assert report.check("arrows-transitive").witness == (0, 1, 2)


def test_check_system_flags_missing_arrow(chain2, two):
    report = check_system(chain2.algebra, 0, {0: two, 1: two},
                          {(0, 0): (0, 1), (1, 1): (0, 1)}, "ba",
                          inverse=False, subject="direct system")
    assert not report.ok
    assert report.check("arrows-complete").witness == (0, 1)


def test_induced_index_map_quotient(wk, s2):
    da, db = plonka_decompose(wk), plonka_decompose(s2)
    h = Morphism(plonka_sum(da), plonka_sum(db), (0, 0, 1), "ibsl")
    phi = induced_index_map(h, da, db)
    assert phi.map == (0, 1)
    assert phi.map[da.index.bottom] == db.index.bottom


def test_induced_index_map_identity(wk):
    da = plonka_decompose(wk)
    h = Morphism.identity(plonka_sum(da), "ibsl")
    assert induced_index_map(h, da, da).map == (0, 1)


def test_induced_index_map_inclusion(two, wk):
    da, db = plonka_decompose(two), plonka_decompose(wk)
    h = Morphism(plonka_sum(da), plonka_sum(db), (0, 1), "ibsl")
    phi = induced_index_map(h, da, db)
    assert phi.map == (db.index.bottom,)


def test_induced_index_map_rejects_wrong_endpoints(wk, s2):
    da, db = plonka_decompose(wk), plonka_decompose(s2)
    h = Morphism(builtin("wk"), plonka_sum(db), (0, 0, 1), "ibsl")
    with pytest.raises(DomainMismatch):
        induced_index_map(h, db, da)


def test_restrict_to_fibers_quotient(wk, s2):
    da, db = plonka_decompose(wk), plonka_decompose(s2)
    h = Morphism(plonka_sum(da), plonka_sum(db), (0, 0, 1), "ibsl")
    comps = restrict_to_fibers(h, da, db)
    assert comps[0].map == (0, 0)
    assert comps[0].target.size == 1
    assert comps[1].map == (0,)


def test_restrict_to_fibers_identity(wk):
    da = plonka_decompose(wk)
    h = Morphism.identity(plonka_sum(da), "ibsl")
    comps = restrict_to_fibers(h, da, da)
    assert all(comps[i].map == tuple(range(da.fiber(i).size))
               for i in range(2))


def test_system_morphism_to_hom_identity(wk):
    da = plonka_decompose(wk)
    ident = identity_system_morphism(da)
    assert system_morphism_to_hom(ident).map == (0, 1, 2)


def test_hom_system_morphism_roundtrip(wk, s2):
    da, db = plonka_decompose(wk), plonka_decompose(s2)
    h = Morphism(plonka_sum(da), plonka_sum(db), (0, 0, 1), "ibsl")
    m = hom_to_system_morphism(h, da, db)
    assert system_morphism_to_hom(m).map == h.map


def test_system_morphism_validation_rejects_bad_square(chain2):
    from algdual.duality import FiniteSpace, ba_of_space

    b4 = ba_of_space(FiniteSpace(2))
    ident = tuple(range(4))
    system = DirectSystem(chain2, {0: b4, 1: b4},
                          {(0, 0): ident, (1, 1): ident, (0, 1): ident}, "ba")
    phi = Morphism.identity(system.index.algebra, "sl")
    swap = Morphism(b4, b4, (0, 2, 1, 3), "ba")
    comps = {0: Morphism.identity(b4, "ba"), 1: swap}
    with pytest.raises(InvalidSystemMorphism):
        DirectSystemMorphism(system, system, phi, comps)


def test_composition_laws(wk, s2):
    da, db = plonka_decompose(wk), plonka_decompose(s2)
    h = Morphism(plonka_sum(da), plonka_sum(db), (0, 0, 1), "ibsl")
    m = hom_to_system_morphism(h, da, db)
    ida, idb = identity_system_morphism(da), identity_system_morphism(db)
    assert compose_system_morphisms(m, ida) == m
    assert compose_system_morphisms(idb, m) == m


def test_composition_matches_hom_composition(wk, s2, two):
    dw, ds, dt = (plonka_decompose(a) for a in (wk, s2, two))
    f = Morphism(plonka_sum(dt), plonka_sum(dw), (0, 1), "ibsl")
    g = Morphism(plonka_sum(dw), plonka_sum(ds), (0, 0, 1), "ibsl")
    mf = hom_to_system_morphism(f, dt, dw)
    mg = hom_to_system_morphism(g, dw, ds)
    composed = compose_system_morphisms(mg, mf)
    assert system_morphism_to_hom(composed).map == g.compose(f).map
    assert composed == hom_to_system_morphism(g.compose(f), dt, ds)


def test_hom_count_equals_system_morphism_count_builtins(wk, s2, two):
    from algdual.algebra import enumerate_homs

    pool = [wk, s2, two]
    for a in pool:
        for b in pool:
            da, db = plonka_decompose(a), plonka_decompose(b)
            homs = [h.map for h in enumerate_homs(plonka_sum(da),
                                                  plonka_sum(db), "ibsl")]
            morphisms = enumerate_system_morphisms(da, db)
            assert len(homs) == len(morphisms)
            assert sorted(system_morphism_to_hom(m).map
                          for m in morphisms) == sorted(homs)


def test_system_morphism_count_random():
    rng = Random(3)
    from algdual.algebra import enumerate_homs

    for _ in range(8):
        sa = random_direct_system(rng, "ba", 2, 2)
        sb = random_direct_system(rng, "ba", 2, 2)
        a, b = plonka_sum(sa), plonka_sum(sb)
        assert (len(enumerate_homs(a, b, "ibsl"))
                == len(enumerate_system_morphisms(sa, sb)))


def test_hom_to_system_morphism_builds_each_sum_once(monkeypatch):
    # the index map is computed once and handed to the fiber restrictions;
    # computing it twice built each Plonka sum twice
    import algdual.systems as systems

    wk = builtin("wk")
    da = plonka_decompose(wk)
    h = Morphism.identity(wk, "ibsl")
    calls = []
    real = systems.plonka_sum

    def spy(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(systems, "plonka_sum", spy)
    m = hom_to_system_morphism(h, da, da)
    assert len(calls) == 2
    assert m == systems.identity_system_morphism(da)
