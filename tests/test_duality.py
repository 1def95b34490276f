from collections import Counter
from random import Random
from types import SimpleNamespace

import pytest

from algdual import duality
from algdual.algebra import (
    builtin,
    enumerate_homs,
    find_isomorphism,
    ibsl_completion,
    validate_ibsl,
)
from algdual.morphisms import Morphism
from algdual.orders import induced_orders
from algdual.duality import (
    FiniteSpace,
    GRSpace,
    GRSpaceWithInvolution,
    ba_of_space,
    base_of,
    bsl_of_gr,
    delta_iso,
    dual_of_bsl,
    dual_of_gr,
    dual_of_ibsl,
    dual_of_ibsl_hom,
    eps_iso,
    gr_homs,
    gr_three,
    ibsl_to_inverse_system,
    lift_functor_dir_to_inv,
    lift_functor_inv_to_dir,
    stone_double_dual_iso,
    stone_dual,
    validate_gr_involution,
    validate_gr_space,
    wk_space,
)
from algdual.lattices import lift_system_morphism_dir_to_inv, stone_dual_hom
from algdual.errors import NotBoolean, NotGRSpace
from algdual.generate import (
    _chain_index,
    random_bsl,
    random_direct_system,
    random_ibsl,
    random_presheaf_system,
)
from algdual.systems import plonka_decompose, plonka_sum
from algdual.system_morphisms import (
    DirectSystemMorphism,
    InverseSystemMorphism,
    hom_to_system_morphism,
    identity_system_morphism,
)
from oracles import (
    naive_gr_homs,
    naive_homs,
    reference_g5,
    reference_g6,
    tuple_locate,
    tuple_negations,
    tuple_order,
    tuple_pointwise,
)


def test_gr_three_is_valid():
    assert validate_gr_space(gr_three()).ok
    assert validate_gr_involution(wk_space()).ok


def test_gr_three_star_matches_case_split():
    g = gr_three()
    for a in range(3):
        for b in range(3):
            assert g.star[a][b] == (a if b != 2 else 2)


def test_gr_three_box_order_is_join_order(three):
    leq_plus, _ = induced_orders(three)
    assert gr_three().box == leq_plus


def test_stone_dual_sizes(two):
    assert stone_dual(two).size == 1
    assert stone_dual(ba_of_space(FiniteSpace(2))).size == 2
    with pytest.raises(NotBoolean):
        stone_dual(builtin("three").with_ops(
            unary={"neg": (1, 0, 2)}, constants={"zero": 0, "one": 1}))


def test_stone_dual_hom_point_map(two):
    h = Morphism.identity(two, "ba")
    assert stone_dual_hom(h) == (0,)


def test_ba_of_space_round_trip_sizes():
    for n in range(4):
        assert stone_dual(ba_of_space(FiniteSpace(n))).size == n


def test_stone_double_dual_all_small_boolean_algebras():
    from algdual.algebra import permute_algebra

    rng = Random(23)
    for n in range(5):  # sizes 1, 2, 4, 8, 16
        base = ba_of_space(FiniteSpace(n))
        iso = stone_double_dual_iso(base)
        assert iso.map == tuple(range(base.size))
        perm = list(range(base.size))
        rng.shuffle(perm)
        moved = permute_algebra(base, perm)
        assert stone_double_dual_iso(moved).is_bijective


def test_lift_wk_decomposition(wk):
    system = plonka_decompose(wk)
    inv = lift_functor_dir_to_inv(system)
    assert [inv.term(i).size for i in (0, 1)] == [1, 0]
    back = lift_functor_inv_to_dir(inv)
    comps = {i: stone_double_dual_iso(system.fiber(i)) for i in (0, 1)}
    # constructing the morphism validates every naturality square
    DirectSystemMorphism(system, back,
                         Morphism.identity(system.index.algebra, "sl"), comps)


def test_lift_singleton(two):
    from algdual.systems import JoinSemilattice
    from algdual.systems import DirectSystem

    point = JoinSemilattice.from_table([[0]], bottom=0)
    system = DirectSystem(point, {0: two}, {(0, 0): (0, 1)}, "ba")
    inv = lift_functor_dir_to_inv(system)
    assert inv.term(0).size == 1


def test_double_lift_isomorphic_random():
    rng = Random(29)
    for _ in range(15):
        system = random_direct_system(rng, "ba", 3, 2)
        back = lift_functor_inv_to_dir(lift_functor_dir_to_inv(system))
        comps = {i: stone_double_dual_iso(system.fiber(i))
                 for i in range(system.index.size)}
        DirectSystemMorphism(system, back,
                             Morphism.identity(system.index.algebra, "sl"),
                             comps)


def test_lift_morphism_dir_to_inv(wk, s2):
    da, db = plonka_decompose(wk), plonka_decompose(s2)
    h = Morphism(plonka_sum(da), plonka_sum(db), (0, 0, 1), "ibsl")
    m = hom_to_system_morphism(h, da, db)
    lifted = lift_system_morphism_dir_to_inv(m)
    assert isinstance(lifted, InverseSystemMorphism)
    assert lifted.index_map.map == m.index_map.map


# Frozen from the naive oracle: the six bisemilattice endomorphisms of the
# three-element bisemilattice give WK a six-point dual (a hand count that
# forgets the two collapse maps would give four).
WK_DUAL_POINTS = ((0, 0, 0), (0, 0, 2), (0, 1, 2),
                  (1, 1, 1), (1, 1, 2), (2, 2, 2))


def test_dual_of_ibsl_wk(wk, three):
    dual = dual_of_ibsl(wk)
    assert dual.points == WK_DUAL_POINTS
    assert dual.size == len(naive_homs(three, three, "bsl"))
    assert validate_gr_involution(dual).ok
    const0, const1, calpha = dual.points.index((0, 0, 0)), \
        dual.points.index((1, 1, 1)), dual.points.index((2, 2, 2))
    assert (dual.c0, dual.c1, dual.calpha) == (const0, const1, calpha)
    ident = dual.points.index((0, 1, 2))
    assert dual.neg[const0] == const1
    assert dual.neg[ident] == ident


def test_dual_of_ibsl_two(two):
    dual = dual_of_ibsl(two)
    assert dual.size == 4
    assert dual.size == len(naive_homs(two, builtin("three"), "bsl"))
    # constants are the three constant homs
    assert dual.points[dual.c0] == (0, 0)
    assert dual.points[dual.c1] == (1, 1)
    assert dual.points[dual.calpha] == (2, 2)


def test_dual_points_are_canonically_ordered(s2):
    dual = dual_of_ibsl(s2)
    assert list(dual.points) == sorted(dual.points)


def test_dual_of_gr_wk_space_is_trivial():
    algebra = dual_of_gr(wk_space())
    assert algebra.size == 1
    assert len(naive_gr_homs(gr_three(), gr_three())) == 1


def test_dual_of_gr_recovers_wk(wk):
    dual = dual_of_ibsl(wk)
    back = dual_of_gr(dual)
    assert back.size == 3
    assert find_isomorphism(back, wk, "ibsl") is not None


def test_dual_of_gr_recovers_two(two):
    back = dual_of_gr(dual_of_ibsl(two))
    assert find_isomorphism(back, two, "ibsl") is not None


def test_gr_homs_match_naive_oracle(wk, two):
    for b in (wk, two):
        dual = dual_of_ibsl(b)
        assert gr_homs(dual) == naive_gr_homs(dual, gr_three())


def test_eps_iso_builtins(wk, two, s2):
    for b in (wk, two, s2):
        iso = eps_iso(b)
        assert iso.is_bijective
        assert iso.source.size == b.size


def test_eps_iso_one_element(trivial_ba):
    iso = eps_iso(trivial_ba)
    assert iso.source.size == iso.target.size == 1


def test_delta_iso_on_duals(wk, two, s2):
    for b in (wk, two, s2):
        dual = dual_of_ibsl(b)
        iso = delta_iso(dual)
        assert iso.is_bijective
        assert iso.source.size == dual.size
    assert delta_iso(dual_of_ibsl(two)).source.size == 4


def test_validate_gr_involution_rejects_broken_neg(two):
    dual = dual_of_ibsl(two)
    broken = GRSpaceWithInvolution(dual.base,
                                   tuple(range(dual.size)))
    report = validate_gr_involution(broken)
    assert not report.ok
    assert not report.check("G4").holds


def test_dual_of_ibsl_hom_identity(wk):
    star = dual_of_ibsl_hom(Morphism.identity(wk, "ibsl"))
    assert star.map == tuple(range(6))


def test_dual_of_quotient_is_injective(wk, s2):
    g = Morphism(wk, s2, (0, 0, 1), "ibsl")
    star = dual_of_ibsl_hom(g)
    assert len(set(star.map)) == len(star.map)


def test_contravariance_chain(two, wk, s2):
    f = Morphism(two, wk, (0, 1), "ibsl")
    g = Morphism(wk, s2, (0, 0, 1), "ibsl")
    lhs = dual_of_ibsl_hom(g.compose(f))
    rhs = dual_of_ibsl_hom(f).compose(dual_of_ibsl_hom(g))
    assert lhs.map == rhs.map
    assert lhs.source.points == rhs.source.points


def test_hom_set_contravariant_bijection(wk, two, s2):
    pool = [wk, two, s2]
    for a in pool:
        for b in pool:
            n_alg = len(enumerate_homs(a, b, "ibsl"))
            n_spc = len(enumerate_homs(dual_of_ibsl(b), dual_of_ibsl(a),
                                       "igr"))
            assert n_alg == n_spc


def test_bsl_of_gr_three(three):
    dual = dual_of_bsl(three)
    back = bsl_of_gr(dual)
    assert find_isomorphism(back, three, "bsl") is not None


def test_ibsl_to_inverse_system(wk, two, s2):
    assert [ibsl_to_inverse_system(wk).term(i).size for i in (0, 1)] == [1, 0]
    assert [ibsl_to_inverse_system(two).term(i).size for i in (0,)] == [1]
    assert [ibsl_to_inverse_system(s2).term(i).size for i in (0, 1)] == [0, 0]


def test_inverse_system_roundtrip_recovers_algebra():
    rng = Random(31)
    for _ in range(10):
        b = random_ibsl(rng, 3, 2)
        back = plonka_sum(lift_functor_inv_to_dir(ibsl_to_inverse_system(b)))
        assert find_isomorphism(back, b, "ibsl") is not None


def test_validate_gr_space_witnesses():
    from algdual.duality import GRSpace, validate_gr_space

    base = gr_three()
    # break the left-normal identity by making star non-idempotent
    star = [list(r) for r in base.star]
    star[1][1] = 0
    report = validate_gr_space(GRSpace(3, star, base.leq, 0, 1, 2))
    assert not report.ok
    assert report.check("star-idempotent").witness == (1,)
    # break the separation axiom: make c0 and c1 coincide
    report = validate_gr_space(GRSpace(3, base.star, base.leq, 0, 0, 2))
    assert not report.ok
    assert not report.check("c0-c1-separation").holds


def test_duals_validate_for_random_small_ibsl():
    rng = Random(37)
    for _ in range(8):
        b = random_ibsl(rng, 2, 2)
        if b.size > 8:
            continue
        dual = dual_of_ibsl(b)
        assert validate_gr_involution(dual).ok
        assert eps_iso(b).is_bijective


def _involutions(n: int) -> list[tuple[int, ...]]:
    """Every permutation p of range(n) with p[p[a]] == a, each once."""
    out = []

    def extend(p):
        if -1 not in p:
            out.append(tuple(p))
            return
        a = p.index(-1)
        for b in range(a, n):
            if p[b] == -1:
                p[a], p[b] = b, a
                extend(p)
                p[a] = p[b] = -1

    extend([-1] * n)
    return out


def _small_duals():
    """(algebra, dual) for the duals of at most 7 points of the random BSLs
    and IBSLs on seeds 0-299."""
    out = []
    for s in range(300):
        bsl, ibsl = random_bsl(Random(s), 2, 2), random_ibsl(Random(s), 2, 2)
        out += [(b, d) for b, d in ((bsl, dual_of_bsl(bsl)),
                                    (ibsl, dual_of_ibsl(ibsl)))
                if d.size <= 7]
    return out


def test_g5_g6_match_the_reference_scans():
    # every involution passing G1-G4 on the small duals of random BSLs and
    # IBSLs; the corpus reaches failing G5 and G6 verdicts
    three = gr_three()
    bases = {}
    for _, dual in _small_duals():
        bases.setdefault(base_of(dual))
    tally = Counter()
    for base in bases:
        homs = naive_gr_homs(base, three)
        for neg in _involutions(base.size):
            g = GRSpaceWithInvolution(base, neg)
            report = validate_gr_involution(g)
            if not all(report.check(f"G{i}").holds for i in range(1, 5)):
                continue
            g5, g6 = report.check("G5"), report.check("G6")
            assert g5.witness == reference_g5(g, homs)
            assert g5.holds == (g5.witness is None)
            assert g6.holds == reference_g6(g, homs)
            tally.update(objects=1, g5_fails=not g5.holds,
                         g6_fails=not g6.holds)
    assert len(bases) == 104
    assert tally == {"objects": 117, "g5_fails": 53, "g6_fails": 3}


def _assert_masks_match_tuples(b, dual):
    """The star, order, involution, join and meet tables and the G5
    verdict of the dual of ``b`` and of its double dual, against the
    coordinate-at-a-time forms."""
    points = dual.points
    three = builtin("three")
    assert dual.star == tuple(map(tuple, tuple_pointwise(
        points, gr_three().star, "star")))
    assert dual.leq == tuple(map(tuple, tuple_order(points)))
    homs = gr_homs(dual)
    if isinstance(dual, GRSpaceWithInvolution):
        neg = ibsl_completion(b).unary("neg")
        assert dual.neg == tuple(tuple_locate(
            points, tuple_negations(points, neg), "the involution"))
        double = dual_of_gr(dual)
        assert double.unary("neg") == tuple(tuple_locate(
            homs, tuple_negations(homs, dual.neg), "the involution"))
        assert (validate_gr_involution(dual).check("G5").witness
                == reference_g5(dual, homs))
    else:
        double = bsl_of_gr(dual)
    for op in ("join", "meet"):
        assert double.binary(op) == tuple(map(tuple, tuple_pointwise(
            homs, three.binary(op), op)))


def test_mask_tables_match_tuples_on_small_duals():
    duals = _small_duals()
    assert {type(d).__name__ for _, d in duals} == {
        "GRSpace", "GRSpaceWithInvolution"}
    for b, dual in duals:
        _assert_masks_match_tuples(b, dual)


def test_mask_tables_match_tuples_on_the_k16_ladder_instance():
    b = plonka_sum(random_presheaf_system(Random(3), _chain_index(16), 4))
    dual = dual_of_ibsl(b)
    assert (b.size, dual.size, len(gr_homs(dual))) == (128, 74, 128)
    _assert_masks_match_tuples(b, dual)


def test_g5_masks_match_the_loop_on_random_vectors():
    # vectors that are no hom-space break G5 at several points at once, so
    # the witness point must be the lowest differing one
    rng = Random(97)
    witnesses = set()
    for _ in range(200):
        m = rng.randint(1, 9)
        neg = rng.choice(_involutions(m))
        vectors = sorted({tuple(rng.randrange(3) for _ in range(m))
                          for _ in range(rng.randint(1, 6))})
        w = reference_g5(SimpleNamespace(size=m, neg=neg), vectors)
        assert duality._g5_witness(
            duality._masks(vectors),
            duality._masks(tuple_negations(vectors, neg))) == w
        witnesses.add(w is None or w[2])
    assert {True, 0, 1, 2} <= witnesses


def test_pointwise_masks_reject_a_set_not_closed_under_join():
    vectors = [(0, 1), (1, 0), (1, 1), (0, 2)]  # (1, 0) + (0, 2) is absent
    join = builtin("three").binary("join")
    with pytest.raises(NotGRSpace) as tupled:
        tuple_pointwise(vectors, join, "join")
    with pytest.raises(NotGRSpace) as masked:
        duality._pointwise(duality._masks(vectors), duality._join, "join")
    assert str(masked.value) == str(tupled.value) == (
        "hom-space is not closed under join")


def test_box_is_built_once_and_shared(monkeypatch):
    built = []
    box = GRSpace.box.func
    monkeypatch.setattr(GRSpace.box, "func",
                        lambda g: built.append(g) or box(g))
    # a relabelled wk space, which no other object equals, so no earlier
    # verdict is reused
    w, perm = wk_space(), (1, 2, 0)
    inv = [perm.index(x) for x in range(3)]
    base = GRSpace(3, [[perm[w.star[inv[a]][inv[c]]] for c in range(3)]
                       for a in range(3)],
                   [[w.leq[inv[a]][inv[c]] for c in range(3)]
                    for a in range(3)],
                   perm[w.c0], perm[w.c1], perm[w.calpha])
    g = GRSpaceWithInvolution(base, [perm[w.neg[inv[a]]] for a in range(3)])
    assert validate_gr_involution(g).ok
    assert len(built) == 1 and built[0] is base
    assert g.box is g.base.box
    assert len(built) == 1
