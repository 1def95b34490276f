from random import Random

import pytest

from algdual.algebra import (
    FiniteAlgebra,
    builtin,
    enumerate_homs,
    find_isomorphism,
)
from algdual.morphisms import Morphism
from algdual.duality import dual_of_bsl
from algdual.errors import (
    MissingBottom,
    NotBisemilattice,
    NotDistributive,
    TooLarge,
    UnboundedTransition,
)
from algdual.generate import (
    random_boolean_algebra,
    random_bsl,
    random_direct_system,
    random_distributive_lattice,
    random_poset,
)
from algdual.lattices import (
    DistributiveLattice,
    FinitePoset,
    bsl_to_inverse_system,
    dl_double_dual_iso,
    dl_of_poset,
    downset_masks,
    find_poset_isomorphism,
    inverse_system_to_bsl,
    join_irreducibles,
    plonka_decompose_bsl,
    poset_double_dual_iso,
    priestley_dual,
    priestley_dual_hom,
)
from algdual.systems import plonka_sum, star_table
from oracles import brute_downset_masks, naive_join_irreducibles


def chain_dl(n):
    return FiniteAlgebra(
        n, {"join": [[max(i, j) for j in range(n)] for i in range(n)],
            "meet": [[min(i, j) for j in range(n)] for i in range(n)]})


def all_posets(n):
    """Every partial order on {0..n-1}, by brute force over relations."""
    from itertools import product as iproduct

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in iproduct((False, True), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(pairs, bits):
            if b:
                leq[i][j] = True
        ok = True
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    ok = False
                for k in range(n):
                    if leq[i][j] and leq[j][k] and not leq[i][k]:
                        ok = False
        if ok:
            out.append(FinitePoset(n, tuple(tuple(r) for r in leq)))
    return out


def test_star_table_three(three):
    star = star_table(three)
    for a in range(3):
        for b in range(3):
            assert star[a][b] == (a if b != 2 else 2)


def test_decompose_three(three):
    system = plonka_decompose_bsl(three)
    assert system.index.size == 2
    assert sorted(system.fiber(i).size for i in (0, 1)) == [1, 2]
    assert find_isomorphism(plonka_sum(system), three, "bsl") is not None


def test_decompose_lattice_is_singleton():
    system = plonka_decompose_bsl(chain_dl(3))
    assert system.index.size == 1
    assert system.fiber(0).size == 3


def test_decompose_semilattice_two_singletons():
    sl2 = FiniteAlgebra(2, {"join": [[0, 1], [1, 1]],
                            "meet": [[0, 1], [1, 1]]})
    system = plonka_decompose_bsl(sl2)
    assert system.index.size == 2
    assert [system.fiber(i).size for i in (0, 1)] == [1, 1]


def test_decompose_rejects_non_bisemilattice():
    bad = FiniteAlgebra(2, {"join": [[0, 1], [1, 1]],
                            "meet": [[0, 0], [0, 0]]})
    with pytest.raises(NotBisemilattice):
        plonka_decompose_bsl(bad)


def test_decompose_bottomless_index_raises():
    # + = . = join of the semilattice {a, b, a v b}: three singleton
    # fibers over an index with no least element
    join = ((0, 2, 2), (2, 1, 2), (2, 2, 2))
    b = FiniteAlgebra(3, {"join": join, "meet": join})
    with pytest.raises(MissingBottom):
        plonka_decompose_bsl(b)


def test_bsl_roundtrip_random():
    rng = Random(17)
    for _ in range(25):
        b = random_bsl(rng, 3, 2)
        system = plonka_decompose_bsl(b)
        assert find_isomorphism(plonka_sum(system), b, "bsl") is not None


def _fiber_relation(algebra):
    star = star_table(algebra)
    return [[star[x][y] == x and star[y][x] == y
             for y in range(algebra.size)] for x in range(algebra.size)]


def test_hom_maps_fibers_into_fibers():
    # every bisemilattice hom respects the fiber partition with a
    # semilattice index map
    rng = Random(19)
    for _ in range(6):
        a = random_bsl(rng, 2, 2)
        b = random_bsl(rng, 2, 2)
        related_a, related_b = _fiber_relation(a), _fiber_relation(b)
        for h in enumerate_homs(a, b, "bsl"):
            for x in range(a.size):
                for y in range(a.size):
                    if related_a[x][y]:
                        assert related_b[h(x)][h(y)]


def test_join_irreducibles_examples():
    assert join_irreducibles(chain_dl(2)) == [1]
    assert join_irreducibles(chain_dl(3)) == [1, 2]
    assert len(join_irreducibles(dl_of_poset(
        FinitePoset(2, ((True, False), (False, True)))))) == 2


def test_join_irreducibles_match_pair_scan():
    rng = Random(13)
    lattices = [random_distributive_lattice(rng, 5) for _ in range(60)]
    lattices += [random_boolean_algebra(rng, 4) for _ in range(20)]
    lattices += [plonka_decompose_bsl(random_bsl(rng, 3, 3)).fiber(0)
                 for _ in range(20)]
    for d in lattices:
        assert join_irreducibles(d) == naive_join_irreducibles(d)


def test_priestley_dual_examples():
    assert priestley_dual(chain_dl(2)).size == 1
    antichain2 = priestley_dual(dl_of_poset(
        FinitePoset(2, ((True, False), (False, True)))))
    assert antichain2.size == 2
    assert antichain2.leq == ((True, False), (False, True))
    chain2 = priestley_dual(chain_dl(3))
    assert chain2.size == 2
    assert chain2.leq == ((True, True), (False, True))


def test_priestley_rejects_non_distributive():
    # the diamond M3 is a lattice but not distributive
    m3 = FiniteAlgebra(
        5, {"join": [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4],
                     [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]],
            "meet": [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2],
                     [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]]})
    with pytest.raises(NotDistributive):
        priestley_dual(m3)
    with pytest.raises(NotDistributive):
        DistributiveLattice(m3)


def test_dl_double_dual_all_posets_up_to_4():
    for n in range(5):
        for p in all_posets(n):
            d = dl_of_poset(p)
            assert d.size <= 16
            iso = dl_double_dual_iso(d)
            assert iso.is_bijective
            vec = poset_double_dual_iso(p)
            assert len(vec) == p.size


def test_dl_double_dual_chains_up_to_16():
    for n in range(1, 17):
        assert dl_double_dual_iso(chain_dl(n)).is_bijective


def test_dl_double_dual_random():
    rng = Random(23)
    for _ in range(20):
        d = random_distributive_lattice(rng, 4)
        if d.size <= 16:
            assert dl_double_dual_iso(d).is_bijective


def test_poset_iso_search():
    p = FinitePoset(2, ((True, True), (False, True)))
    q = FinitePoset(2, ((True, False), (True, True)))
    assert find_poset_isomorphism(p, q) == (1, 0)
    antichain = FinitePoset(2, ((True, False), (False, True)))
    assert find_poset_isomorphism(p, antichain) is None


def test_priestley_dual_hom_requires_bounds():
    two_chain = chain_dl(2)
    const_top = Morphism(two_chain, two_chain, (1, 1), "dl")
    with pytest.raises(UnboundedTransition):
        priestley_dual_hom(const_top)


def test_bsl_to_inverse_system_three(three):
    inv = bsl_to_inverse_system(three)
    sizes = sorted(inv.term(i).size for i in range(2))
    assert sizes == [0, 1]
    back = inverse_system_to_bsl(inv)
    assert find_isomorphism(back, three, "bsl") is not None


def test_bsl_to_inverse_system_lattice():
    inv = bsl_to_inverse_system(chain_dl(3))
    assert inv.index.size == 1
    assert inv.term(0).size == 2


def test_bsl_to_inverse_system_s2_reduct(s2):
    inv = bsl_to_inverse_system(s2.reduct(binary=("join", "meet")))
    assert [inv.term(i).size for i in (0, 1)] == [0, 0]


def test_bsl_duality_roundtrip_bounded_random():
    rng = Random(29)
    done = 0
    while done < 10:
        system = random_direct_system(rng, "dl", 3, 2, bounded=True)
        b = plonka_sum(system)
        inv = bsl_to_inverse_system(b)
        back = inverse_system_to_bsl(inv)
        assert find_isomorphism(back, b, "bsl") is not None
        done += 1


def test_gr_cross_check_hom_counts(three):
    # duality machinery without involution, on bisemilattices
    pool = [three, chain_dl(2)]
    for a in pool:
        for b in pool:
            n_alg = len(enumerate_homs(a, b, "bsl"))
            n_gr = len(enumerate_homs(dual_of_bsl(b), dual_of_bsl(a), "gr"))
            assert n_alg == n_gr


def test_downset_masks_match_the_subset_scan():
    # every poset up to 4 elements, and random ones up to 9
    rng = Random(31)
    posets = [p for n in range(5) for p in all_posets(n)]
    posets += [random_poset(rng, 9) for _ in range(60)]
    for p in posets:
        assert downset_masks(p) == brute_downset_masks(p)


def test_downset_masks_grow_with_the_down_sets_not_the_subsets():
    chain = FinitePoset(40, [[i <= j for j in range(40)] for i in range(40)])
    assert downset_masks(chain) == [(1 << k) - 1 for k in range(41)]
    ten = FinitePoset(10, [[i == j for j in range(10)] for i in range(10)])
    assert len(downset_masks(ten)) == 1 << 10
    eleven = FinitePoset(11, [[i == j for j in range(11)] for i in range(11)])
    with pytest.raises(TooLarge, match="11-element poset has more than 2"):
        downset_masks(eleven)
