"""Differential tests: the readers of sets of elements, which all hold a set
as an int with bit y for element y (``algebra.bitset``), against their loop
forms in ``tests/oracles.py``.

The helper must equal ``sum(row[y] << y ...)`` on rows of every length
around a byte and a 256-entry boundary.  Hasse covers must equal the loop
on random posets, chains and antichains, 0/1 relations that are not orders,
the two orders of the ladder algebras and GR box orders.  ``order_breaks``,
the order-disconnected witness and the Birkhoff labels must equal their
oracles, one-cell mutants included, and so must the poset double dual on
posets whose order does not follow the index order (the partial-order
check and the down-sets are compared in ``test_search_engine.py`` and
``test_lattices.py``).
"""

from itertools import product
from random import Random

import pytest

from algdual.algebra import (
    FiniteAlgebra,
    _least,
    birkhoff_labels,
    bitset,
    order_breaks,
)
from algdual.duality import (
    _ALPHA_DIGITS,
    _ONE_DIGITS,
    GRSpace,
    dual_of_bsl,
    dual_of_ibsl,
    validate_gr_space,
)
from algdual.generate import (
    _chain_index,
    random_bsl,
    random_direct_system,
    random_distributive_lattice,
    random_ibsl,
    random_permutation,
    random_poset,
    random_presheaf_system,
)
from algdual.hasse import covering_edges
from algdual.lattices import poset_double_dual_iso
from algdual.orders import FinitePoset, is_partial_order, order_from_binary
from algdual.systems import plonka_sum
from oracles import (
    loop_birkhoff_labels,
    loop_covering_edges,
    loop_join_irreducibles,
    loop_order_break,
    loop_poset_double_dual_iso,
    naive_order_disconnected_witness,
)
from test_plonka_witness import LADDER


def _relabelled_poset(rng, max_size):
    """A random poset whose order does not follow the index order."""
    p = random_poset(rng, max_size)
    perm = random_permutation(rng, p.size)
    inv = sorted(range(p.size), key=perm.__getitem__)
    return FinitePoset(p.size, [[p.leq[inv[x]][inv[y]] for y in range(p.size)]
                                for x in range(p.size)])


def _flipped(rng, leq, cells=1):
    """``leq`` with ``cells`` random cells flipped, as lists."""
    out = [list(row) for row in leq]
    for _ in range(cells if out else 0):
        x, y = rng.randrange(len(out)), rng.randrange(len(out))
        out[x][y] = not out[x][y]
    return out


@pytest.mark.parametrize("n", [0, 1, 8, 9, 256, 257, 1024])
def test_bitset_is_the_sum_of_the_shifted_entries(n):
    rng = Random(n)
    for density in (0.0, 0.1, 0.5, 1.0):
        row = [int(rng.random() < density) for _ in range(n)]
        expected = sum(row[y] << y for y in range(n))
        assert bitset(row) == expected
        assert bitset(tuple(map(bool, row))) == expected
        assert bitset(bytes(row)) == expected
        assert bitset(iter(row)) == expected
        if expected:
            assert _least(expected) == row.index(1)
    values = [rng.randrange(3) for _ in range(n)]
    assert bitset(values, _ALPHA_DIGITS) == sum(
        (v == 2) << y for y, v in enumerate(values))
    assert bitset(values, _ONE_DIGITS) == sum(
        (v == 1) << y for y, v in enumerate(values))


def test_least_is_the_lowest_bit():
    rng = Random(2)
    for y in range(300):
        assert _least(1 << y) == y
        assert _least(1 << y | rng.getrandbits(300) << y + 1) == y


def _covers_agree(leq):
    assert covering_edges(leq) == loop_covering_edges(leq)


def test_covers_of_random_posets():
    rng = Random(11)
    sizes = set()
    for _ in range(300):
        p = _relabelled_poset(rng, 12)
        _covers_agree(p.leq)
        sizes.add(p.size)
    assert sizes == set(range(13))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64])
def test_covers_of_chains_and_antichains(n):
    chain = [[x <= y for y in range(n)] for x in range(n)]
    reversed_chain = [[x >= y for y in range(n)] for x in range(n)]
    antichain = [[x == y for y in range(n)] for x in range(n)]
    assert covering_edges(chain) == [(x, x + 1) for x in range(n - 1)]
    assert covering_edges(reversed_chain) == [(x + 1, x)
                                              for x in range(n - 1)]
    assert covering_edges(antichain) == []
    for leq in (chain, reversed_chain, antichain):
        _covers_agree(leq)


def test_covers_of_relations_that_are_not_orders():
    # the predicate is the loop's on any 0/1 relation, irreflexive and
    # cyclic ones included
    rng = Random(13)
    seen = 0
    while seen < 300:
        n = rng.randint(1, 12)
        density = rng.random()
        leq = [[rng.random() < density for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            leq = _flipped(rng, _relabelled_poset(rng, 12).leq,
                           rng.randint(1, 3))
        if is_partial_order(leq) is None:
            continue
        _covers_agree(leq)
        seen += 1


@pytest.mark.parametrize("kind, seed, fibers, atoms, size", LADDER)
def test_covers_of_the_orders_of_ladder_algebras(kind, seed, fibers, atoms,
                                                 size):
    total = plonka_sum(random_direct_system(Random(seed), kind, fibers, atoms))
    assert total.size == size
    for via in ("join", "meet"):
        _covers_agree(order_from_binary(total.binary(via), via))


def test_covers_of_the_orders_of_the_chain_ladder():
    total = plonka_sum(random_presheaf_system(Random(3), _chain_index(16), 4))
    for via in ("join", "meet"):
        _covers_agree(order_from_binary(total.binary(via), via))


def test_covers_of_gr_box_orders():
    rng = Random(17)
    for _ in range(12):
        for g in (dual_of_bsl(random_bsl(rng, 3, 3)),
                  dual_of_ibsl(random_ibsl(rng, 3, 2)).base):
            _covers_agree(g.box)
            _covers_agree(g.leq)


def _random_map(rng, source, target):
    return [rng.randrange(target) for _ in range(source)]


@pytest.mark.parametrize("reflect", [False, True])
def test_order_breaks_on_posets_and_their_mutants(reflect):
    rng = Random(23 + reflect)
    verdicts = set()
    for _ in range(200):
        p, q = _relabelled_poset(rng, 8), _relabelled_poset(rng, 8)
        if not q.size:
            continue
        la = _flipped(rng, p.leq) if rng.random() < 0.5 else p.leq
        maps = [_random_map(rng, p.size, q.size) for _ in range(3)]
        if p.size == q.size:
            maps.append(list(range(p.size)))
        got = list(order_breaks(maps, la, q.leq, reflect))
        assert got == [loop_order_break(f, la, q.leq, reflect) for f in maps]
        verdicts.update(w is None for w in got)
    assert verdicts == {True, False}


def test_order_disconnected_witness_on_gr_spaces_and_their_mutants():
    rng = Random(29)
    verdicts = set()
    for _ in range(40):
        g = dual_of_bsl(random_bsl(rng, 3, 3))
        for leq in (g.leq, _flipped(rng, g.leq), _flipped(rng, g.leq, 2)):
            mutant = GRSpace(g.size, g.star, leq, g.c0, g.c1, g.calpha)
            w = naive_order_disconnected_witness(leq)
            got = validate_gr_space(mutant).check("order-disconnected")
            assert got.witness == w
            verdicts.add(w is None)
    assert verdicts == {True, False}


def _lattice_mutants(rng, d, count):
    """``d`` with one cell of its join table changed, ``count`` times."""
    join = [list(row) for row in d.binary("join")]
    for _ in range(count):
        x, y = rng.randrange(d.size), rng.randrange(d.size)
        old = join[x][y]
        join[x][y] = rng.randrange(d.size)
        yield FiniteAlgebra(d.size, {"join": join, "meet": d.binary("meet")})
        join[x][y] = old


def test_birkhoff_labels_on_lattices_and_their_mutants():
    rng = Random(31)
    for _ in range(60):
        d = random_distributive_lattice(rng, 5)
        irr, labels = birkhoff_labels(d)
        assert (irr, labels) == loop_birkhoff_labels(d)
        assert irr == loop_join_irreducibles(d)
        for m in _lattice_mutants(rng, d, 5):
            assert birkhoff_labels(m) == loop_birkhoff_labels(m)


def test_every_table_on_two_elements_labels_as_the_loop():
    for cells in product(range(2), repeat=4):
        a = FiniteAlgebra(2, {"join": [cells[:2], cells[2:]]})
        assert birkhoff_labels(a) == loop_birkhoff_labels(a)


def test_poset_double_dual_of_random_posets():
    rng = Random(37)
    for _ in range(80):
        p = _relabelled_poset(rng, 7)
        assert poset_double_dual_iso(p) == loop_poset_double_dual_iso(p)
