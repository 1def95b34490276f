"""Homs from point maps (``lattices.point_map_hom``): Birkhoff and Stone
duality on maps, in the direction from points to homs.

- Differential: ``point_map_hom`` against the loops that ``lift_to_direct``
  and the generator ran before it (``tests/oracles.py``), on every monotone
  map between posets of up to three points and every map between spaces of
  up to three points; and the generator against one built on those loops,
  draw for draw, over 300 seeds.
- Bijection: ``priestley_dual_hom`` undoes ``point_map_hom`` on every such
  monotone map, and ``point_map_hom`` undoes it on every bound-preserving
  ``dl`` hom between their down-set lattices.
"""

from itertools import product
from random import Random

import pytest

import algdual.generate as generate
from algdual.algebra import birkhoff_labels
from algdual.generate import (
    random_ba_hom,
    random_boolean_algebra,
    random_direct_system,
    random_distributive_lattice,
    random_dl_hom,
)
from algdual.lattices import (
    ba_of_space,
    dl_of_poset,
    downset_masks,
    join_irreducibles,
    lift_functor_dir_to_inv,
    lift_functor_inv_to_dir,
    lift_system_dl_to_posets,
    lift_system_posets_to_dl,
    point_map_hom,
    priestley_dual_hom,
)
from algdual.morphisms import Morphism
from algdual.orders import FinitePoset, FiniteSpace, is_partial_order
from algdual.search import enumerate_homs
from oracles import (
    loop_ba_hom,
    loop_dl_hom,
    loop_join_hom,
    loop_lattice_bounds,
    loop_lift_to_direct,
    loop_preimage_hom,
    loop_presheaf_system,
)

SEEDS = range(300)


def _posets(n):
    """Every partial order on n labelled elements."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in product((False, True), repeat=len(pairs)):
        leq = [[x == y for y in range(n)] for x in range(n)]
        for (x, y), bit in zip(pairs, bits):
            leq[x][y] = bit
        if is_partial_order(leq) is None:
            yield FinitePoset(n, leq)


POSETS = [p for n in range(4) for p in _posets(n)]


def _monotone_maps(q, p):
    """Every monotone map from the points of q to those of p."""
    for g in product(range(p.size), repeat=q.size):
        if all(p.leq[g[x]][g[y]] for x in range(q.size)
               for y in range(q.size) if q.leq[x][y]):
            yield g


class _Lattice:
    """A poset's down-set lattice, its down-sets as masks, and the element
    (the principal down-set) and join-irreducible rank of each point."""

    def __init__(self, p):
        self.poset, self.masks = p, downset_masks(p)
        self.algebra = dl_of_poset(p)
        principal = [sum(1 << y for y in range(p.size) if p.leq[y][x])
                     for x in range(p.size)]
        self.element = [self.masks.index(m) for m in principal]
        irr = join_irreducibles(self.algebra)
        self.rank = [irr.index(e) for e in self.element]


LATTICES = [_Lattice(p) for p in POSETS]


def _pairs():
    for la, lb in product(LATTICES, repeat=2):
        for g in _monotone_maps(lb.poset, la.poset):
            yield la, lb, g


def test_point_map_hom_matches_the_loops_on_every_monotone_map():
    count = 0
    for la, lb, g in _pairs():
        vec = point_map_hom(la.masks, lb.masks, g)
        assert vec == loop_preimage_hom(la.masks, lb.masks, g)
        joins = [(lb.element[q], la.element[g[q]]) for q in range(len(g))]
        assert vec == loop_join_hom(la.algebra, lb.algebra, joins)
        count += 1
    assert count > 1000


def test_point_map_hom_matches_the_loops_on_every_map_of_spaces():
    algebras = [ba_of_space(FiniteSpace(n)) for n in range(4)]
    for m, n in product(range(4), repeat=2):
        a, b = algebras[m], algebras[n]
        for g in product(range(m), repeat=n):
            vec = point_map_hom(range(1 << m), range(1 << n), g)
            assert vec == loop_preimage_hom(range(1 << m), range(1 << n), g)
            joins = [(1 << q, 1 << p) for q, p in enumerate(g)]
            assert vec == loop_join_hom(a, b, joins)
            # a Boolean hom, and the Stone labels give the same map
            Morphism(a, b, vec, "ba")
            assert point_map_hom(birkhoff_labels(a)[1],
                                 birkhoff_labels(b)[1], g) == vec


def test_priestley_dual_hom_gives_back_every_monotone_map():
    for la, lb, g in _pairs():
        h = Morphism(la.algebra, lb.algebra,
                     point_map_hom(la.masks, lb.masks, g), "dl")
        dual = priestley_dual_hom(h)
        # the irreducible of lb at point q goes to the one of la at g(q)
        assert [dual[lb.rank[q]] for q in range(len(g))] == [
            la.rank[p] for p in g]


def test_point_map_hom_gives_back_every_bounded_dl_hom():
    for la, lb in product(LATTICES, repeat=2):
        a, b = la.algebra, lb.algebra
        bot_a, top_a = loop_lattice_bounds(a)
        bot_b, top_b = loop_lattice_bounds(b)
        bounded = [h for h in enumerate_homs(a, b, "dl")
                   if h(bot_a) == bot_b and h(top_a) == top_b]
        # one bounded hom per monotone map between the posets
        assert len(bounded) == len(list(_monotone_maps(lb.poset, la.poset)))
        for h in bounded:
            assert point_map_hom(birkhoff_labels(a)[1], birkhoff_labels(b)[1],
                                 priestley_dual_hom(h)) == h.map


def test_lift_to_direct_matches_the_loop():
    for seed in range(40):
        s = random_direct_system(Random(seed), "ba", 5, 3)
        inv = lift_functor_dir_to_inv(s)
        assert lift_functor_inv_to_dir(inv) == loop_lift_to_direct(
            inv, ba_of_space, "ba")
        s = random_direct_system(Random(seed), "dl", 3, 3, bounded=True)
        inv = lift_system_dl_to_posets(s)
        assert lift_system_posets_to_dl(inv) == loop_lift_to_direct(
            inv, dl_of_poset, "dl")


@pytest.fixture
def loop_generator(monkeypatch):
    """Run a draw with the generator's hom and presheaf steps replaced by
    their loop forms."""

    def run(draw):
        with monkeypatch.context() as m:
            m.setattr(generate, "random_ba_hom", loop_ba_hom)
            m.setattr(generate, "random_dl_hom", loop_dl_hom)
            m.setattr(generate, "random_presheaf_system",
                      loop_presheaf_system)
            return draw()

    return run


@pytest.mark.parametrize("kind,max_fibers,bounded", [
    ("ba", 1, False), ("ba", 3, False), ("ba", 5, False),
    ("dl", 1, False), ("dl", 3, False), ("dl", 3, True), ("dl", 5, True)])
def test_systems_match_the_loop_generator(loop_generator, kind, max_fibers,
                                          bounded):
    # ``ba`` over 5 fibers draws a semilattice index and a presheaf; the
    # rest are chains of drawn homs
    for seed in SEEDS:
        def draw():
            return random_direct_system(Random(seed), kind, max_fibers, 3,
                                        bounded)
        assert draw() == loop_generator(draw)


def _same_draws(mine, theirs, seed, *args):
    rng, ref = Random(seed), Random(seed)
    assert mine(rng, *args) == theirs(ref, *args)
    assert rng.getstate() == ref.getstate()


def test_ba_homs_match_the_loop():
    for seed in SEEDS:
        rng = Random(seed)
        a, b = (random_boolean_algebra(rng, 3) for _ in range(2))
        _same_draws(random_ba_hom, loop_ba_hom, seed, a, b)


@pytest.mark.parametrize("bounded", [False, True])
def test_dl_homs_match_the_loop(bounded):
    one = dl_of_poset(FinitePoset(0, ()))
    for seed in SEEDS:
        rng = Random(seed)
        a, b = (random_distributive_lattice(rng, 3) for _ in range(2))
        _same_draws(random_dl_hom, loop_dl_hom, seed, a, b, bounded)
        # a one-element source has no irreducible to send b's to: top to
        # top, everything else to bottom
        _same_draws(random_dl_hom, loop_dl_hom, seed, one, b, bounded)
