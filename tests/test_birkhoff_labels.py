"""Differential tests: the Birkhoff and Stone functions of
``algdual.lattices``, which read one labelling
(``algebra.birkhoff_labels``), against their loop forms in
``tests/oracles.py``.

They must give the same join-irreducibles, atoms, dual posets, dual maps
and double-dual isomorphisms on every poset of up to four elements and its
down-set lattice (and a relabelling of it), on random distributive
lattices, Boolean algebras of up to five atoms and the fibers of
bisemilattice decompositions, and on every ``dl`` and ``ba`` hom between
pairs of small lattices, where a hom that moves a bound raises
``UnboundedTransition`` on both sides.
"""

from itertools import product
from random import Random

import pytest

from algdual.algebra import birkhoff_labels
from algdual.errors import UnboundedTransition
from algdual.generate import (
    random_boolean_algebra,
    random_bsl,
    random_distributive_lattice,
    random_permutation,
)
from algdual.lattices import (
    atoms,
    ba_of_space,
    dl_double_dual_iso,
    dl_of_poset,
    join_irreducibles,
    poset_double_dual_iso,
    priestley_dual,
    priestley_dual_hom,
    stone_double_dual_iso,
    stone_dual_hom,
)
from algdual.orders import FinitePoset, FiniteSpace, is_partial_order
from algdual.search import enumerate_homs
from algdual.systems import permute_algebra, plonka_decompose_bsl
from oracles import (
    loop_atoms,
    loop_dl_double_dual_iso,
    loop_join_irreducibles,
    loop_lattice_bounds,
    loop_poset_double_dual_iso,
    loop_priestley_dual,
    loop_priestley_dual_hom,
    loop_stone_double_dual_iso,
)


def _posets(n):
    """Every partial order on n labelled elements."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in product((False, True), repeat=len(pairs)):
        leq = [[x == y for y in range(n)] for x in range(n)]
        for (x, y), bit in zip(pairs, bits):
            leq[x][y] = bit
        if is_partial_order(leq) is None:
            yield FinitePoset(n, leq)


def _with_zero(d):
    # the loop form of ``atoms`` reads the bottom from the zero constant
    if "zero" in d.constants:
        return d
    return d.with_ops(constants={"zero": loop_lattice_bounds(d)[0]})


def _agree(d):
    """Assert that every Birkhoff function of ``d`` matches its loop form."""
    irr, labels = birkhoff_labels(d)
    assert irr == join_irreducibles(d) == loop_join_irreducibles(d)
    # bit k of x's label says the k-th join-irreducible is below x
    meet = d.binary("meet")
    assert labels == [sum(1 << k for k, q in enumerate(irr) if meet[q][x] == q)
                      for x in range(d.size)]
    assert atoms(d) == loop_atoms(_with_zero(d))
    assert priestley_dual(d) == loop_priestley_dual(d)
    iso = dl_double_dual_iso(d)
    assert iso == loop_dl_double_dual_iso(d)


def test_every_downset_lattice_of_up_to_four_points():
    rng = Random(21)
    seen = 0
    for n in range(5):
        for p in _posets(n):
            assert poset_double_dual_iso(p) == loop_poset_double_dual_iso(p)
            d = dl_of_poset(p)
            _agree(d)
            _agree(permute_algebra(d, random_permutation(rng, d.size)))
            seen += 1
    # 1 + 1 + 3 + 19 + 219 labelled posets
    assert seen == 243


def test_random_distributive_lattices_and_decomposition_fibers():
    rng = Random(5)
    for _ in range(60):
        _agree(random_distributive_lattice(rng, 5))
    fibers = 0
    for _ in range(25):
        system = plonka_decompose_bsl(random_bsl(rng, 3, 3))
        for i in range(system.index.size):
            _agree(system.fiber(i))
            fibers += 1
    assert fibers > 25


@pytest.mark.parametrize("k", range(6))
def test_boolean_algebras_up_to_five_atoms(k):
    rng = Random(k)
    base = ba_of_space(FiniteSpace(k))
    for b in (base, *(permute_algebra(base, random_permutation(rng, base.size))
                      for _ in range(3)),
              random_boolean_algebra(rng, k, k)):
        _agree(b)
        assert atoms(b) == join_irreducibles(b)
        assert len(atoms(b)) == k
        iso = stone_double_dual_iso(b)
        assert iso == loop_stone_double_dual_iso(b)
        assert iso.map == tuple(birkhoff_labels(b)[1])


def _dual_or_raise(dual_hom, h):
    try:
        return dual_hom(h)
    except UnboundedTransition:
        return UnboundedTransition


def _small_lattices():
    rng = Random(8)
    out = [dl_of_poset(p) for n in range(4) for p in _posets(n)
           if n < 3 or rng.random() < 0.4]
    return out + [permute_algebra(d, random_permutation(rng, d.size))
                  for d in out if d.size > 2]


def test_every_dl_hom_between_small_lattices():
    lattices = _small_lattices()
    counts = {"bounded": 0, "unbounded": 0}
    for d1, d2 in product(lattices, repeat=2):
        if d1.size * d2.size > 64:
            continue
        for h in enumerate_homs(d1, d2, "dl"):
            got = _dual_or_raise(priestley_dual_hom, h)
            assert got == _dual_or_raise(loop_priestley_dual_hom, h), h
            counts["bounded" if got is not UnboundedTransition
                   else "unbounded"] += 1
    assert min(counts.values()) > 100, counts


def test_every_ba_hom_between_small_boolean_algebras():
    rng = Random(13)
    algebras = [ba_of_space(FiniteSpace(k)) for k in range(4)]
    algebras += [permute_algebra(b, random_permutation(rng, b.size))
                 for b in algebras[2:]]
    assert stone_dual_hom is priestley_dual_hom
    homs = 0
    for b1, b2 in product(algebras, repeat=2):
        for h in enumerate_homs(b1, b2, "ba"):
            assert stone_dual_hom(h) == loop_priestley_dual_hom(h), h
            homs += 1
    assert homs > 50
