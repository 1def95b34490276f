"""Seeded random instances: semilattices, Boolean algebras, distributive
lattices, coherent direct systems, and the algebras assembled from them.

Valid algebras are measure-zero among raw tables, so everything here is
built constructively: Boolean algebras as relabeled power sets, distributive
lattices as relabeled down-set lattices of random posets, homs as the Stone
or Birkhoff duals of random (monotone) maps between atoms (join-irreducibles)
by :func:`algdual.lattices.point_map_hom`, and involutive bisemilattices and
bisemilattices as Plonka sums of random systems.

Coherence of transition families comes for free on chain indices (compose
random cover homs along the unique path); indices with three or fewer
elements are always chains, which covers the small-system regime.  Larger
indices fall back to a presheaf of shrinking atom sets whose transitions are
dual to inclusions, which is coherent over any index shape.

All functions take a ``random.Random`` so equal seeds reproduce instances
exactly.
"""

from __future__ import annotations

from functools import partial
from random import Random
from typing import Optional

from .algebra import FiniteAlgebra, birkhoff_labels, compose
from .lattices import (
    ba_of_space,
    dl_of_poset,
    point_map_hom,
    priestley_dual,
)
from .morphisms import Morphism
from .orders import FinitePoset, FiniteSpace
from .systems import DirectSystem, JoinSemilattice, permute_algebra, plonka_sum


def random_permutation(rng: Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_poset(rng: Random, max_size: int) -> FinitePoset:
    n = rng.randint(0, max_size)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                leq[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return FinitePoset(n, tuple(tuple(r) for r in leq))


def random_join_semilattice(rng: Random, max_size: int) -> JoinSemilattice:
    """OR-closure of random bitmasks: always a join semilattice with bottom 0."""
    bits = 4
    masks = {0}
    attempts = 0
    while len(masks) < max_size and attempts < 4 * max_size:
        attempts += 1
        new = rng.randrange(1, 1 << bits)
        closed = set(masks)
        closed.add(new)
        for m in masks:
            closed.add(m | new)
        if len(closed) <= max_size:
            masks = closed
    carrier = sorted(masks)
    rank = {m: k for k, m in enumerate(carrier)}
    table = [[rank[a | b] for b in carrier] for a in carrier]
    return JoinSemilattice.from_table(table, bottom=0)


def random_boolean_algebra(rng: Random, max_atoms: int,
                           min_atoms: int = 0) -> FiniteAlgebra:
    k = rng.randint(min_atoms, max_atoms)
    base = ba_of_space(FiniteSpace(k))
    return permute_algebra(base, random_permutation(rng, base.size))


def random_ba_hom(rng: Random, a: FiniteAlgebra, b: FiniteAlgebra) -> Optional[Morphism]:
    """A uniformly random Boolean hom a -> b, via a random atom map
    At(b) -> At(a); None when no hom exists (non-trivial target of a trivial
    source)."""
    (ats_a, labels_a), (ats_b, labels_b) = map(birkhoff_labels, (a, b))
    if not ats_a and ats_b:
        return None
    g = [rng.choice(range(len(ats_a))) for _ in ats_b]
    return Morphism(a, b, point_map_hom(labels_a, labels_b, g), "ba")


def random_distributive_lattice(rng: Random, max_points: int) -> FiniteAlgebra:
    base = dl_of_poset(random_poset(rng, max_points))
    return permute_algebra(base, random_permutation(rng, base.size))


def random_monotone_map(rng: Random, p: FinitePoset, q: FinitePoset) -> Optional[list[int]]:
    """Random monotone map p -> q, assigning along a linear extension;
    None when the target offers no consistent value (retried by callers)."""
    if p.size and not q.size:
        return None
    order = sorted(range(p.size),
                   key=lambda x: sum(1 for y in range(p.size) if p.leq[y][x]))
    f = [-1] * p.size
    for x in order:
        lower = [f[y] for y in range(p.size) if p.leq[y][x] and f[y] >= 0]
        candidates = [v for v in range(q.size)
                      if all(q.leq[w][v] for w in lower)]
        if not candidates:
            return None
        f[x] = rng.choice(candidates)
    return f


def random_dl_hom(rng: Random, a: FiniteAlgebra, b: FiniteAlgebra,
                  bounded: bool = False) -> Morphism:
    """Random lattice hom a -> b: a bounded hom from a random monotone map
    of irreducibles, optionally followed by an interval translate
    x -> (x v c) ^ d, which may move the bounds.  When 20 draws of the map
    fail, all of b's irreducibles go to one maximal irreducible of a."""
    pa, pb = priestley_dual(a), priestley_dual(b)
    tries = (random_monotone_map(rng, pb, pa) for _ in range(20))
    mono = next((m for m in tries if m is not None), None)
    labels_a, labels_b = birkhoff_labels(a)[1], birkhoff_labels(b)[1]
    if mono is None and pa.size:  # all to one maximal point: a bounded hom
        peak = next(p for p, above in enumerate(pa.leq) if sum(above) == 1)
        mono = [peak] * pb.size
    if mono is not None:
        vec = point_map_hom(labels_a, labels_b, mono)
    else:  # a one-element source, to the top
        vec = [labels_b.index(max(labels_b))]
    join_b, meet_b = b.binary("join"), b.binary("meet")
    if not bounded and rng.random() < 0.5:
        c = rng.randrange(b.size)
        d = join_b[c][rng.randrange(b.size)]
        vec = [meet_b[join_b[v][c]][d] for v in vec]
    return Morphism(a, b, tuple(vec), "dl")


def _chain_index(k: int) -> JoinSemilattice:
    return JoinSemilattice.from_table(
        [[max(i, j) for j in range(k)] for i in range(k)], bottom=0)


def random_chain_system(rng: Random, kind: str, max_fibers: int,
                        max_atoms: int, bounded: bool = False) -> DirectSystem:
    """Random direct system over a chain index: cover transitions are drawn
    freely and longer transitions are their composites, so coherence is
    automatic."""
    k = rng.randint(1, max_fibers)
    index = _chain_index(k)
    # Boolean homs are bounded, and a bounded hom out of a one-element
    # algebra has a one-element target
    if kind == "ba":
        draw_fiber, draw_hom = random_boolean_algebra, random_ba_hom
        bounded = True
    else:
        draw_fiber = random_distributive_lattice
        draw_hom = partial(random_dl_hom, bounded=bounded)
    fibers: dict[int, FiniteAlgebra] = {}
    covers: dict[int, Morphism] = {}
    for i in range(k):
        trivial = bounded and i > 0 and fibers[i - 1].size == 1
        fibers[i] = draw_fiber(rng, 0 if trivial else max_atoms)
        if i > 0:
            covers[i] = draw_hom(rng, fibers[i - 1], fibers[i])
    transitions = {}
    for i in range(k):
        vec = tuple(range(fibers[i].size))
        transitions[(i, i)] = vec
        for j in range(i + 1, k):
            vec = compose(covers[j].map, vec)
            transitions[(i, j)] = vec
    return DirectSystem(index, fibers, transitions, kind)


def random_presheaf_system(rng: Random, index: JoinSemilattice,
                           max_generators: int) -> DirectSystem:
    """Coherent Boolean system over an arbitrary index: atom sets shrink
    upward along inclusions, and transitions are the dual restriction maps,
    then everything is relabeled fiberwise."""
    gens = [rng.randrange(index.size) for _ in range(max_generators)]
    atom_sets = {i: [g for g, level in enumerate(gens) if index.leq(i, level)]
                 for i in range(index.size)}
    fibers, labels = {}, {}
    for i in range(index.size):
        base = ba_of_space(FiniteSpace(len(atom_sets[i])))
        perm = random_permutation(rng, base.size)
        fibers[i] = permute_algebra(base, perm)
        labels[i] = sorted(range(base.size), key=perm.__getitem__)  # perm^-1
    transitions = {
        (i, j): point_map_hom(labels[i], labels[j],
                              [atom_sets[i].index(g) for g in atom_sets[j]])
        for (i, j) in index.comparable_pairs()}
    return DirectSystem(index, fibers, transitions, "ba")


def random_direct_system(rng: Random, kind: str = "ba", max_fibers: int = 3,
                         max_atoms: int = 3, bounded: bool = False) -> DirectSystem:
    if max_fibers <= 3:
        return random_chain_system(rng, kind, max_fibers, max_atoms, bounded)
    index = random_join_semilattice(rng, max_fibers)
    if kind == "ba":
        return random_presheaf_system(rng, index, max_atoms + 1)
    return random_chain_system(rng, kind, 3, max_atoms, bounded)


def random_ibsl(rng: Random, max_fibers: int = 3,
                max_atoms: int = 2) -> FiniteAlgebra:
    total = plonka_sum(random_direct_system(rng, "ba", max_fibers, max_atoms))
    return permute_algebra(total, random_permutation(rng, total.size))


def random_bsl(rng: Random, max_fibers: int = 3,
               max_points: int = 2) -> FiniteAlgebra:
    total = plonka_sum(random_direct_system(rng, "dl", max_fibers, max_points))
    return permute_algebra(total, random_permutation(rng, total.size))
