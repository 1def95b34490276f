"""Differential tests of the propagating hom-search engine against the
brute-force oracles: the same vectors, in the same order, for every kind,
on seeded lawful tables and on perturbed ones, where forced values run
into conflicts."""

import sys
import time
from itertools import product
from random import Random

import pytest

from algdual import search
from algdual.algebra import (
    FiniteAlgebra,
    builtin,
    enumerate_homs,
    find_isomorphism,
    permute_algebra,
)
from algdual.morphisms import Morphism, as_isomorphism, morphism_violations
from algdual.orders import is_partial_order
from algdual.duality import (
    GRSpace,
    GRSpaceWithInvolution,
    dual_of_bsl,
    dual_of_ibsl,
    gr_homs,
    gr_three,
    validate_gr_involution,
    validate_gr_space,
    wk_space,
    zero_morphism,
)
from algdual.errors import IsomorphismFailure
from algdual.generate import (
    _chain_index,
    random_boolean_algebra,
    random_bsl,
    random_distributive_lattice,
    random_ibsl,
    random_join_semilattice,
    random_permutation,
    random_poset,
    random_presheaf_system,
)
from algdual.lattices import FinitePoset, find_poset_isomorphism
from algdual.search import _search_homs
from algdual.systems import plonka_sum

from oracles import (
    KIND_OPS,
    loop_gr_order_witnesses,
    loop_involution_witnesses,
    loop_partial_order,
    naive_gr_homs,
    naive_homs,
    naive_igr_homs,
    naive_isomorphisms,
    naive_morphism_conditions,
    naive_order_disconnected_witness,
    naive_order_embeddings,
    naive_poset_isomorphism,
    naive_zero_morphism,
)

MAX_SIZE = 5


def _draw(make, rng, count):
    """``count`` instances with 2..MAX_SIZE elements from ``make(rng)``."""
    out = []
    for _ in range(50 * count):
        a = make(rng)
        if 2 <= a.size <= MAX_SIZE:
            out.append(a)
            if len(out) == count:
                break
    return out


def _lawful(kind, rng):
    """Valid small instances of a kind, by construction."""
    if kind == "ibsl":
        return [builtin("two"), builtin("s2"), builtin("wk")] + _draw(
            lambda r: random_ibsl(r, 3, 2), rng, 4)
    if kind == "ba":
        return [builtin("two")] + _draw(
            lambda r: random_boolean_algebra(r, 2, min_atoms=2), rng, 2)
    if kind == "bsl":
        return [builtin("three")] + _draw(lambda r: random_bsl(r, 3, 2), rng, 4)
    if kind == "dl":
        return _draw(lambda r: random_distributive_lattice(r, 4), rng, 5)
    return _draw(lambda r: random_join_semilattice(r, MAX_SIZE).algebra.reduct(
        binary=("join",)), rng, 5)


def _free(kind, rng):
    """Tables of the kind's operations with uniformly random entries."""
    binary, unary, constants = KIND_OPS[kind]
    n = rng.randint(2, 4)
    return FiniteAlgebra(
        n, {nm: [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            for nm in binary},
        {nm: [rng.randrange(n) for _ in range(n)] for nm in unary},
        {nm: rng.randrange(n) for nm in constants})


def _perturbed(a, kind, rng, changes):
    """``a`` with ``changes`` random entries of the kind's operations
    redrawn, so the tables break the laws and propagation meets conflicts."""
    binary, unary, constants = KIND_OPS[kind]
    tables = {nm: [list(r) for r in a.binary(nm)] for nm in binary}
    maps = {nm: list(a.unary(nm)) for nm in unary}
    consts = {nm: a.const(nm) for nm in constants}
    n = a.size
    for _ in range(changes):
        pick = rng.randrange(len(binary) + len(unary) + len(constants))
        if pick < len(binary):
            tables[binary[pick]][rng.randrange(n)][rng.randrange(n)] = \
                rng.randrange(n)
        elif pick < len(binary) + len(unary):
            maps[unary[pick - len(binary)]][rng.randrange(n)] = rng.randrange(n)
        else:
            consts[constants[pick - len(binary) - len(unary)]] = \
                rng.randrange(n)
    return FiniteAlgebra(n, tables, maps, consts)


def _pool(kind, seed):
    rng = Random(seed)
    lawful = _lawful(kind, rng)
    perturbed = [_perturbed(a, kind, rng, rng.randint(1, 2))
                 for a in lawful for _ in range(2)]
    return lawful + perturbed + [_free(kind, rng) for _ in range(3)]


def _pairs(pool, rng, count):
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]


@pytest.mark.parametrize("kind", ["sl", "bsl", "dl", "ibsl", "ba"])
def test_enumerate_homs_matches_naive(kind):
    pool = _pool(kind, 11)
    for a, b in _pairs(pool, Random(12), 40):
        expected = naive_homs(a, b, kind)
        got = [h.map for h in enumerate_homs(a, b, kind, validate=False)]
        assert got == expected, (kind, a, b)
        assert _search_homs(a, b, kind, limit=1) == expected[:1]
        assert _search_homs(a, b, kind, limit=2) == expected[:2]


def _hom_pairs(kind, seed):
    """Pairs of objects of a kind, lawful and perturbed."""
    rng = Random(seed)
    if kind in ("gr", "igr"):
        pool = _igr_pool(rng)
        if kind == "gr":
            pool = [g.base for g in pool] + [gr_three()]
    else:
        pool = _pool(kind, seed)
    return _pairs(pool, rng, 30) + [(a, a) for a in pool[:4]]


@pytest.mark.parametrize("kind", ["sl", "bsl", "dl", "ibsl", "ba", "gr",
                                  "igr"])
def test_every_emitted_hom_meets_the_naive_conditions(kind):
    # the engine's morphisms are built without the check; each must meet
    # every condition, and equal the morphism built with the check
    from algdual.errors import InvalidMorphism

    rng = Random(f"emitted/{kind}")
    emitted = 0
    for a, b in _hom_pairs(kind, 71):
        conditions = naive_morphism_conditions(a, b, kind)
        homs = enumerate_homs(a, b, kind, validate=False)
        assert [h.map for h in homs] == _search_homs(a, b, kind)
        for h in homs:
            assert conditions(h.map) == []
            assert h == Morphism(a, b, h.map, kind)
            assert (h.source, h.target, h.kind) == (a, b, kind)
        emitted += len(homs)
        # a map from outside the engine is still checked
        for _ in range(5):
            f = tuple(rng.randrange(b.size) for _ in range(a.size))
            broken = conditions(f)
            if broken:
                with pytest.raises(InvalidMorphism,
                                   match=repr(broken[0][0])):
                    Morphism(a, b, f, kind)
    assert emitted > 0


def _symmetric(kind, rng):
    """Instances with 6 to 8 elements, some with several automorphisms, where
    a search that stops at its first isomorphism skips the others."""
    make = {
        "ibsl": lambda r: random_ibsl(r, 2, 2),
        "ba": lambda r: random_boolean_algebra(r, 3, min_atoms=3),
        "bsl": lambda r: random_bsl(r, 2, 2),
        "dl": lambda r: random_distributive_lattice(r, 4),
        "sl": lambda r: random_join_semilattice(r, 7).algebra.reduct(
            binary=("join",)),
    }[kind]
    out = [a for a in (make(rng) for _ in range(200)) if 6 <= a.size <= 8]
    assert out, kind
    return out[:1] if kind == "ba" else out[:3]


@pytest.mark.parametrize("kind", ["sl", "bsl", "dl", "ibsl", "ba"])
def test_find_isomorphism_matches_first_naive(kind):
    rng = Random(21)
    for a in _pool(kind, 22) + _symmetric(kind, Random(41)):
        for b in (a, permute_algebra(a, random_permutation(rng, a.size)),
                  _perturbed(permute_algebra(
                      a, random_permutation(rng, a.size)), kind, rng, 1)):
            isos = naive_isomorphisms(a, b, kind)
            got = find_isomorphism(a, b, kind, validate=False)
            assert (None if got is None else got.map) == \
                (isos[0] if isos else None), (kind, a, b)


def test_find_isomorphism_stops_at_first_hom_for_algebra_kinds(monkeypatch):
    """The search asks for one bijective hom for every kind: for algebras
    that is an isomorphism, and for GR spaces the search itself also
    reflects the order."""
    limits = []
    original = search._search_homs

    def spy(*args, **kwargs):
        limits.append(kwargs.get("limit"))
        return original(*args, **kwargs)

    monkeypatch.setattr(search, "_search_homs", spy)
    two = builtin("two")
    assert find_isomorphism(two, two, "ibsl", validate=False).map == (0, 1)
    assert find_isomorphism(wk_space(), wk_space(), "gr",
                            validate=False) is not None
    assert limits == [1, 1]


def test_find_isomorphism_of_spaces_reflects_the_order():
    """Dropping one order pair leaves a GR space, and the identity into the
    original is a bijective GR hom whose inverse is not monotone."""
    g = dual_of_bsl(random_bsl(Random(9), 2, 2))
    assert g.size == 9 and g.leq[1][2]
    leq = [list(row) for row in g.leq]
    leq[1][2] = False
    weaker = GRSpace(g.size, g.star, leq, g.c0, g.c1, g.calpha)
    assert validate_gr_space(weaker).ok
    assert Morphism(weaker, g, range(g.size), "gr").is_bijective
    assert find_isomorphism(weaker, g, "gr") is None
    with pytest.raises(IsomorphismFailure):
        as_isomorphism(weaker, g, range(g.size), "gr")
    assert as_isomorphism(g, g, range(g.size), "gr").map == \
        tuple(range(g.size))


def test_find_isomorphism_on_the_k48_chain_ladder():
    """The Plonka sum over a 48-element chain index (n=292) against a
    relabelling: colours refined to a fixed point separate the chain
    levels, so the validated search ends in seconds."""
    total = plonka_sum(random_presheaf_system(Random(3), _chain_index(48), 4))
    moved = permute_algebra(total, random_permutation(Random(5), total.size))
    start = time.perf_counter()
    iso = find_isomorphism(total, moved, "ibsl")
    assert time.perf_counter() - start < 60
    assert iso is not None and iso.is_bijective


def test_injective_candidates_search_matches_filtered_naive():
    rng = Random(31)
    pool = _pool("ibsl", 32)
    for a, b in _pairs(pool, rng, 30):
        candidates = [sorted(rng.sample(range(b.size), rng.randint(1, b.size)))
                      for _ in range(a.size)]
        expected = [f for f in naive_homs(a, b, "ibsl")
                    if len(set(f)) == len(f)
                    and all(f[x] in candidates[x] for x in range(a.size))]
        assert _search_homs(a, b, "ibsl", injective=True,
                            candidates=candidates) == expected
        assert _search_homs(a, b, "ibsl", injective=True,
                            candidates=candidates, limit=1) == expected[:1]


def _gr_perturbed(g, rng):
    n = g.size
    star = [list(r) for r in g.star]
    leq = [list(r) for r in g.leq]
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.7:
            star[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        else:
            x, y = rng.randrange(n), rng.randrange(n)
            leq[x][y] = not leq[x][y]
    return GRSpace(n, star, leq, g.c0, g.c1, g.calpha)


def _relabel_space(g, perm):
    """The GR space with involution g with point x renamed perm[x]."""
    n = g.size
    inv = [0] * n
    for x, v in enumerate(perm):
        inv[v] = x
    base = GRSpace(n, [[perm[g.star[inv[a]][inv[b]]] for b in range(n)]
                       for a in range(n)],
                   [[g.leq[inv[a]][inv[b]] for b in range(n)] for a in range(n)],
                   perm[g.c0], perm[g.c1], perm[g.calpha])
    return GRSpaceWithInvolution(base, [perm[g.neg[inv[a]]] for a in range(n)])


def _igr_pool(rng):
    lawful = [wk_space()] + [dual_of_ibsl(builtin(nm)) for nm in ("two", "s2")]
    lawful += [d for d in (dual_of_ibsl(random_ibsl(rng, 2, 1))
                           for _ in range(4)) if d.size <= MAX_SIZE]
    # relabelled copies put order pairs x <= y with x > y in the search order
    lawful += [_relabel_space(g, random_permutation(rng, g.size))
               for g in lawful]
    perturbed = []
    for g in lawful:
        neg = list(g.neg)
        neg[rng.randrange(g.size)] = rng.randrange(g.size)
        perturbed.append(GRSpaceWithInvolution(g.base, neg))
        perturbed.append(GRSpaceWithInvolution(_gr_perturbed(g.base, rng),
                                               g.neg))
    return lawful + perturbed


def test_gr_homs_match_naive():
    rng = Random(41)
    pool = [g.base for g in _igr_pool(rng)] + [gr_three()]
    for g, h in _pairs(pool, rng, 40):
        expected = naive_gr_homs(g, h)
        assert _search_homs(g, h, "gr") == expected
        assert _search_homs(g, h, "gr", limit=1) == expected[:1]
    for g in pool:
        assert gr_homs(g) == naive_gr_homs(g, gr_three())


def test_igr_homs_and_zero_morphism_match_naive():
    rng = Random(51)
    pool = _igr_pool(rng)
    three = gr_three()
    for g in pool:
        assert zero_morphism(g) == naive_zero_morphism(g, three)
    for g, h in _pairs(pool, rng, 40):
        expected = naive_igr_homs(g, h, three)
        got = [m.map for m in enumerate_homs(g, h, "igr", validate=False)]
        assert got == expected
        assert _search_homs(g, h, "igr", limit=1) == expected[:1]


def test_igr_isomorphism_matches_naive():
    rng = Random(61)
    three = gr_three()
    pool = _igr_pool(rng)
    for g in pool:
        for h in pool:
            if h.size != g.size or rng.random() < 0.5:
                continue
            expected = next(
                (f for f in naive_igr_homs(g, h, three)
                 if len(set(f)) == g.size
                 and all(g.leq[x][y] == h.leq[f[x]][f[y]]
                         for x in range(g.size) for y in range(g.size))),
                None)
            got = find_isomorphism(g, h, "igr", validate=False)
            assert (None if got is None else got.map) == expected


def _relabel(p, perm):
    inv = [0] * p.size
    for x, v in enumerate(perm):
        inv[v] = x
    return FinitePoset(p.size, [[p.leq[inv[a]][inv[b]] for b in range(p.size)]
                                for a in range(p.size)])


def test_find_poset_isomorphism_matches_naive():
    rng = Random(71)
    posets = [random_poset(rng, 6) for _ in range(30)]
    for p in posets:
        for q in (p, _relabel(p, random_permutation(rng, p.size)),
                  rng.choice(posets)):
            assert find_poset_isomorphism(p, q) == naive_poset_isomorphism(p, q)


def test_order_embeddings_match_naive():
    rng = Random(72)
    posets = [p for p in (random_poset(rng, 5) for _ in range(40))
              if p.size <= 4]
    posets = [_relabel(p, random_permutation(rng, p.size)) for p in posets]
    for p, q in _pairs(posets, rng, 40):
        assert _search_homs(p, q, "poset") == naive_order_embeddings(p, q)


def _order_space(p):
    """A GR space whose only constraint beyond f(0) = 0 is the order of p:
    x * y = x is preserved by every map."""
    n = p.size
    return GRSpace(n, [[x] * n for x in range(n)], p.leq, 0, 0, 0)


def test_gr_order_preservation_matches_naive():
    rng = Random(73)
    posets = [p for p in (random_poset(rng, 5) for _ in range(40))
              if 1 <= p.size <= 4]
    spaces = [_order_space(_relabel(p, random_permutation(rng, p.size)))
              for p in posets]
    for g, h in _pairs(spaces, rng, 40):
        assert _search_homs(g, h, "gr") == naive_gr_homs(g, h)


def test_order_disconnected_witness_matches_old_form():
    rng = Random(81)
    spaces = [g.base for g in _igr_pool(rng)] + [gr_three()]
    spaces += [_gr_perturbed(g, rng) for g in spaces for _ in range(3)]
    witnesses = set()
    for g in spaces:
        w = naive_order_disconnected_witness(g.leq)
        witnesses.add(w is None)
        assert validate_gr_space(g).check("order-disconnected").witness == w
    assert witnesses == {True, False}


def _random_tables_space(rng):
    """A GR space with random star and order tables: the failing (x, y) of
    the maps x -> x*z of different z compete for the least witness."""
    n = rng.randint(1, 6)
    return GRSpace(n, [[rng.randrange(n) for _ in range(n)] for _ in range(n)],
                   [[x == y or rng.random() < 0.4 for y in range(n)]
                    for x in range(n)], 0, 0, 0)


def test_gr_order_scans_match_the_loops():
    # the order checks decide on bit sets and rows
    rng = Random(83)
    spaces = [g.base for g in _igr_pool(rng)] + [gr_three()]
    spaces += [_gr_perturbed(g, rng) for g in spaces for _ in range(4)]
    spaces += [_random_tables_space(rng) for _ in range(300)]
    verdicts = set()
    for g in spaces:
        report = validate_gr_space(g)
        expected = loop_gr_order_witnesses(g)
        expected["order-partial"] = loop_partial_order(g.leq)
        for name, w in expected.items():
            assert report.check(name).witness == w, name
            verdicts.add((name, w is None))
    # each check both holds and fails somewhere
    assert len(verdicts) == 2 * len(expected)


def test_involution_scans_match_the_loops():
    # G2 is the table check of neg on star, G3 the order check of neg into
    # the reversed box order
    rng = Random(87)
    spaces = _igr_pool(rng)
    for _ in range(300):
        base = _random_tables_space(rng)
        spaces.append(GRSpaceWithInvolution(
            base, [rng.randrange(base.size) for _ in range(base.size)]))
    verdicts = set()
    for g in spaces:
        report = validate_gr_involution(g)
        for name, w in loop_involution_witnesses(g).items():
            assert report.check(name).witness == w, name
            verdicts.add((name, w is None))
    assert len(verdicts) == 4


def test_partial_order_bitsets_match_the_loops():
    rng = Random(89)
    kinds = set()
    for _ in range(300):
        p = random_poset(rng, 7)
        leq = [list(r) for r in p.leq]
        for _ in range(rng.randint(0, 2) if p.size else 0):
            x, y = rng.randrange(p.size), rng.randrange(p.size)
            leq[x][y] = not leq[x][y]
        w = loop_partial_order(leq)
        assert is_partial_order(leq) == w
        kinds.add(0 if w is None else len(w))
    # a pass and each kind of witness: reflexivity, antisymmetry,
    # transitivity
    assert kinds == {0, 1, 2, 3}


def test_search_needs_no_recursion_depth():
    n = 300
    chain = FiniteAlgebra(n, {"join": [[max(x, y) for y in range(n)]
                                       for x in range(n)]})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        first = _search_homs(chain, chain, "sl", limit=1)
        identity = _search_homs(chain, chain, "sl", injective=True, limit=1)
    finally:
        sys.setrecursionlimit(limit)
    assert first == [(0,) * n]
    assert identity == [tuple(range(n))]


def _violation_pools(rng):
    """Small objects of every morphism kind: lawful ones, and for spaces
    perturbed ones and order spaces, so that maps between them break each
    condition first."""
    igr = rng.sample([g for g in _igr_pool(rng) if g.size <= 4], 12)
    posets = [p for p in (random_poset(rng, 4) for _ in range(8)) if p.size]
    return {
        "ibsl": _lawful("ibsl", rng),
        # an eight-element algebra has maps into two that keep the
        # constants and the complement but not the tables
        "ba": _lawful("ba", rng) + [random_boolean_algebra(rng, 3, 3)],
        "bsl": _lawful("bsl", rng),
        "dl": _lawful("dl", rng),
        "sl": _draw(lambda r: random_join_semilattice(r, 4).algebra, rng, 4),
        "gr": [g.base for g in igr] + [_order_space(p) for p in posets],
        "igr": igr,
        "poset": posets,
    }


def test_morphism_violations_match_the_loops():
    rng = Random(97)
    first, sole, unequal = set(), set(), set()
    for kind, pool in _violation_pools(rng).items():
        for g, h in product(pool, repeat=2):
            if h.size ** g.size > 256:
                continue
            conditions = naive_morphism_conditions(g, h, kind)
            for f in product(range(h.size), repeat=g.size):
                broken = conditions(f)
                assert morphism_violations(g, h, f, kind) == (
                    broken[0] if broken else None), (kind, f)
                if broken:
                    first.add((kind, broken[0][0]))
                    if g.size != h.size:
                        unequal.add((kind, broken[0][0]))
                if len(broken) == 1:
                    sole.add((kind, broken[0][0]))
    # every condition of every kind is reported first by some map
    names = {
        "ibsl": {"zero", "neg", "join"},
        # a map that keeps the join and the complement keeps the meet
        "ba": {"zero", "one", "neg", "join"},
        "bsl": {"join", "meet"},
        "dl": {"join", "meet"},
        "sl": {"bottom", "join"},
        "gr": {"c0", "c1", "calpha", "star", "order"},
        "igr": {"c0", "c1", "calpha", "zero-morphism", "neg", "star", "order"},
        "poset": {"order"},
    }
    assert first == {(kind, name) for kind in names for name in names[kind]}
    # and maps that break exactly one table, order or label
    assert {("ibsl", "join"), ("bsl", "join"), ("bsl", "meet"),
            ("dl", "join"), ("sl", "join"), ("gr", "star"), ("gr", "order"),
            ("igr", "order"), ("igr", "zero-morphism"),
            ("poset", "order")} <= sole, sorted(sole)
    # sources and targets of different sizes break tables, orders and the
    # order reflection of posets too
    assert {("ibsl", "join"), ("bsl", "meet"), ("gr", "star"),
            ("gr", "order"), ("igr", "order"),
            ("poset", "order")} <= unequal, sorted(unequal)


def _chain(n):
    """The n-element chain as a join semilattice and as a poset."""
    return (FiniteAlgebra(n, {"join": [[max(x, y) for y in range(n)]
                                       for x in range(n)]}),
            FinitePoset(n, [[x <= y for y in range(n)] for x in range(n)]))


@pytest.mark.parametrize("m, n", [(300, 260), (300, 3), (3, 300), (257, 257)])
def test_morphism_violations_match_the_loops_above_256(m, n):
    # a carrier above 256 elements takes the tuple rows of the kernel; each
    # map is monotone (and one-to-one when it can be), then has one value
    # redrawn, and is checked as a join hom, an order embedding of posets
    # and an order-preserving map of GR spaces
    rng = Random(m * n)
    (a, p), (b, q) = _chain(m), _chain(n)
    kinds = (("sl", a, b), ("poset", p, q),
             ("gr", _order_space(p), _order_space(q)))
    outcomes = set()
    for _ in range(2):
        values = (rng.sample(range(n), m) if m <= n
                  else [rng.randrange(n) for _ in range(m)])
        f = [0, *sorted(values)[1:]]
        broken = list(f)
        broken[rng.randrange(m)] = rng.randrange(n)
        for vec in (tuple(f), tuple(broken)):
            for kind, s, t in kinds:
                expected = naive_morphism_conditions(s, t, kind)(vec)
                got = morphism_violations(s, t, vec, kind)
                assert got == (expected[0] if expected else None), kind
                outcomes.add((kind, got is None))
    assert {("sl", False), ("poset", False), ("gr", False)} <= outcomes
