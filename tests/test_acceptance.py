"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every frozen expected value was computed with the independent brute-force
oracles in ``oracles.py`` (full enumeration, no pruning).  All checks are
exact: every comparison is on integers, tables, or isomorphism existence.
"""

from itertools import product
from random import Random

import pytest

from algdual.algebra import (
    FiniteAlgebra,
    builtin,
    enumerate_homs,
    find_isomorphism,
    permute_algebra,
    validate_ibsl,
)
from algdual.morphisms import Morphism
from algdual.cli import main as algctl
from algdual.documents import dumps_document
from algdual.duality import (
    FiniteSpace,
    ba_of_space,
    delta_iso,
    dual_of_gr,
    dual_of_ibsl,
    dual_of_ibsl_hom,
    eps_iso,
    gr_three,
    lift_functor_dir_to_inv,
    lift_functor_inv_to_dir,
    stone_double_dual_iso,
    validate_gr_involution,
    wk_space,
)
from algdual.generate import (
    random_bsl,
    random_direct_system,
    random_ibsl,
    random_permutation,
)
from algdual.lattices import (
    FinitePoset,
    dl_double_dual_iso,
    dl_of_poset,
    plonka_decompose_bsl,
    poset_double_dual_iso,
)
from algdual.systems import plonka_decompose, plonka_sum
from algdual.system_morphisms import (
    DirectSystemMorphism,
    compose_system_morphisms,
    enumerate_system_morphisms,
    hom_to_system_morphism,
    system_morphism_to_hom,
)
from oracles import naive_gr_homs, naive_homs
from test_lattices import all_posets, chain_dl

PASS = "[criterion {}] PASS: {}"

# The weak Kleene and involution tables, cell for cell (carrier 0, 1, a).
WK_JOIN = ((0, 1, 2), (1, 1, 2), (2, 2, 2))
WK_MEET = ((0, 0, 2), (0, 1, 2), (2, 2, 2))
WK_NEG = (1, 0, 2)


def test_criterion_1_builtin_fidelity():
    three, wk, two, s2 = (builtin(n) for n in ("three", "wk", "two", "s2"))
    assert three.binary("join") == WK_JOIN and three.binary("meet") == WK_MEET
    assert wk.binary("join") == WK_JOIN and wk.binary("meet") == WK_MEET
    assert wk.unary("neg") == WK_NEG
    for a in (two, s2, wk):
        assert validate_ibsl(a).ok
    embeddings = [h for h in enumerate_homs(two, wk, "ibsl")
                  if len(set(h.map)) == two.size]
    assert embeddings and embeddings[0].map == (0, 1)
    quotients = [h for h in enumerate_homs(wk, s2, "ibsl")
                 if set(h.map) == set(range(s2.size))]
    assert quotients and quotients[0].map == (0, 0, 1)
    print(PASS.format(1, "builtin tables match; two embeds in wk; "
                         "s2 is a quotient of wk"))


def test_criterion_2_representation_roundtrip():
    rng = Random(20240201)
    for k in range(200):
        system = random_direct_system(rng, "ba", max_fibers=3, max_atoms=3)
        total = plonka_sum(system)
        assert validate_ibsl(total).ok, f"instance {k}"
        back = plonka_decompose(total)
        # the canonical layout makes the decomposition literally reproduce
        # the system (index, fibers and transitions, names aside)
        assert back.index.algebra.binary_ops == system.index.algebra.binary_ops
        assert back.index.bottom == system.index.bottom
        assert back.transitions == system.transitions
        for i in range(system.index.size):
            assert back.fiber(i).binary_ops == system.fiber(i).binary_ops
            assert back.fiber(i).unary_ops == system.fiber(i).unary_ops
            assert back.fiber(i).constants == system.fiber(i).constants
        # and a relabeled sum is recovered up to isomorphism
        moved = permute_algebra(total, random_permutation(rng, total.size))
        again = plonka_sum(plonka_decompose(moved))
        assert find_isomorphism(again, moved, "ibsl") is not None, \
            f"instance {k}"
    print(PASS.format(2, "200/200 seeded systems round-trip exactly"))


def test_criterion_3_category_equivalence():
    rng = Random(20240301)
    builtins = [builtin(n) for n in ("two", "s2", "wk")]
    pairs = [(a, b) for a in builtins for b in builtins]
    for _ in range(50):
        pairs.append((random_ibsl(rng, 3, 2, relabel=False),
                      random_ibsl(rng, 3, 2, relabel=False)))
    for k, (a, b) in enumerate(pairs):
        da, db = plonka_decompose(a), plonka_decompose(b)
        sa, sb = plonka_sum(da), plonka_sum(db)
        homs = enumerate_homs(sa, sb, "ibsl")
        morphisms = enumerate_system_morphisms(da, db)
        assert len(homs) == len(morphisms), f"pair {k}"
        # translation is bijective: both round trips are identities
        assert sorted(h.map for h in homs) == sorted(
            system_morphism_to_hom(m).map for m in morphisms)
        for h in homs:
            assert system_morphism_to_hom(
                hom_to_system_morphism(h, da, db)).map == h.map
        for m in morphisms:
            assert hom_to_system_morphism(
                system_morphism_to_hom(m), da, db) == m
    # functoriality on composable chains of builtins
    for a, b, c in product(builtins, repeat=3):
        da, db, dc = (plonka_decompose(x) for x in (a, b, c))
        sa, sb, sc = (plonka_sum(d) for d in (da, db, dc))
        for f in enumerate_homs(sa, sb, "ibsl"):
            for g in enumerate_homs(sb, sc, "ibsl"):
                lhs = hom_to_system_morphism(g.compose(f), da, dc)
                rhs = compose_system_morphisms(
                    hom_to_system_morphism(g, db, dc),
                    hom_to_system_morphism(f, da, db))
                assert lhs == rhs
    print(PASS.format(3, "hom <-> system-morphism translation bijective and "
                         "functorial; all |Hom| counts match"))


def test_criterion_4_lifted_duality():
    rng = Random(20240401)
    for k in range(100):
        system = random_direct_system(rng, "ba", max_fibers=3, max_atoms=3)
        double = lift_functor_inv_to_dir(lift_functor_dir_to_inv(system))
        comps = {i: stone_double_dual_iso(system.fiber(i))
                 for i in range(system.index.size)}
        # constructing the system morphism checks every naturality square;
        # components are isomorphisms, so this is a system isomorphism
        DirectSystemMorphism(system, double,
                             Morphism.identity(system.index.algebra, "sl"),
                             comps)
        assert all(c.is_bijective for c in comps.values()), f"instance {k}"
    for atoms_count in range(5):  # every Boolean algebra of size <= 16
        base = ba_of_space(FiniteSpace(atoms_count))
        assert stone_double_dual_iso(base).is_bijective
        moved = permute_algebra(base,
                                random_permutation(rng, base.size))
        assert stone_double_dual_iso(moved).is_bijective
    print(PASS.format(4, "100/100 double lifts componentwise isomorphic; "
                         "Stone double dual exact for all BAs of size <= 16"))


def test_criterion_5_main_duality():
    rng = Random(20240501)
    corpus = [builtin(n) for n in ("two", "s2", "wk")]
    while len(corpus) < 15:
        b = random_ibsl(rng, 3, 2)
        if b.size <= 8:
            corpus.append(b)
    for k, b in enumerate(corpus):
        dual = dual_of_ibsl(b)
        assert validate_gr_involution(dual).ok, f"instance {k}"
        assert eps_iso(b).is_bijective, f"instance {k}"
        assert delta_iso(dual).is_bijective, f"instance {k}"
    # concrete counts, frozen from the naive brute-force oracles
    # (27 resp. 9 resp. 27 candidate maps)
    wk, two, three = builtin("wk"), builtin("two"), builtin("three")
    oracle_wk = len(naive_homs(three, three, "bsl"))
    assert oracle_wk == 6  # identity, three constants, two collapses
    assert dual_of_ibsl(wk).size == oracle_wk
    oracle_two = len(naive_homs(two, three, "bsl"))
    assert oracle_two == 4
    assert dual_of_ibsl(two).size == oracle_two
    assert len(naive_gr_homs(gr_three(), gr_three())) == 1
    assert dual_of_gr(wk_space()).size == 1
    print(PASS.format(5, "duals pass G1-G6, eps and delta are isomorphisms; "
                         "|dual(WK)| = 6 (oracle), |dual(two)| = 4, "
                         "|dual_of_gr(three)| = 1"))


def test_criterion_6_contravariance():
    two, wk, s2 = builtin("two"), builtin("wk"), builtin("s2")
    f = Morphism(two, wk, (0, 1), "ibsl")
    g = Morphism(wk, s2, (0, 0, 1), "ibsl")
    lhs = dual_of_ibsl_hom(g.compose(f))
    rhs = dual_of_ibsl_hom(f).compose(dual_of_ibsl_hom(g))
    assert lhs.map == rhs.map

    rng = Random(20240601)
    pool = [two, wk, s2]
    while len(pool) < 9:
        b = random_ibsl(rng, 2, 2)
        if b.size <= 6:
            pool.append(b)
    checked = 0
    while checked < 50:
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        fs = enumerate_homs(a, b, "ibsl")
        gs = enumerate_homs(b, c, "ibsl")
        if not fs or not gs:
            continue
        f = fs[rng.randrange(len(fs))]
        g = gs[rng.randrange(len(gs))]
        lhs = dual_of_ibsl_hom(g.compose(f))
        rhs = dual_of_ibsl_hom(f).compose(dual_of_ibsl_hom(g))
        assert lhs.map == rhs.map
        checked += 1
    assert dual_of_ibsl_hom(Morphism.identity(wk, "ibsl")).map \
        == tuple(range(dual_of_ibsl(wk).size))
    print(PASS.format(6, "(g.f)* = f*.g* exact on the builtin chain and "
                         "50 random hom pairs"))


def test_criterion_7_bisemilattice_suite():
    rng = Random(20240701)
    for k in range(100):
        b = random_bsl(rng, 3, 2)
        system = plonka_decompose_bsl(b)
        assert find_isomorphism(plonka_sum(system), b, "bsl") is not None, \
            f"instance {k}"
    # Birkhoff double duals, exact: every down-set lattice of every poset on
    # <= 4 points (all of size <= 16), every chain up to size 16, and the
    # posets themselves
    for n in range(5):
        for p in all_posets(n):
            assert dl_double_dual_iso(dl_of_poset(p)).is_bijective
            assert len(poset_double_dual_iso(p)) == p.size
    for n in range(1, 17):
        assert dl_double_dual_iso(chain_dl(n)).is_bijective
    system = plonka_decompose_bsl(builtin("three"))
    assert system.index.size == 2
    assert {system.fiber(i).size for i in (0, 1)} == {2, 1}
    print(PASS.format(7, "100/100 bisemilattice round trips; Birkhoff double "
                         "duals exact; decompose(three) is the 2-chain "
                         "system with fibers of sizes 2 and 1"))


def test_criterion_8_cli_goldens(tmp_path, capsys):
    three_path = tmp_path / "three.json"
    three_path.write_text(dumps_document(builtin("three"), "bsl"),
                          encoding="utf-8")
    wk_path = tmp_path / "wk.json"
    wk_path.write_text(dumps_document(builtin("wk"), "ibsl"),
                       encoding="utf-8")
    broken = FiniteAlgebra(
        2, {"join": [[0, 1], [1, 1]], "meet": [[0, 0], [0, 1]]},
        {"neg": [0, 1]}, {"zero": 0}, names=("0", "1"))
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(dumps_document(broken, "ibsl"), encoding="utf-8")

    # hom count golden: the oracle value (six endomorphisms)
    code = algctl(["hom", str(three_path), str(three_path),
                   "--kind", "bsl", "--count"])
    out = capsys.readouterr().out
    assert code == 0 and out == "6\n"

    code = algctl(["roundtrip", str(wk_path)])
    capsys.readouterr()
    assert code == 0

    code = algctl(["check", str(broken_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] I6" in out and "witness (x=1, y=0)" in out

    code = algctl(["gen", "--seed", "11"])
    first = capsys.readouterr().out
    code = algctl(["gen", "--seed", "11"])
    second = capsys.readouterr().out
    assert code == 0 and first == second and first

    with capsys.disabled():
        print()
        print(PASS.format(8, "CLI goldens: hom count 6, roundtrip exit 0, "
                             "corrupted fixture exit 1 with witness, "
                             "gen byte-identical per seed"))
