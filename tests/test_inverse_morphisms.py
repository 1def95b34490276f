"""Morphisms of inverse systems: identity, composition, and the
contravariant lift from the direct side."""

import pytest

from algdual.algebra import builtin
from algdual.morphisms import Morphism
from algdual.duality import FiniteSpace, lift_functor_dir_to_inv
from algdual.lattices import lift_system_morphism_dir_to_inv
from algdual.errors import InvalidSystemMorphism
from algdual.systems import InverseSystem, plonka_decompose, plonka_sum
from algdual.system_morphisms import (
    InverseSystemMorphism,
    compose_system_morphisms,
    hom_to_system_morphism,
    identity_system_morphism,
)


def decomposed(name):
    return plonka_decompose(builtin(name))


def test_identity_inverse_system_morphism(wk):
    inv = lift_functor_dir_to_inv(plonka_decompose(wk))
    ident = identity_system_morphism(inv)
    assert ident.index_map.map == (0, 1)
    assert compose_system_morphisms(ident, ident) == ident


def test_lift_contravariance_on_composition(two, wk, s2):
    dt, dw, ds = decomposed("two"), decomposed("wk"), decomposed("s2")
    f = Morphism(plonka_sum(dt), plonka_sum(dw), (0, 1), "ibsl")
    g = Morphism(plonka_sum(dw), plonka_sum(ds), (0, 0, 1), "ibsl")
    mf = hom_to_system_morphism(f, dt, dw)
    mg = hom_to_system_morphism(g, dw, ds)
    mgf = hom_to_system_morphism(g.compose(f), dt, ds)
    # the lift reverses composition: lift(g . f) = lift(f) . lift(g)
    lhs = lift_system_morphism_dir_to_inv(mgf)
    rhs = compose_system_morphisms(lift_system_morphism_dir_to_inv(mf),
                                   lift_system_morphism_dir_to_inv(mg))
    assert lhs == rhs


def test_lift_of_identity_is_identity(wk):
    dw = decomposed("wk")
    ident = identity_system_morphism(dw)
    lifted = lift_system_morphism_dir_to_inv(ident)
    assert lifted == identity_system_morphism(
        lift_functor_dir_to_inv(dw))


def test_inverse_system_morphism_rejects_bad_square(chain2):
    # component 1 swaps the points of term 1, the bondings are identities
    system = InverseSystem(chain2, {0: FiniteSpace(2), 1: FiniteSpace(2)},
                           {(0, 0): (0, 1), (1, 1): (0, 1), (0, 1): (0, 1)})
    phi = Morphism.identity(system.index.algebra, "sl")
    with pytest.raises(InvalidSystemMorphism,
                       match=r"^square \(0,1\) does not commute at 0$"):
        InverseSystemMorphism(system, system, phi, {0: (0, 1), 1: (1, 0)})
