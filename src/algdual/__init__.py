"""Finite computational algebra: involutive bisemilattices, Plonka sums,
semilattice direct/inverse systems, and the Stone/Priestley/GR dualities
between them, all mechanically checkable on finite instances.

Submodules load on first use: ``from algdual import dual_of_ibsl`` imports
``algdual.duality`` then, and ``import algdual`` alone imports none of them.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "algebra": (
        "Check", "FiniteAlgebra", "ValidationReport", "builtin",
        "ibsl_completion", "validate_bisemilattice",
        "validate_boolean_algebra", "validate_distributive_lattice",
        "validate_ibsl", "validate_semilattice",
    ),
    "duality": (
        "GRSpace", "GRSpaceWithInvolution", "bsl_of_gr", "delta_iso",
        "dual_of_bsl", "dual_of_gr", "dual_of_ibsl", "dual_of_ibsl_hom",
        "eps_iso", "gr_homs", "gr_three", "ibsl_to_inverse_system",
        "validate_gr_involution", "validate_gr_space", "wk_space",
    ),
    "lattices": (
        "DistributiveLattice", "atoms", "ba_of_space",
        "bsl_to_inverse_system", "dl_of_poset", "dl_double_dual_iso",
        "find_poset_isomorphism", "inverse_system_to_bsl",
        "join_irreducibles", "lift_functor_dir_to_inv",
        "lift_functor_inv_to_dir", "poset_double_dual_iso", "priestley_dual",
        "priestley_dual_hom", "stone_double_dual_iso", "stone_dual",
        "stone_dual_hom",
    ),
    "morphisms": ("Morphism",),
    "orders": ("FinitePoset", "FiniteSpace", "induced_orders"),
    "search": ("enumerate_homs", "find_isomorphism"),
    "system_morphisms": (
        "DirectSystemMorphism", "InverseSystemMorphism",
        "compose_system_morphisms", "enumerate_system_morphisms",
        "hom_to_system_morphism", "identity_system_morphism",
        "induced_index_map", "restrict_to_fibers", "system_morphism_to_hom",
    ),
    "systems": (
        "DirectSystem", "InverseSystem", "JoinSemilattice", "local_units",
        "permute_algebra", "plonka_decompose", "plonka_decompose_bsl",
        "plonka_sum",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
