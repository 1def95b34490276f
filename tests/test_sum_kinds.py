"""The kind of a Plonka sum, by the kind of its fibers.

A Plonka sum keeps exactly the regular identities of its fibers: Boolean
fibers sum to an involutive bisemilattice, distributive lattices to a
bisemilattice, and semilattices, bisemilattices and involutive
bisemilattices to their own kind.  Each case is a direct system of two
two-element fibers over the two-element chain, summed by ``algctl plonka
sum`` and glued from its identity system morphism.
"""

import json

import pytest

from algdual.cli import main
from algdual.documents import check_document, loads_document, realize_document
from algdual.morphisms import Morphism
from algdual.system_morphisms import (
    identity_system_morphism,
    system_morphism_to_hom,
)
from algdual.systems import plonka_sum

JOIN = [[0, 1], [1, 1]]
MEET = [[0, 0], [0, 1]]
# the operations of a fiber of each kind; the involutive bisemilattice
# leaves out the meet its join and involution define, and the semilattice
# declares a bottom
FIBER_OPS = {
    "ba": {"join": JOIN, "meet": MEET, "neg": [1, 0], "zero": 0, "one": 1},
    "dl": {"join": JOIN, "meet": MEET},
    "bsl": {"join": JOIN, "meet": JOIN},
    "ibsl": {"join": JOIN, "neg": [1, 0], "zero": 0},
    "sl": {"join": JOIN, "bottom": 0},
}
SUM_KIND = {"ba": "ibsl", "dl": "bsl", "bsl": "bsl", "ibsl": "ibsl",
            "sl": "sl"}


def system_text(fiber_kind: str) -> str:
    fiber = {"kind": fiber_kind, "size": 2, "ops": FIBER_OPS[fiber_kind]}
    return json.dumps({
        "kind": "direct-system",
        "index": {"kind": "sl", "size": 2,
                  "ops": {"join": JOIN, "bottom": 0}},
        "fibers": {"0": fiber, "1": fiber},
        "transitions": {"0->1": [0, 1]}})


@pytest.mark.parametrize("fiber_kind", FIBER_OPS)
def test_plonka_sum_writes_a_document_of_the_sum_kind(tmp_path, capsys,
                                                      fiber_kind):
    system, total = tmp_path / "system.json", tmp_path / "sum.json"
    system.write_text(system_text(fiber_kind), encoding="utf-8")
    assert main(["plonka", "sum", str(system), "-o", str(total)]) == 0
    kind = SUM_KIND[fiber_kind]
    assert json.loads(total.read_text(encoding="utf-8"))["kind"] == kind
    assert main(["check", str(total), "--kind", kind]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


@pytest.mark.parametrize("fiber_kind", FIBER_OPS)
def test_identity_system_morphism_glues_to_the_identity_hom(fiber_kind):
    doc = loads_document(system_text(fiber_kind))
    assert check_document(doc).ok
    system = realize_document(doc)
    hom = system_morphism_to_hom(identity_system_morphism(system))
    assert hom == Morphism.identity(plonka_sum(system), SUM_KIND[fiber_kind])
