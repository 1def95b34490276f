import pytest

from algdual.algebra import builtin
from algdual.documents import (
    Document,
    check_document,
    dumps_document,
    load_document,
    loads_document,
    parse_document,
    realize_document,
)
from algdual.writer import document_data
from algdual.duality import dual_of_ibsl, ibsl_to_inverse_system
from algdual.errors import DocumentError
from algdual.lattices import FinitePoset, bsl_to_inverse_system
from algdual.systems import plonka_decompose, plonka_sum


def reparse(obj, kind=None):
    doc = loads_document(dumps_document(obj, kind))
    assert check_document(doc).ok
    return realize_document(doc)


def test_algebra_document_roundtrip(wk, two, s2, three):
    for kind, a in (("ibsl", wk), ("ba", two), ("ibsl", s2), ("bsl", three)):
        assert reparse(a, kind) == a


def test_gr_document_roundtrip(wk):
    dual = dual_of_ibsl(wk)
    back = reparse(dual)
    assert back.star == dual.star
    assert back.leq == dual.leq
    assert back.neg == dual.neg
    assert (back.c0, back.c1, back.calpha) == (dual.c0, dual.c1, dual.calpha)


def test_poset_and_space_roundtrip():
    p = FinitePoset(2, ((True, True), (False, True)))
    assert reparse(p).leq == p.leq
    from algdual.duality import FiniteSpace

    assert reparse(FiniteSpace(3)).size == 3


def test_direct_system_document_roundtrip(wk):
    system = plonka_decompose(wk)
    back = reparse(system)
    assert back.transitions == system.transitions
    assert plonka_sum(back).binary_ops == plonka_sum(system).binary_ops


def test_inverse_system_document_roundtrip(wk, three):
    for system in (ibsl_to_inverse_system(wk),
                   bsl_to_inverse_system(three)):
        back = reparse(system)
        assert back.bondings == system.bondings
        assert [back.term(i).size for i in range(back.index.size)] \
            == [system.term(i).size for i in range(system.index.size)]


def test_identity_arrows_synthesized(wk):
    data = document_data(plonka_decompose(wk))
    assert "0->0" not in data["transitions"]
    doc = parse_document(data)
    assert (0, 0) in doc.payload.arrows


def test_dumps_is_deterministic(wk):
    assert dumps_document(wk, "ibsl") == dumps_document(builtin("wk"), "ibsl")


def test_parse_rejects_malformed():
    for text in (
            "{",  # JSON syntax
            '{"kind": "nope", "size": 1}',
            '{"kind": "ibsl", "size": "x", "ops": {}}',
            '{"kind": "ibsl", "size": 2, "ops": {"join": [[0, 5], [1, 1]]}}',
            '{"kind": "poset", "size": 2, "leq": [[1, 0]]}',
            '{"kind": "direct-system", "index": {"kind": "sl", "size": 1,'
            ' "ops": {"join": [[0]]}}, "fibers": {"2": {"kind": "ba"}},'
            ' "transitions": {}}',
    ):
        with pytest.raises(DocumentError):
            loads_document(text)


def test_parse_error_reports_position():
    with pytest.raises(DocumentError) as exc:
        loads_document('{"kind": "ibsl",\n  broken')
    assert "line 2" in str(exc.value)


def test_semantic_failure_is_reported_not_raised():
    doc = loads_document(
        '{"kind": "ibsl", "size": 2, "ops": {"join": [[0, 1], [1, 1]],'
        ' "meet": [[0, 0], [0, 1]], "neg": [0, 1], "zero": 0}}')
    report = check_document(doc)
    assert not report.ok
    assert report.check("I6").witness == (1, 0)


def test_system_semantic_failure_reported():
    text = '''{
      "kind": "direct-system",
      "index": {"kind": "sl", "size": 3,
                "ops": {"join": [[0,1,2],[1,1,2],[2,2,2]], "bottom": 0}},
      "fibers": {"0": {"kind": "ba", "size": 2,
                       "ops": {"join": [[0,1],[1,1]], "meet": [[0,0],[0,1]],
                               "neg": [1,0], "zero": 0, "one": 1}},
                 "1": {"kind": "ba", "size": 2,
                       "ops": {"join": [[0,1],[1,1]], "meet": [[0,0],[0,1]],
                               "neg": [1,0], "zero": 0, "one": 1}},
                 "2": {"kind": "ba", "size": 2,
                       "ops": {"join": [[0,1],[1,1]], "meet": [[0,0],[0,1]],
                               "neg": [1,0], "zero": 0, "one": 1}}},
      "transitions": {"0->1": [1, 0], "1->2": [1, 0], "0->2": [1, 0]}
    }'''
    report = check_document(loads_document(text))
    assert not report.ok
    assert report.check("arrows-transitive").witness == (0, 1, 2)


def test_builtin_scheme():
    doc = load_document("builtin:wk")
    assert doc.kind == "ibsl"
    assert doc.payload == builtin("wk")
    with pytest.raises(DocumentError):
        load_document("builtin:four")
    with pytest.raises(DocumentError):
        load_document("/nonexistent/file.json")


def test_empty_terms_flagged(s2):
    doc = loads_document(dumps_document(ibsl_to_inverse_system(s2)))
    report = check_document(doc)
    assert report.ok
    assert "empty" in report.check("empty-terms").note
