import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from algdual.algebra import FiniteAlgebra, builtin, permute_algebra
from algdual.cli import build_parser, main, parse_plain
from algdual.errors import MissingBottom, NotSemilattice
from algdual.documents import dumps_document, loads_document, check_document
from algdual.duality import wk_space
from algdual.generate import random_direct_system, random_permutation
from algdual.systems import JoinSemilattice, plonka_decompose, plonka_sum

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def wk_file(tmp_path):
    path = tmp_path / "wk.json"
    path.write_text(dumps_document(builtin("wk"), "ibsl"), encoding="utf-8")
    return str(path)


@pytest.fixture
def three_file(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(dumps_document(builtin("three"), "bsl"), encoding="utf-8")
    return str(path)


@pytest.fixture
def broken_ibsl_file(tmp_path):
    broken = FiniteAlgebra(
        2, {"join": [[0, 1], [1, 1]], "meet": [[0, 0], [0, 1]]},
        {"neg": [0, 1]}, {"zero": 0}, names=("0", "1"))
    path = tmp_path / "broken.json"
    path.write_text(dumps_document(broken, "ibsl"), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_wk_passes(capsys, wk_file):
    code, out, err = run(capsys, "check", wk_file)
    assert code == 0
    for i in range(1, 9):
        assert f"[PASS] I{i}" in out
    assert "# elapsed" in err


def test_check_kind_assertion(capsys, wk_file):
    code, _, err = run(capsys, "check", wk_file, "--kind", "gr")
    assert code == 1
    assert "kind mismatch" in err


def test_check_broken_ibsl_witness(capsys, broken_ibsl_file):
    code, out, _ = run(capsys, "check", broken_ibsl_file)
    assert code == 1
    assert "[FAIL] I6" in out
    assert "witness (x=1, y=0)" in out


def test_check_json_format(capsys, wk_file):
    code, out, _ = run(capsys, "check", wk_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert {c["name"] for c in data["checks"]} >= {f"I{i}"
                                                   for i in range(1, 9)}


def test_check_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "ibsl",\n  broken', encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 2" in err


def test_check_system_triple_witness(capsys, tmp_path):
    two = builtin("two")
    fiber = dumps_document(two, "ba").strip()
    text = f'''{{
      "kind": "direct-system",
      "index": {{"kind": "sl", "size": 3,
                "ops": {{"join": [[0,1,2],[1,1,2],[2,2,2]], "bottom": 0}}}},
      "fibers": {{"0": {fiber}, "1": {fiber}, "2": {fiber}}},
      "transitions": {{"0->1": [1, 0], "1->2": [1, 0], "0->2": [1, 0]}}
    }}'''
    path = tmp_path / "sys.json"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "[FAIL] arrows-transitive  witness (0, 1, 2)" in out


def _system_with_index(tmp_path, join) -> str:
    """A direct system of two-element Boolean fibers, an identity
    transition on every comparable pair, over the index ``join``."""
    fiber = json.loads(dumps_document(builtin("two"), "ba"))
    n = len(join)
    text = json.dumps({
        "kind": "direct-system",
        "index": {"kind": "sl", "size": n, "ops": {"join": join}},
        "fibers": {str(i): fiber for i in range(n)},
        "transitions": {f"{i}->{j}": [0, 1] for i in range(n)
                        for j in range(n) if i != j and join[i][j] == j}})
    path = tmp_path / "sys.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("join, lines", [
    # two minimal elements under a top: no least element
    ([[0, 2, 2], [2, 1, 2], [2, 2, 2]],
     ["[PASS] join-commutative", "[FAIL] index-bottom  witness (0, 1)"]),
    # the right projection: associative, not commutative
    ([[0, 1], [0, 1]],
     ["[FAIL] join-commutative  witness (0, 1)", "[PASS] index-bottom"]),
], ids=("no-least-element", "not-a-semilattice"))
def test_check_system_index_failures(capsys, tmp_path, join, lines):
    code, out, _ = run(capsys, "check", _system_with_index(tmp_path, join))
    assert code == 1
    assert out == "\n".join([
        "subject: direct-system", "  [PASS] join-idempotent",
        f"  {lines[0]}", "  [PASS] join-associative", f"  {lines[1]}",
        "  [PASS] objects-complete", "result: FAIL"]) + "\n"


def test_wrong_index_bottom_is_reported_once(capsys, tmp_path):
    # the benchmark's direct system over a three-element chain, with a
    # declared bottom that is not the least element: its own law,
    # bottom-neutral, fails exactly when index-bottom does
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    data = json.loads(corpus.build("cli-mix", 0)[0]["dsys"])
    data["index"]["ops"]["bottom"] = 1
    path = _write_json(tmp_path, "dsys.json", data)
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert out == "\n".join([
        "subject: direct-system", "  [PASS] join-idempotent",
        "  [PASS] join-commutative", "  [PASS] join-associative",
        "  [FAIL] index-bottom  witness (1, 0)",
        "  [PASS] objects-complete", "result: FAIL"]) + "\n"
    index = FiniteAlgebra(3, {"join": data["index"]["ops"]["join"]},
                          constants={"bottom": 1})
    with pytest.raises(MissingBottom, match="element 1 is not a least"):
        JoinSemilattice(index, 1)
    right_projection = FiniteAlgebra(2, {"join": [[0, 1], [0, 1]]},
                                     constants={"bottom": 0})
    with pytest.raises(NotSemilattice,
                       match="join is not a semilattice operation"):
        JoinSemilattice(right_projection, 0)


def test_hom_count_golden(capsys, three_file):
    code, out, _ = run(capsys, "hom", three_file, three_file,
                       "--kind", "bsl", "--count")
    assert code == 0
    assert out == "6\n"


def test_hom_list(capsys, three_file):
    code, out, _ = run(capsys, "hom", three_file, three_file,
                       "--kind", "bsl", "--list")
    assert code == 0
    assert out.splitlines()[0] == "0 0 0"
    assert len(out.splitlines()) == 6


def test_iso_found_and_absent(capsys, wk_file, three_file, tmp_path):
    code, out, _ = run(capsys, "iso", wk_file, wk_file, "--kind", "ibsl")
    assert code == 0
    assert out == "0 1 2\n"
    s2_file = tmp_path / "s2.json"
    s2_file.write_text(dumps_document(builtin("s2"), "ibsl"),
                       encoding="utf-8")
    code, _, err = run(capsys, "iso", wk_file, str(s2_file),
                       "--kind", "ibsl")
    assert code == 1
    assert "no isomorphism" in err


def test_roundtrip_wk(capsys, wk_file):
    code, out, _ = run(capsys, "roundtrip", wk_file)
    assert code == 0
    assert "[PASS] plonka-roundtrip" in out
    assert "[PASS] double-dual-iso" in out


def test_roundtrip_all_kinds(capsys, tmp_path):
    from algdual.duality import dual_of_ibsl
    from algdual.lattices import FinitePoset

    cases = [
        (dumps_document(builtin("two"), "ba"), "stone-double-dual"),
        (dumps_document(builtin("three"), "bsl"), "plonka-roundtrip"),
        (dumps_document(FinitePoset(2, ((True, True), (False, True)))),
         "downset-double-dual"),
        (dumps_document(dual_of_ibsl(builtin("wk"))), "double-dual-iso"),
    ]
    for k, (text, check_name) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "roundtrip", str(path))
        assert code == 0
        assert f"[PASS] {check_name}" in out


def test_dual_command_emits_valid_documents(capsys, wk_file, three_file,
                                            tmp_path):
    for src in (wk_file, three_file):
        code, out, _ = run(capsys, "dual", src)
        assert code == 0
        doc = loads_document(out)
        assert doc.kind == "gr"
        assert check_document(doc).ok


def test_dual_of_dual_recovers_kind(capsys, wk_file, tmp_path):
    code, out, _ = run(capsys, "dual", wk_file)
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "dual", str(dual_path))
    assert code == 0
    assert loads_document(out).kind == "ibsl"


def test_plonka_commands(capsys, wk_file, tmp_path):
    code, out, _ = run(capsys, "plonka", "decompose", wk_file)
    assert code == 0
    doc = loads_document(out)
    assert doc.kind == "direct-system"
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "plonka", "sum", str(sys_path))
    assert code == 0
    assert loads_document(out).kind == "ibsl"


def test_plonka_kind_mismatch_exit_1(capsys, three_file):
    code, _, err = run(capsys, "plonka", "sum", three_file)
    assert code == 1
    assert "error" in err


def test_hasse_meet_order_golden(capsys, three_file):
    code, out, _ = run(capsys, "hasse", three_file, "--order", "meet")
    assert code == 0
    assert out == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        '  n0 [label="0"];\n'
        '  n1 [label="1"];\n'
        '  n2 [label="α"];\n'
        "  n0 -> n1;\n"
        "  n2 -> n0;\n"
        "}\n")


def test_hasse_join_order(capsys, three_file):
    code, out, _ = run(capsys, "hasse", three_file, "--order", "join")
    assert code == 0
    assert "  n0 -> n1;\n  n1 -> n2;" in out


def test_hasse_box_requires_gr(capsys, three_file):
    code, _, err = run(capsys, "hasse", three_file, "--order", "box")
    assert code == 1


def test_gen_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "--seed", "5")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--seed", "5")
    assert out1 == out2
    code, out3, _ = run(capsys, "gen", "--seed", "6")
    assert out3 != out1
    doc = loads_document(out1)
    assert doc.kind == "ibsl"
    assert check_document(doc).ok


def test_gen_respects_size_and_fibers(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "1", "--size", "6",
                       "--fibers", "2")
    doc = loads_document(out)
    assert doc.payload.size <= 6


def test_emitted_documents_reparse(capsys, wk_file, tmp_path):
    # self-consistency: every emitted document re-parses and re-validates
    for argv in (("dual", wk_file), ("plonka", "decompose", wk_file),
                 ("gen", "--seed", "3")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert check_document(loads_document(out)).ok


def test_output_to_file(capsys, wk_file, tmp_path):
    out_path = tmp_path / "out.dot"
    code, out, _ = run(capsys, "hasse", wk_file, "--order", "meet",
                       "-o", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8").startswith("digraph")


@pytest.mark.parametrize("argv", [
    ["dual", "{wk}"],
    ["plonka", "decompose", "{wk}"],
    ["hasse", "{wk}", "--order", "meet"],
    ["gen", "--size", "8"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_2_with_one_line(capsys, wk_file, tmp_path,
                                                 argv):
    target = tmp_path / "no-such-folder" / "out.json"
    argv = [arg.format(wk=wk_file) for arg in argv] + ["-o", str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_dual_of_system_documents(capsys, wk_file, tmp_path):
    # direct-system -> inverse-system -> direct-system through the CLI
    code, out, _ = run(capsys, "plonka", "decompose", wk_file)
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "dual", str(sys_path))
    assert code == 0
    doc = loads_document(out)
    assert doc.kind == "inverse-system"
    assert check_document(doc).ok
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "dual", str(inv_path))
    assert code == 0
    assert loads_document(out).kind == "direct-system"


def test_hom_between_gr_documents(capsys, wk_file, tmp_path):
    code, out, _ = run(capsys, "dual", wk_file)
    gr_path = tmp_path / "gr.json"
    gr_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "hom", str(gr_path), str(gr_path),
                       "--kind", "igr", "--count")
    assert code == 0
    assert out == "1\n"  # only the identity, matching |Hom_ibsl(wk, wk)|


def test_meetless_ibsl_document(capsys, tmp_path):
    # meet and one are derivable and may be omitted from documents
    text = ('{"kind": "ibsl", "size": 3, "names": ["0", "1", "a"],'
            ' "ops": {"join": [[0,1,2],[1,1,2],[2,2,2]],'
            ' "neg": [1,0,2], "zero": 0}}')
    path = tmp_path / "meetless.json"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    code, out, _ = run(capsys, "roundtrip", str(path))
    assert code == 0


def test_color_env(capsys, wk_file, monkeypatch):
    monkeypatch.setenv("ALGCTL_COLOR", "1")
    code, out, _ = run(capsys, "check", wk_file)
    assert "\x1b[32mPASS\x1b[0m" in out
    monkeypatch.setenv("ALGCTL_COLOR", "0")
    code, out, _ = run(capsys, "check", wk_file)
    assert "\x1b[" not in out


def _write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _wk_data():
    return json.loads(dumps_document(builtin("wk"), "ibsl"))


def _gr_data():
    return json.loads(dumps_document(wk_space()))


def _system_data():
    return json.loads(dumps_document(plonka_decompose(builtin("wk"))))


def _set(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize("make, path, value", [
    (_wk_data, ("ops", "join", 0, 0), 0.0),
    (_wk_data, ("ops", "join", 0, 0), 1.9),
    (_wk_data, ("ops", "join", 0, 0), "0"),
    (_wk_data, ("ops", "join", 0, 0), True),
    (_wk_data, ("ops", "neg", 0), 1.0),
    (_wk_data, ("ops", "neg", 0), "1"),
    (_wk_data, ("ops", "zero"), 0.0),
    (_wk_data, ("ops", "zero"), "0"),
    (_wk_data, ("names",), [0, 1, 2]),
    (_wk_data, ("names",), "01a"),
    (_gr_data, ("star", 0, 0), 0.0),
    (_gr_data, ("star", 0, 0), "0"),
    (_gr_data, ("neg", 0), 1.5),
    (_gr_data, ("c0",), 0.0),
    (_gr_data, ("c1",), "1"),
    (_gr_data, ("calpha",), False),
    (_system_data, ("fibers", "0", "ops", "neg", 0), 1.0),
    (_system_data, ("index", "ops", "join", 0, 0), "0"),
    (_system_data, ("index", "names"), [0]),
])
def test_non_integer_entries_exit_2(capsys, tmp_path, make, path, value):
    # entries used to be coerced with int(): 1.9 -> 1, "0" -> 0, True -> 1
    doc = _write_json(tmp_path, "doc.json", _set(make(), path, value))
    code, out, err = run(capsys, "check", doc)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed document")


def test_hasse_escapes_quotes_in_labels(capsys, tmp_path):
    data = _set(_wk_data(), ("names",), ["0", '1"', "a\\\nb"])
    doc = _write_json(tmp_path, "quote.json", data)
    code, out, _ = run(capsys, "hasse", doc, "--order", "meet")
    assert code == 0
    assert out == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        '  n0 [label="0"];\n'
        '  n1 [label="1\\""];\n'
        '  n2 [label="a\\\\\\nb"];\n'
        "  n0 -> n1;\n"
        "  n2 -> n0;\n"
        "}\n")


@pytest.mark.parametrize("argv", [
    ("--size", "0"),
    ("--size", "-3"),
    ("--fibers", "-1"),
    ("--fibers", "5", "--size", "3"),
    ("--fibers", "4", "--size", "8"),
])
def test_gen_unreachable_size_exit_2(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: no instance")


def test_gen_gives_up_after_bounded_draws(capsys, monkeypatch):
    # reachable in principle (index of two elements, trivial upper fiber),
    # but practically never drawn: the draw budget ends the search
    import algdual.commands.gen as gen

    monkeypatch.setattr(gen, "_GEN_DRAWS", 5)
    code, out, err = run(capsys, "gen", "--fibers", "4", "--size", "9")
    assert code == 2
    assert out == ""
    assert "none of 5 draws" in err


def test_gen_smallest_reachable_size(capsys):
    code, out, _ = run(capsys, "gen", "--size", "1", "--seed", "0")
    assert code == 0
    assert loads_document(out).payload.size == 1


def _poset_data():
    return {"kind": "poset", "size": 2, "leq": [[1, 1], [0, 1]]}


def _inverse_system_data():
    from algdual.duality import lift_functor_dir_to_inv

    return json.loads(dumps_document(
        lift_functor_dir_to_inv(plonka_decompose(builtin("wk")))))


@pytest.mark.parametrize("make, path, value", [
    (_poset_data, ("leq", 0, 0), 1.0),
    (_poset_data, ("leq", 1, 0), 0.0),
    (_poset_data, ("leq", 0, 1), "1"),
    (_gr_data, ("leq", 0, 0), 1.0),
    (_inverse_system_data, ("terms", "0", "size"), -1),
    (_wk_data, ("ops", "meet"), 0),
    (_wk_data, ("ops", "one"), [0, 1, 2]),
    (_wk_data, ("ops", "neg"), [[0, 1, 2]] * 3),
])
def test_bad_entries_sizes_and_arities_exit_2(capsys, tmp_path, make, path,
                                             value):
    # 1.0 used to pass the 0/1 test of order matrices; a negative term size,
    # and a reserved op name at the wrong arity ("meet" as a constant clashed
    # with the synthesized meet table), escaped as ValueError tracebacks
    doc = _write_json(tmp_path, "doc.json", _set(make(), path, value))
    code, out, err = run(capsys, "check", doc)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed document")


def test_boolean_order_entries_exit_2(capsys, tmp_path):
    # JSON true and false are not integers, and inputs are never coerced:
    # `dual` refuses the order too instead of writing its down-set lattice
    doc = _write_json(tmp_path, "doc.json",
                      {"kind": "poset", "size": 2, "leq": [[True, 1], [0, 1]]})
    assert run(capsys, "dual", doc) == (
        2, "", "error: malformed document: 'leq' entries must be 0 or 1\n")


def _sizeless_gr_data():
    return {"kind": "gr", "star": [], "leq": [], "c0": 0, "c1": 0, "calpha": 0}


_BA1 = {"kind": "ba", "size": 1}
_NOT_AN_ORDER = {"kind": "poset", "size": 2, "leq": [[1, 1], [1, 1]]}


@pytest.mark.parametrize("make, path, value, message", [
    (_system_data, ("transitions",), {"0-1": [0, 0]},
     "arrow key '0-1' is not of the form 'i->j'"),
    (_system_data, ("transitions",), {"a->b": [0, 0]},
     "arrow key 'a->b' is not a pair of integers"),
    (_system_data, ("transitions",), {"0->9": [0, 0]},
     "arrow key '0->9' is out of range"),
    (_system_data, ("transitions",), [[0, 0]],
     "'transitions' must be an object keyed by 'i->j'"),
    (_system_data, ("fibers", "x"), _BA1, "object key 'x' is not an integer"),
    (_system_data, ("fibers", "9"), _BA1, "object key '9' is out of range"),
    (_system_data, ("fibers", "0", "kind"), "gr",
     "fiber '0' has unsupported kind 'gr'"),
    (_system_data, ("fibers", "1", "kind"), "bsl",
     "fibers carry inconsistent kinds"),
    (_inverse_system_data, ("terms", "0"), _NOT_AN_ORDER,
     "term '0' order is not a partial order"),
    (_inverse_system_data, ("terms", "1", "kind"), "gr",
     "term '1' has unsupported kind 'gr'"),
    (_inverse_system_data, ("bondings",), {"0->1->1": []},
     "arrow key '0->1->1' is not of the form 'i->j'"),
    (_inverse_system_data, ("bondings",), [],
     "'bondings' must be an object keyed by 'i->j'"),
    (_sizeless_gr_data, ("size",), 0,
     "GR spaces are non-empty (they carry constants)"),
    (_gr_data, ("star", 0, 0), 3, "star table has out-of-range entries"),
    (_gr_data, ("c1",), 3, "constant out of range"),
    (_gr_data, ("calpha",), -1, "constant out of range"),
    (_gr_data, ("neg",), [1, 0], "involution is not a carrier self-map"),
    (_gr_data, ("neg", 2), 3, "involution has out-of-range values"),
    (_poset_data, ("leq", 0, 0), True, "'leq' entries must be 0 or 1"),
    (_gr_data, ("leq", 0, 0), True, "'leq' entries must be 0 or 1"),
    # entries are checked a row at a time, after the shape
    (_poset_data, ("leq", 1, 0), False, "'leq' entries must be 0 or 1"),
    (_poset_data, ("leq", 0, 1), 1.0, "'leq' entries must be 0 or 1"),
    (_poset_data, ("leq", 1, 1), [1], "'leq' entries must be 0 or 1"),
    (_poset_data, ("leq", 1, 0), "0", "'leq' entries must be 0 or 1"),
    (_poset_data, ("leq", 1, 0), None, "'leq' entries must be 0 or 1"),
    (_poset_data, ("leq", 1, 0), 2, "'leq' entries must be 0 or 1"),
    (_poset_data, ("leq", 0, 0), -1, "'leq' entries must be 0 or 1"),
    (_poset_data, ("leq", 1), [True, 1, 0], "'leq' must be a 2x2 matrix"),
])
def test_shape_errors_exit_2_with_one_line(capsys, tmp_path, make, path,
                                           value, message):
    # each line as the parser and the constructors of systems and GR spaces
    # word it
    doc = _write_json(tmp_path, "doc.json", _set(make(), path, value))
    assert run(capsys, "check", doc) == (
        2, "", f"error: malformed document: {message}\n")


@pytest.mark.parametrize("argv, out", [
    (("builtin:wk", "builtin:wk", "--kind", "ibsl", "--list"),
     '{"count": 1, "homs": [[0, 1, 2]]}\n'),
    (("builtin:three", "builtin:wk", "--kind", "bsl", "--count"),
     '{"count": 6}\n'),
])
def test_hom_json_goldens(capsys, argv, out):
    assert run(capsys, "hom", *argv, "--format", "json") == (0, out, "")


# stdout, stderr and exit code of ``algctl ARGV`` for every help text and
# every usage error argparse reports itself, recorded in-process through
# main() with COLUMNS=80 (the same on Python 3.10 and 3.11) before the
# parser built only the arguments of the command it runs
HELP_GOLDENS = json.loads(
    (ROOT / "tests" / "cli_help_goldens.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", sorted(HELP_GOLDENS),
                         ids=lambda argv: argv or "no-arguments")
def test_help_and_usage_errors_are_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = HELP_GOLDENS[argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv.split())
    assert exit_info.value.code == code
    assert capsys.readouterr() == (out, err)


def _kind_choices(command: str):
    sub = next(a for a in build_parser(command)._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if a.dest == "kind")


def test_parser_kind_choices_are_the_kind_tuples():
    from algdual.documents import ALGEBRA_KINDS, KINDS, SPACE_KINDS

    assert tuple(_kind_choices("check")) == KINDS
    assert tuple(_kind_choices("hom")) == ALGEBRA_KINDS + SPACE_KINDS
    assert tuple(_kind_choices("iso")) == ALGEBRA_KINDS + SPACE_KINDS


# the words of each subcommand's lines, and words only argparse reads or
# refuses: help, an abbreviation, an attached value, a negative number,
# a lone dash, an option-like word with a space, the end of options
_LINE_WORDS = {
    "check": ("f.json", "g.json", "--kind", "ibsl", "igr", "nokind",
              "--format", "json", "text"),
    "dual": ("f.json", "g.json", "-o", "--output", "out.txt"),
    "plonka": ("sum", "decompose", "f.json", "g.json", "-o", "out.txt"),
    "hom": ("f.json", "g.json", "--kind", "ibsl", "gr", "nokind", "--count",
            "--list", "--format", "json"),
    "iso": ("f.json", "g.json", "--kind", "ibsl", "gr", "nokind"),
    "roundtrip": ("f.json", "g.json", "--format", "json", "text"),
    "hasse": ("f.json", "--order", "join", "meet", "box", "nope", "-o",
              "out.txt"),
    "gen": ("--size", "--fibers", "--seed", "5", "x", "-o", "out.txt"),
}
_ARGPARSE_WORDS = ("-h", "--help", "--fo", "--kind=ibsl", "-1", "-", "",
                   "-x y", "--")


def test_plain_lines_parse_as_argparse_parses_them(capsys):
    # parse_plain takes a line only when it gives what argparse gives it
    rng = Random(0)
    parsers = {command: build_parser(command) for command in _LINE_WORDS}
    plain = 0
    for _ in range(6000):
        command = rng.choice(sorted(_LINE_WORDS))
        words = _LINE_WORDS[command] + _ARGPARSE_WORDS[:rng.randrange(2)
                                                       * len(_ARGPARSE_WORDS)]
        argv = [command] + [rng.choice(words) for _ in range(rng.randrange(7))]
        try:
            expected = vars(parsers[command].parse_args(argv))
        except SystemExit:
            expected = None
        fast = parse_plain(argv)
        if fast is not None:
            plain += 1
            assert vars(fast) == expected, argv
    capsys.readouterr()
    assert plain > 300


@pytest.mark.parametrize("line, plain", [
    ("hom a b --kind ibsl --count", True),
    ("hom a b --kind ibsl --count --list", False),
    ("hom a b --count", False),
    ("plonka sum f -o out", True),
    ("plonka add f", False),
    ("gen", True),
    ("gen --seed 3 --seed 4 -o out", True),
    ("gen --seed -1", False),
    ("gen --size x", False),
    ("check f --format json --kind ibsl", True),
    ("check f --kind=ibsl", False),
    ("check f --fo json", False),
    ("check f g", False),
    ("check", False),
    ("check -h", False),
    ("hasse f --order nope", False),
])
def test_plain_line_cases(capsys, line, plain):
    argv = line.split()
    fast = parse_plain(argv)
    assert (fast is not None) == plain
    if plain:
        assert vars(fast) == vars(build_parser(argv[0]).parse_args(argv))


def test_the_benchmark_lines_are_plain():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for ops in corpus.OPS.values():
        for op in ops:
            assert parse_plain(corpus.cli_argv(op, 0)) is not None, op.id


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_exhaustion_exits_2_with_a_message(capsys, monkeypatch,
                                                    error):
    # an input too large or too deeply nested must end in a message, never
    # a traceback
    import algdual.commands.check as check

    def exhausted(args):
        raise error()

    monkeypatch.setattr(check, "run", exhausted)
    code, out, err = run(capsys, "check", "builtin:wk")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _sweep_documents() -> dict:
    """A small valid document of each document kind, and a GR space with
    involution."""
    from algdual.duality import FiniteSpace, dual_of_bsl

    two = builtin("two")
    return {
        "ibsl": dumps_document(builtin("wk"), "ibsl"),
        "ba": dumps_document(two, "ba"),
        "bsl": dumps_document(builtin("three"), "bsl"),
        "dl": dumps_document(two.reduct(binary=("join", "meet")), "dl"),
        "sl": dumps_document(FiniteAlgebra(
            2, {"join": [[0, 1], [1, 1]]}, constants={"bottom": 0}), "sl"),
        "gr": dumps_document(dual_of_bsl(builtin("three"))),
        "igr": dumps_document(wk_space()),
        "poset": json.dumps(_poset_data()),
        "space": dumps_document(FiniteSpace(2)),
        "direct-system": json.dumps(_system_data()),
        "inverse-system": json.dumps(_inverse_system_data()),
    }


def test_hom_and_iso_never_end_in_a_traceback(capsys, tmp_path):
    # a --kind whose structure the documents lack used to reach a validator
    # or the search of another structure and end in an AttributeError or a
    # TypeError; now it is a kind mismatch, exit 1 with a message
    kinds = _kind_choices("hom")
    outcomes = {}
    for name, text in _sweep_documents().items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        assert check_document(loads_document(text)).ok, name
        for kind in kinds:
            for argv in (("hom", str(path), str(path), "--kind", kind,
                          "--count"),
                         ("iso", str(path), str(path), "--kind", kind)):
                code, out, err = run(capsys, *argv)
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err
                if code:
                    assert out == "" and err.startswith("error: "), argv
                outcomes[name, kind, argv[0]] = code
    # every document is its own image under a hom and an iso of its kind
    for name in ("ibsl", "ba", "bsl", "dl", "sl", "gr", "igr"):
        assert outcomes[name, name, "hom"] == 0
        assert outcomes[name, name, "iso"] == 0
    assert outcomes["igr", "gr", "iso"] == 0
    for name in ("poset", "space", "direct-system", "inverse-system"):
        assert {outcomes[name, kind, cmd] for kind in kinds
                for cmd in ("hom", "iso")} == {1}


def _algctl(*argv, unbuffered=False) -> subprocess.Popen:
    """``python -m algdual.cli ARGV``, with PYTHONUNBUFFERED set or not."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen([sys.executable, "-m", "algdual.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def test_closed_stdout_exits_2_with_one_line(tmp_path):
    # the dual of a 7-point space is 400 kB of text, more than a pipe
    # holds, so the writer is still writing when the reader goes away.
    # Unbuffered, the text layer would drop the rest of the short write
    # that the closed pipe leaves, and the program would exit 0.
    path = tmp_path / "space.json"
    path.write_text('{"kind": "space", "size": 7}', encoding="utf-8")
    for unbuffered in (False, True):
        proc = _algctl("dual", str(path), unbuffered=unbuffered)
        assert proc.stdout.readline() == b'{\n'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2, unbuffered
        assert err == "error: stdout closed before the output was written\n"


@pytest.mark.parametrize("document", [
    {"kind": "space", "size": 40},
    {"kind": "inverse-system",
     "index": {"kind": "sl", "size": 1, "ops": {"join": [[0]]}},
     "terms": {"0": {"kind": "space", "size": 40}}},
], ids=("space", "inverse-system"))
def test_dual_of_a_large_space_is_refused(tmp_path, document):
    # its power-set algebra has 2^40 elements; building it never ends
    path = tmp_path / "big.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = _algctl("dual", str(path))
    try:
        out, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.wait() == 2
    assert out == b""
    assert err.decode() == (
        "error: the power-set algebra of a 40-point space has 2^40 "
        "elements, more than the limit of 2^10\n")


def _poset40(leq) -> dict:
    return {"kind": "poset", "size": 40,
            "leq": [[int(leq(i, j)) for j in range(40)] for i in range(40)]}


def test_dual_of_a_40_element_chain_is_its_41_down_sets(tmp_path):
    # the down-sets are grown one at a time, so the 2^40 subsets of the
    # chain are never visited
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_poset40(lambda i, j: i <= j)),
                    encoding="utf-8")
    proc = _algctl("dual", str(path))
    try:
        out, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.wait() == 0, err
    assert loads_document(out.decode()).payload.size == 41


def test_dual_of_a_40_element_antichain_is_refused(tmp_path):
    # its down-set lattice has 2^40 elements
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps(_poset40(lambda i, j: i == j)),
                    encoding="utf-8")
    proc = _algctl("dual", str(path))
    try:
        out, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.wait() == 2
    assert out == b""
    assert err.decode() == (
        "error: the down-set lattice of a 40-element poset has more than "
        "2^10 elements, the limit\n")


def test_roundtrip_past_the_down_set_limit_exits_2(tmp_path):
    # 2^11 down-sets: too large to process, not a failed check
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps(
        {"kind": "poset", "size": 11,
         "leq": [[int(i == j) for j in range(11)] for i in range(11)]}),
        encoding="utf-8")
    proc = _algctl("roundtrip", str(path))
    try:
        out, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.wait() == 2
    assert out == b""
    assert err.decode() == (
        "error: the down-set lattice of a 11-element poset has more than "
        "2^10 elements, the limit\n")


def _ladder_ibsl48() -> str:
    """The n=48 IBSL of the benchmark's dual ladder."""
    rng = Random(1)
    total = plonka_sum(random_direct_system(rng, "ba", 4, 4))
    algebra = permute_algebra(total, random_permutation(rng, total.size))
    assert algebra.size == 48
    return dumps_document(algebra, "ibsl")


@pytest.mark.parametrize("argv, expected", [
    (["plonka", "decompose", "{ibsl48}"], 0),
    (["check", "{broken}"], 1),
    (["check", "{bad}"], 2),
], ids=("large-output", "axiom-failure", "parse-error"))
def test_module_entry_matches_main(capsys, tmp_path, broken_ibsl_file, argv,
                                   expected):
    paths = {"ibsl48": tmp_path / "ibsl48.json", "bad": tmp_path / "bad.json"}
    paths["ibsl48"].write_text(_ladder_ibsl48(), encoding="utf-8")
    paths["bad"].write_text('{"kind": "ibsl",', encoding="utf-8")
    argv = [arg.format(broken=broken_ibsl_file, **paths) for arg in argv]
    code, out, _ = run(capsys, *argv)
    proc = _algctl(*argv)
    piped, _ = proc.communicate(timeout=60)
    assert code == proc.returncode == expected
    assert piped == out.encode()
    if expected == 0:
        assert len(piped) > 1 << 15


def test_installed_algctl_runs_the_entry_function():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^algctl = "algdual\.cli:entry"$', text, re.M)
