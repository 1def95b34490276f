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
from algdual.cli import main
from algdual.documents import dumps_document, loads_document, check_document
from algdual.duality import wk_space
from algdual.generate import random_direct_system, random_permutation
from algdual.systems import plonka_decompose, plonka_sum

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
    import algdual.cli as cli

    monkeypatch.setattr(cli, "_GEN_DRAWS", 5)
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


def test_boolean_order_entries_still_accepted(capsys, tmp_path):
    doc = _write_json(tmp_path, "doc.json",
                      {"kind": "poset", "size": 2, "leq": [[True, 1], [0, 1]]})
    code, _, _ = run(capsys, "check", doc)
    assert code == 0


def _kind_choices(command: str):
    from algdual.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if a.dest == "kind")


def test_parser_kind_choices_are_the_kind_tuples():
    from algdual.algebra import ALGEBRA_KINDS, SPACE_KINDS
    from algdual.documents import KINDS

    assert tuple(_kind_choices("check")) == KINDS
    assert tuple(_kind_choices("hom")) == ALGEBRA_KINDS + SPACE_KINDS
    assert tuple(_kind_choices("iso")) == ALGEBRA_KINDS + SPACE_KINDS


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_exhaustion_exits_2_with_a_message(capsys, monkeypatch,
                                                    error):
    # an input too large or too deeply nested must end in a message, never
    # a traceback
    import algdual.cli as cli

    def exhausted(args):
        raise error()

    monkeypatch.setattr(cli, "cmd_check", exhausted)
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
