"""Start-up guards, without timing.

Every ``algctl`` run is a fresh interpreter, so what it imports is paid on
every command.  These tests run commands in new interpreters and check which
modules got loaded: each row of ``MODULE_ROWS`` names every module a command
loads, so a new top-level import shows up here.  Commands on algebra
documents, and every error the parser reports itself, need only the
algebra, document and error modules and their own command module; only
commands that run a system step load ``algdual.systems``, only commands
that search for homs load ``algdual.search``, and a plain command line
loads no ``argparse``.  They also check that every function the benchmark
names resolves, and pin down the package's lazy exports and the behaviour
of the immutable value classes (``Record`` subclasses).
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import algdual
from algdual import (
    algebra,
    documents,
    duality,
    lattices,
    system_morphisms,
    systems,
)
from algdual.algebra import Check, FiniteAlgebra, ValidationReport, builtin
from algdual.systems import JoinSemilattice
from algdual.system_documents import SystemParts
from algdual.morphisms import Morphism
from algdual.documents import Document, dumps_document, loads_document
from algdual.duality import FiniteSpace, dual_of_bsl, dual_of_ibsl
from algdual.lattices import FinitePoset
from algdual.generate import (
    random_boolean_algebra,
    random_distributive_lattice,
    random_join_semilattice,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# modules that commands on algebra documents must not load
HEAVY = {"dataclasses", "algdual.duality", "algdual.systems",
         "algdual.lattices", "algdual.generate", "algdual.hasse",
         "algdual.search", "algdual.morphisms", "algdual.orders",
         "algdual.system_morphisms", "algdual.system_documents",
         "algdual.writer"}


def _loaded_after(code: str) -> tuple[object, set]:
    """Run ``code`` in a new interpreter; return the value it leaves in
    ``result`` and the names of the modules loaded by then.  ``-S`` keeps
    site hooks from loading modules the program does not ask for."""
    probe = (f"import json, sys\nresult = None\n{code}\n"
             "print(json.dumps([result, sorted(sys.modules)]))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result, modules = json.loads(proc.stdout.splitlines()[-1])
    return result, set(modules)


def _main(argv) -> str:
    return f"from algdual.cli import main\nresult = main({list(argv)!r})"


def test_import_cli_loads_no_heavy_module():
    _, modules = _loaded_after("import algdual.cli")
    assert not modules & HEAVY
    assert "algdual.documents" in modules


def test_import_package_loads_no_submodule():
    _, modules = _loaded_after("import algdual")
    assert {m for m in modules if m.startswith("algdual.")} == set()


@pytest.fixture(scope="module")
def algebra_files(tmp_path_factory):
    rng = Random(3)
    objects = {
        "ibsl": builtin("wk"),
        "bsl": builtin("three"),
        "ba": random_boolean_algebra(rng, 2, min_atoms=2),
        "dl": random_distributive_lattice(rng, 3),
        "sl": random_join_semilattice(rng, 4).algebra,
        "gr": dual_of_bsl(builtin("three")),
        "igr": dual_of_ibsl(builtin("wk")),
        "poset": FinitePoset(2, ((True, True), (False, True))),
        "space": FiniteSpace(2),
    }
    folder = tmp_path_factory.mktemp("algebras")
    paths = {}
    for kind, obj in objects.items():
        paths[kind] = str(folder / f"{kind}.json")
        Path(paths[kind]).write_text(dumps_document(obj, kind),
                                     encoding="utf-8")
    system = systems.plonka_decompose(builtin("wk"))
    for kind, obj in (("direct-system", system),
                      ("inverse-system",
                       lattices.lift_functor_dir_to_inv(system))):
        paths[kind] = str(folder / f"{kind}.json")
        Path(paths[kind]).write_text(dumps_document(obj), encoding="utf-8")
    return paths


@pytest.mark.parametrize("kind", ["ibsl", "bsl", "ba", "dl", "sl"])
def test_check_of_algebra_kinds_loads_no_heavy_module(algebra_files, kind):
    code, modules = _loaded_after(_main(["check", algebra_files[kind]]))
    assert code == 0
    assert not modules & HEAVY


@pytest.mark.parametrize("argv, expected", [
    (["hom", "{ibsl}", "{ibsl}", "--kind", "ibsl", "--list"], 0),
    (["hom", "{bsl}", "{bsl}", "--kind", "bsl", "--count"], 0),
    (["iso", "{ibsl}", "{ibsl}", "--kind", "ibsl"], 0),
    (["iso", "{ba}", "{ibsl}", "--kind", "ba"], 1),
    (["hasse", "{dl}", "--order", "meet"], 0),
])
def test_search_and_hasse_on_algebras_load_no_heavy_module(
        algebra_files, argv, expected):
    argv = [arg.format(**algebra_files) for arg in argv]
    code, modules = _loaded_after(_main(argv))
    assert code == expected
    allowed = {"hasse": {"algdual.hasse", "algdual.orders"}}.get(
        argv[0], {"algdual.search", "algdual.morphisms"})
    assert not modules & (HEAVY - allowed)
    assert allowed <= modules


@pytest.mark.parametrize("argv", [
    *[["check", "{%s}" % kind]
      for kind in ("gr", "igr", "ba", "dl", "poset", "space")],
    *[["dual", "{%s}" % kind]
      for kind in ("ibsl", "bsl", "gr", "igr", "ba", "dl", "poset", "space")],
    ["hom", "{igr}", "{igr}", "--kind", "igr", "--count"],
    ["iso", "{igr}", "{igr}", "--kind", "igr"],
])
def test_commands_without_a_system_step_load_no_systems(algebra_files, argv):
    argv = [arg.format(**algebra_files) for arg in argv]
    code, modules = _loaded_after(_main(argv))
    assert code == 0
    assert "algdual.systems" not in modules


@pytest.mark.parametrize("argv", [
    ["check", "{poset}"],
    ["check", "{direct-system}"],
    ["plonka", "decompose", "{ibsl}"],
    ["plonka", "decompose", "{bsl}"],
    ["plonka", "sum", "{direct-system}"],
    ["roundtrip", "{bsl}"],
    ["hasse", "{poset}", "--order", "box"],
    ["dual", "{dl}"],
    ["dual", "{poset}"],
])
def test_commands_that_never_search_load_no_search_engine(algebra_files,
                                                          argv):
    argv = [arg.format(**algebra_files) for arg in argv]
    code, modules = _loaded_after(_main(argv))
    assert code == 0
    assert "algdual.search" not in modules


@pytest.mark.parametrize("command", ["hom", "iso"])
def test_hom_and_iso_call_the_algebra_bindings(algebra_files, command):
    # the benchmark's tracer wraps algdual.algebra.enumerate_homs and
    # find_isomorphism; the commands must reach the search through them
    name = {"hom": "enumerate_homs", "iso": "find_isomorphism"}[command]
    wk = algebra_files["ibsl"]
    code = ("import algdual.algebra as algebra\n"
            "calls = []\n"
            f"original = algebra.{name}\n"
            "def spy(*args, **kwargs):\n"
            "    calls.append(args[2])\n"
            "    return original(*args, **kwargs)\n"
            f"algebra.{name} = spy\n"
            f"{_main([command, wk, wk, '--kind', 'ibsl'])}\n"
            "result = [result, calls]")
    result, modules = _loaded_after(code)
    assert result == [0, ["ibsl"]]
    assert "algdual.search" in modules


# what the involutive-bisemilattice pipeline needs: no lattice, generator
# or DOT module
IBSL_PIPELINE = {"algdual", "algdual.algebra", "algdual.cli",
                 "algdual.commands", "algdual.commands.dual",
                 "algdual.commands.plonka", "algdual.commands.roundtrip",
                 "algdual.documents", "algdual.duality", "algdual.errors",
                 "algdual.morphisms", "algdual.orders", "algdual.search",
                 "algdual.systems", "algdual.writer"}


@pytest.mark.parametrize("argv", [["dual"], ["plonka", "decompose"],
                                  ["roundtrip"]])
def test_ibsl_pipeline_loads_only_its_modules(algebra_files, argv):
    code, modules = _loaded_after(_main(argv + [algebra_files["ibsl"]]))
    assert code == 0
    assert {m for m in modules if m.startswith("algdual")} <= IBSL_PIPELINE


@pytest.mark.parametrize("argv", [["plonka", "decompose"], ["roundtrip"]])
def test_bsl_decomposition_loads_no_lattice_module(algebra_files, argv):
    code, modules = _loaded_after(_main(argv + [algebra_files["bsl"]]))
    assert code == 0
    assert "algdual.lattices" not in modules


# the modules every command loads, besides its own command module
CORE = {"algdual", "algdual.algebra", "algdual.cli", "algdual.commands",
        "algdual.documents", "algdual.errors"}
GR = {"duality", "orders"}
SEARCH = {"morphisms", "search"}
SYSTEMS = {"systems", "morphisms"}
# a system document is read by its own module, which loads SYSTEMS to check it
SYSTEM_DOCS = SYSTEMS | {"system_documents"}
BIRKHOFF = {"lattices", "orders"}
WRITER = {"writer"}

# One row per line of the README's start-up table: a command, and every
# module it loads beyond CORE and its command module.
MODULE_ROWS = [
    *[(["check", "{%s}" % k], set()) for k in ("ibsl", "bsl", "ba", "dl", "sl")],
    *[(["check", "{%s}" % k], {"orders"}) for k in ("poset", "space")],
    (["check", "{gr}"], GR),
    (["check", "{igr}"], GR | SEARCH),
    (["check", "{direct-system}"], SYSTEM_DOCS),
    (["check", "{inverse-system}"], SYSTEM_DOCS | {"orders"}),
    *[(["dual", "{%s}" % k], GR | SEARCH | WRITER)
      for k in ("ibsl", "bsl", "gr", "igr")],
    *[(["dual", "{%s}" % k], BIRKHOFF | WRITER)
      for k in ("ba", "dl", "poset", "space")],
    *[(["dual", "{%s}" % k], SYSTEM_DOCS | BIRKHOFF | WRITER)
      for k in ("direct-system", "inverse-system")],
    (["plonka", "decompose", "{ibsl}"], SYSTEMS | WRITER),
    (["plonka", "decompose", "{bsl}"], SYSTEMS | WRITER),
    (["plonka", "sum", "{direct-system}"], SYSTEM_DOCS | WRITER),
    (["roundtrip", "{ibsl}"], GR | SEARCH | SYSTEMS),
    (["roundtrip", "{ibsl}", "--format", "json"],
     GR | SEARCH | SYSTEMS | WRITER),
    (["roundtrip", "{bsl}"], SYSTEMS),
    *[(["roundtrip", "{%s}" % k], BIRKHOFF | {"morphisms"})
      for k in ("ba", "dl", "poset")],
    (["roundtrip", "{igr}"], GR | SEARCH),
    *[(["hom", "{%s}" % k, "{%s}" % k, "--kind", k, "--count"], SEARCH)
      for k in ("ibsl", "bsl", "ba", "dl", "sl")],
    (["iso", "{ibsl}", "{ibsl}", "--kind", "ibsl"], SEARCH),
    (["hom", "{igr}", "{igr}", "--kind", "igr", "--count"], GR | SEARCH),
    (["iso", "{gr}", "{gr}", "--kind", "gr"], GR | SEARCH),
    *[(["hasse", "{%s}" % k, "--order", "meet"], {"hasse", "orders"})
      for k in ("ibsl", "poset")],
    (["hasse", "{gr}", "--order", "box"], {"hasse"} | GR),
    (["gen", "--size", "8"],
     {"generate", "lattices", "morphisms", "orders", "systems", "writer"}),
]


@pytest.mark.parametrize("argv, extra", MODULE_ROWS,
                         ids=[" ".join(argv) for argv, _ in MODULE_ROWS])
def test_each_command_loads_exactly_its_modules(algebra_files, argv, extra):
    argv = [arg.format(**algebra_files) for arg in argv]
    code, modules = _loaded_after(_main(argv))
    assert code == 0
    expected = CORE | {f"algdual.commands.{argv[0]}"} | {
        f"algdual.{m}" for m in extra}
    assert {m for m in modules if m.startswith("algdual")} == expected
    # every row is a plain command line, read without argparse
    assert "argparse" not in modules


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_function_the_tracer_wraps_resolves():
    spans = _perfbench_module("spans")
    keys = [*spans.SPANS, *spans.CALL_COUNTERS, *spans.SIZE_COUNTERS]
    missing = [key for key in keys if not callable(getattr(
        importlib.import_module(f"algdual.{key[0]}"), key[1], None))]
    assert keys and missing == []


def test_every_name_the_corpus_imports_resolves():
    corpus = _perfbench_module("corpus")
    tree = ast.parse((PERFBENCH / "corpus.py").read_text(encoding="utf-8"))
    names = [(node.module, alias.name) for node in tree.body
             if isinstance(node, ast.ImportFrom)
             and node.module.startswith("algdual")
             for alias in node.names]
    assert names
    for module, name in names:
        assert getattr(corpus, name) is getattr(
            importlib.import_module(module), name)


# commands whose counters and spans the tracer reads, and what they must be
TRACED = [
    (["hom", "{ibsl}", "{ibsl}", "--kind", "ibsl", "--count"],
     # the search proves each hom, so none is checked again
     "counts['algebra.morphism_checks'] == 0 < counts['algebra.homs_found']"
     " and {'documents.load', 'documents.check',"
     " 'algebra.hom_search'} <= names"),
    (["iso", "{ibsl}", "{ibsl}", "--kind", "ibsl"],
     "counts['algebra.iso_calls'] == counts['algebra.morphism_checks'] == 1"
     " and 'algebra.iso_search' in names"),
    (["check", "{direct-system}"],
     "counts['systems.system_check_calls'] == 1"
     " and counts['algebra.morphism_checks'] > 0"
     " and counts['algebra.identity_checks'] > 0"),
    (["dual", "{ibsl}"],
     "{'cli.command', 'documents.load', 'documents.check', 'documents.dump',"
     " 'duality.dual_build', 'duality.hom_space'} <= names"),
    (["roundtrip", "{ibsl}"],
     "{'systems.decompose', 'systems.sum', 'duality.double_dual'} <= names"),
    (["roundtrip", "{igr}"],
     "counts['duality.hom_space_points'] > 0"
     " and counts['algebra.morphism_checks'] == 1"),
]


@pytest.mark.parametrize("argv, condition", TRACED, ids=[
    "hom", "iso", "check-system", "dual", "roundtrip-ibsl", "roundtrip-igr"])
def test_the_tracer_sees_every_wrapped_call(algebra_files, argv, condition):
    # the benchmark's tracer wraps the bindings in the modules of
    # spans.MODULES; a wrapped function defined elsewhere must be called
    # through one of them
    argv = [arg.format(**algebra_files) for arg in argv]
    code = (f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import spans\n"
            "recorder = spans.Recorder('op')\n"
            "spans.install(recorder)\n"
            f"{_main(argv)}\n"
            "counts = recorder.counts\n"
            "names = {span[0] for span in recorder.spans}\n"
            f"result = [result, bool({condition}), dict(counts),"
            " sorted(names)]")
    result, _ = _loaded_after(code)
    assert result[0] == 0 and result[1], result[2:]


@pytest.mark.parametrize("name, data", [
    ("not-json", "{"),
    ("unknown-kind", {"kind": "monoid"}),
    ("bad-algebra", {"kind": "ibsl", "size": 2, "ops": {"join": 1.5}}),
    ("bad-gr", {"kind": "gr", "size": "3"}),
    ("bad-space", {"kind": "space", "size": -1}),
    ("bad-poset", {"kind": "poset", "size": 2, "leq": [[1]]}),
    ("bad-system", {"kind": "direct-system", "index": 3}),
    ("bad-term", {"kind": "inverse-system",
                  "index": {"kind": "sl", "size": 1, "ops": {"join": [[0]]}},
                  "terms": {"0": {"kind": "space", "size": "1"}}}),
])
def test_parse_errors_load_no_heavy_module(tmp_path, name, data):
    # a GR space, a poset or a space is parsed next to its structure, and a
    # system by its document reader, which parses without the system code,
    # so their parse errors load that module and no other
    parser = {"bad-gr": {"algdual.duality", "algdual.orders"},
              "bad-space": {"algdual.orders"},
              "bad-poset": {"algdual.orders"},
              "bad-system": {"algdual.system_documents"},
              "bad-term": {"algdual.system_documents",
                           "algdual.orders"}}.get(name, set())
    path = tmp_path / f"{name}.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data),
                    encoding="utf-8")
    code, modules = _loaded_after(_main(["check", str(path)]))
    assert code == 2
    assert modules & HEAVY == parser


@pytest.mark.parametrize("argv", [
    ["check", "no/such/file.json"],
    ["dual", "builtin:nothing"],
])
def test_unreadable_inputs_load_no_heavy_module(argv):
    code, modules = _loaded_after(_main(argv))
    assert code == 2
    assert not modules & HEAVY


# The package's public names, by the module that defines each.
EXPORTS = {
    "algebra": (
        "Check", "FiniteAlgebra", "ValidationReport", "builtin",
        "ibsl_completion", "validate_bisemilattice",
        "validate_boolean_algebra", "validate_distributive_lattice",
        "validate_ibsl", "validate_semilattice"),
    "duality": (
        "GRSpace", "GRSpaceWithInvolution", "bsl_of_gr", "delta_iso",
        "dual_of_bsl", "dual_of_gr", "dual_of_ibsl", "dual_of_ibsl_hom",
        "eps_iso", "gr_homs", "gr_three", "ibsl_to_inverse_system",
        "validate_gr_involution", "validate_gr_space", "wk_space"),
    "lattices": (
        "DistributiveLattice", "atoms", "ba_of_space", "bsl_to_inverse_system",
        "dl_of_poset", "dl_double_dual_iso", "find_poset_isomorphism",
        "inverse_system_to_bsl", "join_irreducibles",
        "lift_functor_dir_to_inv", "lift_functor_inv_to_dir",
        "poset_double_dual_iso", "priestley_dual", "priestley_dual_hom",
        "stone_double_dual_iso", "stone_dual", "stone_dual_hom"),
    "morphisms": ("Morphism",),
    "orders": ("FinitePoset", "FiniteSpace", "induced_orders"),
    "search": ("enumerate_homs", "find_isomorphism"),
    "system_morphisms": (
        "DirectSystemMorphism", "InverseSystemMorphism",
        "compose_system_morphisms", "enumerate_system_morphisms",
        "hom_to_system_morphism", "identity_system_morphism",
        "induced_index_map", "restrict_to_fibers", "system_morphism_to_hom"),
    "systems": (
        "DirectSystem", "InverseSystem", "JoinSemilattice", "local_units",
        "permute_algebra", "plonka_decompose", "plonka_decompose_bsl",
        "plonka_sum"),
}


def test_package_exports_resolve_to_submodule_attributes():
    names = set()
    for module, exported in EXPORTS.items():
        home = importlib.import_module(f"algdual.{module}")
        for name in exported:
            assert getattr(algdual, name) is getattr(home, name)
            names.add(name)
    assert set(algdual.__all__) == names
    assert names <= set(dir(algdual))
    assert algdual.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        algdual.no_such_name


def test_from_import_resolves_lazily():
    result, modules = _loaded_after(
        "from algdual import FinitePoset, plonka_sum\n"
        "from algdual.lattices import FinitePoset as P\n"
        "result = FinitePoset is P and plonka_sum.__module__")
    assert result == "algdual.systems"
    assert "algdual.duality" not in modules


def _samples():
    """Two equal but separately built instances of every record class."""
    wk = builtin("wk")
    poset = ((True, True), (False, True))
    system_doc = dumps_document(systems.plonka_decompose(wk))

    def dsm():
        return system_morphisms.identity_system_morphism(
            systems.plonka_decompose(wk))

    return {
        Check: lambda: Check("I1", False, (0, 1), "note"),
        ValidationReport: lambda: ValidationReport(
            "s", (Check("I1", True), Check("I2", False, (1,)))),
        FiniteAlgebra: lambda: builtin("wk"),
        JoinSemilattice: lambda: JoinSemilattice.from_table(
            [[0, 1], [1, 1]], bottom=0),
        Morphism: lambda: Morphism.identity(wk, "ibsl"),
        Document: lambda: Document("ibsl", wk),
        SystemParts: lambda: loads_document(system_doc).payload,
        duality.FiniteSpace: lambda: duality.FiniteSpace(2),
        duality.GRSpace: duality.gr_three,
        duality.GRSpaceWithInvolution: duality.wk_space,
        lattices.DistributiveLattice: lambda: lattices.DistributiveLattice(
            lattices.dl_of_poset(lattices.FinitePoset(2, poset))),
        lattices.FinitePoset: lambda: lattices.FinitePoset(2, poset),
        systems.DirectSystem: lambda: systems.plonka_decompose(wk),
        systems.InverseSystem: lambda: duality.lift_functor_dir_to_inv(
            systems.plonka_decompose(wk)),
        system_morphisms.DirectSystemMorphism: dsm,
        system_morphisms.InverseSystemMorphism: lambda: (
            lattices.lift_system_morphism_dir_to_inv(dsm())),
    }


# record classes with a dict field are unhashable, as their dataclass
# forms were
UNHASHABLE = {SystemParts, systems.DirectSystem,
              systems.InverseSystem, system_morphisms.DirectSystemMorphism,
              system_morphisms.InverseSystemMorphism}


def _fields(cls) -> tuple[str, ...]:
    return tuple(cls.__annotations__)


@pytest.mark.parametrize("cls, make", list(_samples().items()),
                         ids=lambda v: getattr(v, "__name__", ""))
def test_record_classes_keep_dataclass_behaviour(cls, make):
    fields = _fields(cls)
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != object() and a != tuple(getattr(a, f) for f in fields)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    body = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__name__}({body})"
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)


def test_record_fields_order_defaults_and_keywords():
    assert _fields(Check) == ("name", "holds", "witness", "note")
    assert Check("c", True) == Check(name="c", holds=True, witness=None,
                                     note="")
    assert repr(Check("c", True)) == \
        "Check(name='c', holds=True, witness=None, note='')"
    assert _fields(FiniteAlgebra) == ("size", "binary_ops", "unary_ops",
                                     "constants", "names")
    bare = FiniteAlgebra(1)
    assert (dict(bare.binary_ops), dict(bare.unary_ops),
            dict(bare.constants), bare.names) == ({}, {}, {}, None)
    assert FiniteAlgebra(size=1, names=["x"]).names == ("x",)
    assert _fields(duality.GRSpace) == ("size", "star", "leq", "c0", "c1",
                                       "calpha", "points")
    assert duality.gr_three().points is None
    assert Check("c", True) != ValidationReport("c", True)
