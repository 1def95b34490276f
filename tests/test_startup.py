"""Start-up guards, without timing.

Every ``algctl`` run is a fresh interpreter, so what it imports is paid on
every command.  These tests run commands in new interpreters and check which
modules got loaded: commands on algebra documents, and every error the
parser reports itself, need only the algebra, document and error modules;
only commands that run a system step load ``algdual.systems``, and only
commands that search for homs load ``algdual.search``.  They also pin down
the package's lazy exports and the behaviour of the immutable value classes
(``Record`` subclasses).
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import algdual
from algdual import algebra, documents, duality, lattices, systems
from algdual.algebra import (
    Check,
    FiniteAlgebra,
    JoinSemilattice,
    Morphism,
    ValidationReport,
    builtin,
)
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
         "algdual.search"}


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
    paths["direct-system"] = str(folder / "direct-system.json")
    Path(paths["direct-system"]).write_text(
        dumps_document(systems.plonka_decompose(builtin("wk"))),
        encoding="utf-8")
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
    allowed = {"hasse": {"algdual.hasse"}}.get(argv[0], {"algdual.search"})
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
                 "algdual.documents", "algdual.duality", "algdual.errors",
                 "algdual.search", "algdual.systems"}


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
    path = tmp_path / f"{name}.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data),
                    encoding="utf-8")
    code, modules = _loaded_after(_main(["check", str(path)]))
    assert code == 2
    assert not modules & HEAVY


@pytest.mark.parametrize("argv", [
    ["check", "no/such/file.json"],
    ["dual", "builtin:nothing"],
])
def test_unreadable_inputs_load_no_heavy_module(argv):
    code, modules = _loaded_after(_main(argv))
    assert code == 2
    assert not modules & HEAVY


# The package's public names before its submodules were loaded lazily.
EXPORTS = {
    "algebra": (
        "Check", "FiniteAlgebra", "JoinSemilattice", "Morphism",
        "ValidationReport", "atoms", "builtin", "enumerate_homs",
        "find_isomorphism", "ibsl_completion", "induced_orders",
        "permute_algebra", "validate_bisemilattice",
        "validate_boolean_algebra", "validate_distributive_lattice",
        "validate_ibsl", "validate_semilattice"),
    "duality": (
        "FiniteSpace", "GRSpace", "GRSpaceWithInvolution", "ba_of_space",
        "bsl_of_gr", "delta_iso", "dual_of_bsl", "dual_of_gr", "dual_of_ibsl",
        "dual_of_ibsl_hom", "eps_iso", "gr_homs", "gr_three",
        "ibsl_to_inverse_system", "lift_functor_dir_to_inv",
        "lift_functor_inv_to_dir", "stone_double_dual_iso", "stone_dual",
        "stone_dual_hom", "validate_gr_involution", "validate_gr_space",
        "wk_space"),
    "lattices": (
        "DistributiveLattice", "FinitePoset", "bsl_to_inverse_system",
        "dl_of_poset", "dl_double_dual_iso", "find_poset_isomorphism",
        "inverse_system_to_bsl", "join_irreducibles", "plonka_decompose_bsl",
        "poset_double_dual_iso", "priestley_dual", "priestley_dual_hom"),
    "systems": (
        "DirectSystem", "DirectSystemMorphism", "InverseSystem",
        "InverseSystemMorphism", "compose_system_morphisms",
        "enumerate_system_morphisms", "hom_to_system_morphism",
        "identity_system_morphism", "induced_index_map", "local_units",
        "plonka_decompose", "plonka_sum", "restrict_to_fibers",
        "system_morphism_to_hom"),
}


def test_package_exports_resolve_to_submodule_attributes():
    modules = {"algebra": algebra, "duality": duality, "lattices": lattices,
               "systems": systems}
    names = set()
    for module, exported in EXPORTS.items():
        for name in exported:
            assert getattr(algdual, name) is getattr(modules[module], name)
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
        return systems.identity_system_morphism(systems.plonka_decompose(wk))

    return {
        Check: lambda: Check("I1", False, (0, 1), "note"),
        ValidationReport: lambda: ValidationReport(
            "s", (Check("I1", True), Check("I2", False, (1,)))),
        FiniteAlgebra: lambda: builtin("wk"),
        JoinSemilattice: lambda: JoinSemilattice.from_table(
            [[0, 1], [1, 1]], bottom=0),
        Morphism: lambda: Morphism.identity(wk, "ibsl"),
        Document: lambda: Document("ibsl", wk),
        documents.SystemParts: lambda: loads_document(system_doc).payload,
        duality.FiniteSpace: lambda: duality.FiniteSpace(2),
        duality.GRSpace: duality.gr_three,
        duality.GRSpaceWithInvolution: duality.wk_space,
        lattices.DistributiveLattice: lambda: lattices.DistributiveLattice(
            lattices.dl_of_poset(lattices.FinitePoset(2, poset))),
        lattices.FinitePoset: lambda: lattices.FinitePoset(2, poset),
        systems.DirectSystem: lambda: systems.plonka_decompose(wk),
        systems.InverseSystem: lambda: duality.lift_functor_dir_to_inv(
            systems.plonka_decompose(wk)),
        systems.DirectSystemMorphism: dsm,
        systems.InverseSystemMorphism: lambda: (
            duality.lift_system_morphism_dir_to_inv(dsm())),
    }


# record classes with a dict field are unhashable, as their dataclass
# forms were
UNHASHABLE = {documents.SystemParts, systems.DirectSystem,
              systems.InverseSystem, systems.DirectSystemMorphism,
              systems.InverseSystemMorphism}


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
