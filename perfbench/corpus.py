"""Seeded corpora and operation lists of the workloads.

Every algebra comes from ``algdual.generate``.  An involutive bisemilattice
(IBSL) is ``plonka_sum(random_direct_system(rng, "ba", ...))`` relabelled by
``random_permutation`` drawn from the same generator, which is what
``random_ibsl`` does; a bisemilattice (BSL) is the same over ``"dl"``
fibers, which is ``random_bsl``.  The generating direct system is kept, so
the invariants below (dual size, fiber sizes) come from the fibers and not
from the code under test.

Each workload has ``VARIANTS`` corpora.  ``--seed`` picks one of them
(``variant``).  The source instances are fixed, and a variant relabels
them, so every variant does the same work on different inputs.  The
fingerprint of a variant's documents and the digest of every operation's
output are recorded in ``recorded.json`` by ``record.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from random import Random

from algdual.algebra import FiniteAlgebra, builtin, permute_algebra
from algdual.documents import dumps_document
from algdual.duality import (
    FiniteSpace,
    GRSpace,
    GRSpaceWithInvolution,
    dual_of_bsl,
    dual_of_ibsl,
    lift_functor_dir_to_inv,
    wk_space,
)
from algdual.generate import (
    random_boolean_algebra,
    random_direct_system,
    random_distributive_lattice,
    random_join_semilattice,
    random_permutation,
    random_poset,
)
from algdual.lattices import lift_system_dl_to_posets
from algdual.systems import plonka_sum

WORKLOADS = ("dual-ladder", "cli-mix")
VARIANTS = 10


class CorpusError(Exception):
    """The generated corpus differs from the recorded one."""


def variant(workload: str, seed: int) -> int:
    return Random(f"{workload}/{seed}").randrange(VARIANTS)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def system_instance(kind: str, seed: int, max_fibers: int, max_atoms: int):
    """(relabelled Plonka sum, generating system) for a seed."""
    rng = Random(seed)
    system = random_direct_system(rng, kind, max_fibers, max_atoms)
    total = plonka_sum(system)
    return permute_algebra(total, random_permutation(rng, total.size)), system


def _join_irreducible_count(lattice: FiniteAlgebra) -> int:
    """Elements other than the bottom that are not the join of two elements
    strictly below them."""
    join = lattice.binary("join")
    n = lattice.size
    count = 0
    for x in range(n):
        below = [y for y in range(n) if y != x and join[y][x] == x]
        bottom = all(join[x][y] == y for y in range(n))
        if not bottom and not any(join[a][b] == x for a in below
                                  for b in below):
            count += 1
    return count


def system_meta(system) -> dict:
    """Invariants read off the generating system: the dual of a Plonka sum
    has one constant point plus, per fiber A_i, |J(A_i)| + 2 points (J the
    join-irreducibles; the atoms when A_i is Boolean)."""
    fibers = [system.fiber(i) for i in range(system.index.size)]
    if system.kind == "ba":
        irreducible = [f.size.bit_length() - 1 for f in fibers]
    else:
        irreducible = [_join_irreducible_count(f) for f in fibers]
    return {"dual_size": 1 + sum(k + 2 for k in irreducible),
            "fibers": sorted(f.size for f in fibers)}


def relabel_gr(g, perm):
    """A GR space (with or without involution) carried along ``perm``
    (old label -> new label)."""
    n = g.size
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    base = GRSpace(
        n, [[perm[g.star[inv[x]][inv[y]]] for y in range(n)] for x in range(n)],
        [[g.leq[inv[x]][inv[y]] for y in range(n)] for x in range(n)],
        perm[g.c0], perm[g.c1], perm[g.calpha])
    if isinstance(g, GRSpaceWithInvolution):
        return GRSpaceWithInvolution(base, [perm[g.neg[inv[x]]]
                                            for x in range(n)])
    return base


def _relabel_rng(name: str, v: int) -> Random:
    return Random(f"relabel/{name}/{v}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliOp:
    """One ``algctl`` command; ``@name`` in argv is ``corpus/name.json``."""

    id: str
    argv: tuple[str, ...]
    expect: int = 0
    checks: tuple[str, ...] = ()
    doc: str = ""          # document whose metadata the checks read
    defect: bool = False   # a ROADMAP known defect: judged by contract only
    same_count_as: str = ""  # op whose printed hom count must equal this one's


def _pipeline(doc: str, cmds=("check", "dual", "decompose", "roundtrip")):
    table = {
        "check": (("check", f"@{doc}"), ("verdict",)),
        "dual": (("dual", f"@{doc}"), ("dual-size",)),
        "decompose": (("plonka", "decompose", f"@{doc}"), ("fibers",)),
        "roundtrip": (("roundtrip", f"@{doc}"), ("verdict",)),
    }
    return [CliOp(f"{c}-{doc}", table[c][0], 0, table[c][1], doc)
            for c in cmds]


# ---------------------------------------------------------------------------
# dual-ladder: the theorem pipeline on an IBSL size ladder plus a few BSLs
# ---------------------------------------------------------------------------

# name -> (system kind, seed, exact carrier size, max_fibers, max_atoms).
# The source instances are fixed.  The cost of `dual` and `roundtrip`
# depends on the instance's fibers (`dual` of n=32 instances spread 0.33
# over ten seeds), so a per-seed instance would count that as noise.  Each
# seed is the one of median pipeline time among the first ten seeds that
# give its size, at the recording commit.  A variant relabels the
# instance, which leaves the work of validation and dual building alone.
LADDER = {
    "ibsl12": ("ba", 99, 12, 3, 3),
    "ibsl21": ("ba", 212, 21, 4, 3),
    "ibsl32": ("ba", 68, 32, 4, 3),
    "ibsl48": ("ba", 1, 48, 4, 4),
    "ibsl64": ("ba", 177, 64, 4, 4),
    "bsl10": ("dl", 10, 10, 3, 3),
    "bsl14": ("dl", 225, 14, 3, 4),
}

DUAL_LADDER_OPS = (
    _pipeline("ibsl12") + _pipeline("ibsl21") + _pipeline("ibsl32")
    + _pipeline("ibsl48") + _pipeline("ibsl64", ("check",))
    + _pipeline("bsl10") + _pipeline("bsl14"))


def _dual_ladder_docs(v: int):
    docs, meta = {}, {}
    for name, (kind, seed, size, fibers, atoms) in LADDER.items():
        algebra, system = system_instance(kind, seed, fibers, atoms)
        if algebra.size != size:
            raise CorpusError(f"{name}: seed {seed} gives n={algebra.size}")
        perm = random_permutation(_relabel_rng(name, v), size)
        docs[name] = dumps_document(permute_algebra(algebra, perm),
                                    "ibsl" if kind == "ba" else "bsl")
        meta[name] = system_meta(system)
    return docs, meta


# ---------------------------------------------------------------------------
# cli-mix: every subcommand and document kind on small inputs
# ---------------------------------------------------------------------------

# Fixed sources, name -> (system kind, seed, carrier size), all with at
# most 3 fibers of at most 3 atoms: an n=12 IBSL, a same-size IBSL that the
# signature invariant of oracle.iso_invariant tells apart from it, and an
# n=10 BSL.  CLI_MISC_SEED draws the small documents of the other kinds.
# Hom search cost depends on the instance (`roundtrip` of an IBSL drawn per
# seed took 191 ms in one variant and under 110 ms in another) and on the
# labelling of the source, whose elements are assigned in label order:
# `hom` of the n=12 IBSL into a relabelled copy took 134-166 ms over five
# target labellings and 167-228 ms over five source labellings (best of
# three each).  So every source document is the same in all variants,
# and a variant relabels only the targets of `hom` and `iso` (the ``-r``
# documents and ``ibsl-other``), which leaves the search tree of an
# enumeration the same.
CLI_SOURCES = {
    "ibsl": ("ba", 0, 12),
    "ibsl-other": ("ba", 50, 12),
    "bsl": ("dl", 10, 10),
}
CLI_MISC_SEED = 0


def _wk_data() -> dict:
    return json.loads(dumps_document(builtin("wk"), "ibsl"))


def _text(data) -> str:
    return json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def _fixed_cli_docs() -> dict:
    """Documents shared by every variant: the error paths and the known
    defects."""
    broken_ibsl = FiniteAlgebra(
        2, {"join": [[0, 1], [1, 1]], "meet": [[0, 0], [0, 1]]},
        {"neg": [0, 1]}, {"zero": 0}, names=("0", "1"))
    # the pentagon N5 (0 < a < b < 1, 0 < c < 1): a non-distributive lattice
    up = {0: {0, 1, 2, 3, 4}, 1: {1, 2, 4}, 2: {2, 4}, 3: {3, 4}, 4: {4}}
    join = [[max(up[x] & up[y], key=lambda z: len(up[z]))
             for y in range(5)] for x in range(5)]
    down = {z: {x for x in up if z in up[x]} for z in up}
    meet = [[max(down[x] & down[y], key=lambda z: len(down[z]))
             for y in range(5)] for x in range(5)]
    pentagon = FiniteAlgebra(5, {"join": join, "meet": meet})
    broken_gr = json.loads(dumps_document(wk_space()))
    broken_gr["leq"][0][1] = broken_gr["leq"][1][0] = 1

    float_op, string_op, int_names, quote_name = (_wk_data() for _ in range(4))
    float_op["ops"]["join"][0][0] = 0.0
    string_op["ops"]["join"][0][0] = "0"
    int_names["names"] = [0, 1, 2]
    quote_name["names"] = ["0", '1"', "a"]

    return {
        "broken-ibsl": dumps_document(broken_ibsl, "ibsl"),
        "broken-bsl": dumps_document(pentagon, "bsl"),
        "broken-gr": _text(broken_gr),
        "bad-json": '{"kind": "ibsl", "size": 2,\n',
        "bad-shape": _text({"kind": "ibsl", "size": "2", "ops": {}}),
        "unknown-kind": _text({"kind": "monoid", "size": 1}),
        "float-op": _text(float_op),
        "string-op": _text(string_op),
        "int-names": _text(int_names),
        "quote-name": _text(quote_name),
    }


def _cli_mix_docs(v: int):
    docs, meta = _fixed_cli_docs(), {}
    src = {}
    for name, (kind, seed, size) in CLI_SOURCES.items():
        algebra, system = system_instance(kind, seed, 3, 3)
        if algebra.size != size:
            raise CorpusError(f"{name}: seed {seed} gives n={algebra.size}")
        src[name] = algebra
        meta[name] = system_meta(system)
    ibsl, bsl = src["ibsl"], src["bsl"]
    rng, relabel = Random(CLI_MISC_SEED), _relabel_rng("cli-mix", v)

    def relabelled(algebra):
        return permute_algebra(algebra,
                               random_permutation(relabel, algebra.size))

    poset = random_poset(rng, 4)
    while poset.size < 2:
        poset = random_poset(rng, 4)
    ba_system = random_direct_system(rng, "ba", 3, 2)
    dl_system = random_direct_system(rng, "dl", 2, 2, bounded=True)
    ba = random_boolean_algebra(rng, 3, 1)
    dl = random_distributive_lattice(rng, 3)
    sl = random_join_semilattice(rng, 6).algebra
    ibsl_dual = dual_of_ibsl(ibsl)
    docs.update({
        "ibsl": dumps_document(ibsl, "ibsl"),
        "ibsl-r": dumps_document(relabelled(ibsl), "ibsl"),
        "ibsl-other": dumps_document(relabelled(src["ibsl-other"]), "ibsl"),
        "bsl": dumps_document(bsl, "bsl"),
        "bsl-r": dumps_document(relabelled(bsl), "bsl"),
        "ba": dumps_document(ba, "ba"),
        "dl": dumps_document(dl, "dl"),
        "sl": dumps_document(sl, "sl"),
        "gr-neg": dumps_document(ibsl_dual),
        "gr-neg-r": dumps_document(relabel_gr(
            ibsl_dual, random_permutation(relabel, ibsl_dual.size))),
        "gr": dumps_document(dual_of_bsl(bsl)),
        "poset": dumps_document(poset),
        "space": dumps_document(FiniteSpace(3)),
        "dsys": dumps_document(ba_system),
        "dsys-dl": dumps_document(dl_system),
        "isys": dumps_document(lift_functor_dir_to_inv(ba_system)),
        "isys-poset": dumps_document(lift_system_dl_to_posets(dl_system)),
    })
    meta["gen"] = {"max_size": 12}
    meta["gen-fibers"] = {"max_size": 10}
    return docs, meta


def _cli_mix_ops():
    ops = []

    def add(op_id, *argv, expect=0, checks=(), doc="", defect=False,
            same_count_as=""):
        ops.append(CliOp(op_id, argv, expect, checks, doc, defect,
                         same_count_as))

    for d in ("ibsl", "bsl", "ba", "dl", "sl", "gr-neg", "gr", "poset",
              "space", "dsys", "isys", "isys-poset"):
        add(f"check-{d}", "check", f"@{d}", checks=("verdict",))
    add("check-ibsl-json", "check", "@ibsl", "--format", "json",
        checks=("verdict",))
    add("check-builtin-wk", "check", "builtin:wk", checks=("verdict",))
    add("dual-ibsl", "dual", "@ibsl", checks=("dual-size",), doc="ibsl")
    add("dual-bsl", "dual", "@bsl", checks=("dual-size",), doc="bsl")
    for d in ("ba", "dl", "gr-neg", "gr", "poset", "space", "dsys", "isys",
              "isys-poset"):
        add(f"dual-{d}", "dual", f"@{d}")
    add("sum-dsys", "plonka", "sum", "@dsys")
    add("sum-dsys-dl", "plonka", "sum", "@dsys-dl")
    add("decompose-ibsl", "plonka", "decompose", "@ibsl", checks=("fibers",),
        doc="ibsl")
    add("decompose-bsl", "plonka", "decompose", "@bsl", checks=("fibers",),
        doc="bsl")
    add("hom-ibsl", "hom", "@ibsl", "@ibsl-r", "--kind", "ibsl", "--count")
    add("hom-bsl", "hom", "@bsl", "@bsl-r", "--kind", "bsl", "--list",
        checks=("homs",))
    add("hom-ba", "hom", "@ba", "@ba", "--kind", "ba", "--list", "--format",
        "json", checks=("homs",))
    add("hom-dl", "hom", "@dl", "@dl", "--kind", "dl", "--count")
    add("hom-sl", "hom", "@sl", "@sl", "--kind", "sl", "--count")
    # |End_ibsl(A)| = |End_igr(A*)|: ibsl-r relabels ibsl, gr-neg is its
    # dual and gr-neg-r relabels that
    add("hom-igr", "hom", "@gr-neg", "@gr-neg-r", "--kind", "igr", "--count",
        same_count_as="hom-ibsl")
    add("iso-ibsl", "iso", "@ibsl", "@ibsl-r", "--kind", "ibsl",
        checks=("iso",))
    add("iso-ibsl-other", "iso", "@ibsl", "@ibsl-other", "--kind", "ibsl",
        expect=1, checks=("non-iso",))
    add("iso-igr", "iso", "@gr-neg", "@gr-neg-r", "--kind", "igr",
        checks=("iso",))
    for d in ("ibsl", "bsl", "ba", "dl", "poset", "gr-neg"):
        add(f"roundtrip-{d}", "roundtrip", f"@{d}", checks=("verdict",))
    add("roundtrip-ibsl-json", "roundtrip", "@ibsl", "--format", "json",
        checks=("verdict",))
    add("roundtrip-builtin-three", "roundtrip", "builtin:three",
        checks=("verdict",))
    add("hasse-ibsl", "hasse", "@ibsl", "--order", "join", checks=("dot",))
    add("hasse-bsl", "hasse", "@bsl", "--order", "meet", checks=("dot",))
    add("hasse-gr", "hasse", "@gr-neg", "--order", "box", checks=("dot",))
    add("hasse-poset", "hasse", "@poset", checks=("dot",))
    add("gen", "gen", "--size", "12", "--seed", "%v", checks=("gen",),
        doc="gen")
    add("gen-fibers", "gen", "--size", "10", "--fibers", "2", "--seed", "%v",
        checks=("gen",), doc="gen-fibers")
    # error paths: axiom failures exit 1 with a witness, bad input exits 2
    add("check-broken-ibsl", "check", "@broken-ibsl", expect=1,
        checks=("witness",))
    add("check-broken-bsl", "check", "@broken-bsl", expect=1,
        checks=("witness",))
    add("check-broken-gr", "check", "@broken-gr", expect=1,
        checks=("witness",))
    add("check-kind-mismatch", "check", "@ibsl", "--kind", "ba", expect=1)
    add("hasse-box-on-algebra", "hasse", "@ibsl", "--order", "box", expect=1)
    add("check-bad-json", "check", "@bad-json", expect=2)
    add("check-bad-shape", "check", "@bad-shape", expect=2)
    add("dual-unknown-kind", "dual", "@unknown-kind", expect=2)
    add("check-missing-file", "check", "@missing", expect=2)
    add("check-unknown-builtin", "check", "builtin:nope", expect=2)
    # ROADMAP known defects: the contract says exit 2 (or well-formed DOT)
    add("defect-float-op", "check", "@float-op", expect=2, defect=True)
    add("defect-string-op", "check", "@string-op", expect=2, defect=True)
    add("defect-int-names", "check", "@int-names", expect=2, defect=True)
    add("defect-hasse-quote", "hasse", "@quote-name", checks=("dot",),
        defect=True)
    add("defect-gen-size-0", "gen", "--size", "0", expect=2, defect=True)
    return ops


CLI_MIX_OPS = _cli_mix_ops()
KNOWN_DEFECTS = tuple(op.id for op in CLI_MIX_OPS if op.defect)

OPS = {"dual-ladder": DUAL_LADDER_OPS, "cli-mix": CLI_MIX_OPS}
_BUILDERS = {"dual-ladder": _dual_ladder_docs, "cli-mix": _cli_mix_docs}


# ---------------------------------------------------------------------------
# Corpus on disk
# ---------------------------------------------------------------------------

def build(workload: str, v: int):
    """(documents by name, invariant metadata by document name)."""
    return _BUILDERS[workload](v)


def fingerprint(docs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(docs):
        h.update(name.encode() + b"\0" + docs[name].encode() + b"\0")
    return h.hexdigest()


def write(docs: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in docs.items():
        (directory / f"{name}.json").write_text(text, encoding="utf-8")


def cli_argv(op: CliOp, v: int) -> list[str]:
    """Arguments with ``@name`` resolved against the working directory."""
    out = []
    for arg in op.argv:
        if arg.startswith("@"):
            arg = f"corpus/{arg[1:]}.json"
        elif arg == "%v":
            arg = str(v)
        out.append(arg)
    return out
