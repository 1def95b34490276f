"""Correctness checks that do not go through algdual's own code paths.

Digests pin the exact output recorded at the reference commit; the other
checks are invariants computed here from the JSON documents and from the
generating direct systems, so they hold whichever implementation produced
the output.
"""

from __future__ import annotations

import hashlib
import json
import re

_VERDICT = re.compile(r"\[(PASS|FAIL)\]")
_DOT_NODE = re.compile(r'^  n\d+ \[label="(?:[^"\\\n]|\\.)*"\];$')
_DOT_EDGE = re.compile(r"^  n\d+ -> n\d+;$")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# CLI output invariants
# ---------------------------------------------------------------------------

def verdict_pass(out: str) -> bool:
    """Every check of a text or JSON validation report holds."""
    if out.startswith("{"):
        report = json.loads(out)
        return report["ok"] and all(c["holds"] for c in report["checks"])
    tags = _VERDICT.findall(out)
    return bool(tags) and set(tags) == {"PASS"} and out.endswith("result: PASS\n")


def has_witness(out: str) -> bool:
    return "[FAIL]" in out and "witness (" in out


def dual_size(out: str, expected: int) -> bool:
    return json.loads(out)["size"] == expected


def fiber_sizes(out: str, expected: list[int]) -> bool:
    fibers = json.loads(out)["fibers"].values()
    return sorted(f["size"] for f in fibers) == expected


def wellformed_dot(out: str) -> bool:
    lines = out.splitlines()
    if len(lines) < 3 or lines[0] != "digraph hasse {" or lines[-1] != "}":
        return False
    return all(_DOT_NODE.match(ln) or _DOT_EDGE.match(ln)
               for ln in lines[2:-1])


def generated_ibsl(out: str, max_size: int) -> bool:
    doc = json.loads(out)
    return doc["kind"] == "ibsl" and 1 <= doc["size"] <= max_size


def _operands(argv) -> tuple[str, str, str]:
    """(source document, target document, kind) of a ``hom``/``iso`` op."""
    a, b = (arg[1:] for arg in argv if arg.startswith("@"))
    return a, b, argv[argv.index("--kind") + 1]


def listed_homs(out: str, argv, docs: dict) -> bool:
    """Every listed map (text or JSON) preserves the structure, and the
    list is in strict lexicographic order."""
    a, b, kind = _operands(argv)
    if out.startswith("{"):
        data = json.loads(out)
        maps = data["homs"]
        if data["count"] != len(maps):
            return False
    else:
        maps = [[int(v) for v in line.split()] for line in out.splitlines()]
    return (bool(maps) and all(x < y for x, y in zip(maps, maps[1:]))
            and all(preserves(docs[a], docs[b], f, kind) for f in maps))


def found_isomorphism(out: str, argv, docs: dict) -> bool:
    a, b, kind = _operands(argv)
    return is_isomorphism(docs[a], docs[b], [int(v) for v in out.split()],
                          kind)


def proven_non_isomorphic(argv, docs: dict) -> bool:
    a, b, kind = _operands(argv)
    return iso_invariant(docs[a], kind) != iso_invariant(docs[b], kind)


# checks that read the operands' documents
DOC_CHECKS = {"homs", "iso", "non-iso"}

CLI_CHECKS = {
    "verdict": lambda out, op, meta, docs: verdict_pass(out),
    "witness": lambda out, op, meta, docs: has_witness(out),
    "dual-size": lambda out, op, meta, docs: dual_size(
        out, meta[op.doc]["dual_size"]),
    "fibers": lambda out, op, meta, docs: fiber_sizes(
        out, meta[op.doc]["fibers"]),
    "dot": lambda out, op, meta, docs: wellformed_dot(out),
    "gen": lambda out, op, meta, docs: generated_ibsl(
        out, meta[op.doc]["max_size"]),
    "homs": lambda out, op, meta, docs: listed_homs(out, op.argv, docs),
    "iso": lambda out, op, meta, docs: found_isomorphism(out, op.argv, docs),
    "non-iso": lambda out, op, meta, docs: proven_non_isomorphic(op.argv,
                                                                 docs),
}


def cli_outcome(op, code: int, out: bytes, err: bytes, timed_out: bool,
                golden: str | None, meta: dict, docs: dict) -> str | None:
    """None when the operation met the CLI contract, its expected exit code,
    its golden digest and its invariants; otherwise the first reason."""
    if timed_out:
        return "timeout"
    if code not in (0, 1, 2):
        return f"exit code {code}"
    if b"Traceback" in err:
        return "traceback on stderr"
    if code != 0 and not err.strip():
        return "non-zero exit without a message"
    if code != op.expect:
        return f"exit {code}, expected {op.expect}"
    if golden is not None and digest(out) != golden:
        return "stdout digest mismatch"
    text = out.decode("utf-8", "replace")
    for name in op.checks:
        try:
            ok = CLI_CHECKS[name](text, op, meta, docs)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            return f"invariant {name} broken"
    return None


# ---------------------------------------------------------------------------
# Structure checks on JSON documents
# ---------------------------------------------------------------------------

def _parts(doc: dict, kind: str):
    """(binary tables, unary maps, constants, order) a morphism of ``kind``
    must preserve, read straight from the document."""
    if kind in ("gr", "igr"):
        unary = [doc["neg"]] if kind == "igr" else []
        consts = [doc["c0"], doc["c1"], doc["calpha"]]
        return [doc["star"]], unary, consts, doc["leq"]
    ops = doc["ops"]
    names = {"ibsl": (("join", "meet"), ("neg",), ("zero", "one")),
             "ba": (("join", "meet"), ("neg",), ("zero", "one")),
             "bsl": (("join", "meet"), (), ())}[kind]
    return ([ops[n] for n in names[0]], [ops[n] for n in names[1]],
            [ops[n] for n in names[2]], None)


def preserves(src: dict, tgt: dict, f, kind: str) -> bool:
    n = src["size"]
    if len(f) != n or any(not 0 <= v < tgt["size"] for v in f):
        return False
    bin_a, un_a, con_a, leq_a = _parts(src, kind)
    bin_b, un_b, con_b, leq_b = _parts(tgt, kind)
    if any(f[a] != b for a, b in zip(con_a, con_b)):
        return False
    if any(f[ua[x]] != ub[f[x]] for ua, ub in zip(un_a, un_b)
           for x in range(n)):
        return False
    if any(f[ta[x][y]] != tb[f[x]][f[y]] for ta, tb in zip(bin_a, bin_b)
           for x in range(n) for y in range(n)):
        return False
    if leq_a is not None and any(leq_a[x][y] and not leq_b[f[x]][f[y]]
                                 for x in range(n) for y in range(n)):
        return False
    return True


def is_isomorphism(src: dict, tgt: dict, f, kind: str) -> bool:
    if src["size"] != tgt["size"] or sorted(f) != list(range(src["size"])):
        return False
    inv = [0] * len(f)
    for x, v in enumerate(f):
        inv[v] = x
    return preserves(src, tgt, f, kind) and preserves(tgt, src, inv, kind)


def iso_invariant(doc: dict, kind: str):
    """Multiset of per-element signatures; unequal values prove two
    structures non-isomorphic."""
    binary, unary, consts, leq = _parts(doc, kind)
    n = doc["size"]
    sigs = []
    for x in range(n):
        sig = [x in consts]
        sig += [u[x] == x for u in unary]
        for t in binary:
            sig.append(sum(t[x][y] == x for y in range(n)))
            sig.append(sum(t[y][x] == x for y in range(n)))
            sig.append(sum(t[x][y] == y for y in range(n)))
        if leq is not None:
            sig.append(sum(leq[x]))
            sig.append(sum(row[x] for row in leq))
        sigs.append(tuple(sig))
    return n, tuple(sorted(sigs))
