"""algctl: validate finite algebra documents, compute duals and round trips.

Usage
-----
    algctl check FILE [--kind K] [--format json|text]
    algctl dual FILE [-o OUT]
    algctl plonka {sum,decompose} FILE [-o OUT]
    algctl hom A B --kind K (--count | --list) [--format json|text]
    algctl iso A B --kind K
    algctl roundtrip FILE [--format json|text]
    algctl hasse FILE --order {join,meet,box} [-o OUT]
    algctl gen [--size N] [--fibers K] [--seed S] [-o OUT]

FILE arguments take paths to JSON documents or ``builtin:{two,s2,wk,three}``.

Exit codes
----------
    0  valid / pass / found
    1  validation failure, kind mismatch, or absent isomorphism
    2  unreadable, malformed or unprocessably large input, an output file
       that cannot be written, or stdout closed early (message on stderr)

Output on stdout is byte-identical for identical inputs, flags and seeds;
timing goes to stderr.  Set ``ALGCTL_COLOR=1`` to colorize text reports.

Every run is a fresh process that, without a bytecode cache, compiles each
module it imports, so each command imports the modules it needs when it
runs.  ``check`` and ``hasse`` of an algebra document load only the
algebra, document and error modules; ``hom`` and ``iso`` add the search
engine (``algdual.search``); ``dual`` and ``roundtrip`` add the module of
their kind's duality (``duality`` and ``search``, or ``lattices``), and
only a system step (``plonka``, an IBSL or BSL ``roundtrip``, documents of
systems) loads ``algdual.systems``.

The ``algctl`` script and ``python -m algdual.cli`` run :func:`entry`, not
:func:`main`: it flushes stdout, then freezes the garbage collector, so the
collection at interpreter exit skips the objects alive by then (every
compiled module and every result) instead of walking them all.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from .algebra import (
    MORPHISM_KINDS,
    Check,
    FiniteAlgebra,
    ValidationReport,
    enumerate_homs,
    find_isomorphism,
    resolve,
)
from .documents import (
    KINDS,
    _json,
    check_document,
    dumps_document,
    kind_entry,
    load_document,
    realize_document,
)
from .errors import AlgebraError, DocumentError, TooLarge

_IDENTITY_VARS = ("x", "y", "z")


def _color_enabled() -> bool:
    return os.environ.get("ALGCTL_COLOR") == "1"


def _tag(ok: bool) -> str:
    tag = "PASS" if ok else "FAIL"
    if _color_enabled():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{tag}\x1b[0m"
    return tag


def _witness_text(check: Check, payload) -> str:
    if check.witness is None:
        return ""
    names = None
    if isinstance(payload, FiniteAlgebra) and payload.names:
        names = payload.names

    def show(v):
        if names is not None and isinstance(v, int) and 0 <= v < len(names):
            return names[v]
        return str(v)

    vals = check.witness
    if names is not None and len(vals) <= len(_IDENTITY_VARS):
        body = ", ".join(f"{n}={show(v)}"
                         for n, v in zip(_IDENTITY_VARS, vals))
    else:
        body = ", ".join(show(v) for v in vals)
    return f"  witness ({body})"


def _report_lines(report: ValidationReport, payload=None) -> list[str]:
    lines = [f"subject: {report.subject}"]
    for c in report.checks:
        note = f"  [{c.note}]" if c.note else ""
        lines.append(f"  [{_tag(c.holds)}] {c.name}"
                     f"{_witness_text(c, payload)}{note}")
    lines.append(f"result: {_tag(report.ok)}")
    return lines


def _report_json(report: ValidationReport) -> dict:
    return {
        "subject": report.subject,
        "ok": report.ok,
        "checks": [
            {"name": c.name, "holds": c.holds,
             "witness": list(c.witness) if c.witness is not None else None,
             "note": c.note}
            for c in report.checks],
    }


def _emit_report(report: ValidationReport, payload, fmt: str) -> None:
    if fmt == "json":
        _stdout(_json(_report_json(report), "") + "\n")
    else:
        _stdout("\n".join(_report_lines(report, payload)) + "\n")


def _stdout(text: str) -> None:
    """Write ``text`` to stdout in full, in one call.  The bytes go through
    the binary layer until it has taken them all: with PYTHONUNBUFFERED set
    the text layer writes straight to the file and drops whatever a short
    write leaves over, as when the reader closes a pipe midway, while here
    the next write raises BrokenPipeError.  A file that takes no bytes at
    all is reported the same way."""
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        written = buffer.write(data)
        if not written:
            raise BrokenPipeError("stdout took no bytes")
        data = data[written:]


def _write_output(text: str, path) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DocumentError(f"cannot write {path!r}: {exc}")
    else:
        _stdout(text)


def _checked_payload(path: str):
    """Load, semantically validate, and realize; raises AlgebraError with a
    report on semantic failure."""
    doc = load_document(path)
    report = check_document(doc)
    report.require(AlgebraError, f"{path}: invalid {doc.kind} document: "
                   f"{[c.name for c in report.failures()]}")
    return doc.kind, realize_document(doc)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    doc = load_document(args.file)
    if args.kind and args.kind != doc.kind:
        print(f"kind mismatch: document is {doc.kind!r}, expected "
              f"{args.kind!r}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    report = check_document(doc)
    elapsed = time.perf_counter() - t0
    _emit_report(report, doc.payload, args.format)
    print(f"# elapsed {elapsed:.4f}s", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_dual(args) -> int:
    kind, obj = _checked_payload(args.file)
    entry = kind_entry(kind, obj)
    if "dual" not in entry:
        raise AlgebraError(f"no dual defined for kind {kind!r}")
    _write_output(dumps_document(resolve(entry["dual"])(obj),
                                 entry.get("dual_kind")), args.output)
    return 0


_PLONKA_INPUT = {"sum": "a direct-system", "decompose": "an ibsl or bsl"}


def cmd_plonka(args) -> int:
    kind, obj = _checked_payload(args.file)
    step = kind_entry(kind, obj).get("plonka")
    if step is None or step[0] != args.mode:
        raise AlgebraError(f"plonka {args.mode} expects "
                           f"{_PLONKA_INPUT[args.mode]} document")
    _write_output(dumps_document(resolve(step[1])(obj)), args.output)
    return 0


def cmd_hom(args) -> int:
    _, a = _checked_payload(args.a)
    _, b = _checked_payload(args.b)
    homs = enumerate_homs(a, b, args.kind)
    if args.format == "json":
        import json

        data = {"count": len(homs)}
        if args.list:
            data["homs"] = [list(h.map) for h in homs]
        _stdout(json.dumps(data, sort_keys=True) + "\n")
    elif args.list:
        _stdout("".join(" ".join(map(str, h.map)) + "\n" for h in homs))
    else:
        _stdout(f"{len(homs)}\n")
    return 0


def cmd_iso(args) -> int:
    _, a = _checked_payload(args.a)
    _, b = _checked_payload(args.b)
    iso = find_isomorphism(a, b, args.kind)
    if iso is None:
        print("no isomorphism", file=sys.stderr)
        return 1
    _stdout(" ".join(map(str, iso.map)) + "\n")
    return 0


def cmd_roundtrip(args) -> int:
    kind, obj = _checked_payload(args.file)
    t0 = time.perf_counter()
    steps = kind_entry(kind, obj).get("roundtrip")
    if steps is None:
        raise AlgebraError(f"no roundtrip defined for kind {kind!r}")
    checks = []
    for name, step in steps.items():
        try:
            resolve(step)(obj)
            checks.append(Check(name, True))
        except AlgebraError as exc:
            checks.append(Check(name, False, None, str(exc)))
    elapsed = time.perf_counter() - t0
    report = ValidationReport(f"roundtrip of {kind}", tuple(checks))
    _emit_report(report, obj, args.format)
    print(f"# elapsed {elapsed:.4f}s", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_hasse(args) -> int:
    from .hasse import dot_hasse

    kind, obj = _checked_payload(args.file)
    entry = kind_entry(kind, obj)
    order = entry.get("hasse", {}).get(args.order)
    if order is None:
        raise AlgebraError(entry.get("hasse_refusal",
                                     f"no order diagram for kind {kind!r}"))
    _write_output(dot_hasse(resolve(order)(obj), getattr(obj, "names", None)),
                  args.output)
    return 0


# Over an index of four or more elements the bottom fiber holds all
# max_atoms + 1 >= 3 generators (8 elements) and at least one more fiber sits
# above it, so no such draw is smaller than this.
_GEN_MIN_WIDE = 9
_GEN_DRAWS = 1000


def cmd_gen(args) -> int:
    if args.size < 1 or args.fibers < 0 or (
            args.fibers > 3 and args.size < _GEN_MIN_WIDE):
        print(f"error: no instance with --fibers {args.fibers} has at most "
              f"{args.size} elements (need --size >= 1, --fibers >= 0, and "
              f"--size >= {_GEN_MIN_WIDE} when --fibers > 3)", file=sys.stderr)
        return 2
    from random import Random

    from .generate import random_ibsl

    rng = Random(args.seed)
    fibers = args.fibers if args.fibers else rng.randint(1, 3)
    max_atoms = 2
    while fibers * (1 << max_atoms + 1) <= args.size and max_atoms < 4:
        max_atoms += 1
    for _ in range(_GEN_DRAWS):
        algebra = random_ibsl(rng, max_fibers=fibers, max_atoms=max_atoms)
        if algebra.size <= args.size:
            _write_output(dumps_document(algebra, "ibsl"), args.output)
            return 0
    print(f"error: none of {_GEN_DRAWS} draws with --fibers {fibers} had at "
          f"most {args.size} elements; raise --size or lower --fibers",
          file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algctl",
        description="Validate finite algebra documents, compute duals, "
                    "Plonka sums and duality round trips.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("check", help="validate a document against its kind")
    p.add_argument("file")
    p.add_argument("--kind", choices=KINDS)
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dual", help="compute the dual object")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("plonka", help="Plonka sum or decomposition")
    p.add_argument("mode", choices=("sum", "decompose"))
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_plonka)

    p = sub.add_parser("hom", help="enumerate kind-preserving maps")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--kind", required=True,
                   choices=tuple(MORPHISM_KINDS))
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true")
    group.add_argument("--list", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("iso", help="search for an isomorphism")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--kind", required=True,
                   choices=tuple(MORPHISM_KINDS))
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("roundtrip",
                       help="run the decomposition and double-dual checks")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("hasse", help="emit a Hasse diagram in DOT")
    p.add_argument("file")
    p.add_argument("--order", choices=("join", "meet", "box"),
                   default="join")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("gen", help="generate a random involutive "
                                   "bisemilattice document")
    p.add_argument("--size", type=int, default=12,
                   help="maximum carrier size (default 12)")
    p.add_argument("--fibers", type=int, default=0,
                   help="number of Boolean fibers (default: random 1-3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            for line in _report_lines(exc.report):
                print(line, file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:
        print(f"error: input too large to process ({type(exc).__name__})",
              file=sys.stderr)
        return 2


def entry() -> int:
    """The ``algctl`` program: :func:`main`, then a flush of stdout while a
    closed pipe can still be reported, then ``gc.freeze()`` so that the
    collection at interpreter exit skips every object alive by then."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # exit cannot fail again (the SIGPIPE note in the ``signal`` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written",
              file=sys.stderr)
        code = 2
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
