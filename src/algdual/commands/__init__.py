"""The ``algctl`` subcommands, one module each, and what they share:
reading a checked document, writing to stdout or a file, and rendering
validation reports.

Each command module defines ``add_arguments(parser)`` and ``run(args)``,
which returns the exit code.  :mod:`algdual.cli` imports only the module of
the command it runs, so a command compiles no other command's code.  The
commands call the library through its modules (``documents.load_document``,
``algebra.enumerate_homs``), so a wrapper installed on such a name, as the
benchmark's tracer does, sees every call.
"""

from __future__ import annotations

import os
import sys

from .. import documents
from ..algebra import Check, FiniteAlgebra, ValidationReport
from ..errors import AlgebraError, DocumentError

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


def report_lines(report: ValidationReport, payload=None) -> list[str]:
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


def emit_report(report: ValidationReport, payload, fmt: str) -> None:
    if fmt == "json":
        from ..writer import _json

        write_stdout(_json(_report_json(report), "") + "\n")
    else:
        write_stdout("\n".join(report_lines(report, payload)) + "\n")


def write_stdout(text: str) -> None:
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


def write_output(text: str, path) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DocumentError(f"cannot write {path!r}: {exc}")
    else:
        write_stdout(text)


def checked_payload(path: str):
    """Load, semantically validate, and realize; raises AlgebraError with a
    report on semantic failure."""
    doc = documents.load_document(path)
    report = documents.check_document(doc)
    report.require(AlgebraError, f"{path}: invalid {doc.kind} document: "
                   f"{[c.name for c in report.failures()]}")
    return doc.kind, documents.realize_document(doc)


def add_format(p) -> None:
    p.add_argument("--format", choices=("json", "text"), default="text")
