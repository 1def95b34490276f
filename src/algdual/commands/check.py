"""``algctl check FILE [--kind K] [--format json|text]``: validate a
document against its kind."""

from __future__ import annotations

import sys
import time

from .. import documents
from . import add_format, emit_report


def add_arguments(p) -> None:
    p.add_argument("file")
    p.add_argument("--kind", choices=documents.KINDS)
    add_format(p)


def run(args) -> int:
    doc = documents.load_document(args.file)
    if args.kind and args.kind != doc.kind:
        print(f"kind mismatch: document is {doc.kind!r}, expected "
              f"{args.kind!r}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    report = documents.check_document(doc)
    elapsed = time.perf_counter() - t0
    emit_report(report, doc.payload, args.format)
    print(f"# elapsed {elapsed:.4f}s", file=sys.stderr)
    return 0 if report.ok else 1
