"""``algctl roundtrip FILE [--format json|text]``: run the decomposition
and double-dual checks of a document's kind, reported like ``check``."""

from __future__ import annotations

import sys
import time

from ..algebra import Check, ValidationReport, resolve
from ..documents import kind_entry
from ..errors import AlgebraError, TooLarge
from . import add_format, checked_payload, emit_report


def add_arguments(p) -> None:
    p.add_argument("file")
    add_format(p)


def run(args) -> int:
    kind, obj = checked_payload(args.file)
    t0 = time.perf_counter()
    steps = kind_entry(kind, obj).get("roundtrip")
    if steps is None:
        raise AlgebraError(f"no roundtrip defined for kind {kind!r}")
    checks = []
    for name, step in steps.items():
        try:
            resolve(step)(obj)
            checks.append(Check(name, True))
        except TooLarge:
            # input too large to process is not a failed check: exit 2
            raise
        except AlgebraError as exc:
            checks.append(Check(name, False, None, str(exc)))
    elapsed = time.perf_counter() - t0
    report = ValidationReport(f"roundtrip of {kind}", tuple(checks))
    emit_report(report, obj, args.format)
    print(f"# elapsed {elapsed:.4f}s", file=sys.stderr)
    return 0 if report.ok else 1
