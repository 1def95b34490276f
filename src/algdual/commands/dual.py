"""``algctl dual FILE [-o OUT]``: write the dual object."""

from __future__ import annotations

from .. import documents
from ..algebra import resolve
from ..errors import AlgebraError
from . import checked_payload, write_output


def add_arguments(p) -> None:
    p.add_argument("file")
    p.add_argument("-o", "--output")


def run(args) -> int:
    kind, obj = checked_payload(args.file)
    entry = documents.kind_entry(kind, obj)
    if "dual" not in entry:
        raise AlgebraError(f"no dual defined for kind {kind!r}")
    write_output(documents.dumps_document(resolve(entry["dual"])(obj),
                                          entry.get("dual_kind")),
                 args.output)
    return 0
