"""``algctl plonka {sum,decompose} FILE [-o OUT]``: write the Plonka sum
of a direct system or the decomposition of an (involutive)
bisemilattice."""

from __future__ import annotations

from .. import documents
from ..algebra import resolve
from ..errors import AlgebraError
from . import checked_payload, write_output

_PLONKA_INPUT = {"sum": "a direct-system", "decompose": "an ibsl or bsl"}


def add_arguments(p) -> None:
    p.add_argument("mode", choices=("sum", "decompose"))
    p.add_argument("file")
    p.add_argument("-o", "--output")


def run(args) -> int:
    kind, obj = checked_payload(args.file)
    step = documents.kind_entry(kind, obj).get("plonka")
    if step is None or step[0] != args.mode:
        raise AlgebraError(f"plonka {args.mode} expects "
                           f"{_PLONKA_INPUT[args.mode]} document")
    write_output(documents.dumps_document(resolve(step[1])(obj)),
                 args.output)
    return 0
