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
runs.  Each subcommand is a module of :mod:`algdual.commands`, and only the
one that runs is imported and gets its arguments.  A plain command line,
every word a positional or one of the command's own option strings with its
value, is read without ``argparse`` (:func:`parse_plain`), whose import and
parser build cost about 4 ms a process; any other line, ``--help`` and every
usage error included, goes to the ``argparse`` parser (:func:`build_parser`).
``check`` of an algebra document loads only the algebra, document and error
modules besides; ``hom`` and ``iso`` add the morphisms and the search
(``algdual.morphisms``, ``algdual.search``); ``dual`` and ``roundtrip`` add
the modules of their kind's duality, and only a system step (``plonka``, an
IBSL or BSL ``roundtrip``, documents of systems) loads ``algdual.systems``.

The ``algctl`` script and ``python -m algdual.cli`` run :func:`entry`, not
:func:`main`: it flushes stdout and stderr and ends the process with
``os._exit``, so the interpreter does not tear down every module and
object it made (about 4 ms a process); every file the command wrote is
closed by then.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

from .commands import report_lines
from .errors import AlgebraError, DocumentError, TooLarge

# each subcommand, in usage order, with its help; the module of its name in
# algdual.commands adds its arguments and runs it
_COMMANDS = (
    ("check", "validate a document against its kind"),
    ("dual", "compute the dual object"),
    ("plonka", "Plonka sum or decomposition"),
    ("hom", "enumerate kind-preserving maps"),
    ("iso", "search for an isomorphism"),
    ("roundtrip", "run the decomposition and double-dual checks"),
    ("hasse", "emit a Hasse diagram in DOT"),
    ("gen", "generate a random involutive bisemilattice document"),
)


def build_parser(command: str):
    """The ``algctl`` parser.  Every subcommand is registered with its help,
    so the usage, help and error text do not depend on ``command``; only
    the parser of ``command`` gets its arguments, and only its module is
    imported."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="algctl",
        description="Validate finite algebra documents, compute duals, "
                    "Plonka sums and duality round trips.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if name == command:
            module = importlib.import_module(f".commands.{name}", __package__)
            module.add_arguments(p)
            p.set_defaults(func=module.run)
    return parser


class _Arguments:
    """Takes a command's ``add_argument`` calls in place of its argparse
    parser and keeps what :func:`parse_plain` needs of them."""

    def __init__(self):
        self.positionals = []   # (name, choices), in order
        self.options = {}       # option string -> (dest, keywords)
        self.defaults = {}
        self.exclusive = []     # lists of dests, at most one given each

    def add_argument(self, *flags, **kw) -> str:
        if not flags[0].startswith("-"):
            self.positionals.append((flags[0], kw.get("choices")))
            return flags[0]
        dest = next((f for f in flags if f.startswith("--")), flags[0])
        dest = dest.lstrip("-").replace("-", "_")
        self.options.update(dict.fromkeys(flags, (dest, kw)))
        self.defaults[dest] = kw.get(
            "default", False if kw.get("action") == "store_true" else None)
        return dest

    def add_mutually_exclusive_group(self):
        group = []
        self.exclusive.append(group)
        return SimpleNamespace(add_argument=lambda *flags, **kw: group.append(
            self.add_argument(*flags, **kw)))


def parse_plain(argv):
    """The arguments ``build_parser`` gives a plain command line, read
    without argparse: a command name, then its positionals in order and its
    option strings, each followed by its value, if it takes one, which does
    not begin with ``-``.  Returns None for any other line (``--help``, an
    abbreviation, ``--opt=value``, a negative number, a usage error), which
    argparse then parses, with its own messages."""
    if not argv or argv[0] not in dict(_COMMANDS):
        return None
    module = importlib.import_module(f".commands.{argv[0]}", __package__)
    spec = _Arguments()
    module.add_arguments(spec)
    values = {**spec.defaults, "command": argv[0], "func": module.run}
    given, positionals = set(), []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        if word not in spec.options:
            return None
        dest, kw = spec.options[word]
        given.add(dest)
        if kw.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            values[dest] = kw.get("type", str)(value)
        except ValueError:
            return None
        if values[dest] not in kw.get("choices", (values[dest],)):
            return None
    required = {dest for dest, kw in spec.options.values()
                if kw.get("required")}
    if (len(positionals) != len(spec.positionals) or required - given
            or any(len(given.intersection(g)) > 1 for g in spec.exclusive)):
        return None
    for (name, choices), word in zip(spec.positionals, positionals):
        if choices is not None and word not in choices:
            return None
        values[name] = word
    return SimpleNamespace(**values)


def _command_of(argv) -> str:
    """The subcommand ``argv`` runs: its first argument that is not an
    option, since the top-level parser has no option that takes a value."""
    return next((arg for arg in argv if not arg.startswith("-")), "")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = (parse_plain(argv)
            or build_parser(_command_of(argv)).parse_args(argv))
    try:
        return args.func(args)
    except (DocumentError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            for line in report_lines(exc.report):
                print(line, file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:
        print(f"error: input too large to process ({type(exc).__name__})",
              file=sys.stderr)
        return 2


def entry():
    """The ``algctl`` program: :func:`main`, then a flush of stdout while a
    closed pipe can still be reported, and the end of the process with the
    exit code of :func:`main`, without the interpreter's teardown."""
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
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
