"""In-memory spans and counters around algdual's public functions.

``install(recorder)`` replaces every module-level binding of each wrapped
function inside the ``algdual`` package: ``from .algebra import
validate_ibsl`` gives ``duality`` and ``systems`` bindings of their own, and
a wrapper on ``algebra`` alone would miss those calls.  A span is
``[name, start, end, parent index, operation id]``; spans stay in memory
until ``Recorder.dump`` writes them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

MODULES = ("algebra", "cli", "documents", "duality", "generate", "hasse",
           "lattices", "systems")

_VALIDATORS = ("validate_ibsl", "validate_bisemilattice",
               "validate_boolean_algebra", "validate_distributive_lattice",
               "validate_semilattice")

# (module, function) -> span name.  A span's self time is charged to the
# per-layer metric ``<span name>_ms``.
SPANS = {
    **{("algebra", f): "algebra.validate" for f in _VALIDATORS},
    ("algebra", "enumerate_homs"): "algebra.hom_search",
    ("algebra", "find_isomorphism"): "algebra.iso_search",
    ("cli", "main"): "cli.command",
    ("documents", "load_document"): "documents.load",
    ("documents", "check_document"): "documents.check",
    ("documents", "dumps_document"): "documents.dump",
    ("systems", "plonka_decompose"): "systems.decompose",
    ("systems", "plonka_sum"): "systems.sum",
    ("systems", "check_system"): "systems.system_check",
    ("duality", "gr_homs"): "duality.hom_space",
    ("duality", "bsl_homs_to_three"): "duality.hom_space",
    **{("duality", f): "duality.dual_build"
       for f in ("dual_of_ibsl", "dual_of_bsl", "dual_of_gr", "bsl_of_gr",
                 "stone_dual", "ba_of_space", "lift_functor_dir_to_inv",
                 "lift_functor_inv_to_dir")},
    ("duality", "validate_gr_space"): "duality.gr_validate",
    ("duality", "validate_gr_involution"): "duality.gr_validate",
    **{("duality", f): "duality.double_dual"
       for f in ("eps_iso", "delta_iso", "stone_double_dual_iso")},
    ("lattices", "plonka_decompose_bsl"): "lattices.decompose",
    **{("lattices", f): "lattices.birkhoff"
       for f in ("priestley_dual", "dl_of_poset", "dl_double_dual_iso",
                 "poset_double_dual_iso", "lift_system_dl_to_posets",
                 "lift_system_posets_to_dl")},
    **{("generate", f): "generate"
       for f in ("random_direct_system", "random_bsl", "random_ibsl",
                 "random_boolean_algebra", "random_distributive_lattice",
                 "random_poset", "random_join_semilattice")},
}

# (module, function) -> counter bumped once per call; these run too often
# (and too briefly) to carry spans.
CALL_COUNTERS = {
    ("algebra", "first_violation"): "algebra.identity_checks",
    ("algebra", "morphism_violations"): "algebra.morphism_checks",
    **{("algebra", f): "algebra.validate_calls" for f in _VALIDATORS},
    ("algebra", "find_isomorphism"): "algebra.iso_calls",
    ("systems", "check_system"): "systems.system_check_calls",
}

# (module, function) -> counter that sums len(result).
SIZE_COUNTERS = {
    ("algebra", "enumerate_homs"): "algebra.homs_found",
    ("duality", "gr_homs"): "duality.hom_space_points",
    ("duality", "bsl_homs_to_three"): "duality.hom_space_points",
}


def _content_key(a) -> int:
    """Hash of an algebra's tables, so re-validating an equal object built
    anew still counts as a repeat."""
    return hash((a.size, tuple(sorted(a.binary_ops.items())),
                 tuple(sorted(a.unary_ops.items())),
                 tuple(sorted(a.constants.items()))))


class Recorder:
    def __init__(self, op=None):
        self.op = op
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._validated: set = set()

    def _wrap(self, key, fn):
        span = SPANS.get(key)
        calls = CALL_COUNTERS.get(key)
        sized = SIZE_COUNTERS.get(key)
        validator = key[0] == "algebra" and key[1] in _VALIDATORS
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls:
                counts[calls] += 1
            if validator:
                first = (key[1], _content_key(args[0]))
                if first not in self._validated:
                    self._validated.add(first)
                    counts["algebra.validate_first"] += 1
            if span is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([span, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if sized:
                counts[sized] += len(result)
            return result

        return wrapper

    def dump(self, path: str, **header) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "counts": self.counts}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(recorder: Recorder, extra_modules=()):
    """Wrap every listed function at every module-level binding, in the
    algdual package and in ``extra_modules`` (callers that imported names
    from it)."""
    package = importlib.import_module("algdual")
    modules = [package, *extra_modules] + [
        importlib.import_module(f"algdual.{m}") for m in MODULES]
    for key in sorted(SPANS.keys() | CALL_COUNTERS.keys()):
        original = getattr(importlib.import_module(f"algdual.{key[0]}"),
                           key[1])
        wrapper = recorder._wrap(key, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def hom_space_cache() -> tuple[int, int]:
    """(hits, misses) of the hom-space cache in this process."""
    from algdual import duality

    info = duality._gr_homs_to_three.cache_info()
    return info.hits, info.misses


def load(path: str) -> tuple[dict, list[list]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


def self_times(span_list: list[list]) -> tuple[Counter, float]:
    """Self time in ms per span name, and the ms covered by top-level
    spans."""
    child = [0.0] * len(span_list)
    for name, start, end, parent, _ in span_list:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    top = 0.0
    for k, (name, start, end, parent, _) in enumerate(span_list):
        out[name] += (end - start - child[k]) * 1000
        if parent < 0:
            top += (end - start) * 1000
    return out, top
