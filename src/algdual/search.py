"""The propagating homomorphism search, the isomorphism colouring, and the
two searches built on them, :func:`enumerate_homs` and
:func:`find_isomorphism`.

:func:`_search_homs` is the one search behind every hom enumeration, dual
space and isomorphism test; :func:`_joint_iso_colors` gives the candidate
values of an isomorphism search.  The functions that search load this
module when first called, so commands that never search (``check`` of an
algebra or a plain GR space, ``plonka``, ``hasse``, the Stone and Birkhoff
duals) do not compile it.  ``enumerate_homs`` and ``find_isomorphism`` are
also names of :mod:`algdual.algebra`, which resolves them on first use.
"""

from __future__ import annotations

import operator
from typing import Optional

from .errors import KindMismatch
from .morphisms import Morphism, _related_pairs, _signature, validate_for_kind


def _search_homs(source, target, kind: str, *, injective=False,
                 candidates=None, limit=None) -> list[tuple[int, ...]]:
    """Value vectors of all kind-homs source -> target, in lexicographic
    order (by position in ``candidates[x]`` when given), at most ``limit``.

    A kind-hom is what :func:`algdual.morphisms._signature` states; its
    labels restrict the values before the search.  Order pairs are checked
    both ways for ``poset`` and for bijections between orders with equally
    many related pairs, which reflect the order if they preserve it (see
    :func:`algdual.morphisms.as_isomorphism`).

    The search branches on f(0), f(1), ... in turn and propagates forced
    values.  Every equation is indexed under the elements it reads: a
    binary-table cell ``f(ta[x][y]) = tb[f x][f y]`` under x and y (row x and
    column y of the table), a unary entry ``f(ua[x]) = ub[f x]`` under x, an
    order pair under both ends.  Constants are assigned before the first
    branch.  Assigned elements are processed in turn: each equation of the
    element whose arguments are all assigned is checked, and its result, if
    not yet assigned, is forced: f(x*y) once f(x) and f(y) are set, f(x')
    once f(x) is set.  A forced value must lie in the element's candidates
    and, when ``injective``, be unused.  A conflict fails the branch at
    once, and a trail of assigned elements undoes the branch on backtrack.
    Elements already forced are skipped by the branching.

    A forced value is the only value the element can take in any
    completion, and a conflict means the branch has no completion, so
    propagation prunes exactly branches that yield no hom.  The vectors
    found, and their lexicographic order, are therefore those of plain
    backtracking over every position.  The loop keeps its own stack, so
    large carriers do not meet Python's recursion limit.
    """
    n, m = source.size, target.size
    binary, unary, constants, labels, order, reflect = _signature(
        source, target, kind)
    domains = [None] * n if candidates is None else [list(c) for c in candidates]
    for _, la, lb in labels:
        domains = [[v for v in (range(m) if d is None else d)
                    if lb[v] == la[x]] for x, d in enumerate(domains)]
    allowed = [None if d is None else set(d) for d in domains]
    if order is not None and injective and n == m and not reflect:
        reflect = _related_pairs(order[0]) == _related_pairs(order[1])
    # order pairs: x <= y must give f x <= f y, and with reflect the converse
    related = operator.eq if reflect else operator.le

    # the cells reading e are row e of each table and row e of its
    # transpose; a table commutative on both sides needs no transpose
    unops = [(ua, ub) for _, ua, ub in unary]
    sides = []
    for _, ta, tb in binary:
        sides.append((ta, tb))
        transposed = (tuple(zip(*ta)), tuple(zip(*tb)))
        if transposed != (ta, tb):
            sides.append(transposed)

    f = [-1] * n
    used = [False] * m
    trail: list[int] = []

    def values(k: int):
        return range(m) if domains[k] is None else domains[k]

    def assign(z: int, t: int) -> bool:
        if allowed[z] is not None and t not in allowed[z]:
            return False
        if injective:
            if used[t]:
                return False
            used[t] = True
        f[z] = t
        trail.append(z)
        return True

    def propagate(head: int) -> bool:
        """Check and force the equations of trail[head:], and of every
        element they force in turn."""
        while head < len(trail):
            e = trail[head]
            head += 1
            v = f[e]
            for ua, ub in unops:
                z, t = ua[e], ub[v]
                if f[z] != t and (f[z] >= 0 or not assign(z, t)):
                    return False
            for ta, tb in sides:
                ra, rb = ta[e], tb[v]
                for y in trail:
                    z, t = ra[y], rb[f[y]]
                    if f[z] != t and (f[z] >= 0 or not assign(z, t)):
                        return False
            if order is not None:
                la, lb = order
                for x in trail:
                    w = f[x]
                    if not (related(la[x][e], lb[w][v])
                            and related(la[e][x], lb[v][w])):
                        return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            z = trail.pop()
            used[f[z]] = False
            f[z] = -1

    def free_from(k: int) -> int:
        while k < n and f[k] >= 0:
            k += 1
        return k

    results: list[tuple[int, ...]] = []
    for _, ca, cb in constants:
        if f[ca] != cb and (f[ca] >= 0 or not assign(ca, cb)):
            return results
    if not propagate(0):
        return results
    k = free_from(0)
    if k == n:
        results.append(tuple(f))
        return results
    # one frame per branching element: (element, its remaining values,
    # trail length before its assignment)
    stack = [(k, iter(values(k)), len(trail))]
    while stack:
        k, remaining, mark = stack[-1]
        undo(mark)
        for v in remaining:
            if assign(k, v) and propagate(mark):
                break
            undo(mark)
        else:
            stack.pop()
            continue
        nxt = free_from(k + 1)
        if nxt < n:
            stack.append((nxt, iter(values(nxt)), len(trail)))
            continue
        results.append(tuple(f))
        if limit is not None and len(results) >= limit:
            break
    return results


def _joint_iso_colors(a, b, kind: str):
    """Isomorphism-invariant element colours of both endpoints, in one
    canonical numbering, so an isomorphism a -> b keeps each colour.

    Colours start from the constants and are refined (McKay and Piperno,
    "Practical graph isomorphism, II", 2014): a round colours x by its
    colour, its unary images' colours, per binary table the sorted entries
    (colours of y, x*y, y*x; x*y = x, x*y = y, y*x = x) over y, and the
    sorted (colour of y, x <= y, y <= x).  A round only splits classes, so
    refinement stops at the first round that splits none.
    """
    binary, unary, constants, _, order, _ = _signature(a, b, kind)
    sizes = (a.size, b.size)

    def canon(values_a, values_b):
        table: dict = {}
        out = []
        for values in (values_a, values_b):
            out.append([table.setdefault(v, len(table)) for v in values])
        return out, len(table)

    # side s of each (name, source part, target part) triple is part 1 + s
    colors, classes = canon(
        *[[tuple(x == c[1 + s] for c in constants) for x in range(sizes[s])]
          for s in (0, 1)])
    while True:
        sigs = []
        for s in (0, 1):
            color = colors[s]
            side = []
            for x in range(sizes[s]):
                sig = [color[x]]
                for u in unary:
                    sig.append(color[u[1 + s][x]])
                for op in binary:
                    t = op[1 + s]
                    sig.append(tuple(sorted(
                        (color[y], color[t[x][y]], color[t[y][x]],
                         t[x][y] == x, t[x][y] == y, t[y][x] == x)
                        for y in range(sizes[s]))))
                if order is not None:
                    leq = order[s]
                    sig.append(tuple(sorted(
                        (color[y], leq[x][y], leq[y][x])
                        for y in range(sizes[s]))))
                side.append(tuple(sig))
            sigs.append(side)
        colors, refined = canon(*sigs)
        if refined == classes:
            return colors
        classes = refined


def enumerate_homs(source, target, kind: str, *, validate=True) -> list[Morphism]:
    """All kind-preserving maps source -> target, sorted lexicographically by
    value vector.  The ordering is deterministic and downstream dual-object
    constructions depend on it."""
    if validate:
        for obj in (source, target):
            report = validate_for_kind(obj, kind)
            report.require(KindMismatch, f"object is not a valid {kind!r}: "
                           f"{[c.name for c in report.failures()]}")
    return [Morphism(source, target, vec, kind)
            for vec in _search_homs(source, target, kind)]


def find_isomorphism(source, target, kind: str, *, validate=True) -> Optional[Morphism]:
    """First (in lexicographic order) isomorphism source -> target by the
    rule of :func:`algdual.morphisms.as_isomorphism`, or None; ``poset`` is
    a kind too.  An element may go only to target elements of its colour
    (:func:`_joint_iso_colors`), as every isomorphism does.  Equal colour
    multisets give ordered sides equally many related pairs, so the
    bijective homs found reflect the order."""
    if validate:
        for obj in (source, target):
            validate_for_kind(obj, kind).require(
                KindMismatch, f"object is not a valid {kind!r}")
    if source.size != target.size:
        return None
    ca, cb = _joint_iso_colors(source, target, kind)
    if sorted(ca) != sorted(cb):
        return None
    candidates = [[v for v in range(target.size) if cb[v] == ca[x]]
                  for x in range(source.size)]
    found = _search_homs(source, target, kind, injective=True,
                         candidates=candidates, limit=1)
    return Morphism(source, target, found[0], kind) if found else None
