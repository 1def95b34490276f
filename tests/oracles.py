"""Independent brute-force oracles.

These deliberately avoid the library's backtracking/pruning code paths:
plain products over all maps, direct table lookups.  Expected values frozen
into tests were computed with these.
"""

from functools import reduce
from itertools import count, permutations, product


def eval_term(a, term, env):
    """Value of a term (nested tuples, as in ``algdual.algebra``) under the
    variable assignment ``env``, by walking the tree."""
    if isinstance(term, str):
        return env[term]
    op = term[0]
    if len(term) == 1:
        return a.const(op)
    if len(term) == 2:
        return a.unary(op)[eval_term(a, term[1], env)]
    return a.binary(op)[eval_term(a, term[1], env)][eval_term(a, term[2], env)]


def term_vars(term, acc):
    if isinstance(term, str):
        acc.add(term)
    else:
        for t in term[1:]:
            term_vars(t, acc)


def naive_first_violation(a, lhs, rhs):
    """First assignment, over the sorted variable names in ``product``
    order, at which the two sides of ``lhs = rhs`` differ; None if none."""
    vs = set()
    term_vars(lhs, vs)
    term_vars(rhs, vs)
    names = sorted(vs)
    for values in product(range(a.size), repeat=len(names)):
        env = dict(zip(names, values))
        if eval_term(a, lhs, env) != eval_term(a, rhs, env):
            return values
    return None


def naive_algebra_homs(a, b, binary=(), unary=(), constants=()):
    """All maps a -> b preserving the named operations, by full enumeration."""
    out = []
    for f in product(range(b.size), repeat=a.size):
        if any(f[a.const(n)] != b.const(n) for n in constants):
            continue
        if any(f[a.unary(n)[x]] != b.unary(n)[f[x]]
               for n in unary for x in range(a.size)):
            continue
        if any(f[a.binary(n)[x][y]] != b.binary(n)[f[x]][f[y]]
               for n in binary
               for x in range(a.size) for y in range(a.size)):
            continue
        out.append(f)
    return out


KIND_OPS = {
    "sl": (("join",), (), ()),
    "bsl": (("join", "meet"), (), ()),
    "dl": (("join", "meet"), (), ()),
    "ibsl": (("join",), ("neg",), ("zero",)),
    "ba": (("join", "meet"), ("neg",), ("zero", "one")),
}


def naive_homs(a, b, kind):
    binary, unary, constants = KIND_OPS[kind]
    return naive_algebra_homs(a, b, binary, unary, constants)


def naive_gr_homs(g, h, involution=False):
    """All maps preserving star, the three constants and the order (and the
    involution when asked), by full enumeration."""
    out = []
    n = g.size
    for f in product(range(h.size), repeat=n):
        if f[g.c0] != h.c0 or f[g.c1] != h.c1 or f[g.calpha] != h.calpha:
            continue
        if any(f[g.star[x][y]] != h.star[f[x]][f[y]]
               for x in range(n) for y in range(n)):
            continue
        if any(g.leq[x][y] and not h.leq[f[x]][f[y]]
               for x in range(n) for y in range(n)):
            continue
        if involution and any(f[g.neg[x]] != h.neg[f[x]] for x in range(n)):
            continue
        out.append(f)
    return out


def naive_isomorphisms(a, b, kind):
    """All bijective kind-homs with kind-hom inverses, over all bijections."""
    if a.size != b.size:
        return []
    binary, unary, constants = KIND_OPS[kind]
    out = []
    for perm in permutations(range(a.size)):
        inv = [0] * a.size
        for x, v in enumerate(perm):
            inv[v] = x
        ok = True
        for f, src, dst in ((perm, a, b), (inv, b, a)):
            for n in constants:
                ok = ok and f[src.const(n)] == dst.const(n)
            for n in unary:
                ok = ok and all(f[src.unary(n)[x]] == dst.unary(n)[f[x]]
                                for x in range(a.size))
            for n in binary:
                ok = ok and all(
                    f[src.binary(n)[x][y]] == dst.binary(n)[f[x]][f[y]]
                    for x in range(a.size) for y in range(a.size))
        if ok:
            out.append(perm)
    return out


def naive_bisemilattice_ok(a):
    """Direct triple-loop check of the bisemilattice identities."""
    j, m = a.binary("join"), a.binary("meet")
    n = a.size
    for x in range(n):
        if j[x][x] != x or m[x][x] != x:
            return False
        for y in range(n):
            if j[x][y] != j[y][x] or m[x][y] != m[y][x]:
                return False
            for z in range(n):
                if j[x][j[y][z]] != j[j[x][y]][z]:
                    return False
                if m[x][m[y][z]] != m[m[x][y]][z]:
                    return False
                if j[x][m[y][z]] != m[j[x][y]][j[x][z]]:
                    return False
                if m[x][j[y][z]] != j[m[x][y]][m[x][z]]:
                    return False
    return True


def naive_zero_morphism(g, three):
    """The join-neutral hom of g into the three-point space ``three`` by the
    plain scan over all pairs of homs, or None unless exactly one exists."""
    from algdual.algebra import builtin

    join = builtin("three").binary("join")
    base = getattr(g, "base", g)
    homs = naive_gr_homs(base, three)
    neutral = [p for p in homs
               if all(join[q[a]][p[a]] == q[a] for q in homs
                      for a in range(base.size))]
    return neutral[0] if len(neutral) == 1 else None


def naive_igr_homs(g, h, three):
    """Involution-preserving GR maps g -> h that pull the zero-morphism of
    h back to that of g."""
    z_g, z_h = naive_zero_morphism(g, three), naive_zero_morphism(h, three)
    if z_g is None or z_h is None:
        return []
    return [f for f in naive_gr_homs(g, h, involution=True)
            if all(z_h[f[x]] == z_g[x] for x in range(g.size))]


def _first_cell(n, broken):
    """The first (x, y), in row-major order over n x n, where ``broken(x,
    y)`` holds; None if there is none."""
    for x in range(n):
        for y in range(n):
            if broken(x, y):
                return (x, y)
    return None


def _first_point(n, broken):
    for x in range(n):
        if broken(x):
            return (x,)
    return None


def naive_morphism_conditions(g, h, kind):
    """A function listing each condition a map f: g -> h of ``kind`` breaks,
    as ``(name, first witness)``, by plain loops over the objects' tables:
    constants, the ``igr`` zero-morphism, unary maps, binary tables, then
    the order (preserved; for ``poset`` also reflected).  The first entry
    is the one ``morphism_violations`` reports."""
    n = g.size
    constants, unary, binary, zeros = [], [], [], None
    if kind in ("gr", "igr"):
        constants = [(nm, getattr(g, nm), getattr(h, nm))
                     for nm in ("c0", "c1", "calpha")]
        binary = [("star", g.star, h.star)]
    if kind == "igr":
        from algdual.duality import gr_three

        zeros = (naive_zero_morphism(g, gr_three()),
                 naive_zero_morphism(h, gr_three()))
        unary = [("neg", g.neg, h.neg)]
    if kind in KIND_OPS:
        names_binary, names_unary, names_constants = KIND_OPS[kind]
        if kind == "sl" and "bottom" in g.constants:
            names_constants += ("bottom",)
        constants = [(nm, g.const(nm), h.const(nm)) for nm in names_constants]
        unary = [(nm, g.unary(nm), h.unary(nm)) for nm in names_unary]
        binary = [(nm, g.binary(nm), h.binary(nm)) for nm in names_binary]

    def conditions(f):
        out = [(nm, (a,)) for nm, a, b in constants if f[a] != b]
        if zeros is not None:
            z_g, z_h = zeros
            out.append(("zero-morphism", _first_point(
                n, lambda x: z_g is None or z_h is None or z_h[f[x]] != z_g[x])))
        for nm, ua, ub in unary:
            out.append((nm, _first_point(n, lambda x: f[ua[x]] != ub[f[x]])))
        for nm, ta, tb in binary:
            out.append((nm, _first_cell(
                n, lambda x, y: f[ta[x][y]] != tb[f[x]][f[y]])))
        if kind == "poset":
            out.append(("order", _first_cell(
                n, lambda x, y: g.leq[x][y] != h.leq[f[x]][f[y]])))
        elif kind in ("gr", "igr"):
            out.append(("order", _first_cell(
                n, lambda x, y: g.leq[x][y] and not h.leq[f[x]][f[y]])))
        return [(nm, w) for nm, w in out if w is not None]

    return conditions


def naive_order_embeddings(p, q):
    """All maps p -> q that preserve and reflect the order, by full
    enumeration."""
    n = p.size
    return [f for f in product(range(q.size), repeat=n)
            if all(p.leq[x][y] == q.leq[f[x]][f[y]]
                   for x in range(n) for y in range(n))]


def naive_poset_isomorphism(p, q):
    """First bijection, in lexicographic order, that preserves and reflects
    the order; None if there is none."""
    if p.size != q.size:
        return None
    n = p.size
    for perm in permutations(range(n)):
        if all(p.leq[x][y] == q.leq[perm[x]][perm[y]]
               for x in range(n) for y in range(n)):
            return perm
    return None


def _downset_separates(leq, a, b):
    down = [y for y in range(len(leq)) if leq[y][b]]
    return (b in down and a not in down
            and all(leq[z][y] <= (z in down) for y in down for z in range(len(leq))))


def naive_order_disconnected_witness(leq):
    """First pair a !<= b whose down-set of b fails to separate them (the
    witness of the ``order-disconnected`` GR check), rebuilding the down-set
    for every pair; None if there is none."""
    n = len(leq)
    return next(((a, b) for a in range(n) for b in range(n)
                 if not leq[a][b] and not _downset_separates(leq, a, b)), None)


def naive_join_irreducibles(d):
    """Elements other than the bottom that are not the join of two other
    elements, by scanning every pair."""
    join, meet = d.binary("join"), d.binary("meet")
    bot = next(x for x in range(d.size)
               if all(meet[x][y] == x for y in range(d.size)))
    return [x for x in range(d.size) if x != bot
            and all(join[a][b] != x or x in (a, b)
                    for a in range(d.size) for b in range(d.size))]


NEG3 = (1, 0, 2)


def _hom_neg(g, phi):
    """(-phi)(a) = (phi(-a))' on a GR space with involution."""
    return tuple_negations([phi], g.neg)[0]


def reference_g5(g, homs):
    """The G5 witness by the plain triple loop over pairs of homs and
    points: the first (pi, qi, a) with phi /\\ (-phi \\/ psi) != psi /\\ phi
    at a, for phi = homs[pi] and psi = homs[qi]; None if there is none."""
    from algdual.algebra import builtin

    three = builtin("three")
    join, meet = three.binary("join"), three.binary("meet")
    for pi, phi in enumerate(homs):
        nphi = _hom_neg(g, phi)
        for qi, psi in enumerate(homs):
            for a in range(g.size):
                if meet[phi[a]][join[nphi[a]][psi[a]]] != meet[psi[a]][phi[a]]:
                    return (pi, qi, a)
    return None


def reference_g6(g, homs):
    """G6 by the neutral-pair scan: some hom phi0 whose negation phi1 is a
    hom and that is join-neutral for every hom."""
    from algdual.algebra import builtin

    join = builtin("three").binary("join")
    for phi0 in homs:
        if _hom_neg(g, phi0) not in homs:
            continue
        if all(join[psi[a]][phi0[a]] == psi[a]
               for psi in homs for a in range(g.size)):
            return True
    return False


# ---------------------------------------------------------------------------
# Loop forms of the library's whole-row kernels
# ---------------------------------------------------------------------------
# The library checks identities on whole rows, and the order scans, the
# hom-space tables and G5 on bitsets.  These are the one-step-per-cell loops
# they replaced, kept as references.

_ACCESSORS = {1: "const", 2: "unary", 3: "binary"}


def _compile_loops(lhs, rhs) -> str:
    """Python source of ``check(a)``, which returns the first assignment
    violating ``lhs = rhs``, or None.

    Loop k binds the k-th variable in sorted order, so assignments run in
    ``product`` order and the first witness is the tree walk's.  Each
    distinct subterm is computed once, in the outermost loop that binds all
    of its variables (level 0 is before the loops), and a binary table's row
    is hoisted to the level of its first argument.
    """
    uses: dict = {}
    names: set[str] = set()
    tables: dict = {}

    def scan(term):
        # pre-order, lhs first: the tables are looked up in the tree walk's
        # order, so a missing operation raises the same error
        if isinstance(term, str):
            names.add(term)
            return
        tables.setdefault((_ACCESSORS[len(term)], term[0]), f"t{len(tables)}")
        uses[term] = uses.get(term, 0) + 1
        if uses[term] == 1:
            for t in term[1:]:
                scan(t)

    scan(lhs)
    scan(rhs)
    var_level = {v: k + 1 for k, v in enumerate(sorted(names))}
    depth = len(var_level)
    blocks: list[list[str]] = [[] for _ in range(depth + 1)]
    done: dict = {}
    rows: dict = {}
    fresh = count()

    def bind(expr, level):
        name = f"s{next(fresh)}"
        blocks[level].append(f"{name} = {expr}")
        return name

    def hoist(expr, level, consumer_level):
        if level < consumer_level and not expr.isidentifier():
            return bind(expr, level)
        return expr

    def emit(term):
        """(expression, level) of ``term``.  A compound subterm used once
        comes back unbound, for its consumer to inline or hoist."""
        if isinstance(term, str):
            return f"v{var_level[term] - 1}", var_level[term]
        if term in done:
            return done[term]
        t = tables[(_ACCESSORS[len(term)], term[0])]
        if len(term) == 1:
            expr, level = t, 0
        elif len(term) == 2:
            arg, level = emit(term[1])
            expr = f"{t}[{arg}]"
        else:
            left, l1 = emit(term[1])
            right, l2 = emit(term[2])
            level = max(l1, l2)
            if l1 < level:
                key = (term[0], term[1])
                if key not in rows:
                    rows[key] = bind(f"{t}[{left}]", l1)
                expr = f"{rows[key]}[{right}]"
            else:
                expr = f"{t}[{left}][{hoist(right, l2, level)}]"
        if uses[term] > 1 and not expr.isidentifier():
            expr = bind(expr, level)
        done[term] = expr, level
        return expr, level

    left = hoist(*emit(lhs), depth)
    right = hoist(*emit(rhs), depth)
    lines = ["def check(a):", "    n = a.size"]
    lines += [f"    {t} = a.{kind}({op!r})" for (kind, op), t in tables.items()]
    for k, block in enumerate(blocks):
        if k:
            lines.append(f"{'    ' * k}for v{k - 1} in range(n):")
        lines += ["    " * (k + 1) + stmt for stmt in block]
    pad = "    " * (depth + 1)
    witness = "".join(f"v{k}, " for k in range(depth))
    lines += [f"{pad}if {left} != {right}:", f"{pad}    return ({witness})",
              "    return None"]
    return "\n".join(lines) + "\n"


_LOOPS: dict = {}


def loop_first_violation(a, lhs, rhs):
    """First assignment violating ``lhs = rhs``, by nested loops over the
    op tables, one loop per variable in sorted name order."""
    check = _LOOPS.get((lhs, rhs))
    if check is None:
        scope: dict = {}
        exec(_compile_loops(lhs, rhs), scope)
        check = _LOOPS[(lhs, rhs)] = scope["check"]
    return check(a)


def loop_partial_order(leq):
    """None if ``leq`` is a partial order, else the first witness of
    reflexivity, antisymmetry or transitivity, by scanning every cell."""
    n = len(leq)
    for x in range(n):
        if not leq[x][x]:
            return (x,)
    for x in range(n):
        for y in range(n):
            if x != y and leq[x][y] and leq[y][x]:
                return (x, y)
    for x, y, z in product(range(n), repeat=3):
        if leq[x][y] and leq[y][z] and not leq[x][z]:
            return (x, y, z)
    return None


def loop_gr_order_witnesses(g):
    """The witnesses of the GR checks order-right-compatible,
    order-left-compatible and star-decreasing, by scanning every cell."""
    n, leq, star = g.size, g.leq, g.star
    return {
        "order-right-compatible": next(
            ((x, y, z) for x in range(n) for y in range(n) for z in range(n)
             if leq[x][y] and not leq[star[x][z]][star[y][z]]), None),
        "order-left-compatible": next(
            ((x, y, z) for x in range(n) for y in range(n) for z in range(n)
             if leq[x][y] and not leq[star[z][x]][star[z][y]]), None),
        "star-decreasing": next(
            ((x, y) for x in range(n) for y in range(n)
             if not leq[star[x][y]][x]), None),
    }


def loop_involution_witnesses(g):
    """The witnesses of the checks G2 and G3 of a GR space with
    involution, by scanning every cell."""
    n, neg, star, leq, box = g.size, g.neg, g.star, g.leq, g.box
    return {
        "G2": next(((a, b) for a in range(n) for b in range(n)
                    if neg[star[a][b]] != star[neg[a]][neg[b]]), None),
        "G3": next(((a, b) for a in range(n) for b in range(n)
                    if leq[a][b] and not box[neg[b]][neg[a]]), None),
    }


def loop_table_break(f, ta, tb):
    """The first (x, y) with f(ta[x][y]) != tb[f x][f y], or None, cell by
    cell (``algebra.table_break``)."""
    for x, row in enumerate(ta):
        image = tb[f[x]]
        for y, v in enumerate(row):
            if f[v] != image[f[y]]:
                return x, y
    return None


def loop_order_break(f, la, lb, reflect=False):
    """The first (x, y) with la[x][y] and not lb[f x][f y] or, if
    ``reflect``, with the two different; None if there is none, cell by
    cell (``algebra.order_breaks``)."""
    for x, row in enumerate(la):
        image = lb[f[x]]
        for y, v in enumerate(row):
            if (v != image[f[y]]) if reflect else (v and not image[f[y]]):
                return x, y
    return None


def loop_compose(outer, inner):
    """``outer`` after ``inner``, entry by entry (``algebra.compose``)."""
    return tuple(outer[v] for v in inner)


def loop_square_break(g, p, q, f):
    """The first x at which the square g . p = q . f does not commute, or
    None (``system_morphisms._square_breaks``)."""
    return next((x for x, (px, fx) in enumerate(zip(p, f))
                 if g[px] != q[fx]), None)


def loop_system_witnesses(join, objects, arrows, inverse):
    """The witnesses of the ``arrows-monotone`` and ``arrows-transitive``
    checks of ``systems.check_system`` on well-formed arrows, by loops:
    the first comparable pair (i, j) of ordered objects, with the first
    pair its arrow does not keep in order, and the first (i, j, k), i <= j <= k, whose
    composite differs from the arrow (i, k)."""
    n = len(join)
    pairs = [(i, j) for i in range(n) for j in range(n) if join[i][j] == j]
    monotone = None
    for i, j in pairs:
        src, tgt = (objects[j], objects[i]) if inverse else (objects[i],
                                                             objects[j])
        w = (loop_order_break(arrows[i, j], src.leq, tgt.leq)
             if hasattr(src, "leq") and hasattr(tgt, "leq") else None)
        if w is not None:
            monotone = (i, j, *w)
            break
    transitive = None
    for (i, j), k in product(pairs, range(n)):
        if join[j][k] != k:
            continue
        outer, inner = ((arrows[i, j], arrows[j, k]) if inverse
                        else (arrows[j, k], arrows[i, j]))
        if loop_compose(outer, inner) != tuple(arrows[i, k]):
            transitive = (i, j, k)
            break
    return monotone, transitive


def tuple_locate(points, vectors, what):
    """Positions of the value vectors ``vectors`` among the tuple
    ``points``, or NotGRSpace naming ``what``."""
    from algdual.errors import NotGRSpace

    index = {vec: k for k, vec in enumerate(points)}
    try:
        return [index[vec] for vec in vectors]
    except KeyError:
        raise NotGRSpace(f"hom-space is not closed under {what}") from None


def tuple_pointwise(points, op3, what):
    """Table of the three-valued binary operation ``op3`` taken pointwise
    on the tuple ``points``, one coordinate at a time."""
    flat = tuple_locate(points, (tuple(op3[u][v] for u, v in zip(p, q))
                                 for p in points for q in points), what)
    h = len(points)
    return [flat[k * h:(k + 1) * h] for k in range(h)]


def tuple_order(points):
    """The pointwise order matrix of ``points`` in the meet order
    alpha < 0 < 1 of the three-element algebra."""
    from algdual.algebra import builtin
    from algdual.orders import order_from_binary

    leq3 = order_from_binary(builtin("three").binary("meet"), "meet")
    return [[all(leq3[u][v] for u, v in zip(p, q)) for q in points]
            for p in points]


def tuple_negations(points, neg):
    """(-phi)(a) = (phi(-a))' for each of the tuple ``points``."""
    return [tuple(NEG3[phi[b]] for b in neg) for phi in points]


def loop_plonka_sum(system):
    """``systems.plonka_sum`` one table cell at a time: push both arguments
    into the join fiber along the transitions, apply the fiber's operation
    there and add the fiber's offset."""
    from algdual.algebra import FiniteAlgebra

    idx = system.index
    offs = system.offsets()
    pairs = [(i, a) for i in range(idx.size)
             for a in range(system.fibers[i].size)]
    names = None
    if all(system.fibers[i].names for i in range(idx.size)):
        idx_names = idx.algebra.names or tuple(str(i) for i in range(idx.size))
        names = tuple(f"{system.fibers[i].names[a]}@{idx_names[i]}"
                      for (i, a) in pairs)
    binary = {}
    for name in system.fibers[0].binary_ops:
        table = []
        for (i1, a1) in pairs:
            row = []
            for (i2, a2) in pairs:
                j = idx.join(i1, i2)
                b1 = system.transitions[(i1, j)][a1]
                b2 = system.transitions[(i2, j)][a2]
                row.append(offs[j] + system.fibers[j].binary(name)[b1][b2])
            table.append(row)
        binary[name] = table
    unary = {name: [offs[i] + system.fibers[i].unary(name)[a]
                    for (i, a) in pairs]
             for name in system.fibers[0].unary_ops}
    constants = {name: offs[idx.bottom] + c
                 for name, c in system.fibers[idx.bottom].constants.items()}
    return FiniteAlgebra(len(pairs), binary, unary, constants, names)


def loop_permute_algebra(a, perm):
    """``algebra.permute_algebra`` one table cell at a time."""
    from algdual.algebra import FiniteAlgebra

    inv = [0] * a.size
    for old, new in enumerate(perm):
        inv[new] = old
    binary = {name: [[perm[t[inv[x]][inv[y]]] for y in range(a.size)]
                     for x in range(a.size)]
              for name, t in a.binary_ops.items()}
    unary = {name: [perm[t[inv[x]]] for x in range(a.size)]
             for name, t in a.unary_ops.items()}
    constants = {name: perm[c] for name, c in a.constants.items()}
    names = None
    if a.names is not None:
        names = tuple(a.names[inv[x]] for x in range(a.size))
    return FiniteAlgebra(a.size, binary, unary, constants, names)


def brute_downset_masks(p):
    """All down-sets of the poset ``p`` as bitmasks, ascending, by testing
    every one of the 2^size subsets for closure under the down-sets of its
    members."""
    down = [sum(1 << j for j in range(p.size) if p.leq[j][i])
            for i in range(p.size)]
    out = []
    for mask in range(1 << p.size):
        closure = mask
        for i in range(p.size):
            if (mask >> i) & 1:
                closure |= down[i]
        if closure == mask:
            out.append(mask)
    return out


# The Birkhoff and Stone functions of ``algdual.lattices`` in their loop
# forms: each derives the join-irreducibles, the order and the bounds again
# from the tables, where the library reads one labelling
# (``algebra.birkhoff_labels``).

def loop_lattice_bounds(d):
    """(bottom, top): the meet and the join of all elements."""
    meet, join = d.binary("meet"), d.binary("join")
    bot = reduce(lambda a, b: meet[a][b], range(d.size))
    top = reduce(lambda a, b: join[a][b], range(d.size))
    return bot, top


def loop_join_irreducibles(d):
    """Elements other than the bottom not equal to the join of all
    elements strictly below them."""
    join = d.binary("join")
    bot, _ = loop_lattice_bounds(d)
    out = []
    for x in range(d.size):
        below = [y for y in range(d.size) if y != x and join[y][x] == x]
        if reduce(lambda u, v: join[u][v], below, bot) != x:
            out.append(x)
    return out


def loop_atoms(a):
    """Minimal elements above the ``zero`` constant, in the meet order."""
    from algdual.orders import order_from_binary

    zero = a.const("zero")
    leq = order_from_binary(a.binary("meet"), "meet")
    return [x for x in range(a.size) if x != zero
            and all(y in (zero, x) for y in range(a.size) if leq[y][x])]


def loop_priestley_dual(d):
    """The join-irreducibles of a distributive lattice with the meet order
    between them."""
    from algdual.lattices import _as_lattice
    from algdual.orders import FinitePoset, order_from_binary

    alg = _as_lattice(d).algebra
    irr = loop_join_irreducibles(alg)
    leq = order_from_binary(alg.binary("meet"), "meet")
    return FinitePoset(len(irr),
                       tuple(tuple(leq[p][q] for q in irr) for p in irr))


def loop_priestley_dual_hom(h):
    """q in J(D2) -> the meet of every x of D1 with q <= h(x), its index
    among J(D1); UnboundedTransition when h moves a bound or that meet is
    not join-irreducible."""
    from algdual.errors import UnboundedTransition
    from algdual.orders import order_from_binary

    d1, d2 = h.source, h.target
    bot1, top1 = loop_lattice_bounds(d1)
    bot2, top2 = loop_lattice_bounds(d2)
    if h(bot1) != bot2 or h(top1) != top2:
        raise UnboundedTransition("lattice hom does not preserve bounds")
    irr1, irr2 = loop_join_irreducibles(d1), loop_join_irreducibles(d2)
    meet1 = d1.binary("meet")
    leq2 = order_from_binary(d2.binary("meet"), "meet")
    out = []
    for q in irr2:
        above = [x for x in range(d1.size) if leq2[q][h(x)]]
        m = reduce(lambda a, b: meet1[a][b], above, top1)
        if m not in irr1:
            raise UnboundedTransition("dual point is not join-irreducible")
        out.append(irr1.index(m))
    return tuple(out)


def loop_dl_double_dual_iso(d):
    """x -> the down-set {q in J : q <= x}, as its rank among the down-sets
    of J, checked by ``as_isomorphism`` onto the down-set lattice."""
    from algdual.errors import IsomorphismFailure
    from algdual.lattices import _as_lattice, dl_of_poset, downset_masks
    from algdual.morphisms import as_isomorphism
    from algdual.orders import order_from_binary

    alg = _as_lattice(d).algebra
    irr = loop_join_irreducibles(alg)
    leq = order_from_binary(alg.binary("meet"), "meet")
    dual_poset = loop_priestley_dual(alg)
    rank = {m: k for k, m in enumerate(downset_masks(dual_poset))}
    vec = []
    for x in range(alg.size):
        mask = sum(1 << k for k, q in enumerate(irr) if leq[q][x])
        if mask not in rank:
            raise IsomorphismFailure("image is not a down-set")
        vec.append(rank[mask])
    return as_isomorphism(alg, dl_of_poset(dual_poset), vec, "dl")


def loop_stone_dual(b):
    """The atom space of a Boolean algebra, its atoms counted by
    :func:`loop_atoms` after validation."""
    from algdual.algebra import validate_boolean_algebra
    from algdual.errors import NotBoolean
    from algdual.orders import FiniteSpace

    validate_boolean_algebra(b).require(
        NotBoolean, "input is not a Boolean algebra")
    return FiniteSpace(len(loop_atoms(b)))


def loop_stone_double_dual_iso(b):
    """The map of :func:`loop_dl_double_dual_iso`, checked onto the
    power-set algebra of the atom space."""
    from algdual.morphisms import as_isomorphism

    return as_isomorphism(b, loop_ba_of_space(loop_stone_dual(b)),
                          loop_dl_double_dual_iso(b).map, "ba")


def loop_poset_double_dual_iso(p):
    """x -> the principal down-set of x, located among the down-sets and
    then among the join-irreducibles of the down-set lattice."""
    from algdual.errors import IsomorphismFailure
    from algdual.lattices import dl_of_poset, downset_masks, priestley_dual
    from algdual.morphisms import as_isomorphism

    lat = dl_of_poset(p)
    masks = downset_masks(p)
    irr = loop_join_irreducibles(lat)
    vec = []
    for x in range(p.size):
        principal = sum(1 << j for j in range(p.size) if p.leq[j][x])
        k = masks.index(principal)
        if k not in irr:
            raise IsomorphismFailure("principal down-set is not irreducible")
        vec.append(irr.index(k))
    return as_isomorphism(p, priestley_dual(lat), vec, "poset").map


# ---------------------------------------------------------------------------
# Homs from point maps, as ``lattices.lift_to_direct`` and the generator
# built them before ``lattices.point_map_hom``, and the generator's chain
# systems as it drew them with a branch on the kind at each step
# ---------------------------------------------------------------------------

def loop_preimage_hom(masks_a, masks_b, g):
    """x -> the rank among ``masks_b`` of the preimage of ``masks_a[x]``
    under g: the loop of ``lift_to_direct``."""
    rank_b = {m: p for p, m in enumerate(masks_b)}
    return tuple(rank_b[sum(1 << x for x in range(len(g))
                            if (mask >> g[x]) & 1)]
                 for mask in masks_a)


def loop_join_hom(a, b, pairs):
    """x -> the join in b, from its bottom, of every q with p <= x in a,
    over the (q, p) in ``pairs``: the loop of ``random_ba_hom`` and
    ``random_dl_hom``, where q runs over the join-irreducibles of b and p
    is the irreducible of a that the drawn map sends q's point to."""
    from algdual.orders import order_from_binary

    leq_a = order_from_binary(a.binary("meet"), "meet")
    join_b, bot_b = b.binary("join"), loop_lattice_bounds(b)[0]
    vec = []
    for x in range(a.size):
        img = bot_b
        for q, p in pairs:
            if leq_a[p][x]:
                img = join_b[img][q]
        vec.append(img)
    return tuple(vec)


def loop_ba_hom(rng, a, b):
    """``generate.random_ba_hom``: a random atom map At(b) -> At(a), then
    the joins of :func:`loop_join_hom`."""
    from algdual.morphisms import Morphism

    ats_a, ats_b = loop_atoms(a), loop_atoms(b)
    if not ats_a and ats_b:
        return None
    g = [rng.choice(ats_a) for _ in ats_b]
    return Morphism(a, b, loop_join_hom(a, b, list(zip(ats_b, g))), "ba")


def loop_dl_hom(rng, a, b, bounded=False):
    """``generate.random_dl_hom``: a random monotone map of irreducibles
    and the joins of :func:`loop_join_hom`; when none is found, the top of
    b on the elements above the first maximal irreducible of a and the
    bottom elsewhere (from a one-element a, top to top); then maybe an
    interval translate."""
    from algdual.generate import random_monotone_map
    from algdual.morphisms import Morphism
    from algdual.orders import order_from_binary

    pa, pb = loop_priestley_dual(a), loop_priestley_dual(b)
    mono = None
    for _ in range(20):
        mono = random_monotone_map(rng, pb, pa)
        if mono is not None:
            break
    irr_a, irr_b = loop_join_irreducibles(a), loop_join_irreducibles(b)
    bot_b, top_b = loop_lattice_bounds(b)
    leq_a = order_from_binary(a.binary("meet"), "meet")
    if mono is not None:
        vec = list(loop_join_hom(a, b, [(q, irr_a[mono[k]])
                                        for k, q in enumerate(irr_b)]))
    elif irr_a:
        top = next(p for p in irr_a
                   if not any(q != p and leq_a[p][q] for q in irr_a))
        vec = [top_b if leq_a[top][x] else bot_b for x in range(a.size)]
    else:
        vec = [top_b if x == loop_lattice_bounds(a)[1] else bot_b
               for x in range(a.size)]
    join_b, meet_b = b.binary("join"), b.binary("meet")
    if not bounded and rng.random() < 0.5:
        c = rng.randrange(b.size)
        d = join_b[c][rng.randrange(b.size)]
        vec = [meet_b[join_b[v][c]][d] for v in vec]
    return Morphism(a, b, tuple(vec), "dl")


def branch_chain_system(rng, kind, max_fibers, max_atoms, bounded=False):
    """``generate.random_chain_system`` with a branch on ``kind`` for each
    fiber and each cover hom, and a trivial Boolean fiber told by its
    atoms."""
    from algdual.algebra import compose
    from algdual.generate import (
        _chain_index,
        random_ba_hom,
        random_boolean_algebra,
        random_distributive_lattice,
        random_dl_hom,
    )
    from algdual.lattices import atoms
    from algdual.systems import DirectSystem

    k = rng.randint(1, max_fibers)
    index = _chain_index(k)
    fibers, covers = {}, {}
    for i in range(k):
        if kind == "ba":
            lo, hi = 0, max_atoms
            if i > 0 and not atoms(fibers[i - 1]):
                hi = 0  # only trivial algebras admit homs out of a trivial one
            fibers[i] = random_boolean_algebra(rng, hi, lo)
        else:
            if bounded and i > 0 and fibers[i - 1].size == 1:
                fibers[i] = random_distributive_lattice(rng, 0)
            else:
                fibers[i] = random_distributive_lattice(rng, max_atoms)
        if i > 0:
            if kind == "ba":
                covers[i] = random_ba_hom(rng, fibers[i - 1], fibers[i])
            else:
                covers[i] = random_dl_hom(rng, fibers[i - 1], fibers[i],
                                          bounded=bounded)
    transitions = {}
    for i in range(k):
        vec = tuple(range(fibers[i].size))
        transitions[(i, i)] = vec
        for j in range(i + 1, k):
            vec = compose(covers[j].map, vec)
            transitions[(i, j)] = vec
    return DirectSystem(index, fibers, transitions, kind)


def loop_presheaf_system(rng, index, max_generators):
    """``generate.random_presheaf_system``: the restriction of subsets of
    atoms as masks, conjugated by each pair's relabellings, the source's
    inverted by hand."""
    from algdual.generate import random_permutation
    from algdual.lattices import ba_of_space
    from algdual.orders import FiniteSpace
    from algdual.systems import DirectSystem, permute_algebra

    gens = [rng.randrange(index.size) for _ in range(max_generators)]
    atom_sets = {i: [g for g, level in enumerate(gens) if index.leq(i, level)]
                 for i in range(index.size)}
    fibers, perms = {}, {}
    for i in range(index.size):
        base = ba_of_space(FiniteSpace(len(atom_sets[i])))
        perms[i] = random_permutation(rng, base.size)
        fibers[i] = permute_algebra(base, perms[i])
    transitions = {}
    for (i, j) in index.comparable_pairs():
        pos = {g: p for p, g in enumerate(atom_sets[i])}
        keep = [pos[g] for g in atom_sets[j]]
        vec = []
        for mask in range(1 << len(atom_sets[i])):
            img = sum(1 << t for t, p in enumerate(keep) if (mask >> p) & 1)
            vec.append(img)
        inv_i = [0] * len(perms[i])
        for old, new in enumerate(perms[i]):
            inv_i[new] = old
        transitions[(i, j)] = tuple(perms[j][vec[inv_i[x]]]
                                    for x in range(fibers[i].size))
    return DirectSystem(index, fibers, transitions, "ba")


def loop_lift_to_direct(s, algebra_of, kind):
    """``lattices.lift_to_direct``: the fibers ``algebra_of`` the terms,
    and the transitions by :func:`loop_preimage_hom` over the down-sets
    of :func:`brute_downset_masks`."""
    from algdual.systems import DirectSystem

    terms = [s.term(i) for i in range(s.index.size)]
    fibers = {i: algebra_of(t) for i, t in enumerate(terms)}
    masks = [brute_downset_masks(t) for t in terms]
    transitions = {(i, j): loop_preimage_hom(masks[i], masks[j],
                                             s.bonding(i, j))
                   for (i, j) in s.index.comparable_pairs()}
    return DirectSystem(s.index, fibers, transitions, kind)


# ---------------------------------------------------------------------------
# Operation tables between documents, algebras and text, a cell at a time
# ---------------------------------------------------------------------------

def loop_dl_of_poset(p):
    """The down-set lattice with its join and meet filled cell by cell
    through a mask-to-rank dict."""
    from algdual.algebra import FiniteAlgebra
    from algdual.lattices import downset_masks

    masks = downset_masks(p)
    rank = {m: k for k, m in enumerate(masks)}
    names = tuple(
        "{" + ",".join(str(i) for i in range(p.size) if (m >> i) & 1) + "}"
        if m else "∅" for m in masks)
    return FiniteAlgebra(
        len(masks),
        {"join": [[rank[a | b] for b in masks] for a in masks],
         "meet": [[rank[a & b] for b in masks] for a in masks]},
        names=names)


def loop_ba_of_space(x):
    """The power-set algebra as the down-set lattice of the discrete order,
    by :func:`loop_dl_of_poset`, extended with complement and bounds."""
    from algdual.errors import TooLarge
    from algdual.lattices import MAX_POWER_SET_POINTS

    if x.size > MAX_POWER_SET_POINTS:
        raise TooLarge(f"the power-set algebra of a {x.size}-point space has "
                       f"2^{x.size} elements, more than the limit of "
                       f"2^{MAX_POWER_SET_POINTS}")
    full = (1 << x.size) - 1
    return loop_dl_of_poset(x).with_ops(
        unary={"neg": [full ^ a for a in range(full + 1)]},
        constants={"zero": 0, "one": full})


def _loop_is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def loop_int_list(value, what):
    """The document reader's list check, one entry at a time."""
    from algdual.documents import fail

    if not isinstance(value, list) or not all(map(_loop_is_int, value)):
        raise fail(f"{what} must be a list of integers")
    return value


def loop_int_table(value, what):
    """The document reader's table check, one row at a time through
    :func:`loop_int_list`."""
    from algdual.documents import fail

    if not isinstance(value, list):
        raise fail(f"{what} must be a table of integers")
    return [loop_int_list(row, f"rows of {what}") for row in value]


def loop_algebra_error(size, binary=(), unary=(), constants=(), names=None):
    """The message of the first check ``FiniteAlgebra`` fails on tables,
    maps and constants of ints, or None, by loops over the cells; the
    inputs are dicts."""
    if size < 1:
        return "carrier must be non-empty"
    if names is not None and len(names) != size:
        return "names must match carrier size"
    seen = set()
    for name in (*binary, *unary, *constants):
        if name in seen:
            return f"duplicate operation name {name!r}"
        seen.add(name)
    for name, t in binary.items():
        if len(t) != size or any(len(row) != size for row in t):
            return f"table {name!r} is not {size}x{size}"
        if any(not 0 <= v < size for row in t for v in row):
            return f"table {name!r} has out-of-range entries"
    for name, t in unary.items():
        if len(t) != size or any(not 0 <= v < size for v in t):
            return f"map {name!r} is not a carrier self-map"
    for name, c in constants.items():
        if not 0 <= c < size:
            return f"constant {name!r} out of range"
    return None
