"""Independent brute-force oracles.

These deliberately avoid the library's backtracking/pruning code paths:
plain products over all maps, direct table lookups.  Expected values frozen
into tests were computed with these.
"""

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
        fwd = naive_algebra_homs  # reuse the pointwise predicate below
        ok = True
        for n in constants:
            ok = ok and perm[a.const(n)] == b.const(n)
        for n in unary:
            ok = ok and all(perm[a.unary(n)[x]] == b.unary(n)[perm[x]]
                            for x in range(a.size))
        for n in binary:
            ok = ok and all(perm[a.binary(n)[x][y]] == b.binary(n)[perm[x]][perm[y]]
                            for x in range(a.size) for y in range(a.size))
        for n in binary:
            ok = ok and all(inv[b.binary(n)[x][y]] == a.binary(n)[inv[x]][inv[y]]
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
