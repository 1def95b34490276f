"""Independent brute-force oracles.

These deliberately avoid the library's backtracking/pruning code paths:
plain products over all maps, direct table lookups.  Expected values frozen
into tests were computed with these.
"""

from itertools import permutations, product


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
    return tuple(NEG3[phi[g.neg[a]]] for a in range(g.size))


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
