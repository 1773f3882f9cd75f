"""The paper's combinatorial lemmas, reproduced for the tests.

No command, demo or benchmark runs these; the tests check the paper's
results with them: the marked-vertex connectivity of tilings (rhombus chains
and the chain-intersection construction), the square and octagon 2-cells of
the flip complex, the lifting of planar decompositions, the exchange
polynomials behind the Laurent proof, and the one-square lemma of tropical
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from zonorec.flips import (
    FlipError,
    FlipMove,
    apply_move,
    enumerate_tilings,
    fundamental_forest,
)
from zonorec.laurent import InexactDivision, LaurentPoly
from zonorec.zonogon import (
    Edge,
    Point,
    Rhombus,
    Tiling,
    ZonogonSpec,
    _check_rhombi,
    shift,
    shift2,
)

from oracles import apply_flip, edges_at, flippable_vertices, move_at, rhombus_edges

# ---------------------------------------------------------------------------
# the fundamental forest as parent maps


class FundamentalForest:
    """The internal edges (I, I+e_j) that are the sole up-edge at I
    (`fundamental_forest`), with their parent and child maps."""

    def __init__(self, tiling: Tiling):
        self.tiling = tiling
        self.edges = fundamental_forest(tiling)
        self.parent = {base: shift(base, d) for base, d in self.edges}
        self.parent_dir = dict(self.edges)
        children: dict = {}
        for base, d in self.edges:
            children.setdefault(shift(base, d), []).append(base)
        self.children = children
        self.leaves = frozenset(v for v in self.parent if v not in children)

    def link(self, v: Point) -> frozenset:
        """Forest edges pointing down from v (empty off the forest)."""
        return frozenset((c, self.parent_dir[c]) for c in self.children.get(v, ()))

    def path_from(self, leaf: Point) -> list:
        out = [leaf]
        while out[-1] in self.parent:
            out.append(self.parent[out[-1]])
        return out


# ---------------------------------------------------------------------------
# rhombus chains (de Bruijn ribbons) and paths avoiding a marked vertex


@lru_cache(maxsize=256)
def edge_rhombi(t: Tiling) -> dict:
    """Edge -> the rhombi of t on it."""
    out: dict = {}
    for rh in t.rhombi:
        for e in rhombus_edges(rh):
            out.setdefault(e, []).append(rh)
    return out


def _is_left_of_edge(rh: Rhombus, e: Edge) -> bool:
    base, (p, q) = rh
    ebase, d = e
    z = q if p == d else p
    if base == ebase:
        return d < z
    return z < d


def _other_parallel_edge(rh: Rhombus, e: Edge) -> Edge:
    base, (p, q) = rh
    ebase, d = e
    z = q if p == d else p
    first = (base, d)
    second = (shift(base, z), d)
    return second if e == first else first


def chain_indexed(t: Tiling, e: Edge) -> dict:
    """Chain of rhombi sharing translates of e's direction, as index -> rhombus.

    Index 0 is the rhombus on the left of the upward-directed edge, 1 the one
    on its right; indices decrease leftward and increase rightward out to the
    boundary.
    """
    on_edge = edge_rhombi(t)
    if e not in on_edge:
        raise FlipError(f"{e} is not an edge of the tiling")
    out = {}
    for rh in on_edge[e]:
        i = 0 if _is_left_of_edge(rh, e) else 1
        step = -1 if i == 0 else 1
        out[i] = rh
        cur, cur_e = rh, e
        while True:
            nxt_e = _other_parallel_edge(cur, cur_e)
            nbrs = [r for r in on_edge.get(nxt_e, ()) if r != cur]
            if not nbrs:
                break
            cur, cur_e = nbrs[0], nxt_e
            i += step
            out[i] = cur
    return out


def rhombus_chain(t: Tiling, e: Edge) -> list:
    """The maximal chain of rhombi through edge e, in boundary-to-boundary order."""
    indexed = chain_indexed(t, e)
    return [indexed[i] for i in sorted(indexed)]


def _shared_parallel_edge(r1: Rhombus, r2: Rhombus, d: int) -> Edge:
    e1 = {(r1[0], d), (shift(r1[0], [z for z in r1[1] if z != d][0]), d)}
    e2 = {(r2[0], d), (shift(r2[0], [z for z in r2[1] if z != d][0]), d)}
    common = e1 & e2
    if len(common) != 1:
        raise FlipError("rhombi are not chain neighbors")
    return next(iter(common))


def _edge_corners(e: Edge):
    base, d = e
    return (base, shift(base, d))


def _transposition_flips(t: Tiling, path: list, pos: int):
    """Flips exchanging letters pos-1, pos of the forest path's direction word.

    `path` lists the forest-path vertices from the marked leaf to the root;
    pos is 1-based: the edges (path[pos-1], path[pos]) and (path[pos], path[pos+1])
    get swapped.  Implements the chain-intersection construction: take the two
    rhombus chains through those edges, locate their common rhombus, and flip
    along the boundary of the first chain between it and the stalling vertex.
    """
    prev_v, mid_v, next_v = path[pos - 1], path[pos], path[pos + 1]
    u = [d for d in range(t.spec.n) if mid_v[d] == prev_v[d] + 1][0]
    w = [d for d in range(t.spec.n) if next_v[d] == mid_v[d] + 1][0]
    alpha = (mid_v, w)
    beta = (prev_v, u)
    chain_r = chain_indexed(t, alpha)
    chain_s = chain_indexed(t, beta)
    inv_r = {rh: i for i, rh in chain_r.items()}
    inv_s = {rh: i for i, rh in chain_s.items()}
    common = set(inv_r) & set(inv_s)
    if len(common) != 1:
        raise FlipError(f"chains cross in {len(common)} rhombi")
    vee = next(iter(common))
    a, b = inv_r[vee], inv_s[vee]
    if a >= 1:  # mirror case: reindex both chains so the crossing is on the left
        chain_r = {1 - i: rh for i, rh in chain_r.items()}
        chain_s = {1 - i: rh for i, rh in chain_s.items()}
        a, b = 1 - a, 1 - b
    if a != b or a > 0:
        raise FlipError(f"unexpected chain indices a={a}, b={b}")

    # walk the boundary edges of the first chain from the crossing upward
    alpha_i = _shared_parallel_edge(vee, chain_s[b + 1], u)
    xs = {}
    i = a
    c = None
    while True:
        nxt = chain_r.get(i + 1)
        if nxt is None:
            c = i if i >= 1 else c
            break
        shared = _shared_parallel_edge(chain_r[i], nxt, w)
        hit = [p for p in _edge_corners(alpha_i) if p in _edge_corners(shared)]
        if len(hit) != 1:
            raise FlipError("chain boundary walk lost adjacency")
        xs[i] = hit[0]
        z = [d for d in nxt[1] if d != w][0]
        nb = nxt[0]
        if xs[i] == nb:
            alpha_next, points_down = (nb, z), False
        elif xs[i] == shift(nb, z):
            alpha_next, points_down = (nb, z), True
        elif xs[i] == shift(nb, w):
            alpha_next, points_down = (shift(nb, w), z), False
        elif xs[i] == shift2(nb, w, z):
            alpha_next, points_down = (shift(nb, w), z), True
        else:
            raise FlipError("boundary edge not incident to walk vertex")
        if i + 1 >= 1 and not points_down:
            c = i
            break
        alpha_i = alpha_next
        i += 1

    if c is None or c < 1:
        raise FlipError("no descending boundary edge after the pivot")
    if xs.get(0) != mid_v:
        raise FlipError("boundary walk did not pass through the path vertex")

    moves = []
    cur = t
    for i in range(a, c):
        cur, mv = apply_flip(cur, xs[i])
        moves.append(mv)
    return cur, moves


def _forest_path(t: Tiling, leaf: Point):
    forest = FundamentalForest(t)
    if not forest.edges:
        return [leaf], []
    if forest.leaves != frozenset({leaf}):
        raise FlipError(f"forest is not a single path with leaf {leaf}")
    path = forest.path_from(leaf)
    word = [forest.parent_dir[v] for v in path[:-1]]
    return path, word


def _descend_keeping(t: Tiling, keep: Point):
    """Downward flips at the lowest leaf other than `keep` until none is
    left; returns (last tiling, moves)."""
    moves = []
    cur = t
    while leaves := flippable_vertices(cur)[0] - {keep}:
        cur, move = apply_flip(cur, min(leaves, key=lambda v: (t.spec.height(v), v)))
        moves.append(move)
    return cur, moves


def connect_through(t: Tiling, t2: Tiling, marked: Point) -> list:
    """The moves of a flip path from t to t2 whose intermediate tilings all
    contain `marked`.

    Both tilings are first descended (never flipping at the marked vertex)
    until their forests are single paths rooted at the common top vertex; the
    residual direction words are then sorted into each other by adjacent
    transpositions, each realized by the chain-intersection flips.
    """
    if t.spec != t2.spec:
        raise FlipError("tilings have different specs")
    if marked not in t.vertices or marked not in t2.vertices:
        raise FlipError(f"{marked} must be a vertex of both tilings")
    if t == t2:
        return []

    cur, moves = _descend_keeping(t, marked)
    cur2, moves2 = _descend_keeping(t2, marked)
    path, word = _forest_path(cur, marked)
    path2, word2 = _forest_path(cur2, marked)
    if sorted(word) != sorted(word2):
        raise FlipError("descended words are not permutations of each other")

    while word != word2:
        idx = next(i for i in range(len(word)) if word[i] != word2[i])
        src = next(i for i in range(idx, len(word)) if word[i] == word2[idx])
        for k in range(src, idx, -1):
            cur, extra = _transposition_flips(cur, path, k)
            moves.extend(extra)
            word[k - 1], word[k] = word[k], word[k - 1]
            path = [path[0]]
            for d in word:
                path.append(shift(path[-1], d))
            actual_path, actual_word = _forest_path(cur, marked)
            if actual_path != path or actual_word != word:
                raise FlipError("transposition produced an unexpected forest path")
    if cur != cur2:
        raise FlipError("transposition phase did not reach the target tiling")

    moves.extend(m.inverse() for m in reversed(moves2))
    return moves


# ---------------------------------------------------------------------------
# 2-cells: commuting square pairs and octagon cycles


@dataclass(frozen=True)
class Cell:
    kind: str  # "square" | "octagon"
    moves: tuple
    base: Point | None = None
    dirs: tuple | None = None


def _lift(base: Point, dirs, off) -> Point:
    """The point at offsets `off` along `dirs` from base."""
    p = list(base)
    for w, o in zip(dirs, off):
        p[w] += o
    return tuple(p)


@lru_cache(maxsize=None)
def _octagon_atlas() -> dict:
    """Vertex set of each tiling of the unit 4-cube zonogon -> the eight moves
    walking its flip cycle, the first towards the neighbour with the least
    sorted rhombi."""
    atlas = {}
    for t in enumerate_tilings(ZonogonSpec((1, 1, 1, 1))):
        prev, cur, moves = None, t, []
        for _ in range(8):
            down, up = flippable_vertices(cur)
            options = [apply_flip(cur, v) for v in down | up]
            nxt, mv = min((o for o in options if o[0] != prev),
                          key=lambda o: o[0].canonical_rhombi())
            moves.append(mv)
            prev, cur = cur, nxt
        if cur != t:
            raise FlipError("octagon walk did not close up")
        atlas[t.vertices] = tuple(moves)
    return atlas


@lru_cache(maxsize=None)
def _unit_4_cubes(spec: ZonogonSpec) -> tuple:
    """Each unit 4-cube of the box as (base, dirs, its corners as (offset,
    point) pairs)."""
    out = []
    for dirs in combinations(range(spec.n), 4):
        ranges = [range(m) if i in dirs else range(m + 1) for i, m in enumerate(spec.a)]
        for base in product(*ranges):
            corners = tuple((off, _lift(base, dirs, off)) for off in product((0, 1), repeat=4))
            out.append((base, dirs, corners))
    return tuple(out)


def cells_2(t: Tiling) -> list:
    """All square and octagon 2-cells of the flip complex incident to t."""
    spec = t.spec
    cells = []

    down, up = flippable_vertices(t)
    moves = [move_at(t, v) for v in sorted(down | up)]
    for i, m1 in enumerate(moves):
        t1 = apply_move(t, m1)
        for m2 in moves[i + 1:]:
            try:  # m2 survives m1 exactly when the two flips share no face
                apply_move(t1, m2)
            except FlipError:
                continue
            cells.append(Cell("square", (m1, m2)))

    atlas, vs = _octagon_atlas(), t.vertices
    for base, dirs, corners in _unit_4_cubes(spec):
        pattern = frozenset(off for off, p in corners if p in vs)
        if pattern not in atlas:
            continue
        full_moves = tuple(
            FlipMove(_lift(base, dirs, mv.base), tuple(dirs[d] for d in mv.dirs),
                     mv.direction)
            for mv in atlas[pattern]
        )
        cells.append(Cell("octagon", full_moves, base=base, dirs=dirs))
    return cells


# ---------------------------------------------------------------------------
# lifting planar rhombus decompositions back to the lattice


class LiftError(ValueError):
    pass


def lift_decomposition(spec: ZonogonSpec, planar_rhombi) -> Tiling:
    """Reconstruct the lattice tiling from exact planar rhombi.

    Each input rhombus is four planar corner points (in any order).  Edge
    vectors are matched against the spec directions, then lattice positions
    are assigned by path integration from the image of the origin.
    """
    vecs = spec.vectors
    labelled = []  # (corner, dir j, dir k) with corner + v_j + v_k the far corner
    for corners in planar_rhombi:
        pts = [tuple(Fraction(c) for c in pt) for pt in corners]
        if len(pts) != 4:
            raise LiftError(f"rhombus needs 4 corners, got {len(pts)}")
        base = min(pts)
        rest = [p for p in pts if p != base]
        found = None
        for i in range(3):
            u = tuple(rest[i][c] - base[c] for c in range(2))
            v = tuple(rest[(i + 1) % 3][c] - base[c] for c in range(2))
            w = tuple(rest[(i + 2) % 3][c] - base[c] for c in range(2))
            if (u[0] + v[0], u[1] + v[1]) == w:
                found = (u, v)
                break
        if found is None:
            raise LiftError(f"corners {pts} do not form a parallelogram")
        dirs = []
        origin = list(base)
        for u in found:
            match = None
            for d, vd in enumerate(vecs):
                if u == vd:
                    match = (d, 1)
                    break
                if u == (-vd[0], -vd[1]):
                    match = (d, -1)
                    break
            if match is None:
                raise LiftError(f"unmatched edge direction {u}")
            d, sign = match
            if sign < 0:
                origin[0] += u[0]
                origin[1] += u[1]
            dirs.append(d)
        if dirs[0] == dirs[1]:
            raise LiftError(f"degenerate rhombus directions at {base}")
        labelled.append((tuple(origin), min(dirs), max(dirs)))

    # planar graph with edges labelled by +-e_d
    adjacency: dict = {}
    for corner, j, k in labelled:
        vj, vk = vecs[j], vecs[k]
        c = corner
        cj = (c[0] + vj[0], c[1] + vj[1])
        ck = (c[0] + vk[0], c[1] + vk[1])
        cjk = (cj[0] + vk[0], cj[1] + vk[1])
        for p, q, d in ((c, cj, j), (c, ck, k), (ck, cjk, j), (cj, cjk, k)):
            adjacency.setdefault(p, []).append((q, d, 1))
            adjacency.setdefault(q, []).append((p, d, -1))

    start = (Fraction(0), Fraction(0))
    if start not in adjacency:
        raise LiftError("not covering P: image of the origin is not a vertex")
    lattice = {start: (0,) * spec.n}
    stack = [start]
    while stack:
        p = stack.pop()
        for q, d, sign in adjacency[p]:
            lp = shift(lattice[p], d, sign)
            if q in lattice:
                if lattice[q] != lp:
                    raise LiftError(f"inconsistent lift at planar point {q}")
            else:
                lattice[q] = lp
                stack.append(q)
    if len(lattice) != len(adjacency):
        raise LiftError("not covering P: decomposition is disconnected")

    rhombi = []
    for corner, j, k in labelled:
        base = lattice[corner]
        if not spec.contains(base):
            raise LiftError(f"not covering P: lifted base {base} outside the box")
        rhombi.append((base, (j, k)))
    report = _check_rhombi(spec, frozenset(rhombi))
    if not report.ok:
        raise LiftError(f"not covering P: {report.violations[0]}")
    return Tiling(spec, rhombi)


# ---------------------------------------------------------------------------
# exchange polynomials and Laurent substitution


def exchange_polynomial(t: Tiling, v: Point, var_of=None) -> LaurentPoly:
    """The flip numerator attached to a vertex, in its neighbors' variables.

    With neighbors a_1..a_r in cyclic order and b_i the far corner of the
    rhombus on a_i, a_{i+1}, this is sum_i x[b_i] * prod_{m not in {i,i+1}}
    x[a_m]; a missing far corner (boundary wedge) contributes the full
    product of the neighbor variables.

    The direction vectors have increasing angles in (0, pi), so the neighbors
    in counterclockwise order are v + e_d for the up directions d ascending,
    then v - e_d for the down directions ascending.  The wedge from step
    (d1, s1) to step (d2, s2) spans less than a half turn when s1 = s2 and
    d1 < d2, or s1 != s2 and d2 < d1; its rhombus is there when the far
    corner a_i + a_{i+1} - v is a vertex.
    """
    if var_of is None:
        var_of = lambda p: p
    up, down = edges_at(t, v)
    steps = [(d, 1) for d in up] + [(d, -1) for d in down]
    nbrs = [shift(v, d, s) for d, s in steps]
    r = len(nbrs)
    total = LaurentPoly()
    for i in range(r):
        i2 = (i + 1) % r
        (d1, s1), (d2, s2) = steps[i], steps[i2]
        far = tuple(p + q - c for p, q, c in zip(nbrs[i], nbrs[i2], v))
        if (d1 < d2 if s1 == s2 else d2 < d1) and far in t.vertices:
            term = LaurentPoly.var(var_of(far))
            skip = {i, i2}
        else:
            term = LaurentPoly.const(1)
            skip = set()
        for m in range(r):
            if m not in skip:
                term = term * LaurentPoly.var(var_of(nbrs[m]))
        total = total + term
    return total


def power(p: LaurentPoly, n: int) -> LaurentPoly:
    """p ** n; a negative n needs a monomial with coefficient +-1."""
    if n < 0:
        if len(p.terms) != 1:
            raise InexactDivision("negative power of a non-monomial")
        ((exps, c),) = p.terms.items()
        if c * c != 1:
            raise InexactDivision("negative power with non-unit coefficient")
        return power(LaurentPoly({tuple((v, -e) for v, e in exps): c}), -n)
    result = LaurentPoly.const(1)
    while n:
        if n & 1:
            result = result * p
        p = p * p
        n >>= 1
    return result


def substitute(p: LaurentPoly, v, value: LaurentPoly) -> LaurentPoly:
    """p with the variable v replaced by a Laurent polynomial."""
    out = LaurentPoly()
    for exps, c in p.terms.items():
        rest = tuple((w, e) for w, e in exps if w != v)
        term = LaurentPoly({rest: c})
        out = out + term * power(value, dict(exps).get(v, 0))
    return out


# ---------------------------------------------------------------------------
# the one-square lemma of tropical propagation


# The lemma as linear forms in the letters of one elementary-move square: a
# letter string stands for the sum of its letters' values; a relation
# (left, terms) reads left = max(terms), an inequality (greater, lesser)
# reads greater >= lesser.
LEMMA_LETTERS = "abcdpqrsvwyz"
LEMMA_RELATIONS = (("ws", ("vr", "zq", "yp")), ("qd", ("pc", "sb", "ra")))
LEMMA_HYPOTHESES = (("pq", "aw"), ("pq", "bv"), ("qr", "cw"), ("qr", "by"))  # (A)-(D)
LEMMA_CONCLUSIONS = (("ps", "az"), ("ps", "dv"), ("sr", "cz"), ("sr", "dy"))  # (E)-(H)


def local_step_check(values: dict) -> bool:
    """One elementary-move square: do the four source inequalities force the
    four target ones?

    `values` holds a,b,c,d,p,q,r,s,v,w,y,z with the two max-plus relations
        w + s = max(v + r, z + q, y + p)
        q + d = max(p + c, s + b, r + a)
    already satisfied.  Returns whether (A)-(D) imply (E)-(H) here.
    """
    x = {k: Fraction(values[k]) for k in LEMMA_LETTERS}

    def total(letters):
        return sum(x[k] for k in letters)

    def hold(inequalities):
        return all(total(greater) >= total(lesser) for greater, lesser in inequalities)

    if any(total(left) != max(map(total, terms)) for left, terms in LEMMA_RELATIONS):
        raise ValueError("the two max-plus cube relations are not satisfied")
    return not hold(LEMMA_HYPOTHESES) or hold(LEMMA_CONCLUSIONS)
