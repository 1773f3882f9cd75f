"""Independent oracles: kept deliberately separate from the library's own
algorithms so they can cross-check them."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import isqrt

from zonorec.zonogon import (
    ZonogonSpec,
    Tiling,
    cross,
    rhombus_corners,
    rhombus_edges,
    shift,
    t_min,
)
from zonorec.flips import Cell, FlipError, FlipMove, apply_flip, flippable_vertices
from zonorec.spinor import (
    SpinPoint,
    Spinor,
    SpinorError,
    Vector2n,
    clifford_act,
    eps,
    eps_dual,
    inner,
    make_isotropic,
    nullspace,
    rank,
)


def _interiors_overlap(spec: ZonogonSpec, r1, r2) -> bool:
    # exact separating-axis test for two parallelograms
    p1 = [spec.project(c) for c in rhombus_corners(r1)]
    p2 = [spec.project(c) for c in rhombus_corners(r2)]
    axes = []
    for rh in (r1, r2):
        for d in rh[1]:
            vx, vy = spec.vectors[d]
            axes.append((-vy, vx))
    for ax in axes:
        d1 = [x * ax[0] + y * ax[1] for x, y in p1]
        d2 = [x * ax[0] + y * ax[1] for x, y in p2]
        if max(d1) <= min(d2) or max(d2) <= min(d1):
            return False
    return True


def zonogon_area2(spec: ZonogonSpec):
    """Twice the area of P (exact)."""
    return sum(
        spec.a[i] * spec.a[j] * abs(cross(spec.vectors[i], spec.vectors[j]))
        for i, j in combinations(range(spec.n), 2)
    )


def is_tiling_by_overlap(t: Tiling) -> bool:
    """Whether t's rhombi tile P, by the geometric checks: every rhombus in the
    box, the rhombus count, each boundary edge on one rhombus and each
    internal edge on two, the covered area, and no two interiors overlapping
    (exact separating axes, O(R^2) in the rhombus count R)."""
    spec = t.spec
    if not all(spec.contains(c) for rh in t.rhombi for c in rhombus_corners(rh)):
        return False
    if len(t.rhombi) != spec.rhombus_count:
        return False
    on_edge: dict = {}
    for rh in t.rhombi:
        for e in rhombus_edges(rh):
            on_edge[e] = on_edge.get(e, 0) + 1
    if any(k != (1 if spec.is_boundary_edge(e) else 2) for e, k in on_edge.items()):
        return False
    area = sum(abs(cross(spec.vectors[j], spec.vectors[k])) for _, (j, k) in t.rhombi)
    if area != zonogon_area2(spec):
        return False
    return not any(_interiors_overlap(spec, r1, r2)
                   for r1, r2 in combinations(sorted(t.rhombi), 2))


def all_candidate_rhombi(spec: ZonogonSpec):
    out = []
    for j, k in combinations(range(spec.n), 2):
        ranges = [
            range(m) if i in (j, k) else range(m + 1)
            for i, m in enumerate(spec.a)
        ]
        for base in product(*ranges):
            out.append((tuple(base), (j, k)))
    return out


def brute_force_tilings(spec: ZonogonSpec):
    """All tilings by exhaustive placement of non-overlapping rhombi.

    A set of F = sum a_i a_j rhombi with pairwise disjoint interiors and the
    right total area necessarily covers the zonogon.
    """
    cands = all_candidate_rhombi(spec)
    m = len(cands)
    conflicts = [set() for _ in range(m)]
    for i, j in combinations(range(m), 2):
        if _interiors_overlap(spec, cands[i], cands[j]):
            conflicts[i].add(j)
            conflicts[j].add(i)
    areas = [abs(cross(spec.vectors[j], spec.vectors[k])) for _, (j, k) in cands]
    need_count = spec.rhombus_count
    need_area = zonogon_area2(spec)
    results = []

    def rec(start, chosen, blocked, area):
        if len(chosen) == need_count:
            if area == need_area:
                results.append(Tiling(spec, [cands[i] for i in chosen]))
            return
        if m - start < need_count - len(chosen):
            return
        for i in range(start, m):
            if i in blocked:
                continue
            rec(i + 1, chosen + [i], blocked | conflicts[i], area + areas[i])

    rec(0, [], set(), 0)
    return results


def cube_bottom_faces(base, dirs):
    """The three faces of a unit 3-cube through base + e_k (k the middle
    direction): the rhombi an up flip removes."""
    j, k, l = dirs
    return (
        (base, (j, k)),
        (base, (k, l)),
        (shift(base, k), (j, l)),
    )


def cube_top_faces(base, dirs):
    """The three faces through base + e_j + e_l: the rhombi an up flip lays."""
    j, k, l = dirs
    return (
        (base, (j, l)),
        (shift(base, j), (k, l)),
        (shift(base, l), (j, k)),
    )


def edges_by_census(t: Tiling) -> dict:
    """vertex -> (up, down) edge directions, read off the edges of t's rhombi."""
    ups: dict = {}
    downs: dict = {}
    for rh in t.rhombi:
        for base, d in rhombus_edges(rh):
            ups.setdefault(base, set()).add(d)
            downs.setdefault(shift(base, d), set()).add(d)
    return {v: (tuple(sorted(ups.get(v, ()))), tuple(sorted(downs.get(v, ()))))
            for v in t.vertices}


def apply_move_by_faces(t: Tiling, move: FlipMove) -> Tiling:
    """The face-set flip rule: trade the cube's three bottom rhombi for its
    three top ones (up) or back (down); the result keeps explicit rhombi."""
    bottom = set(cube_bottom_faces(move.base, move.dirs))
    top = set(cube_top_faces(move.base, move.dirs))
    old, new = (bottom, top) if move.direction == "up" else (top, bottom)
    if not old <= t.rhombi:
        raise FlipError(f"move {move} not applicable")
    return Tiling(t.spec, (t.rhombi - old) | new)


def moves_by_faces(t: Tiling):
    """Every (move, tiling after it) the face-set rule allows at t."""
    for base, dirs in t.spec.cubes():
        for direction in ("up", "down"):
            move = FlipMove(base, dirs, direction)
            try:
                yield move, apply_move_by_faces(t, move)
            except FlipError:
                pass


def tilings_by_face_flips(spec: ZonogonSpec) -> list:
    """Every tiling, as rhombi: breadth-first face-set flips from the rhombi
    the wiring diagram lays for t_min, told apart by their rhombus sets."""
    start = Tiling(spec, t_min(spec).rhombi)
    seen = {start.rhombi: start}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for _, t2 in moves_by_faces(t):
                if t2.rhombi not in seen:
                    seen[t2.rhombi] = t2
                    nxt.append(t2)
        frontier = nxt
    return list(seen.values())


@lru_cache(maxsize=None)
def _octagon_rhombus_adjacency() -> dict:
    """Rhombus set of each tiling of the unit 4-cube zonogon -> its
    (neighbour rhombus set, move) pairs under the face-set rule."""
    spec = ZonogonSpec((1, 1, 1, 1))
    return {t.rhombi: [(t2.rhombi, mv) for mv, t2 in moves_by_faces(t)]
            for t in brute_force_tilings(spec)}


def cells_2_by_rhombus_scan(t: Tiling) -> list:
    """The 2-cells at t by face sets: squares are pairs of flips with no
    common face, octagons the unit 4-cubes holding six rhombi of t that tile
    them, each walked from t towards the neighbour with the least sorted
    rhombi."""
    spec = t.spec
    cells = []
    pivots = sorted(moves_by_faces(t), key=lambda x: x[0].removed)
    for i, (m1, _) in enumerate(pivots):
        for m2, _ in pivots[i + 1:]:
            faces = [set(cube_bottom_faces(m.base, m.dirs) if m.direction == "up"
                         else cube_top_faces(m.base, m.dirs)) for m in (m1, m2)]
            if not faces[0] & faces[1]:
                cells.append(Cell("square", (m1, m2)))
    adjacency = _octagon_rhombus_adjacency()
    for dirs in combinations(range(spec.n), 4):
        ranges = [range(m) if i in dirs else range(m + 1) for i, m in enumerate(spec.a)]
        for base in product(*ranges):
            pattern = frozenset(
                (tuple(c[w] - base[w] for w in dirs), (dirs.index(p), dirs.index(q)))
                for c, (p, q) in t.rhombi
                if p in dirs and q in dirs and c[p] == base[p] and c[q] == base[q]
                and all(c[w] == base[w] for w in range(spec.n) if w not in dirs)
                and all(c[w] in (base[w], base[w] + 1) for w in dirs)
            )
            if len(pattern) != 6 or pattern not in adjacency:
                continue
            prev, cur, moves = None, pattern, []
            for _ in range(8):
                nxt, mv = min(((r, mv) for r, mv in adjacency[cur] if r != prev),
                              key=lambda x: sorted(x[0]))
                fb = list(base)
                for w, off in zip(dirs, mv.base):
                    fb[w] += off
                moves.append(FlipMove(tuple(fb), tuple(dirs[d] for d in mv.dirs),
                                      mv.direction))
                prev, cur = cur, nxt
            assert cur == pattern
            cells.append(Cell("octagon", tuple(moves), base=base, dirs=dirs))
    return cells


def restricted_bfs_connect(t, t2, marked):
    """Shortest flip path between tilings within the set containing `marked`,
    as a list of tilings; None if unreachable."""
    if marked not in t.vertices or marked not in t2.vertices:
        return None
    seen = {t: None}
    frontier = [t]
    while frontier:
        nxt = []
        for cur in frontier:
            down, up = flippable_vertices(cur)
            for v in sorted(down | up):
                child, _ = apply_flip(cur, v)
                if marked in child.vertices and child not in seen:
                    seen[child] = cur
                    nxt.append(child)
        if t2 in seen:
            break
        frontier = nxt
    if t2 not in seen:
        return None
    path = [t2]
    while seen[path[-1]] is not None:
        path.append(seen[path[-1]])
    return list(reversed(path))


def walk_keeping(t, marked, rng, steps):
    """`steps` random flips away from t at vertices other than `marked`.

    Each flip moves phi by one, so walks of odd and even length from the same
    tiling end at different tilings.  `marked` must lie on a second tiling.
    """
    for _ in range(steps):
        down, up = flippable_vertices(t)
        t, _ = apply_flip(t, rng.choice(sorted((down | up) - {marked})))
    return t


def det(matrix) -> Fraction:
    """Exact determinant by cofactor recursion with column-mask memoisation."""
    n = len(matrix)
    memo = {}

    def rec(row, mask):
        if row == n:
            return Fraction(1)
        key = mask
        if key in memo:
            return memo[key]
        total = Fraction(0)
        sign = 1
        for c in range(n):
            bit = 1 << c
            if mask & bit:
                continue
            val = Fraction(matrix[row][c])
            if val:
                total += sign * val * rec(row + 1, mask | bit)
            sign = -sign
        memo[key] = total
        return total

    return rec(0, 0)


def pure_spinor_by_kernel(sub) -> Spinor:
    """Pure spinor of a maximal isotropic subspace as the joint kernel of its
    Clifford action, by one dense rational solve of size (n 2^n) x 2^n."""
    n = sub.n
    if sub.dim != n:
        raise SpinorError("pure spinors come from maximal isotropic subspaces")
    dim_s = 1 << n
    rows = []
    for v in sub.basis:
        cols = [clifford_act(v, Spinor.basis(n, m)).coords for m in range(dim_s)]
        for out_mask in range(dim_s):
            rows.append([cols[m][out_mask] for m in range(dim_s)])
    kernel = nullspace(rows, dim_s)
    if len(kernel) != 1:
        raise SpinorError(f"solution space dimension {len(kernel)} != 1")
    s = Spinor(n, kernel[0]).canonical()
    if s.parity() is None:
        raise SpinorError("pure spinor is not parity homogeneous")
    return s


def _rational_sqrt(x: Fraction):
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def spin_coordinates_by_extensions(sub) -> SpinPoint:
    """Spin coordinates of an isotropic K of dimension n-1 through its two
    maximal isotropic extensions: perp(K) by a linear solve, a complement of
    K in it, the isotropic lines of the rank-2 split form on perp(K)/K, and
    the kernel-solved pure spinor of each extension K + line."""
    n = sub.n
    if sub.dim != n - 1:
        raise SpinorError("expected an isotropic subspace of dimension n-1")
    basis_v = [eps(i, n) for i in range(n)] + [eps_dual(i, n) for i in range(n)]
    gram_rows = [[inner(v, b) for b in basis_v] for v in sub.basis]
    perp = nullspace(gram_rows, 2 * n)
    if len(perp) != n + 1:
        raise SpinorError("perp space has unexpected dimension")
    comp = []
    cur = [list(v.flat()) for v in sub.basis]
    for vec in perp:
        if rank(cur) != rank(cur + [list(vec)]):
            cur.append(list(vec))
            comp.append(Vector2n.from_flat(vec))
        if len(comp) == 2:
            break
    u1, u2 = comp
    q11, q12, q22 = inner(u1, u1), inner(u1, u2), inner(u2, u2)

    def along(t):  # t*u1 + u2
        return Vector2n.from_flat([t * a + b for a, b in zip(u1.flat(), u2.flat())])

    if q11 == 0:
        if q12 == 0:
            raise SpinorError("form on perp(K)/K is degenerate")
        # q(t*u1 + u2) = 2t*q12 + q22 vanishes at one t; the other root is u1
        lines = [u1, along(-q22 / (2 * q12))]
    else:
        root = _rational_sqrt(q12 * q12 - q11 * q22)
        if root is None or root == 0:
            raise SpinorError("form on perp(K)/K not split over the rationals")
        lines = [along((-q12 + r) / q11) for r in (root, -root)]
    spinors = {}
    for line in lines:
        s = pure_spinor_by_kernel(make_isotropic(sub.basis + (line,)))
        spinors[s.parity()] = s
    if set(spinors) != {0, 1}:
        raise SpinorError("extensions do not have opposite parities")
    return SpinPoint(n, {m: spinors[m.bit_count() % 2].coords[m]
                         for m in range(1 << n)})
