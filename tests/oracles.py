"""Independent oracles: kept deliberately separate from the library's own
algorithms so they can cross-check them."""

import json
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations, product
from math import gcd, isqrt, lcm

from zonorec.zonogon import (
    ZonogonSpec,
    Tiling,
    rhombus_corners,
    shift,
    t_min,
)
from zonorec.flips import FlipMove, apply_flip, apply_move, flippable_vertices
from zonorec.jsonio import tiling_to_json
from zonorec.laurent import LaurentPoly
from zonorec.spinor import (
    IsotropicSubspace,
    Spinor,
    SpinorError,
    Vector2n,
    clifford_act,
    eps,
    eps_dual,
    nullspace,
    rank,
)

from paper_lemmas import Cell, rhombus_edges


def cross(u, v):
    """The planar cross product u x v, positive when v is counterclockwise of u."""
    return u[0] * v[1] - u[1] * v[0]


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


def t_min_vertices(spec: ZonogonSpec) -> frozenset:
    """Closed-form vertex set of t_min.

    Zero, the single-coordinate points (0,..,0,m,0,..,0) with 0 < m <= a_r,
    and for r < s all (0,..,0,b,a_{r+1},..,a_{s-1},b',0,..,0) with
    0 < b <= a_r, 0 < b' <= a_s.
    """
    n, a = spec.n, spec.a
    out = {(0,) * n}
    for r in range(n):
        for m in range(1, a[r] + 1):
            p = [0] * n
            p[r] = m
            out.add(tuple(p))
    for r in range(n):
        for s in range(r + 1, n):
            for b in range(1, a[r] + 1):
                for b2 in range(1, a[s] + 1):
                    p = [0] * n
                    p[r] = b
                    p[s] = b2
                    for w in range(r + 1, s):
                        p[w] = a[w]
                    out.add(tuple(p))
    return frozenset(out)


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


def neighbors(t: Tiling, v) -> list:
    """The vertices joined to v by an edge of t: those above, then below."""
    up, down = t.edges_at(v)
    return [shift(v, d) for d in up] + [shift(v, d, -1) for d in down]


@lru_cache(maxsize=None)
def _cube_face_sets(base, dirs) -> tuple:
    return frozenset(cube_bottom_faces(base, dirs)), frozenset(cube_top_faces(base, dirs))


def cube_list(spec: ZonogonSpec) -> list:
    """Every (base, (j, k, l)) unit 3-cube of the box, by direction triple
    and then base in lattice order, from the ranges of the base coordinates."""
    out = []
    for dirs in combinations(range(spec.n), 3):
        ranges = [range(m) if i in dirs else range(m + 1) for i, m in enumerate(spec.a)]
        out += [(tuple(base), dirs) for base in product(*ranges)]
    return out


@lru_cache(maxsize=None)
def cube_moves(spec: ZonogonSpec) -> tuple:
    """The up and the down move on every unit 3-cube of the box."""
    return tuple(FlipMove(base, dirs, direction) for base, dirs, _ in spec.cubes
                 for direction in ("up", "down"))


def flip_by_faces(t: Tiling, move: FlipMove) -> Tiling | None:
    """The face-set flip rule: trade the cube's three bottom rhombi for its
    three top ones (up) or back (down); the result keeps explicit rhombi.
    None when t does not hold the faces the move takes out."""
    bottom, top = _cube_face_sets(move.base, move.dirs)
    old, new = (bottom, top) if move.direction == "up" else (top, bottom)
    if not old <= t.rhombi:
        return None
    return Tiling(t.spec, (t.rhombi - old) | new)


def moves_by_faces(t: Tiling):
    """Every (move, tiling after it) the face-set rule allows at t."""
    for move in cube_moves(t.spec):
        t2 = flip_by_faces(t, move)
        if t2 is not None:
            yield move, t2


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


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def poly_exact_div(p: list, q: list) -> list:
    """p / q for integer polynomials as coefficient lists, lowest degree
    first, by long division; raises ValueError unless q divides p."""
    p, out = list(p), [0] * (len(p) - len(q) + 1)
    for i in reversed(range(len(out))):
        out[i], rem = divmod(p[i + len(q) - 1], q[-1])
        if rem:
            raise ValueError("quotient has a non-integer coefficient")
        for j, y in enumerate(q):
            p[i + j] -= out[i] * y
    if any(p):
        raise ValueError("nonzero remainder")
    return out


def macmahon_rank_counts(a: int, b: int, c: int) -> list:
    """The plane partitions in an a x b x c box counted by size: the
    coefficients of prod (1 - q^(i+j+k-1)) / (1 - q^(i+j+k-2)) over
    1 <= i <= a, 1 <= j <= b, 1 <= k <= c (MacMahon)."""
    num, den = [1], [1]
    for i, j, k in product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        h = i + j + k
        num = _poly_mul(num, [1] + [0] * (h - 2) + [-1])
        den = _poly_mul(den, [1] + [0] * (h - 3) + [-1])
    return poly_exact_div(num, den)


def _nonadjacent_subsets(gaps: list):
    """Every set of pairwise non-adjacent gaps of the sorted list `gaps`, the
    empty set included."""
    if not gaps:
        yield ()
        return
    first, rest = gaps[0], gaps[1:]
    yield from _nonadjacent_subsets(rest)
    for s in _nonadjacent_subsets([g for g in rest if g > first + 1]):
        yield (first, *s)


def wiring_rank_counts(a) -> list:
    """The rhombus tilings of the zonogon with multiplicities `a` counted by
    flip rank, as commutation classes of wiring diagrams (Elnitsky, JCTA 77,
    1997).

    A diagram sweeps the word 1^a1 2^a2 ... n^an to its reverse by swapping
    adjacent ascending letters; a swap at gap i (between positions i and
    i + 1) lays one rhombus and one vertex with coordinate sum i + 1, so with
    each swap weighted q^(i+1) the degree is phi up to a constant.  Classes
    are counted by the Cartier-Foata Moebius recurrence (LNM 85, 1969):
    f(w) is the sum, over nonempty sets S of pairwise non-adjacent ascending
    gaps of w, of (-1)^(|S|+1) times the weight of S times f(w after S), and
    f of the descending word is 1.  Returns the coefficients from the lowest
    degree up, like `macmahon_rank_counts`."""

    @lru_cache(maxsize=None)
    def f(w: tuple) -> dict:
        gaps = [i for i in range(len(w) - 1) if w[i] < w[i + 1]]
        if not gaps:
            return {0: 1}
        out: dict = {}
        for s in _nonadjacent_subsets(gaps):
            if not s:
                continue
            v = list(w)
            for i in s:
                v[i], v[i + 1] = v[i + 1], v[i]
            sign, weight = (-1) ** (len(s) + 1), sum(i + 1 for i in s)
            for d, c in f(tuple(v)).items():
                out[d + weight] = out.get(d + weight, 0) + sign * c
        return out

    poly = {d: c for d, c in f(tuple(i for i, m in enumerate(a) for _ in range(m))).items() if c}
    return [poly.get(d, 0) for d in range(min(poly), max(poly) + 1)]


def tilings_json_by_dumps(tilings) -> str:
    """The `tile --enumerate` document by json's own encoder: one dict per
    tiling, dumped with indent=1."""
    return json.dumps([tiling_to_json(t) for t in tilings], indent=1)


def tropicalize(p: LaurentPoly, x: dict):
    """The max over p's monomials of <exponent, x>: the value at x of the
    max-plus image of p, when p has positive coefficients."""
    return max(sum(e * x[v] for v, e in exps) for exps in p.terms)


def grlex_less(e1, e2) -> bool:
    """Graded lex comparison of two monomials (sorted (variable, exponent)
    tuples) pair by pair: total degree first, then the first exponent that
    differs, walking the sorted union of their variables."""
    g1, g2 = sum(e for _, e in e1), sum(e for _, e in e2)
    if g1 != g2:
        return g1 < g2
    d1, d2 = dict(e1), dict(e2)
    for v in sorted(set(d1) | set(d2)):
        a, b = d1.get(v, 0), d2.get(v, 0)
        if a != b:
            return a < b
    return False


def exchange_polynomial_by_angles(t: Tiling, v) -> LaurentPoly:
    """`paper_lemmas.exchange_polynomial` by planar geometry: the neighbours of v
    sorted counterclockwise by the angle of their projected steps, and the
    far corner of each wedge under half a turn looked up among the rhombi
    with a corner at v."""
    spec = t.spec
    pv = spec.project(v)
    step = {q: tuple(a - b for a, b in zip(spec.project(q), pv)) for q in neighbors(t, v)}

    def half(u):  # 0 for angles in [0, pi), 1 for [pi, 2 pi)
        return 0 if u[1] > 0 or (u[1] == 0 and u[0] > 0) else 1

    def ccw(q1, q2):
        u, w = step[q1], step[q2]
        return half(u) - half(w) or -cross(u, w)

    nbrs = sorted(step, key=cmp_to_key(ccw))
    faces = [rhombus_corners(rh) for rh in t.rhombi if v in rhombus_corners(rh)]
    total = LaurentPoly()
    for i, a1 in enumerate(nbrs):
        a2 = nbrs[(i + 1) % len(nbrs)]
        far = None
        if cross(step[a1], step[a2]) > 0:
            far = next((p for cs in faces if a1 in cs and a2 in cs
                        for p in cs if p not in (v, a1, a2)), None)
        term = LaurentPoly.const(1) if far is None else LaurentPoly.var(far)
        for q in nbrs:
            if far is None or q not in (a1, a2):
                term = term * LaurentPoly.var(q)
        total = total + term
    return total


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


def random_tiling_by_census(spec: ZonogonSpec, rng) -> Tiling:
    """The random walk of `flips.random_tiling` with a full flippable-vertex
    census and a new tiling at every step: 3R to 4R flips from t_min for R
    rhombi, each at a flippable vertex drawn in sorted order."""
    t = t_min(spec)
    steps = 3 * spec.rhombus_count + rng.randrange(spec.rhombus_count + 1)
    for _ in range(steps):
        down, up = flippable_vertices(t)
        t, _ = apply_flip(t, rng.choice(sorted(down | up)))
    return t


def replay(start, moves) -> list:
    """All tilings along the flip path of `moves` from `start`, starting with
    `start`."""
    out = [start]
    for m in moves:
        out.append(apply_move(out[-1], m))
    return out


def _fm_row(a, b, strict) -> tuple:
    """The row a.x + b > 0 (or >= 0) scaled by a positive factor, so that
    rows that are positive multiples of one another are one tuple."""
    scale = max(map(abs, (*a, b))) or 1
    return tuple(Fraction(c) / scale for c in a), Fraction(b) / scale, strict


def fourier_motzkin_feasible(rows) -> bool:
    """Whether some rational x satisfies every row (a, b, strict), which
    reads a.x + b > 0 when strict and a.x + b >= 0 otherwise.

    Exact Fourier-Motzkin elimination over `Fraction`s (Schrijver, Theory of
    Linear and Integer Programming, 1986, section 12.2): each variable is
    eliminated by adding every row where it is positive to every row where it
    is negative, with positive weights that cancel it; a sum is strict when
    either summand is.  The system is infeasible exactly when a row with no
    variable left is false.
    """
    rows = {_fm_row(*row) for row in rows}
    for i in range(len(next(iter(rows))[0]) if rows else 0):
        pos = [r for r in rows if r[0][i] > 0]
        neg = [r for r in rows if r[0][i] < 0]
        rows = {r for r in rows if r[0][i] == 0}
        for a1, b1, s1 in pos:
            for a2, b2, s2 in neg:
                w1, w2 = -a2[i], a1[i]
                rows.add(_fm_row(tuple(w1 * x + w2 * y for x, y in zip(a1, a2)),
                                 w1 * b1 + w2 * b2, s1 or s2))
    return all(b > 0 if strict else b >= 0 for _, b, strict in rows)


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


def rref(rows):
    """Reduced row echelon form over Fractions; returns (rows, pivot column
    list)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace_by_rref(rows, ncols):
    """Basis of the right kernel read off the Fraction rref: for each free
    column, 1 there and minus that column of the reduced rows at the pivots."""
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def inner(v1: Vector2n, v2: Vector2n) -> Fraction:
    """The pairing <(w1,f1),(w2,f2)> = (f1(w2) + f2(w1))/2 on Fractions."""
    return Fraction(sum(a * b for a, b in zip(v1.wv, v2.w))
                    + sum(a * b for a, b in zip(v1.w, v2.wv)), 2)


def clifford_action_rows(sub) -> list:
    """The (dim 2^n) x 2^n matrix of the Clifford action of a subspace's
    basis, tall and sparse; its kernel is the spinors the basis annihilates."""
    n = sub.n
    rows = []
    for v in sub.basis:
        cols = [clifford_act(v, Spinor.basis(n, m)).coords for m in range(1 << n)]
        rows += [[col[out] for col in cols] for out in range(1 << n)]
    return rows


def canonical_spinor(s: Spinor) -> Spinor:
    """The multiple of a nonzero spinor with integer coordinates of gcd 1
    and its first nonzero coordinate positive."""
    den = lcm(*(c.denominator for c in s.coords))
    ints = [int(c * den) for c in s.coords]
    g = gcd(*ints) if next(x for x in ints if x) > 0 else -gcd(*ints)
    return Spinor(s.n, [x // g for x in ints])


def pure_spinor_by_kernel(sub) -> Spinor:
    """Pure spinor of a maximal isotropic subspace as the joint kernel of its
    Clifford action, by one dense rational solve of size (n 2^n) x 2^n."""
    n = sub.n
    if sub.dim != n:
        raise SpinorError("pure spinors come from maximal isotropic subspaces")
    kernel = nullspace(clifford_action_rows(sub), 1 << n)
    if len(kernel) != 1:
        raise SpinorError(f"solution space dimension {len(kernel)} != 1")
    s = canonical_spinor(Spinor(n, kernel[0]))
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


def spin_coordinates_by_extensions(sub) -> Spinor:
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
        s = pure_spinor_by_kernel(IsotropicSubspace(sub.basis + (line,)))
        spinors[s.parity()] = s
    if set(spinors) != {0, 1}:
        raise SpinorError("extensions do not have opposite parities")
    return Spinor(n, [spinors[m.bit_count() % 2].coords[m] for m in range(1 << n)])


def intersect_spans(rows1, rows2):
    """Basis of span(rows1) & span(rows2)."""
    if not rows1 or not rows2:
        return []
    ncols = len(rows1[0])
    sys_rows = []
    # solve lambda * rows1 - mu * rows2 = 0 by transposing
    for c in range(ncols):
        sys_rows.append(
            [Fraction(rows1[i][c]) for i in range(len(rows1))]
            + [-Fraction(rows2[j][c]) for j in range(len(rows2))]
        )
    out = []
    for sol in nullspace_by_rref(sys_rows, len(rows1) + len(rows2)):
        lam = sol[: len(rows1)]
        vec = [
            sum(lam[i] * Fraction(rows1[i][c]) for i in range(len(rows1)))
            for c in range(ncols)
        ]
        if any(vec):
            out.append(vec)
    red, _ = rref(out)
    return red


def projection_pi(point_mask: int, dirs, s: Spinor) -> Spinor:
    """Contract by the marked index set, then restrict to three directions.

    point_mask selects the coordinates of I (which must avoid dirs); the
    result is a spinor on 3 indices in the order given by dirs.
    """
    j, k, l = dirs
    if point_mask & ((1 << j) | (1 << k) | (1 << l)):
        raise SpinorError("marked point must have zero coordinates on dirs")
    cur = s
    n = s.n
    for i in range(n):
        if point_mask & (1 << i):
            cur = clifford_act(eps_dual(i, n), cur)
    out = Spinor(3)
    keep = (1 << j) | (1 << k) | (1 << l)
    for mask, c in enumerate(cur.coords):
        if not c or mask & ~keep:
            continue
        small = (
            (1 if mask & (1 << j) else 0)
            | (2 if mask & (1 << k) else 0)
            | (4 if mask & (1 << l) else 0)
        )
        out.coords[small] = c
    return out


def random_unit_vector(rng, n: int) -> Vector2n:
    """A random vector of exact norm 1 (rational circle/hyperbola points)."""
    i = rng.randrange(n)
    j = rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    # plus = e_i + e_i*, minus = e_j - e_j*: norms +1 and -1, orthogonal
    t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if rng.random() < 0.5:
        alpha = (1 - t * t) / (1 + t * t)
        beta = 2 * t / (1 + t * t)
        u = eps(j, n)
        ud = eps_dual(j, n)
        other_w = tuple(beta * (a + b) for a, b in zip(u.w, ud.w))
        other_wv = tuple(beta * (a + b) for a, b in zip(u.wv, ud.wv))
    else:
        alpha = (t * t + 1) / (2 * t)
        beta = (t * t - 1) / (2 * t)
        u = eps(j, n)
        ud = eps_dual(j, n)
        other_w = tuple(beta * (a - b) for a, b in zip(u.w, ud.w))
        other_wv = tuple(beta * (a - b) for a, b in zip(u.wv, ud.wv))
    base = eps(i, n)
    based = eps_dual(i, n)
    w = tuple(alpha * (a + b) + c for a, b, c in zip(base.w, based.w, other_w))
    wv = tuple(alpha * (a + b) + c for a, b, c in zip(base.wv, based.wv, other_wv))
    v = Vector2n(w, wv)
    if inner(v, v) != 1:
        raise SpinorError("unit construction failed")
    return v


# The spinor construction on Fraction coordinates: the library computes the
# same lines on primitive integer vectors, and must give equal coordinates.


def _sign_below(mask: int, i: int) -> int:
    return -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1


def clifford_act_by_signs(v: Vector2n, s: Spinor) -> Spinor:
    """Module action on Fractions, the sign of each index counted afresh from
    the mask bits below it."""
    out = Spinor(s.n)
    for mask, c in enumerate(s.coords):
        if not c:
            continue
        for i in range(s.n):
            bit = 1 << i
            if v.w[i] and not mask & bit:
                out.coords[mask | bit] += _sign_below(mask, i) * v.w[i] * c
            if v.wv[i] and mask & bit:
                out.coords[mask & ~bit] += _sign_below(mask, i) * v.wv[i] * c
    return out


def _fraction_products(basis, n: int):
    """Nonzero Fraction products v_1 ... v_k . e_S, e_S in mask order."""
    for mask in range(1 << n):
        s = Spinor.basis(n, mask)
        for v in reversed(basis):
            s = clifford_act_by_signs(v, s)
        if not s.is_zero():
            yield s


def _fraction_annihilated(basis, s: Spinor) -> Spinor:
    if any(not clifford_act_by_signs(v, s).is_zero() for v in basis):
        raise SpinorError("subspace does not annihilate its Clifford product")
    s = canonical_spinor(s)
    if s.parity() is None:
        raise SpinorError("pure spinor is not parity homogeneous")
    return s


def pure_spinor_by_fractions(sub) -> Spinor:
    """Chevalley's first nonzero Clifford product of a maximal isotropic
    basis, computed on Fractions."""
    n = sub.n
    if sub.dim != n:
        raise SpinorError("pure spinors come from maximal isotropic subspaces")
    s = next(_fraction_products(sub.basis, n), None)
    if s is None:
        raise SpinorError("Clifford product of the basis is zero")
    return _fraction_annihilated(sub.basis, s)


def spin_coordinates_by_fractions(sub) -> Spinor:
    """Spin coordinates of an isotropic K of dimension n-1 from the first
    Fraction Clifford product of each parity, with K checked by Fraction
    elimination and the pairing."""
    n = sub.n
    if sub.dim != n - 1:
        raise SpinorError("expected an isotropic subspace of dimension n-1")
    if len(rref([v.flat() for v in sub.basis])[0]) != sub.dim:
        raise SpinorError("basis vectors are linearly dependent")
    if any(inner(a, b) for a in sub.basis for b in sub.basis):
        raise SpinorError("subspace is not isotropic")
    found = {}
    for s in _fraction_products(sub.basis, n):
        if s.parity() not in found:
            found[s.parity()] = _fraction_annihilated(sub.basis, s)
            if len(found) == 2:
                break
    else:
        raise SpinorError("Clifford products of K do not reach both parities")
    return Spinor(n, [found[m.bit_count() % 2].coords[m] for m in range(1 << n)])


def reflect(v: Vector2n, x: Vector2n) -> Vector2n:
    """Orthogonal reflection of x in the hyperplane normal to v."""
    q = inner(v, v)
    if q == 0:
        raise SpinorError("cannot reflect in an isotropic vector")
    f = 2 * inner(x, v) / q
    return Vector2n.from_flat([a - f * b for a, b in zip(x.flat(), v.flat())])


def _random_fraction(rng, lo=-5, hi=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def random_anisotropic_vector(rng, n: int) -> Vector2n:
    while True:
        v = Vector2n(
            tuple(_random_fraction(rng) for _ in range(n)),
            tuple(_random_fraction(rng) for _ in range(n)),
        )
        if inner(v, v) != 0:
            return v


def random_isotropic_subspace_by_reflections(rng, n: int, dim: int,
                                             reflections: int = 8):
    """The coordinate subspace spanned by eps_0..eps_{dim-1}, moved by
    Fraction reflections in the same random mirrors as the library draws."""
    vecs = [eps(i, n) for i in range(dim)]
    for _ in range(reflections):
        mirror = random_anisotropic_vector(rng, n)
        vecs = [reflect(mirror, v) for v in vecs]
    return IsotropicSubspace(tuple(vecs))


def wall_inequalities_by_shifts(labeling, w, edge) -> tuple:
    """The wall inequalities at the edge (p, i) by shifting points in the
    labeling's box: the head q = p + e_i, the pairs (p + e_s, q - e_s) and
    (p - e_s, q + e_s) that lie in that box, and whether x(p) + x(q) is at
    least the sum over each of them (a pair outside the box holds
    vacuously)."""
    p, i = edge
    s, spec, x = w.s, labeling.spec, labeling.values
    q = shift(p, i)
    pairs = tuple((a, b) for a, b in ((shift(p, s), shift(q, s, -1)),
                                      (shift(p, s, -1), shift(q, s)))
                  if spec.contains(a) and spec.contains(b))
    return q, pairs, all(x[p] + x[q] >= x[a] + x[b] for a, b in pairs)
