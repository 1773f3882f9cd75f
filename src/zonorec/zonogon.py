"""Lattice model of a zonogon and its rhombus tilings.

A spec fixes positive side multiplicities ``a = (a_1, ..., a_n)`` and n exact
planar direction vectors with strictly increasing angles in (0, pi).  The
lattice box ``Pi = prod {0..a_i}`` projects onto the zonogon ``P`` via
``I -> sum_i I_i * v_i``; a tiling is a set of unit rhombi (base point plus an
unordered direction pair) whose projection decomposes P, and is determined by
the set of their corners, its vertices.

Everything here is exact: direction vectors are integer (or Fraction) pairs,
so all geometric predicates (left/right, higher/lower, incidence) are integer
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd

Point = tuple[int, ...]
Vec2 = tuple  # planar vector, integer or Fraction entries
Edge = tuple  # (base, d): the segment base -> base + e_d
Rhombus = tuple  # (base, (j, k)) with j < k


class LiftError(ValueError):
    pass


def unit(n: int, d: int) -> Point:
    return tuple(1 if i == d else 0 for i in range(n))


def shift(p: Point, d: int, step: int = 1) -> Point:
    return tuple(c + step if i == d else c for i, c in enumerate(p))


def shift2(p: Point, d1: int, d2: int, step: int = 1) -> Point:
    return tuple(
        c + step * ((i == d1) + (i == d2)) for i, c in enumerate(p)
    )


def cross(u: Vec2, v: Vec2):
    return u[0] * v[1] - u[1] * v[0]


def default_directions(n: int) -> tuple[Vec2, ...]:
    """Integer direction vectors with strictly increasing angles in (0, pi).

    Uses the tangent-half-angle substitution t = i/(n+1-i): the vector
    (q^2 - p^2, 2pq) for t = p/q points at angle 2*atan(t), which sweeps
    (0, pi) monotonically as t runs through (0, inf).
    """
    vecs = []
    for i in range(1, n + 1):
        t = Fraction(i, n + 1 - i)
        p, q = t.numerator, t.denominator
        x, y = q * q - p * p, 2 * p * q
        g = gcd(abs(x), y)
        vecs.append((x // g, y // g))
    return tuple(vecs)


class ZonogonSpec:
    """Side multiplicities plus exact planar directions for the zonogon."""

    def __init__(self, a, vectors=None):
        a = tuple(int(x) for x in a)
        if len(a) < 3:
            raise ValueError("need n >= 3 directions")
        if any(x < 1 for x in a):
            raise ValueError("side multiplicities must be >= 1")
        self.a = a
        self.n = len(a)
        self.vectors = tuple(tuple(v) for v in (vectors or default_directions(self.n)))
        if len(self.vectors) != self.n:
            raise ValueError("need one direction vector per multiplicity")
        for v in self.vectors:
            if v[1] <= 0:
                raise ValueError("direction vectors must point into the upper half plane")
        for (i, u), (j, v) in combinations(enumerate(self.vectors), 2):
            if cross(u, v) <= 0:
                raise ValueError(f"angles not strictly increasing at directions {i},{j}")

    def __eq__(self, other):
        return (
            isinstance(other, ZonogonSpec)
            and self.a == other.a
            and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash((self.a, self.vectors))

    def __repr__(self):
        return f"ZonogonSpec({list(self.a)})"

    def contains(self, p: Point) -> bool:
        return len(p) == self.n and all(0 <= c <= m for c, m in zip(p, self.a))

    def project(self, p: Point) -> Vec2:
        x = sum(c * v[0] for c, v in zip(p, self.vectors))
        y = sum(c * v[1] for c, v in zip(p, self.vectors))
        return (x, y)

    def height(self, p: Point):
        return sum(c * v[1] for c, v in zip(p, self.vectors))

    def lattice_points(self):
        return (tuple(p) for p in product(*(range(m + 1) for m in self.a)))

    @property
    def rhombus_count(self) -> int:
        return sum(self.a[i] * self.a[j] for i, j in combinations(range(self.n), 2))

    @property
    def vertex_count(self) -> int:
        return self.rhombus_count + sum(self.a) + 1

    @cached_property
    def boundary_cycle(self) -> tuple[Point, ...]:
        """Boundary vertices of P in counterclockwise order, starting at 0."""
        pts = []
        p = (0,) * self.n
        for d in range(self.n):
            for _ in range(self.a[d]):
                pts.append(p)
                p = shift(p, d, 1)
        for d in range(self.n):
            for _ in range(self.a[d]):
                pts.append(p)
                p = shift(p, d, -1)
        return tuple(pts)

    @cached_property
    def boundary_vertices(self) -> frozenset:
        return frozenset(self.boundary_cycle)

    def is_boundary_edge(self, e: Edge) -> bool:
        base, d = e
        right = all(base[w] == self.a[w] for w in range(d)) and all(
            base[w] == 0 for w in range(d + 1, self.n)
        )
        left = all(base[w] == 0 for w in range(d)) and all(
            base[w] == self.a[w] for w in range(d + 1, self.n)
        )
        return right or left

    def cubes(self):
        """All (base, (j,k,l)) unit 3-cubes contained in the box."""
        for dirs in combinations(range(self.n), 3):
            ranges = [
                range(m) if i in dirs else range(m + 1)
                for i, m in enumerate(self.a)
            ]
            for base in product(*ranges):
                yield tuple(base), dirs


def rhombus_corners(rh: Rhombus) -> tuple[Point, Point, Point, Point]:
    base, (j, k) = rh
    return (base, shift(base, j), shift(base, k), shift2(base, j, k))


def rhombus_edges(rh: Rhombus) -> tuple[Edge, Edge, Edge, Edge]:
    base, (j, k) = rh
    return ((base, j), (base, k), (shift(base, j), k), (shift(base, k), j))


class Tiling:
    """A rhombus tiling, identified by its vertex set: its rhombi are the unit
    parallelograms with four vertex corners.  `Tiling(spec, rhombi)` keeps the
    given rhombi, for `validate_tiling`; `from_vertices` derives them on use."""

    def __init__(self, spec: ZonogonSpec, rhombi):
        self.spec = spec
        self.rhombi = frozenset(
            (tuple(base), (min(d), max(d))) for base, d in rhombi
        )
        out = set()
        for rh in self.rhombi:
            out.update(rhombus_corners(rh))
        self.vertices = frozenset(out)

    @classmethod
    def from_vertices(cls, spec: ZonogonSpec, vertices: frozenset) -> "Tiling":
        t = cls.__new__(cls)
        t.spec = spec
        t.vertices = vertices
        return t

    def __eq__(self, other):
        return (
            isinstance(other, Tiling)
            and self.spec == other.spec
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.spec, self.vertices))

    def __repr__(self):
        return f"Tiling({self.spec!r}, {len(self.vertices)} vertices)"

    def canonical_rhombi(self) -> list[Rhombus]:
        return sorted(self.rhombi)

    @cached_property
    def rhombi(self) -> frozenset:
        out = []
        for v in self.vertices:
            up = self._up_dirs(v)
            out.extend((v, (j, k)) for j, k in combinations(up, 2)
                       if shift2(v, j, k) in self.vertices)
        return frozenset(out)

    @cached_property
    def edge_rhombi(self) -> dict:
        out: dict = {}
        for rh in self.rhombi:
            for e in rhombus_edges(rh):
                out.setdefault(e, []).append(rh)
        return out

    def _up_dirs(self, v: Point) -> list[int]:
        """The d with v + e_d a vertex (probed by slicing: this is a hot loop)."""
        return [d for d, c in enumerate(v) if v[:d] + (c + 1,) + v[d + 1:] in self.vertices]

    def edges_at(self, v: Point):
        """(up, down) edge directions at vertex v: the 1-skeleton is a partial
        cube, so v, v + e_d are joined exactly when both are vertices."""
        down = [d for d, c in enumerate(v) if v[:d] + (c - 1,) + v[d + 1:] in self.vertices]
        return tuple(self._up_dirs(v)), tuple(down)

    def neighbors(self, v: Point) -> list[Point]:
        up, down = self.edges_at(v)
        return [shift(v, d) for d in up] + [shift(v, d, -1) for d in down]

    def is_internal(self, v: Point) -> bool:
        return v not in self.spec.boundary_vertices

    def rhombi_at(self, v: Point) -> list[Rhombus]:
        return [rh for rh in self.rhombi if v in rhombus_corners(rh)]


def phi(t: Tiling) -> int:
    """Sum of coordinate sums over the vertex set; drops by 1 per downward flip."""
    return sum(sum(v) for v in t.vertices)


class TilingReport:
    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        return "ok" if self.ok else f"violations: {self.violations}"


def validate_tiling(t: Tiling) -> TilingReport:
    """Check that t's rhombi tile P by sweeping them with a wiring diagram
    (Elnitsky, JCTA 77, 1997): from the lower boundary, swap an ascending
    adjacent pair d < d' at gap i whenever the rhombus (counts of the lines
    below i, (d, d')) is given.  Each swept rhombus sits just above the
    current monotone path, so none overlap, and sum a_i a_j swaps reach the
    upper boundary.  So the rhombi tile P exactly when they lie in the box,
    there are sum a_i a_j of them, and the sweep uses them all up.
    """
    spec = t.spec
    outside = [rh for rh in t.rhombi if not all(map(spec.contains, rhombus_corners(rh)))]
    if outside:
        return TilingReport([f"rhombus outside box: {min(outside)}"])

    violations = []
    if len(t.rhombi) != spec.rhombus_count:
        violations.append(f"rhombus count {len(t.rhombi)} != {spec.rhombus_count}")

    line = _SweepLine(spec)
    laid = line.sweep(t.rhombi)
    if len(laid) < spec.rhombus_count:
        edges = [(p, d) for p, (d, _) in zip(line.path, line.word)]
        left = t.rhombi.difference(laid)
        leftover = f", leaving rhombus {min(left)}" if left else ""
        violations.append(f"sweep stops at edges {edges}{leftover}")

    return TilingReport(violations)


def project(spec: ZonogonSpec, obj):
    """Project a lattice point, or all vertices of a tiling, to the plane."""
    if isinstance(obj, Tiling):
        return {v: spec.project(v) for v in obj.vertices}
    return spec.project(obj)


# ---------------------------------------------------------------------------
# canonical constructions


class _SweepLine:
    """One line of a wiring diagram (Elnitsky, JCTA 77, 1997): a word of lines
    bottom to top, copy c of direction d written (d, c), with a_d copies of
    each direction and starting in direction order, together with the
    monotone lattice path of its prefixes.

    Swapping adjacent lines d < d' at gap i lays the rhombus
    (path[i], (d, d')) and moves path[i + 1] across it.  Only ascending pairs
    swap, so each pair of lines crosses once and the swaps tile P.
    """

    def __init__(self, spec: ZonogonSpec):
        self.word = [(d, c) for d in range(spec.n) for c in range(spec.a[d])]
        self.path = [(0,) * spec.n]
        for d, _ in self.word:
            self.path.append(shift(self.path[-1], d))

    def swap(self, i: int) -> Rhombus:
        word, path = self.word, self.path
        rh = (path[i], (word[i][0], word[i + 1][0]))
        word[i], word[i + 1] = word[i + 1], word[i]
        path[i + 1] = shift(path[i], word[i][0])
        return rh

    def sweep(self, allowed=None) -> list[Rhombus]:
        """Swap the lowest ascending pair (whose rhombus is in `allowed`, if
        given) until none is left; return the rhombi laid."""
        word, path, laid = self.word, self.path, []
        i = 0
        while i < len(word) - 1:
            d, d2 = word[i][0], word[i + 1][0]
            if d < d2 and (allowed is None or (path[i], (d, d2)) in allowed):
                laid.append(self.swap(i))
                i = max(i - 1, 0)
            else:
                i += 1
        return laid


def _wiring_tiling(spec: ZonogonSpec, front: Point, middle=(), swaps=()) -> Tiling:
    """The tiling swept out by one wiring diagram; every prefix of every
    intermediate word is a vertex of the tiling.

    First the front lines (copy c of d with c < front[d]) bubble, stably,
    below all others, so `front` becomes a vertex.  Then the next copies of
    the `middle` directions bubble just above them, and `swaps` are made at
    these gap offsets past the front.  Last, the lowest ascending pair swaps
    until none is left.
    """
    wiring, rhombi = _SweepLine(spec), []
    lines = [(d, c) for d, c in wiring.word if c < front[d]] + [(d, front[d]) for d in middle]
    for to, line in enumerate(lines):
        for i in range(wiring.word.index(line) - 1, to - 1, -1):
            rhombi.append(wiring.swap(i))
    for off in swaps:
        rhombi.append(wiring.swap(sum(front) + off))
    return Tiling(spec, rhombi + wiring.sweep())


def t_min(spec: ZonogonSpec) -> Tiling:
    """The unique tiling with no downward flip: the wiring diagram that always
    swaps the lowest ascending pair."""
    return _wiring_tiling(spec, (0,) * spec.n)


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


def tiling_through_vertex(spec: ZonogonSpec, p: Point) -> Tiling:
    """A tiling having p among its vertices: the lines below p swap first."""
    if not spec.contains(p):
        raise ValueError(f"{p} outside the box")
    return _wiring_tiling(spec, p)


def tiling_with_cube_faces(spec: ZonogonSpec, base: Point, dirs, side: str) -> Tiling:
    """A tiling containing the three bottom (or top) faces of a unit 3-cube.

    Bottom faces are the three facets through base + e_k (middle direction);
    top faces the three through base + e_j + e_l.  In the wiring diagram the
    lines j, k, l sit just above the lines below base, and the three swaps
    among them lay the requested faces.
    """
    j, k, l = dirs
    if not (0 <= j < k < l < spec.n):
        raise ValueError("directions must satisfy j < k < l")
    top_corner = tuple(base[w] + (w in dirs) for w in range(spec.n))
    if not (spec.contains(base) and spec.contains(top_corner)):
        raise ValueError("cube not contained in the box")
    if side not in ("bottom", "top"):
        raise ValueError("side must be 'bottom' or 'top'")
    swaps = (0, 1, 0) if side == "bottom" else (1, 0, 1)
    return _wiring_tiling(spec, base, dirs, swaps)


# ---------------------------------------------------------------------------
# lifting planar rhombus decompositions back to the lattice


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
    t = Tiling(spec, rhombi)
    report = validate_tiling(t)
    if not report.ok:
        raise LiftError(f"not covering P: {report.violations[0]}")
    return t
