"""Lattice model of a zonogon and its rhombus tilings.

A spec fixes positive side multiplicities ``a = (a_1, ..., a_n)``; its n
planar direction vectors are ``default_directions(n)``, integer vectors with
strictly increasing angles in (0, pi).  The lattice box ``Pi = prod {0..a_i}``
projects onto the zonogon ``P`` via ``I -> sum_i I_i * v_i``; a tiling is a
set of unit rhombi (base point plus an unordered direction pair) whose
projection decomposes P, and is determined by the set of their corners, its
vertices, held as a bitmask over the box's sorted lattice points.

Everything here is exact: direction vectors are integer pairs, so all
geometric predicates (left/right, higher/lower, incidence) are integer
arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, product
from math import gcd
from operator import mul

Point = tuple[int, ...]
Vec2 = tuple  # planar vector, integer or Fraction entries
Edge = tuple  # (base, d): the segment base -> base + e_d
Rhombus = tuple  # (base, (j, k)) with j < k


def shift(p: Point, d: int, step: int = 1) -> Point:
    return tuple(c + step if i == d else c for i, c in enumerate(p))


def shift2(p: Point, d1: int, d2: int, step: int = 1) -> Point:
    return tuple(
        c + step * ((i == d1) + (i == d2)) for i, c in enumerate(p)
    )


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

    def __init__(self, a):
        a = tuple(int(x) for x in a)
        if len(a) < 3:
            raise ValueError("need n >= 3 directions")
        if any(x < 1 for x in a):
            raise ValueError("side multiplicities must be >= 1")
        self.a = a
        self.n = len(a)
        self.vectors = default_directions(self.n)

    def __eq__(self, other):
        return isinstance(other, ZonogonSpec) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

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

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The lattice points of the box in product order, which is sorted;
        bit i of a tiling's `mask` is `points[i]`."""
        return tuple(product(*(range(m + 1) for m in self.a)))

    @cached_property
    def index(self) -> dict:
        """Each lattice point's position in `points`."""
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The direction pairs j < k of a rhombus, in sorted order."""
        return tuple(combinations(range(self.n), 2))

    @property
    def size(self) -> int:
        """The number of lattice points in the box."""
        return self.strides[0] * (self.a[0] + 1)

    def position(self, p: Point) -> int:
        """`index[p]`, by strides: no table of the box is built."""
        return sum(map(mul, p, self.strides))

    def point(self, i: int) -> Point:
        """`points[i]`, by strides: no table of the box is built."""
        return tuple([i // s % (m + 1) for s, m in zip(self.strides, self.a)])

    def rank(self, rh: Rhombus) -> int:
        """The rhombus as an integer: its base's position in `points` times
        the number of `pairs`, plus the position of its pair among them.
        Ranks order as the rhombi do, and `rhombus` decodes one."""
        base, (j, k) = rh
        # the pairs before (j, k): those with a first direction below j, then
        # (j, j + 1), ..., (j, k - 1)
        return (self.position(base) * len(self.pairs)
                + j * (2 * self.n - j - 1) // 2 + k - j - 1)

    def rhombus(self, rank: int) -> Rhombus:
        """The rhombus of this `rank`."""
        i, pair = divmod(rank, len(self.pairs))
        return (self.point(i), self.pairs[pair])

    @property
    def rhombus_count(self) -> int:
        return sum(self.a[j] * self.a[k] for j, k in self.pairs)

    @property
    def top_rank(self) -> int:
        """The flip rank of the top tiling above t_min, sum a_j a_k a_l over
        j < k < l: a chain of up flips between them makes one per triple of
        crossing lines of the wiring diagram.  The elementary symmetric sums
        are built one multiplicity at a time, in time linear in n."""
        e = [1, 0, 0, 0]
        for x in self.a:
            for d in (3, 2, 1):
                e[d] += e[d - 1] * x
        return e[3]

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

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """How far `points[i] + e_d` lies from `points[i]` in `points`, per
        direction d: points runs the last coordinate fastest."""
        out = [1] * self.n
        for d in range(self.n - 2, -1, -1):
            out[d] = out[d + 1] * (self.a[d + 1] + 1)
        return tuple(out)

    @cached_property
    def cube_offsets(self) -> dict:
        """Per direction triple j < k < l, how far each corner of a unit cube
        lies from its base in `points`, in `FlipMove.corners` order: the
        hexagon o, j, l, jk, kl, jkl, then k and jl."""
        out = {}
        for dirs in combinations(range(self.n), 3):
            j, k, l = (self.strides[d] for d in dirs)
            out[dirs] = (0, j, l, j + k, k + l, j + k + l, k, j + l)
        return out

    @cached_property
    def cube_bits(self) -> dict:
        """Per direction triple j < k < l, the bits of a unit cube based at
        `points[0]`, from `cube_offsets`: (hexagon, k, jl), the mask of the
        six hexagon corners and the bits of corners k and jl.  Shifted left
        by a base's index, they are the bits of the cube at that base."""
        return {dirs: (sum(1 << o for o in offsets[:6]), 1 << offsets[6], 1 << offsets[7])
                for dirs, offsets in self.cube_offsets.items()}

    @cached_property
    def cubes(self) -> tuple:
        """Every unit 3-cube of the box as (base, (j, k, l), corners), by
        direction triple and then base in lattice order, the corners read
        from `cube_offsets`.  Each lattice point is one tuple shared by all
        its cubes."""
        points, out = self.points, []
        for dirs, offsets in self.cube_offsets.items():
            for at, p in enumerate(points):
                if all(p[d] < self.a[d] for d in dirs):
                    out.append((p, dirs, tuple(points[at + o] for o in offsets)))
        return tuple(out)


def rhombus_corners(rh: Rhombus) -> tuple[Point, Point, Point, Point]:
    base, (j, k) = rh
    return (base, shift(base, j), shift(base, k), shift2(base, j, k))


class Tiling:
    """A rhombus tiling, held only as its vertex set `mask`: bit i is set when
    `spec.points[i]` is a vertex.  Its vertices and rhombi (the unit
    parallelograms with four vertex corners) are read from it by strides.
    `Tiling(spec, rhombi)` is the tiling of the rhombi's corners (in the box)."""

    def __init__(self, spec: ZonogonSpec, rhombi):
        corners = {p for rh in rhombi for p in rhombus_corners(rh)}
        if outside := [p for p in corners if not spec.contains(p)]:
            raise ValueError(f"vertex {min(outside)} outside the box of {spec!r}")
        self.spec, self.mask = spec, _mask(spec, map(spec.position, corners))

    @classmethod
    def from_mask(cls, spec: ZonogonSpec, mask: int) -> "Tiling":
        """The tiling with this vertex bitmask."""
        t = cls.__new__(cls)
        t.spec, t.mask = spec, mask
        return t

    def __eq__(self, other):
        return isinstance(other, Tiling) and (self.spec, self.mask) == (other.spec, other.mask)

    def __hash__(self):
        return hash((self.spec, self.mask))

    def __repr__(self):
        return f"Tiling({self.spec!r}, {self.mask.bit_count()} vertices)"

    def canonical_rhombi(self) -> tuple[Rhombus, ...]:
        """The rhombi in sorted order, decoded from `ranks`."""
        return tuple(map(self.spec.rhombus, self.ranks))

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """The rhombi's `ZonogonSpec.rank`s in increasing order, which the flip
        search sets; else vertex i is the base of pair (j, k) when digits j, k of
        i are below a_j, a_k and i + stride_j, i + stride_k and their sum are too."""
        spec, s = self.spec, self.spec.strides
        bits = f"{self.mask:0{spec.size}b}"[::-1]  # bits[i] is bit i
        out = []
        for i in (one.start() for one in re.finditer("1", bits)):
            up = [i // t % (m + 1) < m and bits[i + t] == "1" for t, m in zip(s, spec.a)]
            out += [i * len(spec.pairs) + r for r, (j, k) in enumerate(spec.pairs)
                    if up[j] and up[k] and bits[i + s[j] + s[k]] == "1"]
        return tuple(out)

    @property
    def vertices(self) -> frozenset:
        ones = [one.start() for one in re.finditer("1", bin(self.mask)[:1:-1])]
        radix = zip(self.spec.strides, self.spec.a)
        return frozenset(zip(*([i // s % (m + 1) for i in ones] for s, m in radix)))

    @property
    def rhombi(self) -> frozenset:
        return frozenset(self.canonical_rhombi())


def _mask(spec: ZonogonSpec, positions) -> int:
    """The bitmask of these positions in `spec.points`, built in one step
    from bytes: OR-ing single bits into a growing int is quadratic."""
    buf = bytearray(spec.size // 8 + 1)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


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
    """Whether t's vertex set is a tiling's: whether its rhombi tile P."""
    return _check_rhombi(t.spec, t.rhombi)


def _check_rhombi(spec: ZonogonSpec, rhombi: frozenset) -> TilingReport:
    """Check that a set of rhombi (base, (j, k)) with j < k tiles P by
    sweeping them with a wiring diagram (Elnitsky, JCTA 77, 1997): from the
    lower boundary, swap an ascending adjacent pair d < d' at gap i whenever
    the rhombus (counts of the lines below i, (d, d')) is given.  Each swept
    rhombus sits just above the current monotone path, so none overlap, and
    sum a_i a_j swaps reach the upper boundary.  So the rhombi tile P exactly
    when they lie in the box, there are sum a_i a_j of them, and the sweep
    uses them all up.
    """
    outside = [rh for rh in rhombi if not all(map(spec.contains, rhombus_corners(rh)))]
    if outside:
        return TilingReport([f"rhombus outside box: {min(outside)}"])

    violations = []
    if len(rhombi) != spec.rhombus_count:
        violations.append(f"rhombus count {len(rhombi)} != {spec.rhombus_count}")
        # A tiling has at least a_d rhombi with a side in direction d; fewer
        # rhombi than that cannot be one, and the sweep line, of sum(a)
        # lines, would cost time and memory linear in a huge a_d.
        if max(spec.a) > len(rhombi):
            return TilingReport(violations)

    line = _SweepLine(spec)
    given = {(spec.position(base), j, k) for base, (j, k) in rhombi}
    laid = line.sweep(given)
    if len(laid) < spec.rhombus_count:
        edges = [(spec.point(i), d) for i, (d, _) in zip(line.path, line.word)]
        left = [(spec.point(i), (j, k)) for i, j, k in given.difference(laid)]
        leftover = f", leaving rhombus {min(left)}" if left else ""
        violations.append(f"sweep stops at edges {edges}{leftover}")

    return TilingReport(violations)


# ---------------------------------------------------------------------------
# canonical constructions


class _SweepLine:
    """One line of a wiring diagram (Elnitsky, JCTA 77, 1997): a word of lines
    bottom to top, copy c of direction d written (d, c), with a_d copies of
    each direction and starting in direction order, together with the
    monotone lattice path of its prefixes, each a position in `spec.points`.

    Swapping adjacent lines d < d' at gap i lays the rhombus
    (path[i], (d, d')) and moves path[i + 1] across it.  Only ascending pairs
    swap, so each pair of lines crosses once and the swaps tile P.
    """

    def __init__(self, spec: ZonogonSpec):
        self.strides = spec.strides
        self.word = [(d, c) for d in range(spec.n) for c in range(spec.a[d])]
        self.path = [0, *accumulate(self.strides[d] for d, _ in self.word)]

    def swap(self, i: int) -> tuple:
        """Swap the lines at gap i; return the rhombus laid, as (path[i], d, d')."""
        word, path = self.word, self.path
        rh = (path[i], word[i][0], word[i + 1][0])
        word[i], word[i + 1] = word[i + 1], word[i]
        path[i + 1] = path[i] + self.strides[word[i][0]]
        return rh

    def sweep(self, allowed=None) -> list[tuple]:
        """Swap the lowest ascending pair (whose rhombus is in `allowed`, if
        given) until none is left; return the rhombi laid."""
        word, path, laid = self.word, self.path, []
        i = 0
        while i < len(word) - 1:
            d, d2 = word[i][0], word[i + 1][0]
            if d < d2 and (allowed is None or (path[i], d, d2) in allowed):
                laid.append(self.swap(i))
                i = max(i - 1, 0)
            else:
                i += 1
        return laid


def _wiring_tiling(spec: ZonogonSpec, front: Point, middle=(), swaps=()) -> Tiling:
    """The tiling swept out by one wiring diagram: every prefix of every
    intermediate word is a vertex, so its vertices are the first path and,
    per swap, the new path[i + 1], corner base + e_d' of the rhombus laid.

    First the front lines (copy c of d with c < front[d]) bubble, stably,
    below all others, so `front` becomes a vertex.  Then the next copies of
    the `middle` directions bubble just above them, and `swaps` are made at
    these gap offsets past the front.  Last, the lowest ascending pair swaps
    until none is left.
    """
    wiring, laid = _SweepLine(spec), []
    first = list(wiring.path)
    lines = [(d, c) for d, c in wiring.word if c < front[d]] + [(d, front[d]) for d in middle]
    for to, line in enumerate(lines):
        for i in range(wiring.word.index(line) - 1, to - 1, -1):
            laid.append(wiring.swap(i))
    for off in swaps:
        laid.append(wiring.swap(sum(front) + off))
    moved = [base + spec.strides[d2] for base, _, d2 in laid + wiring.sweep()]
    return Tiling.from_mask(spec, _mask(spec, first + moved))


def t_min(spec: ZonogonSpec) -> Tiling:
    """The unique tiling with no downward flip: the wiring diagram that always
    swaps the lowest ascending pair."""
    return _wiring_tiling(spec, (0,) * spec.n)


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
    if not all(0 <= d < spec.n for d in dirs):
        raise ValueError(f"directions must be in 0..{spec.n - 1}")
    if not j < k < l:
        raise ValueError("directions must satisfy j < k < l")
    top_corner = tuple(base[w] + (w in dirs) for w in range(spec.n))
    if not (spec.contains(base) and spec.contains(top_corner)):
        raise ValueError("cube not contained in the box")
    if side not in ("bottom", "top"):
        raise ValueError("side must be 'bottom' or 'top'")
    swaps = (0, 1, 0) if side == "bottom" else (1, 0, 1)
    return _wiring_tiling(spec, base, dirs, swaps)
