"""Domain-generic evaluation of the cube recurrence.

A flip at the unit 3-cube with base B and directions j < k < l relates the
eight corner values by

    x[B+jl] * x[B+k] = x[B] * x[B+jkl] + x[B+jk] * x[B+l] + x[B+kl] * x[B+j]

and each flip solves this for the freshly created vertex.  The same engine
runs over exact rationals, Laurent polynomials, and the max-plus semiring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPoly
from .zonogon import Point, Tiling, ZonogonSpec, shift, shift2, tiling_through_vertex
from .flips import FlipMove, FlipPath, normalize_to_min


class DomainError(ArithmeticError):
    pass


class ConsistencyError(AssertionError):
    pass


class RationalDomain:
    name = "rational"

    def mul(self, a, b):
        return a * b

    def add3(self, a, b, c):
        return a + b + c

    def div(self, a, b):
        if b == 0:
            raise DomainError("division by zero")
        return a / b

    def eq(self, a, b):
        return a == b

    def valid_initial(self, a):
        return a > 0

    def coerce(self, a):
        return Fraction(a)


class LaurentDomain:
    name = "laurent"

    def mul(self, a, b):
        return a * b

    def add3(self, a, b, c):
        return a + b + c

    def div(self, a, b):
        return a.exact_div(b)

    def eq(self, a, b):
        return a == b

    def valid_initial(self, a):
        return bool(a)

    def coerce(self, a):
        if isinstance(a, LaurentPoly):
            return a
        return LaurentPoly.const(a)


class TropicalDomain:
    """Max-plus: multiplication is +, triple addition is max, division is -."""

    name = "tropical"

    def mul(self, a, b):
        return a + b

    def add3(self, a, b, c):
        return max(a, b, c)

    def div(self, a, b):
        return a - b

    def eq(self, a, b):
        return a == b

    def valid_initial(self, a):
        return True

    def coerce(self, a):
        return Fraction(a)


RATIONAL = RationalDomain()
LAURENT = LaurentDomain()
TROPICAL = TropicalDomain()

DOMAINS = {d.name: d for d in (RATIONAL, LAURENT, TROPICAL)}


@dataclass
class Labeling:
    """Values on lattice points; `tiling` records the initial tiling T0."""

    spec: ZonogonSpec
    domain: object
    values: dict
    tiling: Tiling | None = None

    def copy(self) -> "Labeling":
        return Labeling(self.spec, self.domain, dict(self.values), self.tiling)

    def is_total(self) -> bool:
        return all(p in self.values for p in self.spec.lattice_points())


def symbolic_labeling(t: Tiling) -> Labeling:
    """Each vertex of the tiling labelled by its own Laurent variable."""
    values = {v: LaurentPoly.var(v) for v in t.vertices}
    return Labeling(t.spec, LAURENT, values, t)


def initial_labeling(t: Tiling, domain, values: dict) -> Labeling:
    vals = {}
    for v in t.vertices:
        if v not in values:
            raise DomainError(f"initial labeling misses vertex {v}")
        val = domain.coerce(values[v])
        if not domain.valid_initial(val):
            raise DomainError(f"invalid initial value at {v}: {val!r}")
        vals[v] = val
    return Labeling(t.spec, domain, vals, t)


def cube_corner_values(base: Point, dirs):
    j, k, l = dirs
    names = {
        "o": base,
        "j": shift(base, j),
        "k": shift(base, k),
        "l": shift(base, l),
        "jk": shift2(base, j, k),
        "jl": shift2(base, j, l),
        "kl": shift2(base, k, l),
        "jkl": shift(shift2(base, j, k), l),
    }
    return names


def flip_value(labeling: Labeling, move: FlipMove):
    """Value at the vertex created by the move, per the cube relation."""
    d = labeling.domain
    pos = cube_corner_values(move.base, move.dirs)
    removed = move.removed
    needed = [p for p in pos.values() if p != move.created]
    vals = {}
    for p in needed:
        if p not in labeling.values:
            raise DomainError(f"unlabeled cube corner {p}")
        vals[p] = labeling.values[p]
    numer = d.add3(
        d.mul(vals[pos["o"]], vals[pos["jkl"]]),
        d.mul(vals[pos["jk"]], vals[pos["l"]]),
        d.mul(vals[pos["kl"]], vals[pos["j"]]),
    )
    try:
        return d.div(numer, vals[removed])
    except (ZeroDivisionError, ArithmeticError) as exc:
        raise DomainError(
            f"{exc} at cube base={move.base} dirs={move.dirs}"
        ) from exc


def evaluate_path(labeling: Labeling, path: FlipPath) -> Labeling:
    """Push values along a flip path; returns the labeling on the end tiling.

    The returned labeling keeps every value computed along the way (values at
    vertices shared with earlier tilings never change).  Each move is applied
    before its value is computed, so a move that does not apply to the tiling
    it reaches raises `FlipError`.
    """
    if labeling.tiling is not None and path.start != labeling.tiling:
        raise DomainError("path does not start at the labeling's tiling")
    out = labeling.copy()
    cur = path.start
    from .flips import apply_move

    for move in path.moves:
        cur = apply_move(cur, move)
        val = flip_value(out, move)
        created = move.created
        if created in out.values and not out.domain.eq(out.values[created], val):
            raise ConsistencyError(f"re-derived value at {created} disagrees")
        out.values[created] = val
    out.tiling = cur
    return out


def extend_to_lattice(labeling: Labeling, check=True) -> Labeling:
    """The unique extension of the initial values to the whole lattice box.

    Each missing point is reached by routing a flip path from T0 through the
    wiring-diagram tiling containing it (`tiling_through_vertex`);
    re-derivations of already-known values are compared exactly when `check`
    is set.
    """
    t0 = labeling.tiling
    if t0 is None:
        raise DomainError("labeling has no initial tiling")
    cache = dict(labeling.values)
    down0 = normalize_to_min(t0)
    for p in sorted(labeling.spec.lattice_points()):
        if p in cache:
            continue
        t_p = tiling_through_vertex(labeling.spec, p)
        up = normalize_to_min(t_p)
        path = FlipPath(t0, list(down0.moves) + [m.inverse() for m in reversed(up.moves)])
        walked = evaluate_path(Labeling(labeling.spec, labeling.domain, dict(labeling.values), t0), path)
        for q, val in walked.values.items():
            if q in cache:
                if check and not labeling.domain.eq(cache[q], val):
                    raise ConsistencyError(f"inconsistent re-derivation at {q}")
            else:
                cache[q] = val
        if p not in cache:
            raise DomainError(f"path through {p} failed to label it")
    return Labeling(labeling.spec, labeling.domain, cache, t0)


@dataclass
class RelationReport:
    failures: list

    @property
    def ok(self):
        return not self.failures


def verify_cube_relations(labeling: Labeling) -> RelationReport:
    """Check the cube relation on every unit 3-cube of the box; the report
    lists every failing cube as (base, dirs, reason)."""
    d = labeling.domain
    spec = labeling.spec
    failures = []
    tropical = isinstance(d, TropicalDomain)
    for base, dirs in spec.cubes():
        pos = cube_corner_values(base, dirs)
        try:
            v = {key: labeling.values[p] for key, p in pos.items()}
        except KeyError as exc:
            failures.append((base, dirs, f"unlabeled corner {exc}"))
            continue
        lhs = d.mul(v["jl"], v["k"])
        rhs = d.add3(
            d.mul(v["o"], v["jkl"]), d.mul(v["jk"], v["l"]), d.mul(v["kl"], v["j"])
        )
        if not d.eq(lhs, rhs):
            failures.append((base, dirs, "relation violated"))
    return RelationReport(failures)


# ---------------------------------------------------------------------------
# exchange polynomials


def _angle_sort_key(vec):
    x, y = vec
    upper = 0 if (y > 0 or (y == 0 and x > 0)) else 1
    return upper


def _cyclic_neighbors(t: Tiling, v: Point):
    """Neighbors of v in counterclockwise order of planar angle."""
    spec = t.spec
    nbrs = t.neighbors(v)
    pv = spec.project(v)

    def key(q):
        x, y = (a - b for a, b in zip(spec.project(q), pv))
        return (x, y)

    vecs = {q: key(q) for q in nbrs}

    def cmp(q1, q2):
        u, w = vecs[q1], vecs[q2]
        h1, h2 = _angle_sort_key(u), _angle_sort_key(w)
        if h1 != h2:
            return -1 if h1 < h2 else 1
        c = u[0] * w[1] - u[1] * w[0]
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return sorted(nbrs, key=functools.cmp_to_key(cmp))


def exchange_polynomial(t: Tiling, v: Point, var_of=None) -> LaurentPoly:
    """The flip numerator attached to a vertex, in its neighbors' variables.

    With neighbors a_1..a_r in cyclic order and b_i the far corner of the
    rhombus on a_i, a_{i+1}, this is sum_i x[b_i] * prod_{m not in {i,i+1}}
    x[a_m]; a missing far corner (boundary wedge) contributes the full
    product of the neighbor variables.
    """
    if var_of is None:
        var_of = lambda p: p
    spec = t.spec
    nbrs = _cyclic_neighbors(t, v)
    r = len(nbrs)
    rhombi = t.rhombi_at(v)
    from .zonogon import cross, rhombus_corners

    corner_map = {rh: rhombus_corners(rh) for rh in rhombi}
    pv = spec.project(v)
    vecs = {
        q: tuple(a - b for a, b in zip(spec.project(q), pv)) for q in nbrs
    }
    total = LaurentPoly()
    for i in range(r):
        a1, a2 = nbrs[i], nbrs[(i + 1) % r]
        far = None
        # the rhombus on a1, a2 sits in the ccw wedge from a1 to a2, which
        # must span less than a half turn
        if cross(vecs[a1], vecs[a2]) > 0:
            for rh in rhombi:
                cs = corner_map[rh]
                if a1 in cs and a2 in cs:
                    far = next(p for p in cs if p not in (v, a1, a2))
                    break
        if far is not None:
            term = LaurentPoly.var(var_of(far))
            skip = {i, (i + 1) % r}
        else:
            term = LaurentPoly.const(1)
            skip = set()
        for m in range(r):
            if m not in skip:
                term = term * LaurentPoly.var(var_of(nbrs[m]))
        total = total + term
    return total
