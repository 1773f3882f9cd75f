"""Domain-generic evaluation of the cube recurrence.

A flip at the unit 3-cube with base B and directions j < k < l relates the
eight corner values by

    x[B+jl] * x[B+k] = x[B] * x[B+jkl] + x[B+jk] * x[B+l] + x[B+kl] * x[B+j]

and each flip solves this for the freshly created vertex.  The same engine
runs over exact rationals, Laurent polynomials, and the max-plus semiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPoly
from .zonogon import Tiling, ZonogonSpec, tiling_through_vertex
from .flips import FlipMove, FlipPath, apply_move, normalize_to_min


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

    def valid_initial(self, a):
        return a > 0

    def coerce(self, a):
        return Fraction(a)


class LaurentDomain(RationalDomain):
    name = "laurent"

    def div(self, a, b):
        return a.exact_div(b)

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


def symbolic_labeling(t: Tiling) -> Labeling:
    """Each vertex of the tiling labelled by its own Laurent variable."""
    values = {v: LaurentPoly.var(v) for v in t.vertices}
    return Labeling(t.spec, LAURENT, values, t)


def initial_labeling(t: Tiling, domain, values: dict) -> Labeling:
    vals = {}
    for v in t.vertices:
        if v not in values:
            raise DomainError(f"initial labeling misses vertex {v}")
        try:
            val = domain.coerce(values[v])
        except ValueError as exc:
            raise DomainError(f"invalid initial value at {v}: {exc}") from None
        if not domain.valid_initial(val):
            raise DomainError(f"invalid initial value at {v}: {val!r}")
        vals[v] = val
    return Labeling(t.spec, domain, vals, t)


def _cube_sum(d, o, j, l, jk, kl, jkl):
    """The right side of the cube relation, from the hexagon corners in
    `FlipMove.corners` order."""
    return d.add3(d.mul(o, jkl), d.mul(jk, l), d.mul(kl, j))


def flip_value(labeling: Labeling, move: FlipMove):
    """Value at the vertex created by the move, per the cube relation."""
    x = labeling.values
    try:
        hexagon = [x[p] for p in move.corners[:6]]
        removed = x[move.removed]
    except KeyError as exc:
        raise DomainError(f"unlabeled cube corner {exc.args[0]}") from None
    try:
        return labeling.domain.div(_cube_sum(labeling.domain, *hexagon), removed)
    except (ZeroDivisionError, ArithmeticError) as exc:
        raise DomainError(
            f"{exc} at cube base={move.base} dirs={move.dirs}"
        ) from exc


def _replay(labeling: Labeling, tiling: Tiling, moves) -> Tiling:
    """Apply `moves` from `tiling`, writing the value of each created vertex
    into `labeling.values`; returns the tiling reached.

    Each move is applied before its value is computed, so a move that does
    not apply raises `FlipError`; a re-derived value that disagrees with the
    one already there raises `ConsistencyError`.
    """
    values = labeling.values
    for move in moves:
        tiling = apply_move(tiling, move)
        val = flip_value(labeling, move)
        created = move.created
        if created in values and values[created] != val:
            raise ConsistencyError(f"re-derived value at {created} disagrees")
        values[created] = val
    return tiling


def evaluate_path(labeling: Labeling, path: FlipPath) -> Labeling:
    """Push values along a flip path; returns the labeling on the end tiling.

    The returned labeling keeps every value computed along the way (values at
    vertices shared with earlier tilings never change).
    """
    if labeling.tiling is not None and path.start != labeling.tiling:
        raise DomainError("path does not start at the labeling's tiling")
    out = labeling.copy()
    out.tiling = _replay(out, path.start, path.moves)
    return out


def extend_to_lattice(labeling: Labeling) -> Labeling:
    """The unique extension of the initial values to the whole lattice box.

    Each missing point is reached by routing a flip path from T0 through the
    wiring-diagram tiling containing it (`tiling_through_vertex`) and
    replaying it into one growing labeling, so re-derivations of already
    known values are compared exactly.
    """
    t0 = labeling.tiling
    if t0 is None:
        raise DomainError("labeling has no initial tiling")
    out = labeling.copy()
    down0 = normalize_to_min(t0)
    for p in sorted(labeling.spec.lattice_points()):
        if p in out.values:
            continue
        t_p = tiling_through_vertex(labeling.spec, p)
        up = normalize_to_min(t_p)
        _replay(out, t0, list(down0.moves) + [m.inverse() for m in reversed(up.moves)])
        if p not in out.values:
            raise DomainError(f"path through {p} failed to label it")
    return out


@dataclass
class RelationReport:
    failures: list

    @property
    def ok(self):
        return not self.failures


def verify_cube_relations(labeling: Labeling) -> RelationReport:
    """Check the cube relation on every unit 3-cube of the box; the report
    lists every failing cube as (base, dirs, reason)."""
    d, x = labeling.domain, labeling.values
    failures = []
    for base, dirs in labeling.spec.cubes():
        try:
            *hexagon, k, jl = [x[p] for p in FlipMove(base, dirs, "up").corners]
        except KeyError as exc:
            failures.append((base, dirs, f"unlabeled corner {exc}"))
            continue
        if d.mul(jl, k) != _cube_sum(d, *hexagon):
            failures.append((base, dirs, "relation violated"))
    return RelationReport(failures)
