"""Domain-generic evaluation of the cube recurrence.

A flip at the unit 3-cube with base B and directions j < k < l relates the
eight corner values by

    x[B+jl] * x[B+k] = x[B] * x[B+jkl] + x[B+jk] * x[B+l] + x[B+kl] * x[B+j]

and each flip solves this for the freshly created vertex.  The same engine
runs over exact rationals, Laurent polynomials, and the max-plus semiring
(on integers where the values are integral).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .laurent import LaurentPoly
from .zonogon import Tiling, ZonogonSpec, tiling_through_vertex
from .flips import FlipMove, apply_move, normalize_to_min


class DomainError(ArithmeticError):
    """A value the recurrence cannot compute or a relation it breaks.  When a
    cube is at fault, `base`, `dirs` (1-based, as the messages print them)
    and `reason` name it, and the message is built from them only when it is
    read; otherwise `base` and `dirs` are None and `reason` is the message."""

    def __init__(self, reason: str, base: tuple | None = None, dirs: tuple | None = None):
        super().__init__(reason)
        self.reason, self.base, self.dirs = reason, base, dirs

    def __str__(self):
        if self.base is None:
            return self.reason
        return (f"cube relation failed on the cube at {self.base} with directions "
                f"{self.dirs}: {self.reason}")


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
    """Max-plus: multiplication is +, triple addition is max, division is -.

    The recurrence never divides, so an integral value is kept as an `int`
    and only a non-integral one as a `Fraction`; the two mix exactly.
    """

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
        if type(a) is int:
            return a
        a = Fraction(a)
        return a.numerator if a.denominator == 1 else a


RATIONAL = RationalDomain()
LAURENT = LaurentDomain()
TROPICAL = TropicalDomain()

DOMAINS = {d.name: d for d in (RATIONAL, LAURENT, TROPICAL)}


@dataclass
class Labeling:
    """Values on lattice points, among them every vertex of `tiling`: the
    initial tiling T0, or the end tiling of an evaluated flip path."""

    tiling: Tiling
    domain: object
    values: dict

    @property
    def spec(self) -> ZonogonSpec:
        return self.tiling.spec

    def copy(self) -> "Labeling":
        return Labeling(self.tiling, self.domain, dict(self.values))


def symbolic_labeling(t: Tiling) -> Labeling:
    """Each vertex of the tiling labelled by its own Laurent variable."""
    values = {v: LaurentPoly.var(v) for v in t.vertices}
    return Labeling(t, LAURENT, values)


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
    return Labeling(t, domain, vals)


def _cube_sum(d, o, j, l, jk, kl, jkl):
    """The right side of the cube relation, from the hexagon corners in
    `FlipMove.corners` order."""
    return d.add3(d.mul(o, jkl), d.mul(jk, l), d.mul(kl, j))


def cube_error(base, dirs, reason) -> DomainError:
    """The error naming the cube at `base` with 0-based `dirs`, held 1-based,
    and why its relation failed."""
    return DomainError(reason, base, tuple(d + 1 for d in dirs))


def flip_value(labeling: Labeling, move: FlipMove):
    """Value at the vertex created by the move, per the cube relation."""
    x = labeling.values
    try:
        hexagon = [x[p] for p in move.corners[:6]]
        removed = x[move.removed]
    except KeyError as exc:
        reason = f"unlabeled cube corner {exc.args[0]}"
        raise cube_error(move.base, move.dirs, reason) from None
    try:
        return labeling.domain.div(_cube_sum(labeling.domain, *hexagon), removed)
    except ArithmeticError as exc:
        raise cube_error(move.base, move.dirs, str(exc)) from exc


def _derive(labeling: Labeling, move: FlipMove) -> None:
    """Write the value of the move's created point into `labeling.values`; a
    re-derived value that disagrees with the one already there raises the
    `DomainError` of the move's cube."""
    values = labeling.values
    val = flip_value(labeling, move)
    created = move.created
    if created not in values:
        values[created] = val
    elif values[created] != val:
        raise cube_error(move.base, move.dirs, f"re-derived value at {created} disagrees")


def evaluate_path(labeling: Labeling, moves: list) -> Labeling:
    """Push values along the flip path of `moves` from the labeling's tiling;
    returns the labeling on the end tiling.

    Each move is applied before its value is computed, so a move that does
    not apply raises `FlipError`.  The returned labeling keeps every value
    computed along the way (values at vertices shared with earlier tilings
    never change).
    """
    out = labeling.copy()
    for move in moves:
        out.tiling = apply_move(out.tiling, move)
        _derive(out, move)
    return out


def extension_moves(t0: Tiling) -> list:
    """The flips that extend values on T0 to the whole lattice box.

    For each point p of the box, in sorted order, that no earlier route has
    labelled, the route runs T0 -> t_min -> `tiling_through_vertex(p)`; the
    schedule is the distinct moves of these routes, each at its first
    occurrence, so every move finds its cube's other corners labelled.  The
    values do not depend on the order of the flips, so the schedule depends
    only on T0 and serves every labeling of T0 in every domain.
    """
    spec = t0.spec
    down0 = normalize_to_min(t0)
    schedule: dict = {}
    labelled = set(t0.vertices)
    for p in sorted(spec.lattice_points()):
        if p in labelled:
            continue
        up = normalize_to_min(tiling_through_vertex(spec, p))
        for move in chain(down0, [m.inverse() for m in reversed(up)]):
            if move not in schedule:
                schedule[move] = None
                labelled.add(move.created)
        if p not in labelled:
            raise DomainError(f"path through {p} failed to label it")
    return list(schedule)


def extend_to_lattice(labeling: Labeling, moves: list | None = None) -> Labeling:
    """The unique extension of the initial values to the whole lattice box.

    Evaluates each move of `moves`, by default `extension_moves` of the
    labeling's tiling T0, once; a caller that extends many labelings of one
    T0 builds that schedule once and passes it.  A move whose created point
    is already labelled re-derives its value, which is compared exactly.  A
    point left unlabelled, as by a schedule built for another tiling, is a
    `DomainError`.
    """
    if moves is None:
        moves = extension_moves(labeling.tiling)
    out = labeling.copy()
    for move in moves:
        _derive(out, move)
    missing = next((p for p in labeling.spec.lattice_points() if p not in out.values), None)
    if missing is not None:
        raise DomainError(f"the flip schedule leaves {missing} unlabelled")
    return out


def verify_cube_relations(labeling: Labeling) -> list:
    """Check the cube relation on every unit 3-cube of the box; returns every
    failing cube as (base, dirs, reason), so an empty list means all hold."""
    d, x = labeling.domain, labeling.values
    failures = []
    for base, dirs, corners in labeling.spec.cubes:
        try:
            *hexagon, k, jl = [x[p] for p in corners]
        except KeyError as exc:
            failures.append((base, dirs, f"unlabeled cube corner {exc.args[0]}"))
            continue
        if d.mul(jl, k) != _cube_sum(d, *hexagon):
            failures.append((base, dirs, "relation violated"))
    return failures
