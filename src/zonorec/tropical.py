"""Walls, cutcurves, and max-plus inequality propagation.

A cutcurve is the tuple of its lattice points, from one end of the wall to
the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Labeling, TropicalDomain, cube_error, verify_cube_relations
from .zonogon import ZonogonSpec, shift


@dataclass(frozen=True)
class Wall:
    """The slice {i_s = c} of the box, with 1 <= c <= a_s - 1."""

    s: int
    c: int

    def validate(self, spec: ZonogonSpec):
        if not 0 <= self.s < spec.n:
            raise ValueError(f"wall direction {self.s} out of range")
        if not 1 <= self.c <= spec.a[self.s] - 1:
            raise ValueError(f"wall offset {self.c} not in 1..{spec.a[self.s] - 1}")


def cutcurve_endpoints(spec: ZonogonSpec, w: Wall):
    start = tuple(
        spec.a[i] if i < w.s else (w.c if i == w.s else 0) for i in range(spec.n)
    )
    end = tuple(
        0 if i < w.s else (w.c if i == w.s else spec.a[i]) for i in range(spec.n)
    )
    return start, end


def canonical_cutcurve(spec: ZonogonSpec, w: Wall) -> tuple:
    """The cutcurve taking all descending steps first, then ascending ones."""
    w.validate(spec)
    start, end = cutcurve_endpoints(spec, w)
    pts = [start]
    for d in range(w.s):
        for _ in range(spec.a[d]):
            pts.append(shift(pts[-1], d, -1))
    for d in range(w.s + 1, spec.n):
        for _ in range(spec.a[d]):
            pts.append(shift(pts[-1], d, 1))
    assert pts[-1] == end
    return tuple(pts)


def validate_cutcurve(spec: ZonogonSpec, w: Wall, pts: tuple):
    """List of violations (empty when the cutcurve is valid for the wall)."""
    w.validate(spec)
    start, end = cutcurve_endpoints(spec, w)
    violations = []
    if not pts or pts[0] != start or pts[-1] != end:
        violations.append(f"endpoint: expected {start} .. {end}")
        return violations
    for t in range(1, len(pts)):
        delta = tuple(a - b for a, b in zip(pts[t], pts[t - 1]))
        ups = [i for i, d in enumerate(delta) if d == 1]
        downs = [i for i, d in enumerate(delta) if d == -1]
        legal = (
            sum(abs(d) for d in delta) == 1
            and (not ups or ups[0] > w.s)
            and (not downs or downs[0] < w.s)
        )
        if not legal:
            violations.append(f"illegal step at position {t}: {delta}")
            return violations
        if not spec.contains(pts[t]):
            violations.append(f"point {pts[t]} outside the box")
            return violations
        if pts[t][w.s] != w.c:
            violations.append(f"point {pts[t]} leaves the wall")
            return violations
    return violations


def elementary_move(pts: tuple, t0: int) -> tuple:
    """Push the cutcurve across the square at position t0."""
    if not 1 <= t0 <= len(pts) - 2:
        raise ValueError("move position out of range")
    a, b, c = pts[t0 - 1], pts[t0], pts[t0 + 1]
    s1 = tuple(x - y for x, y in zip(b, a))
    s2 = tuple(x - y for x, y in zip(c, b))
    if s1 == s2:
        raise ValueError("collinear triple: no square to cross")
    new = tuple(x + z - y for x, y, z in zip(a, b, c))
    return pts[:t0] + (new,) + pts[t0 + 1:]


def all_cutcurves(spec: ZonogonSpec, w: Wall):
    """Every cutcurve for the wall, by breadth-first elementary moves."""
    seen = {canonical_cutcurve(spec, w)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for t0 in range(1, len(g) - 1):
                try:
                    g2 = elementary_move(g, t0)
                except ValueError:
                    continue
                if g2 not in seen:
                    seen.add(g2)
                    nxt.append(g2)
        frontier = nxt
    return seen


def wall_edges(spec: ZonogonSpec, w: Wall):
    for p in spec.lattice_points():
        if p[w.s] != w.c:
            continue
        for i in range(spec.n):
            if i == w.s or p[i] >= spec.a[i]:
                continue
            yield (p, i)


def w_inequalities_hold(labeling: Labeling, w: Wall, edge) -> bool:
    """Both wall inequalities at the edge (I, I+e_i); out-of-box comparisons
    are vacuously true."""
    p, i = edge
    if i == w.s:
        raise ValueError("edge must not point along the wall direction")
    q = shift(p, i)
    if p[w.s] != w.c or q[w.s] != w.c:
        raise ValueError("edge endpoints must lie on the wall")
    spec = labeling.spec
    vals = labeling.values
    lhs = vals[p] + vals[q]
    for a, b in (
        (shift(p, w.s), shift(q, w.s, -1)),
        (shift(p, w.s, -1), shift(q, w.s)),
    ):
        if not (spec.contains(a) and spec.contains(b)):
            continue
        if lhs < vals[a] + vals[b]:
            return False
    return True


def cutcurve_edges(pts: tuple):
    for a, b in zip(pts, pts[1:]):
        delta = tuple(x - y for x, y in zip(b, a))
        i = next(k for k, d in enumerate(delta) if d)
        yield (a, i) if delta[i] == 1 else (b, i)


@dataclass
class PropagationReport:
    """Whether the wall inequalities hold on the cutcurve, else the first
    cutcurve edge where they fail; with the hypothesis met, every wall edge
    where they fail."""

    hypothesis_ok: bool
    hypothesis_witness: tuple | None
    violations: list


def check_propagation(labeling: Labeling, w: Wall, g: tuple) -> PropagationReport:
    """Verify that wall inequalities on the cutcurve `g` force them on the
    wall; a labeling that fails a cube relation raises the `DomainError`
    naming the first failing cube."""
    if not isinstance(labeling.domain, TropicalDomain):
        raise ValueError("propagation checks run on tropical labelings")
    bad = validate_cutcurve(labeling.spec, w, g)
    if bad:
        raise ValueError(f"invalid cutcurve: {bad[0]}")
    if failures := verify_cube_relations(labeling):
        raise cube_error(*failures[0])
    for e in cutcurve_edges(g):
        if not w_inequalities_hold(labeling, w, e):
            return PropagationReport(False, e, [])
    violations = [
        e for e in wall_edges(labeling.spec, w)
        if not w_inequalities_hold(labeling, w, e)
    ]
    return PropagationReport(True, None, violations)
