"""Walls, cutcurves, and max-plus inequality propagation.

A cutcurve is the tuple of its lattice points, from one end of the wall to
the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .engine import Labeling, TropicalDomain, cube_error, verify_cube_relations
from .zonogon import ZonogonSpec, shift


@dataclass(frozen=True)
class Wall:
    """The slice {i_s = c} of the box of `spec`, with 1 <= c <= a_s - 1."""

    spec: ZonogonSpec
    s: int
    c: int

    def __post_init__(self):
        if not 0 <= self.s < self.spec.n:
            raise ValueError(f"wall direction {self.s} out of range")
        if not 1 <= self.c <= self.spec.a[self.s] - 1:
            raise ValueError(f"wall offset {self.c} not in 1..{self.spec.a[self.s] - 1}")

    @cached_property
    def ends(self) -> tuple:
        """The first and the last point of every cutcurve of the wall."""
        a, s, c = self.spec.a, self.s, self.c
        return a[:s] + (c,) + (0,) * (len(a) - s - 1), (0,) * s + (c,) + a[s + 1:]

    @cached_property
    def edges(self) -> tuple:
        """Every edge (p, i) of the wall, in lattice order."""
        spec, s = self.spec, self.s
        return tuple((p, i) for p in spec.points if p[s] == self.c
                     for i in range(spec.n) if i != s and p[i] < spec.a[i])

    @cached_property
    def comparisons(self) -> dict:
        """For each edge (p, i), in the order of `edges`: its head q = p + e_i
        and the pairs (p + e_s, q - e_s) and (p - e_s, q + e_s) that the wall
        inequalities compare the edge against.  As 1 <= c <= a_s - 1, both
        pairs lie in the box."""
        s = self.s
        table = {}
        for p, i in self.edges:
            q = shift(p, i)
            table[p, i] = q, (shift(p, s), shift(q, s, -1)), (shift(p, s, -1), shift(q, s))
        return table

    @cached_property
    def _cutcurve_edges(self) -> dict:
        """Each cutcurve that `check_propagation` has validated on this wall,
        mapped to its edges."""
        return {}


def canonical_cutcurve(w: Wall) -> tuple:
    """The cutcurve taking all descending steps first, then ascending ones."""
    a = w.spec.a
    pts = [w.ends[0]]
    for d in range(w.s):
        for _ in range(a[d]):
            pts.append(shift(pts[-1], d, -1))
    for d in range(w.s + 1, len(a)):
        for _ in range(a[d]):
            pts.append(shift(pts[-1], d, 1))
    assert pts[-1] == w.ends[1]
    return tuple(pts)


def validate_cutcurve(w: Wall, pts: tuple) -> None:
    """Raise `ValueError` naming the first way `pts` fails to be a cutcurve
    of the wall."""
    start, end = w.ends
    if not pts or pts[0] != start or pts[-1] != end:
        raise ValueError(f"invalid cutcurve: endpoint: expected {start} .. {end}")
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
            raise ValueError(f"invalid cutcurve: illegal step at position {t}: {delta}")
        if not w.spec.contains(pts[t]):
            raise ValueError(f"invalid cutcurve: point {pts[t]} outside the box")
        if pts[t][w.s] != w.c:
            raise ValueError(f"invalid cutcurve: point {pts[t]} leaves the wall")


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


def all_cutcurves(w: Wall):
    """Every cutcurve for the wall, by breadth-first elementary moves."""
    seen = {canonical_cutcurve(w)}
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


def _check_box(labeling: Labeling, w: Wall) -> None:
    """Refuse a labeling whose box is not the wall's."""
    if labeling.spec != w.spec:
        raise ValueError(f"the labeling's box {labeling.spec.a} is not the wall's box "
                         f"{w.spec.a}")


def _holds(x: dict, p, q, up, down) -> bool:
    """Both wall inequalities at the edge from p to q, whose pairs are `up`
    and `down`, on the values `x`."""
    lhs = x[p] + x[q]
    return lhs >= x[up[0]] + x[up[1]] and lhs >= x[down[0]] + x[down[1]]


def w_inequalities_hold(labeling: Labeling, w: Wall, edge) -> bool:
    """Both wall inequalities at the edge (p, i): x(p) + x(p + e_i) is at
    least the sum over each of the edge's `Wall.comparisons` pairs."""
    _check_box(labeling, w)
    p, i = edge
    row = w.comparisons.get((p, i))
    if row is None:
        if i == w.s:
            raise ValueError("edge must not point along the wall direction")
        if p[w.s] != w.c:
            raise ValueError("edge endpoints must lie on the wall")
        raise ValueError(f"edge {edge} leaves the wall's box {w.spec.a}")
    return _holds(labeling.values, p, *row)


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
    naming the first failing cube.  Each cutcurve, a sequence of points, is
    validated once per wall."""
    if not isinstance(labeling.domain, TropicalDomain):
        raise ValueError("propagation checks run on tropical labelings")
    _check_box(labeling, w)
    g = tuple(map(tuple, g))
    g_edges = w._cutcurve_edges.get(g)
    if g_edges is None:
        validate_cutcurve(w, g)
        g_edges = w._cutcurve_edges[g] = tuple(cutcurve_edges(g))
    if failures := verify_cube_relations(labeling):
        raise cube_error(*failures[0])
    x, table = labeling.values, w.comparisons
    for e in g_edges:
        if not _holds(x, e[0], *table[e]):
            return PropagationReport(False, e, [])
    violations = [e for e, row in table.items() if not _holds(x, e[0], *row)]
    return PropagationReport(True, None, violations)
