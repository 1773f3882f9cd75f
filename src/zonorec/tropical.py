"""Walls, cutcurves, and max-plus inequality propagation.

A cutcurve of the wall {i_s = c} is the word of its steps: it walks from
`Wall.start`, down one unit in direction d for each d < s in the word and up
one for each d > s, a_d times each in some order.  Any such word is a
monotone path on the wall inside the box, so the multiset of its letters is
all there is to check.
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
    def start(self) -> tuple:
        """The first point of every cutcurve of the wall."""
        a, s = self.spec.a, self.s
        return a[:s] + (self.c,) + (0,) * (len(a) - s - 1)

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


def canonical_cutcurve(w: Wall) -> tuple:
    """The wall's steps in sorted order: all descending steps first, then
    ascending ones."""
    a = w.spec.a
    return tuple(d for d in range(len(a)) if d != w.s for _ in range(a[d]))


def validate_cutcurve(w: Wall, g: tuple) -> None:
    """Raise `ValueError` unless `g` is a reordering of the wall's steps."""
    steps = canonical_cutcurve(w)
    if sorted(g) != list(steps):
        raise ValueError(f"invalid cutcurve: {tuple(g)} is not an ordering of the "
                         f"wall's steps {steps}")


def cutcurve_points(w: Wall, g: tuple) -> tuple:
    """The lattice points of the cutcurve `g`, from `w.start`."""
    pts = [w.start]
    for d in g:
        pts.append(shift(pts[-1], d, 1 if d > w.s else -1))
    return tuple(pts)


def elementary_move(g: tuple, t0: int) -> tuple:
    """Push the cutcurve across the square at point t0: swap the steps before
    and after it."""
    if not 1 <= t0 <= len(g) - 1:
        raise ValueError("move position out of range")
    if g[t0 - 1] == g[t0]:
        raise ValueError("collinear triple: no square to cross")
    return g[:t0 - 1] + (g[t0], g[t0 - 1]) + g[t0 + 1:]


def all_cutcurves(w: Wall):
    """Every cutcurve for the wall, by breadth-first elementary moves."""
    seen = {canonical_cutcurve(w)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for t0 in range(1, len(g)):
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


def cutcurve_edges(w: Wall, g: tuple) -> list:
    """The wall edge (p, d) of each step d of the cutcurve `g`, p its lower end."""
    pts = cutcurve_points(w, g)
    return [(p, d) if d > w.s else (q, d) for p, q, d in zip(pts, pts[1:], g)]


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
    _check_box(labeling, w)
    g = tuple(g)
    validate_cutcurve(w, g)
    if failures := verify_cube_relations(labeling):
        raise cube_error(*failures[0])
    x, table = labeling.values, w.comparisons
    for e in cutcurve_edges(w, g):
        if not _holds(x, e[0], *table[e]):
            return PropagationReport(False, e, [])
    violations = [e for e, row in table.items() if not _holds(x, e[0], *row)]
    return PropagationReport(True, None, violations)
