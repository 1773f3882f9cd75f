#!/usr/bin/env python3
"""Wall inequalities travel from a single cutcurve to the whole wall.

A wall is a slice {i_s = c} of the lattice box.  If a max-plus labeling
satisfies the two concavity inequalities on every edge of one taxi-cab
geodesic across the wall, it satisfies them on every edge of the wall.
"""

import random
from fractions import Fraction

from zonorec import (
    TROPICAL,
    DomainError,
    Wall,
    ZonogonSpec,
    all_cutcurves,
    canonical_cutcurve,
    check_propagation,
    cutcurve_points,
    elementary_move,
    extend_to_lattice,
    extension_moves,
    initial_labeling,
    t_min,
    w_inequalities_hold,
)

spec = ZonogonSpec((2, 2, 1))
wall = Wall(spec, 0, 1)
print("wall: first coordinate fixed to", wall.c)

g = canonical_cutcurve(wall)
print("a cutcurve:", " -> ".join(map(str, cutcurve_points(wall, g))))
corner = next(t0 for t0 in range(1, len(g)) if g[t0 - 1] != g[t0])
g2 = elementary_move(g, corner)
print("after one elementary move:", " -> ".join(map(str, cutcurve_points(wall, g2))))
curves = all_cutcurves(wall)
print("elementary moves reach all", len(curves), "cutcurves of this wall")

print()
rng = random.Random(0)
tm = t_min(spec)
moves = extension_moves(tm)  # one flip schedule serves every sample
met = tried = 0
while met < 25:
    tried += 1
    data = {v: Fraction(rng.randint(-5, 5)) for v in sorted(tm.vertices)}
    lab = extend_to_lattice(initial_labeling(tm, TROPICAL, data), moves)
    report = check_propagation(lab, wall, g)
    if report.hypothesis_ok:
        met += 1
        assert not report.violations
print(f"sampled labelings until {met} met the cutcurve hypothesis "
      f"({tried} tries); the wall inequalities then held on every wall edge")
held = sum(w_inequalities_hold(lab, wall, e) for e in wall.edges)
print(f"checked edge by edge on the last of them, they hold on {held} of the "
      f"{len(wall.edges)} wall edges")

print()
print("corrupting one value breaks the recurrence and the checker notices:")
lab.values[(1, 1, 1)] += 10
try:
    check_propagation(lab, wall, g)
except DomainError as exc:
    print(" ", exc)
