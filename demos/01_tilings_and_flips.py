#!/usr/bin/env python3
"""Tour of the tiling layer: building tilings, flipping, and the forest.

Run from the repository root:  python3 demos/01_tilings_and_flips.py
Writes octagon.svg next to this script.
"""

import os

from zonorec import (
    ZonogonSpec,
    apply_move,
    enumerate_tilings,
    fundamental_forest,
    normalize_to_min,
    phi,
    render_svg,
    t_min,
    tiling_through_vertex,
    validate_tiling,
)
from zonorec.flips import FlipCensus


def flips(census, t):
    """t's flip moves: one per pivot, found on t's vertex bitmask."""
    return [flip.move for flip in census.all(t.mask).values()]


print("== the hexagon (three directions, all multiplicities 1) ==")
hexagon = ZonogonSpec((1, 1, 1))
print("direction vectors:", hexagon.vectors)
tm = t_min(hexagon)
print("minimal tiling rhombi:", tm.canonical_rhombi())
print("vertices:", sorted(tm.vertices))
print("validation:", validate_tiling(tm))

moves = flips(FlipCensus(hexagon), tm)
down = sorted(m.removed for m in moves if m.direction == "down")
up = [m for m in moves if m.direction == "up"]
print("flippable: down =", down, " up =", sorted(m.removed for m in up))
move = up[0]
other = apply_move(tm, move)
print("after the up flip at", move.removed, "the new vertex is", move.created)
print("its fundamental forest:", sorted(fundamental_forest(other)))
print("phi drops back by one on the way down:", phi(other), "->", phi(tm))

print()
print("== the octagon: eight tilings forming a single cycle of flips ==")
octagon = ZonogonSpec((1, 1, 1, 1))
tilings = enumerate_tilings(octagon)
print("tiling count:", len(tilings))
census = FlipCensus(octagon)
for t in tilings:
    print("  interior vertices:", sorted(t.vertices - octagon.boundary_vertices),
          "flips:", len(flips(census, t)))

print()
print("== any lattice point sits on some tiling ==")
spec = ZonogonSpec((2, 2, 1))
target = (1, 0, 1)  # not a vertex of the minimal tiling
t = tiling_through_vertex(spec, target)
print(f"tiling through {target}: contains it -> {target in t.vertices}")
path = normalize_to_min(t)
print("downward flips to the minimal tiling:", len(path),
      "= phi difference:", phi(t) - phi(t_min(spec)))

with open(os.path.join(os.path.dirname(__file__), "octagon.svg"), "w") as fh:
    fh.write(render_svg(t_min(octagon), labels=True, forest=True))
print("wrote octagon.svg")
