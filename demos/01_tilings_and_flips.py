#!/usr/bin/env python3
"""Tour of the tiling layer: building tilings, flipping, and the forest.

Run from the repository root:  python3 demos/01_tilings_and_flips.py
Writes octagon.svg next to this script.
"""

import os

from zonorec import (
    ZonogonSpec,
    apply_flip,
    enumerate_tilings,
    flippable_vertices,
    fundamental_forest,
    normalize_to_min,
    phi,
    render_svg,
    t_min,
    tiling_through_vertex,
    validate_tiling,
)

print("== the hexagon (three directions, all multiplicities 1) ==")
hexagon = ZonogonSpec((1, 1, 1))
print("direction vectors:", hexagon.vectors)
tm = t_min(hexagon)
print("minimal tiling rhombi:", tm.canonical_rhombi())
print("vertices:", sorted(tm.vertices))
print("validation:", validate_tiling(tm))

down, up = flippable_vertices(tm)
print("flippable: down =", sorted(down), " up =", sorted(up))
other, move = apply_flip(tm, next(iter(up)))
print("after the up flip at", move.removed, "the new vertex is", move.created)
print("its fundamental forest:", sorted(fundamental_forest(other)))
print("phi drops back by one on the way down:", phi(other), "->", phi(tm))

print()
print("== the octagon: eight tilings forming a single cycle of flips ==")
octagon = ZonogonSpec((1, 1, 1, 1))
tilings = enumerate_tilings(octagon)
print("tiling count:", len(tilings))
for t in tilings:
    d, u = flippable_vertices(t)
    print("  interior vertices:", sorted(v for v in t.vertices if t.is_internal(v)),
          "flips:", len(d) + len(u))

print()
print("== any lattice point sits on some tiling ==")
spec = ZonogonSpec((2, 2, 1))
target = (1, 0, 1)  # not a vertex of the minimal tiling
t = tiling_through_vertex(spec, target)
print(f"tiling through {target}: contains it -> {target in t.vertices}")
path = normalize_to_min(t)
print("downward flips to the minimal tiling:", len(path),
      "= phi difference:", phi(t) - phi(t_min(spec)))

out = os.path.join(os.path.dirname(__file__), "octagon.svg")
with open(out, "w") as fh:
    fh.write(render_svg(t_min(octagon), labels=True, forest=True))
print("wrote", out)
