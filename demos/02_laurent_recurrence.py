#!/usr/bin/env python3
"""The cube recurrence in its three coefficient domains.

Every value computed by flipping is a Laurent polynomial in the initial
variables (numerator over a single monomial), divisions always come out
exact, and the result never depends on the flip order.
"""

import random
from fractions import Fraction

from zonorec import (
    RATIONAL,
    TROPICAL,
    ZonogonSpec,
    connect,
    evaluate_path,
    extend_to_lattice,
    extension_moves,
    initial_labeling,
    random_tiling,
    symbolic_labeling,
    t_min,
    verify_cube_relations,
)

print("== symbolic run on the hexagon ==")
spec = ZonogonSpec((1, 1, 1))
tm = t_min(spec)
total = extend_to_lattice(symbolic_labeling(tm))
print("value at the one vertex missing from the minimal tiling:")
print("  x(1,0,1) =", total.values[(1, 0, 1)])
print("all cube relations hold:", verify_cube_relations(total) == [])

print()
print("== symbolic run on a bigger zonogon ==")
spec = ZonogonSpec((2, 2, 1))
tm = t_min(spec)
moves = extension_moves(tm)  # one flip schedule serves every labeling of tm
total = extend_to_lattice(symbolic_labeling(tm), moves)
widest = max(total.values.values(), key=lambda p: len(p.terms))
print("largest Laurent value has", len(widest.terms), "terms; every division",
      "along the way was exact")

print()
print("== the same recurrence over exact rationals, and the commuting square ==")
rng = random.Random(0)
point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in sorted(tm.vertices)}
rational = extend_to_lattice(initial_labeling(tm, RATIONAL, point), moves)
agree = all(
    total.values[p].evaluate(point) == rational.values[p]
    for p in spec.points
)
print("evaluate(symbolic) == rational run at a random positive point:", agree)
print("positivity preserved:", all(x > 0 for x in rational.values.values()))

print()
print("== confluence: two different flip routes, identical values ==")
t1, t2 = random_tiling(spec, rng), random_tiling(spec, rng)
lab = initial_labeling(t1, RATIONAL,
                       {v: Fraction(rng.randint(1, 9)) for v in sorted(t1.vertices)})
out_a = evaluate_path(lab, connect(t1, t2))
out_b = evaluate_path(lab, connect(t1, t2, rng=rng))
print("labelings on the target tiling agree:",
      all(out_a.values[v] == out_b.values[v] for v in t2.vertices))

print()
print("== max-plus: plus becomes max, times becomes plus ==")
tropical = extend_to_lattice(
    initial_labeling(tm, TROPICAL,
                     {v: Fraction(rng.randint(-5, 5)) for v in sorted(tm.vertices)}),
    moves,
)
print("tropical extension satisfies the max-plus cube relation:",
      verify_cube_relations(tropical) == [])
