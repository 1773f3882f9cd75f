#!/usr/bin/env python3
"""When all multiplicities are 1, the recurrence cuts out spinor geometry.

The coordinates of an isotropic (n-1)-plane, read off through the pure
spinors of its two maximal isotropic extensions, satisfy the alternating
bilinear cube equations; negating the coordinates whose index has popcount
divisible by 4 turns those into the all-plus cube relations and back.
"""

import random
from fractions import Fraction

from zonorec import (
    IsotropicSubspace,
    RATIONAL,
    Spinor,
    ZonogonSpec,
    bilinear_form_B,
    complete_isotropic_pair,
    eps,
    extend_to_lattice,
    initial_labeling,
    isotropic_from_skew,
    pfaffian,
    pure_spinor,
    purity_check,
    random_isotropic_subspace,
    sign_twist,
    spin_coordinates,
    t_min,
    verify_trbi,
)

rng = random.Random(0)
n = 4

print("== pure spinors and Pfaffian coordinates ==")
a = [[Fraction(0)] * n for _ in range(n)]
for i in range(n):
    for j in range(i + 1, n):
        a[i][j] = Fraction(rng.randint(-3, 3))
        a[j][i] = -a[i][j]
sub = isotropic_from_skew(a)
s = pure_spinor(sub)
print("pure spinor of a skew chart:", s)
neg = [[-x for x in row] for row in a]
pf = {m: pfaffian([[neg[i][j] for j in (k for k in range(n) if m >> k & 1)]
                   for i in (k for k in range(n) if m >> k & 1)])
      for m in range(1 << n) if m.bit_count() % 2 == 0}
print("matches the Pfaffian minors of the negated chart matrix:",
      all(s.coords[m] == pf[m] * s.coords[0] for m in pf))

print()
print("== an isotropic 3-plane and its spin coordinates ==")
K = random_isotropic_subspace(rng, n, n - 1)
plus, minus = complete_isotropic_pair(K)
print("two maximal isotropic extensions found; parities:",
      pure_spinor(plus).parity(), pure_spinor(minus).parity())
pt = spin_coordinates(K)
print("bilinear cube equations all satisfied:", verify_trbi(pt) == [])

print()
print("== recurrence values are spin coordinates after the sign twist ==")
spec = ZonogonSpec((1,) * n)
tm = t_min(spec)
vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in sorted(tm.vertices)}
lab = extend_to_lattice(initial_labeling(tm, RATIONAL, vals))
coords = {sum(b << i for i, b in enumerate(p)): lab.values[p]
          for p in spec.points}
pt = sign_twist(Spinor(n, [coords[m] for m in range(1 << n)]))
print("twisted recurrence labeling satisfies the bilinear equations:",
      verify_trbi(pt) == [])
even = Spinor(n, [pt.coords[m] if m.bit_count() % 2 == 0 else 0
                  for m in range(1 << n)])
odd = Spinor(n, [pt.coords[m] if m.bit_count() % 2 == 1 else 0
                 for m in range(1 << n)])
print("both halves are pure spinors:",
      purity_check(even)[0] and purity_check(odd)[0])

print()
print("== the invariant pairing on spinors ==")
v000 = Spinor.basis(3, 0b000)
v111 = Spinor.basis(3, 0b111)
print("B(v_000, v_111) =", bilinear_form_B(v000, v111))
K3 = IsotropicSubspace([eps(0, 3), eps(1, 3)])
print("spin point of span(e1, e2):",
      {m: c for m, c in enumerate(spin_coordinates(K3).coords) if c})
