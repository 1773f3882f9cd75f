"""Independent oracles: kept deliberately separate from the library's own
algorithms so they can cross-check them."""

from fractions import Fraction
from itertools import combinations, product

from zonorec.zonogon import (
    ZonogonSpec,
    Tiling,
    _interiors_overlap,
    cross,
    rhombus_corners,
    zonogon_area2,
)
from zonorec.flips import apply_flip, flippable_vertices
from zonorec.spinor import Spinor, SpinorError, clifford_act, nullspace


def all_candidate_rhombi(spec: ZonogonSpec):
    out = []
    for j, k in combinations(range(spec.n), 2):
        ranges = [
            range(m) if i in (j, k) else range(m + 1)
            for i, m in enumerate(spec.a)
        ]
        for base in product(*ranges):
            out.append((tuple(base), (j, k)))
    return out


def brute_force_tilings(spec: ZonogonSpec):
    """All tilings by exhaustive placement of non-overlapping rhombi.

    A set of F = sum a_i a_j rhombi with pairwise disjoint interiors and the
    right total area necessarily covers the zonogon.
    """
    cands = all_candidate_rhombi(spec)
    m = len(cands)
    conflicts = [set() for _ in range(m)]
    for i, j in combinations(range(m), 2):
        if _interiors_overlap(spec, cands[i], cands[j]):
            conflicts[i].add(j)
            conflicts[j].add(i)
    areas = [abs(cross(spec.vectors[j], spec.vectors[k])) for _, (j, k) in cands]
    need_count = spec.rhombus_count
    need_area = zonogon_area2(spec)
    results = []

    def rec(start, chosen, blocked, area):
        if len(chosen) == need_count:
            if area == need_area:
                results.append(Tiling(spec, [cands[i] for i in chosen]))
            return
        if m - start < need_count - len(chosen):
            return
        for i in range(start, m):
            if i in blocked:
                continue
            rec(i + 1, chosen + [i], blocked | conflicts[i], area + areas[i])

    rec(0, [], set(), 0)
    return results


def restricted_bfs_connect(t, t2, marked):
    """Shortest flip path between tilings within the set containing `marked`,
    as a list of tilings; None if unreachable."""
    if marked not in t.vertices or marked not in t2.vertices:
        return None
    seen = {t: None}
    frontier = [t]
    while frontier:
        nxt = []
        for cur in frontier:
            down, up = flippable_vertices(cur)
            for v in sorted(down | up):
                child, _ = apply_flip(cur, v)
                if marked in child.vertices and child not in seen:
                    seen[child] = cur
                    nxt.append(child)
        if t2 in seen:
            break
        frontier = nxt
    if t2 not in seen:
        return None
    path = [t2]
    while seen[path[-1]] is not None:
        path.append(seen[path[-1]])
    return list(reversed(path))


def det(matrix) -> Fraction:
    """Exact determinant by cofactor recursion with column-mask memoisation."""
    n = len(matrix)
    memo = {}

    def rec(row, mask):
        if row == n:
            return Fraction(1)
        key = mask
        if key in memo:
            return memo[key]
        total = Fraction(0)
        sign = 1
        for c in range(n):
            bit = 1 << c
            if mask & bit:
                continue
            val = Fraction(matrix[row][c])
            if val:
                total += sign * val * rec(row + 1, mask | bit)
            sign = -sign
        memo[key] = total
        return total

    return rec(0, 0)


def pure_spinor_by_kernel(sub) -> Spinor:
    """Pure spinor of a maximal isotropic subspace as the joint kernel of its
    Clifford action, by one dense rational solve of size (n 2^n) x 2^n."""
    n = sub.n
    if sub.dim != n:
        raise SpinorError("pure spinors come from maximal isotropic subspaces")
    dim_s = 1 << n
    rows = []
    for v in sub.basis:
        cols = [clifford_act(v, Spinor.basis(n, m)).coords for m in range(dim_s)]
        for out_mask in range(dim_s):
            rows.append([cols[m][out_mask] for m in range(dim_s)])
    kernel = nullspace(rows, dim_s)
    if len(kernel) != 1:
        raise SpinorError(f"solution space dimension {len(kernel)} != 1")
    s = Spinor(n, kernel[0]).canonical()
    if s.parity() is None:
        raise SpinorError("pure spinor is not parity homogeneous")
    return s
