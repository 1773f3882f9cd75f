"""Exact Clifford-algebra computations over the rationals.

The split space V = W + W* carries the pairing <(w1,f1),(w2,f2)> =
(f1(w2) + f2(w1))/2; the exterior algebra of W is a Clifford module via
wedging (for W) and contraction (for W*).  Spinors are dense vectors of
2^n rationals indexed by subsets of {0..n-1} as bitmasks, bit i meaning
the i-th basis vector of W is present.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

MAX_N = 8


class SpinorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rational linear algebra on lists of lists


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def rank(rows):
    return len(rref(rows)[0])


def intersect_spans(rows1, rows2):
    """Basis of span(rows1) & span(rows2)."""
    if not rows1 or not rows2:
        return []
    ncols = len(rows1[0])
    sys_rows = []
    # solve lambda * rows1 - mu * rows2 = 0 by transposing
    for c in range(ncols):
        sys_rows.append(
            [Fraction(rows1[i][c]) for i in range(len(rows1))]
            + [-Fraction(rows2[j][c]) for j in range(len(rows2))]
        )
    out = []
    for sol in nullspace(sys_rows, len(rows1) + len(rows2)):
        lam = sol[: len(rows1)]
        vec = [
            sum(lam[i] * Fraction(rows1[i][c]) for i in range(len(rows1)))
            for c in range(ncols)
        ]
        if any(vec):
            out.append(vec)
    red, _ = rref(out)
    return red


# ---------------------------------------------------------------------------
# vectors, spinors, and the module action


@dataclass(frozen=True)
class Vector2n:
    """Coefficients on the W basis and on the dual basis."""

    w: tuple
    wv: tuple

    @property
    def n(self):
        return len(self.w)

    def flat(self):
        return tuple(self.w) + tuple(self.wv)

    @classmethod
    def from_flat(cls, flat):
        n = len(flat) // 2
        return cls(tuple(map(Fraction, flat[:n])), tuple(map(Fraction, flat[n:])))


def eps(i: int, n: int) -> Vector2n:
    return Vector2n(tuple(Fraction(j == i) for j in range(n)), (Fraction(0),) * n)


def eps_dual(i: int, n: int) -> Vector2n:
    return Vector2n((Fraction(0),) * n, tuple(Fraction(j == i) for j in range(n)))


def inner(v1: Vector2n, v2: Vector2n) -> Fraction:
    s = sum(a * b for a, b in zip(v1.wv, v2.w)) + sum(
        a * b for a, b in zip(v2.wv, v1.w)
    )
    return Fraction(s, 2)


class Spinor:
    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords=None):
        if n > MAX_N:
            raise SpinorError(f"n = {n} exceeds the supported bound {MAX_N}")
        self.n = n
        if coords is None:
            coords = [Fraction(0)] * (1 << n)
        self.coords = [Fraction(c) for c in coords]
        if len(self.coords) != 1 << n:
            raise SpinorError("coordinate vector has wrong length")

    @classmethod
    def basis(cls, n: int, mask: int) -> "Spinor":
        s = cls(n)
        s.coords[mask] = Fraction(1)
        return s

    def __eq__(self, other):
        return (
            isinstance(other, Spinor)
            and self.n == other.n
            and self.coords == other.coords
        )

    def __add__(self, other):
        return Spinor(self.n, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return Spinor(self.n, [a - b for a, b in zip(self.coords, other.coords)])

    def scale(self, c) -> "Spinor":
        c = Fraction(c)
        return Spinor(self.n, [c * x for x in self.coords])

    def is_zero(self):
        return not any(self.coords)

    def support(self):
        return [m for m, c in enumerate(self.coords) if c]

    def parity(self):
        """0 for even support, 1 for odd, None for mixed or zero."""
        pars = {m.bit_count() & 1 for m in self.support()}
        return pars.pop() if len(pars) == 1 else None

    def canonical(self) -> "Spinor":
        """Cleared denominators, content 1, first nonzero coordinate positive."""
        sup = self.support()
        if not sup:
            return Spinor(self.n)
        denom = 1
        for m in sup:
            denom = denom * self.coords[m].denominator // gcd(
                denom, self.coords[m].denominator
            )
        ints = [int(c * denom) for c in self.coords]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        sign = 1 if ints[sup[0]] > 0 else -1
        return Spinor(self.n, [Fraction(sign * x, g) for x in ints])

    def __repr__(self):
        bits = [
            f"{c}*v{format(m, f'0{self.n}b')[::-1]}"
            for m, c in enumerate(self.coords)
            if c
        ]
        return " + ".join(bits) if bits else "0"


def _sign_below(mask: int, i: int) -> int:
    return -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1


def clifford_act(v: Vector2n, s: Spinor) -> Spinor:
    """Module action: W components wedge, dual components contract."""
    out = Spinor(s.n)
    for mask, c in enumerate(s.coords):
        if not c:
            continue
        for i in range(s.n):
            bit = 1 << i
            if v.w[i] and not mask & bit:
                out.coords[mask | bit] += _sign_below(mask, i) * v.w[i] * c
            if v.wv[i] and mask & bit:
                out.coords[mask & ~bit] += _sign_below(mask, i) * v.wv[i] * c
    return out


def _merge_sign(m1: int, m2: int) -> int:
    """Sign of sorting the concatenation of the two increasing index lists."""
    inv = 0
    for i in range(64):
        if m2 & (1 << i):
            inv += (m1 >> (i + 1)).bit_count()
    return -1 if inv & 1 else 1


def bilinear_form_B(s1: Spinor, s2: Spinor) -> Fraction:
    """Sum over degrees k of (-1)^(k(k-1)/2) Vol(s1_k wedge s2_{n-k})."""
    n = s1.n
    full = (1 << n) - 1
    total = Fraction(0)
    for m1, c1 in enumerate(s1.coords):
        if not c1:
            continue
        m2 = full ^ m1
        c2 = s2.coords[m2]
        if not c2:
            continue
        k = m1.bit_count()
        sign = -1 if (k * (k - 1) // 2) & 1 else 1
        total += sign * _merge_sign(m1, m2) * c1 * c2
    return total


# ---------------------------------------------------------------------------
# isotropic subspaces and pure spinors


@dataclass(frozen=True)
class IsotropicSubspace:
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    @property
    def n(self):
        return self.basis[0].n if self.basis else 0


def make_isotropic(vectors) -> IsotropicSubspace:
    vecs = tuple(vectors)
    flats = [v.flat() for v in vecs]
    if rank(flats) != len(vecs):
        raise SpinorError("basis vectors are linearly dependent")
    for v1, v2 in combinations(vecs, 2):
        if inner(v1, v2) != 0:
            raise SpinorError("subspace is not isotropic")
    for v in vecs:
        if inner(v, v) != 0:
            raise SpinorError("subspace is not isotropic")
    return IsotropicSubspace(vecs)


def _clifford_products(basis, n: int):
    """Nonzero products v_1 ... v_k . e_S of a basis, e_S in mask order.

    The basis is applied right to left, as Clifford products act.
    """
    for mask in range(1 << n):
        s = Spinor.basis(n, mask)
        for v in reversed(basis):
            s = clifford_act(v, s)
        if not s.is_zero():
            yield s


def _annihilated_spinor(basis, s: Spinor) -> Spinor:
    """Canonical form of s, checked to be annihilated by the basis and
    parity homogeneous."""
    if any(not clifford_act(v, s).is_zero() for v in basis):
        raise SpinorError("subspace does not annihilate its Clifford product")
    s = s.canonical()
    if s.parity() is None:
        raise SpinorError("pure spinor is not parity homogeneous")
    return s


def pure_spinor(sub: IsotropicSubspace) -> Spinor:
    """The spinor line annihilated by a maximal isotropic subspace L.

    Chevalley's construction: for a basis v_1..v_n of L and any basis spinor
    e_S, the Clifford product v_1 ... v_n . e_S is either zero or spans that
    line (C. Chevalley, The Algebraic Theory of Spinors, 1954).  Basis
    spinors are tried in mask order and the first nonzero product is
    returned in canonical form.
    """
    n = sub.n
    if sub.dim != n:
        raise SpinorError("pure spinors come from maximal isotropic subspaces")
    s = next(_clifford_products(sub.basis, n), None)
    if s is None:
        raise SpinorError("Clifford product of the basis is zero")
    return _annihilated_spinor(sub.basis, s)


def annihilator(s: Spinor) -> list:
    """Basis (as Vector2n) of {v in V : v . s = 0}."""
    if s.is_zero():
        raise SpinorError("zero spinor")
    n = s.n
    gens = [eps(i, n) for i in range(n)] + [eps_dual(i, n) for i in range(n)]
    images = [clifford_act(g, s).coords for g in gens]
    rows = [[images[g][m] for g in range(2 * n)] for m in range(1 << n)]
    return [Vector2n.from_flat(v) for v in nullspace(rows, 2 * n)]


def purity_check(s: Spinor):
    """(is_pure, annihilator subspace); pure means the kernel has dimension n."""
    ann = annihilator(s)
    sub = IsotropicSubspace(tuple(ann))
    for v1, v2 in combinations(ann, 2):
        if inner(v1, v2) != 0:
            raise SpinorError("annihilator is not isotropic")
    for v in ann:
        if inner(v, v) != 0:
            raise SpinorError("annihilator is not isotropic")
    return len(ann) == s.n, sub


def _spinor_pair(sub: IsotropicSubspace):
    """(even, odd) pure spinors annihilated by an isotropic K of dim n-1:
    the first Clifford product of each parity, in canonical form."""
    n = sub.n
    if sub.dim != n - 1:
        raise SpinorError("expected an isotropic subspace of dimension n-1")
    make_isotropic(sub.basis)  # K's basis is independent and isotropic
    found = {}
    for s in _clifford_products(sub.basis, n):
        if s.parity() not in found:
            found[s.parity()] = _annihilated_spinor(sub.basis, s)
            if len(found) == 2:
                return found[0], found[1]
    raise SpinorError("Clifford products of K do not reach both parities")


def complete_isotropic_pair(sub: IsotropicSubspace):
    """The two maximal isotropic subspaces containing a given (n-1)-dim one,
    the first with an even-parity pure spinor."""
    return tuple(make_isotropic(annihilator(s)) for s in _spinor_pair(sub))


# ---------------------------------------------------------------------------
# spin coordinates and the bilinear cube equations


@dataclass
class SpinPoint:
    """Projective coordinates on the even and odd halves of the cube."""

    n: int
    coords: dict  # mask -> Fraction, all 2^n masks

    def even(self):
        return {m: c for m, c in self.coords.items() if m.bit_count() % 2 == 0}

    def odd(self):
        return {m: c for m, c in self.coords.items() if m.bit_count() % 2 == 1}


def spin_coordinates(sub: IsotropicSubspace) -> SpinPoint:
    """Spin coordinates of an isotropic subspace K of dimension n-1.

    The Clifford product v_1 ... v_{n-1} of a basis of K maps the spinor
    module onto the 2-dimensional space that K annihilates, which is spanned
    by the even and the odd pure spinor of the two maximal isotropic
    subspaces containing K (C. Chevalley, The Algebraic Theory of Spinors,
    1954).  Basis spinors e_S are tried in mask order; the first nonzero
    product of each parity gives the even and the odd coordinates, with no
    linear solve.
    """
    sp, sm = _spinor_pair(sub)
    coords = {}
    for m in range(1 << sub.n):
        coords[m] = sp.coords[m] if m.bit_count() % 2 == 0 else sm.coords[m]
    return SpinPoint(sub.n, coords)


def trbi_residuals(p: SpinPoint):
    """Residuals of x_I x_Ijkl + x_Ijl x_Ik - x_Ijk x_Il - x_Ikl x_Ij."""
    n = p.n
    x = p.coords
    out = []
    for j, k, l in combinations(range(n), 3):
        bj, bk, bl = 1 << j, 1 << k, 1 << l
        for mask in range(1 << n):
            if mask & (bj | bk | bl):
                continue
            res = (
                x[mask] * x[mask | bj | bk | bl]
                + x[mask | bj | bl] * x[mask | bk]
                - x[mask | bj | bk] * x[mask | bl]
                - x[mask | bk | bl] * x[mask | bj]
            )
            out.append(((mask, (j, k, l)), res))
    return out


def verify_trbi(p: SpinPoint):
    """List of violated bilinear cube equations (empty when all hold)."""
    return [(where, res) for where, res in trbi_residuals(p) if res != 0]


def sign_twist(p: SpinPoint) -> SpinPoint:
    """Negate the coordinates whose index has popcount divisible by 4."""
    return SpinPoint(
        p.n,
        {
            m: (-c if m.bit_count() % 4 == 0 else c)
            for m, c in p.coords.items()
        },
    )


def projection_pi(point_mask: int, dirs, s: Spinor) -> Spinor:
    """Contract by the marked index set, then restrict to three directions.

    point_mask selects the coordinates of I (which must avoid dirs); the
    result is a spinor on 3 indices in the order given by dirs.
    """
    j, k, l = dirs
    if point_mask & ((1 << j) | (1 << k) | (1 << l)):
        raise SpinorError("marked point must have zero coordinates on dirs")
    cur = s
    n = s.n
    for i in range(n):
        if point_mask & (1 << i):
            cur = clifford_act(eps_dual(i, n), cur)
    out = Spinor(3)
    keep = (1 << j) | (1 << k) | (1 << l)
    for mask in cur.support():
        if mask & ~keep:
            continue
        small = (
            (1 if mask & (1 << j) else 0)
            | (2 if mask & (1 << k) else 0)
            | (4 if mask & (1 << l) else 0)
        )
        out.coords[small] = cur.coords[mask]
    return out


# ---------------------------------------------------------------------------
# Pfaffians and standard charts


def pfaffian(m) -> Fraction:
    """Pfaffian of a skew-symmetric matrix, by first-row expansion."""
    size = len(m)
    for i in range(size):
        if m[i][i] != 0:
            raise SpinorError("matrix is not skew-symmetric")
        for j in range(i + 1, size):
            if m[i][j] != -m[j][i]:
                raise SpinorError("matrix is not skew-symmetric")
    if size % 2:
        return Fraction(0)

    def rec(idx):
        if not idx:
            return Fraction(1)
        i0 = idx[0]
        total = Fraction(0)
        for t in range(1, len(idx)):
            rest = idx[1:t] + idx[t + 1:]
            sign = -1 if (t - 1) & 1 else 1
            val = Fraction(m[i0][idx[t]])
            if val:
                total += sign * val * rec(rest)
        return total

    return rec(tuple(range(size)))


def isotropic_from_skew(a) -> IsotropicSubspace:
    """Rowspan of (A | Id) for skew A: the standard maximal isotropic chart."""
    n = len(a)
    vecs = []
    for i in range(n):
        w = tuple(Fraction(a[i][j]) for j in range(n))
        wv = tuple(Fraction(i == j) for j in range(n))
        vecs.append(Vector2n(w, wv))
    return make_isotropic(vecs)


# ---------------------------------------------------------------------------
# random rational samplers (exact; used by the verification suites)


def _random_fraction(rng, lo=-5, hi=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def reflect(v: Vector2n, x: Vector2n) -> Vector2n:
    """Orthogonal reflection of x in the hyperplane normal to v."""
    q = inner(v, v)
    if q == 0:
        raise SpinorError("cannot reflect in an isotropic vector")
    f = 2 * inner(x, v) / q
    return Vector2n.from_flat([a - f * b for a, b in zip(x.flat(), v.flat())])


def random_anisotropic_vector(rng, n: int) -> Vector2n:
    while True:
        v = Vector2n(
            tuple(_random_fraction(rng) for _ in range(n)),
            tuple(_random_fraction(rng) for _ in range(n)),
        )
        if inner(v, v) != 0:
            return v


def random_isotropic_subspace(rng, n: int, dim: int, reflections: int = 8
                              ) -> IsotropicSubspace:
    """Image of a coordinate isotropic subspace under random exact reflections.

    Reflections in anisotropic rational vectors preserve the pairing exactly,
    so the image stays isotropic and rational; a short random product of them
    moves the standard subspace to a generic position.
    """
    vecs = [eps(i, n) for i in range(dim)]
    for _ in range(reflections):
        mirror = random_anisotropic_vector(rng, n)
        vecs = [reflect(mirror, v) for v in vecs]
    return make_isotropic(vecs)


def random_unit_vector(rng, n: int) -> Vector2n:
    """A random vector of exact norm 1 (rational circle/hyperbola points)."""
    i = rng.randrange(n)
    j = rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    # plus = e_i + e_i*, minus = e_j - e_j*: norms +1 and -1, orthogonal
    t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if rng.random() < 0.5:
        alpha = (1 - t * t) / (1 + t * t)
        beta = 2 * t / (1 + t * t)
        u = eps(j, n)
        ud = eps_dual(j, n)
        other_w = tuple(beta * (a + b) for a, b in zip(u.w, ud.w))
        other_wv = tuple(beta * (a + b) for a, b in zip(u.wv, ud.wv))
    else:
        alpha = (t * t + 1) / (2 * t)
        beta = (t * t - 1) / (2 * t)
        u = eps(j, n)
        ud = eps_dual(j, n)
        other_w = tuple(beta * (a - b) for a, b in zip(u.w, ud.w))
        other_wv = tuple(beta * (a - b) for a, b in zip(u.wv, ud.wv))
    base = eps(i, n)
    based = eps_dual(i, n)
    w = tuple(alpha * (a + b) + c for a, b, c in zip(base.w, based.w, other_w))
    wv = tuple(alpha * (a + b) + c for a, b, c in zip(base.wv, based.wv, other_wv))
    v = Vector2n(w, wv)
    if inner(v, v) != 1:
        raise SpinorError("unit construction failed")
    return v
