"""Exact Clifford-algebra computations over the rationals.

The split space V = W + W* carries the pairing <(w1,f1),(w2,f2)> =
(f1(w2) + f2(w1))/2; the exterior algebra of W is a Clifford module via
wedging (for W) and contraction (for W*).  Spinor coordinates are indexed by
subsets of {0..n-1} as bitmasks, bit i meaning the i-th basis vector of W is
present.

A vector of V is the tuple of its 2n coordinates, the W coordinates first,
with `int` or `Fraction` entries.  A span, and the spinor line a subspace
annihilates, do not change when a vector is rescaled, so an
`IsotropicSubspace` keeps each basis line once, as its canonical integer
vector (denominators cleared, the gcd divided out and the first nonzero
entry positive), and pure spinors, spin
coordinates, the random isotropic subspaces and the row elimination compute
on those.  Fractions appear only in the kernel vectors of `nullspace` and
in the non-integral coordinates of a `Spinor`, which keeps an integral
coordinate as an `int`: pure spinors and spin coordinates are integer
Clifford products, so the bilinear cube equations on them compute in
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

MAX_N = 8


class SpinorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rational linear algebra on lists of lists


def _reduce(rows):
    """Gauss-Jordan elimination on the primitive integer vectors of the rows:
    (reduced rows, pivot columns).  Each pivot clears its column from every
    other row, and each updated row is divided by its content, so no
    fraction is formed; a reduced row is a multiple of the rref row with the
    same pivot."""
    m = [_primitive(r) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                y = [p * x - f * t for x, t in zip(row, top)]
                g = gcd(*y)
                m[i] = [x // g for x in y] if g > 1 else y
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m[:len(pivots)], pivots


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix: for each free column fc, the
    vector with 1 at fc, -row[fc]/row[pc] at each reduced row's pivot pc and
    0 elsewhere."""
    red, pivots = _reduce(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(vec)
    return basis


def rank(rows):
    """Rank of a rational matrix: the number of pivots of its elimination."""
    return len(_reduce(rows)[1])


def _primitive(values) -> list:
    """The primitive integer vector on the line of a rational vector: its
    denominators cleared and its content divided out, by positive factors.
    A zero vector stays zero."""
    den = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (den // x.denominator) for x in values]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _canonical(values) -> list:
    """The primitive integer vector with its first nonzero entry positive."""
    ints = _primitive(values)
    if next((x for x in ints if x), 0) < 0:
        return [-x for x in ints]
    return ints


# ---------------------------------------------------------------------------
# vectors, spinors, and the module action


def eps(i: int, n: int) -> tuple:
    return tuple(int(j == i) for j in range(2 * n))


def eps_dual(i: int, n: int) -> tuple:
    return tuple(int(j == n + i) for j in range(2 * n))


def _twice_inner(a, b) -> int:
    """2<a, b> on vectors of V; an integer on integer vectors."""
    n = len(a) // 2
    return sum(x * y for x, y in zip(a[n:], b)) + sum(x * y for x, y in zip(a, b[n:]))


class Spinor:
    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords=None):
        if n > MAX_N:
            raise SpinorError(f"n = {n} exceeds the supported bound {MAX_N}")
        self.n = n
        if coords is None:
            coords = [0] * (1 << n)
        self.coords = [_exact(c) for c in coords]
        if len(self.coords) != 1 << n:
            raise SpinorError("coordinate vector has wrong length")

    @classmethod
    def basis(cls, n: int, mask: int) -> "Spinor":
        s = cls(n)
        s.coords[mask] = 1
        return s

    def __eq__(self, other):
        return (
            isinstance(other, Spinor)
            and self.n == other.n
            and self.coords == other.coords
        )

    def is_zero(self):
        return not any(self.coords)

    def parity(self):
        """0 for even support, 1 for odd, None for mixed or zero."""
        return _parity(self.coords)

    def __repr__(self):
        bits = [
            f"{c}*v{format(m, f'0{self.n}b')[::-1]}"
            for m, c in enumerate(self.coords)
            if c
        ]
        return " + ".join(bits) if bits else "0"


def _exact(c):
    """A coordinate as an `int` when it is integral, else as a `Fraction`."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _parity(coords):
    pars = {m.bit_count() & 1 for m, c in enumerate(coords) if c}
    return pars.pop() if len(pars) == 1 else None


def _act(w, wv, coords) -> list:
    """The module action on coordinate lists, for int or Fraction entries:
    w wedges and wv contracts, index i with the sign (-1)^k, where k counts
    the indices below i present in the mask."""
    out = [0] * len(coords)
    for mask, c in enumerate(coords):
        if not c:
            continue
        sign = 1
        for i, (a, b) in enumerate(zip(w, wv)):
            bit = 1 << i
            if mask & bit:
                if b:
                    out[mask ^ bit] += sign * b * c
                sign = -sign
            elif a:
                out[mask | bit] += sign * a * c
    return out


def clifford_act(v, s: Spinor) -> Spinor:
    """Module action of a vector of V: W components wedge, dual components
    contract."""
    n = s.n
    if len(v) != 2 * n:
        raise SpinorError(f"a vector of {len(v)} coordinates does not act on "
                          f"a spinor of n = {n}, which takes {2 * n}")
    return Spinor(n, _act(v[:n], v[n:], s.coords))


def _merge_sign(m1: int, m2: int) -> int:
    """Sign of sorting the concatenation of the two increasing index lists."""
    inv = 0
    for i in range(64):
        if m2 & (1 << i):
            inv += (m1 >> (i + 1)).bit_count()
    return -1 if inv & 1 else 1


def bilinear_form_B(s1: Spinor, s2: Spinor):
    """Sum over degrees k of (-1)^(k(k-1)/2) Vol(s1_k wedge s2_{n-k}): an
    `int` on integer coordinates."""
    n = s1.n
    if s2.n != n:
        raise SpinorError(f"spinors of n = {n} and n = {s2.n} do not pair")
    full = (1 << n) - 1
    total = 0
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
    """The span of a basis of vectors of V, checked at construction to share
    one even length 2n, to hold `int` or `Fraction` entries and to be
    independent and isotropic; `basis` keeps the canonical integer vector of
    each given line, so a rescaled basis gives an equal subspace."""

    basis: tuple

    def __post_init__(self):
        vecs = tuple(self.basis)
        lengths = {len(v) for v in vecs}
        if len(lengths) > 1 or any(k % 2 for k in lengths):
            raise SpinorError("basis vectors do not share one n")
        if not all(isinstance(x, (int, Fraction)) for v in vecs for x in v):
            raise SpinorError("basis vector entries must be int or Fraction")
        basis = tuple(tuple(_canonical(v)) for v in vecs)
        if rank(basis) != len(basis):
            raise SpinorError("basis vectors are linearly dependent")
        for i, a in enumerate(basis):
            if any(_twice_inner(a, b) for b in basis[i:]):
                raise SpinorError("subspace is not isotropic")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def n(self):
        return len(self.basis[0]) // 2 if self.basis else 0


def _clifford_products(basis, n: int):
    """Nonzero products v_1 ... v_k . e_S of a basis of integer vectors,
    e_S in mask order, as integer coordinate lists.

    The basis is applied right to left, as Clifford products act.
    """
    factors = [(v[:n], v[n:]) for v in reversed(basis)]
    for mask in range(1 << n):
        s = [0] * (1 << n)
        s[mask] = 1
        for w, wv in factors:
            s = _act(w, wv, s)
        if any(s):
            yield s


def _pure_spinors(basis, n: int, parities: int) -> dict:
    """Parity -> the first nonzero Clifford product v_1 ... v_k . e_S of that
    parity, e_S in mask order, until `parities` parities are found, each
    checked to be annihilated by the basis and parity homogeneous and kept
    as its canonical integer coordinate list.

    For a basis of an isotropic subspace L, each nonzero product spans a
    spinor line that L annihilates: the pure spinor of L when L is maximal,
    and the even or the odd one of L's two maximal extensions when L has
    dimension n-1 (C. Chevalley, The Algebraic Theory of Spinors, 1954).
    """
    found = {}
    for s in _clifford_products(basis, n):
        parity = _parity(s)
        if parity in found:
            continue
        if any(any(_act(v[:n], v[n:], s)) for v in basis):
            raise SpinorError("subspace does not annihilate its Clifford product")
        if parity is None:
            raise SpinorError("pure spinor is not parity homogeneous")
        found[parity] = _canonical(s)
        if len(found) == parities:
            break
    return found


def pure_spinor(sub: IsotropicSubspace) -> Spinor:
    """The spinor line annihilated by a maximal isotropic subspace L: the
    first nonzero Clifford product v_1 ... v_n . e_S of a basis of L, in
    canonical form."""
    n = sub.n
    if sub.dim != n:
        raise SpinorError("pure spinors come from maximal isotropic subspaces")
    found = _pure_spinors(sub.basis, n, 1)
    if not found:
        raise SpinorError("Clifford product of the basis is zero")
    return Spinor(n, *found.values())


def annihilator(s: Spinor) -> IsotropicSubspace:
    """The subspace {v in V : v . s = 0}, isotropic since
    vw.s + wv.s = 2<v, w>s."""
    if s.is_zero():
        raise SpinorError("zero spinor")
    n = s.n
    gens = [eps(i, n) for i in range(n)] + [eps_dual(i, n) for i in range(n)]
    # row m holds coordinate m of each generator's image
    rows = zip(*(clifford_act(g, s).coords for g in gens))
    return IsotropicSubspace(nullspace(list(rows), 2 * n))


def purity_check(s: Spinor):
    """(is_pure, annihilator subspace); pure means the kernel has dimension n."""
    sub = annihilator(s)
    return sub.dim == s.n, sub


def _spinor_pair(sub: IsotropicSubspace):
    """(even, odd) canonical integer coordinates of the pure spinors
    annihilated by an isotropic K of dim n-1."""
    n = sub.n
    if sub.dim != n - 1:
        raise SpinorError("expected an isotropic subspace of dimension n-1")
    found = _pure_spinors(sub.basis, n, 2)
    if len(found) < 2:
        raise SpinorError("Clifford products of K do not reach both parities")
    return found[0], found[1]


def complete_isotropic_pair(sub: IsotropicSubspace):
    """The two maximal isotropic subspaces containing a given (n-1)-dim one,
    the first with an even-parity pure spinor."""
    return tuple(annihilator(Spinor(sub.n, s)) for s in _spinor_pair(sub))


# ---------------------------------------------------------------------------
# spin coordinates and the bilinear cube equations


def spin_coordinates(sub: IsotropicSubspace) -> Spinor:
    """Spin coordinates of an isotropic subspace K of dimension n-1.

    The Clifford product v_1 ... v_{n-1} of a basis of K maps the spinor
    module onto the 2-dimensional space that K annihilates, which is spanned
    by the even and the odd pure spinor of the two maximal isotropic
    subspaces containing K.  The first nonzero product of each parity gives
    the even and the odd coordinates, with no linear solve; each is zero off
    its own parity, so their sum holds both.
    """
    even, odd = _spinor_pair(sub)
    return Spinor(sub.n, [a + b for a, b in zip(even, odd)])


def trbi_residuals(p: Spinor):
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


def verify_trbi(p: Spinor):
    """List of violated bilinear cube equations (empty when all hold)."""
    return [(where, res) for where, res in trbi_residuals(p) if res != 0]


def sign_twist(p: Spinor) -> Spinor:
    """Negate the coordinates whose index has popcount divisible by 4."""
    return Spinor(p.n, [-c if m.bit_count() % 4 == 0 else c for m, c in enumerate(p.coords)])


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
    return IsotropicSubspace([(*a[i], *(int(i == j) for j in range(n))) for i in range(n)])


# ---------------------------------------------------------------------------
# random rational samplers (exact; used by the verification suites)


def _random_mirror(rng, n: int):
    """(m, 2<m, m>) for a random anisotropic mirror: 2n fractions
    randint(-5, 5)/randint(1, 4), redrawn until anisotropic, as the primitive
    integer vector m of their line."""
    while True:
        pairs = [(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2 * n)]
        den = lcm(*(d for _, d in pairs))
        m = [x * (den // d) for x, d in pairs]
        g = gcd(*m)
        if g > 1:
            m = [x // g for x in m]
        q = _twice_inner(m, m)
        if q:
            return m, q


def random_isotropic_subspace(rng, n: int, dim: int) -> IsotropicSubspace:
    """Image of a coordinate isotropic subspace under 8 random exact reflections.

    Reflections in anisotropic rational vectors preserve rank and the pairing
    exactly, so the image is isotropic of the same dimension; 8 of them move
    the standard subspace to a generic position.  Each basis vector is kept
    as an integer vector of gcd 1 on its line: with B = 2<.,.> and
    q = B(m, m) for a primitive integer mirror m, q x - 2 B(x, m) m is q
    times the reflection of x, and dividing it by its content keeps it on
    the line of its rational reflection.
    """
    vecs = [[int(j == i) for j in range(2 * n)] for i in range(dim)]
    for _ in range(8):
        m, q = _random_mirror(rng, n)
        for k, x in enumerate(vecs):
            f = 2 * _twice_inner(x, m)
            y = [q * a - f * b for a, b in zip(x, m)]
            g = gcd(*y)
            vecs[k] = [a // g for a in y]
    return IsotropicSubspace(vecs)
