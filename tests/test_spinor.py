import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from zonorec import (
    RATIONAL,
    IsotropicSubspace,
    Labeling,
    Spinor,
    SpinorError,
    ZonogonSpec,
    bilinear_form_B,
    clifford_act,
    complete_isotropic_pair,
    eps,
    eps_dual,
    extend_to_lattice,
    extension_moves,
    initial_labeling,
    isotropic_from_skew,
    pfaffian,
    pure_spinor,
    purity_check,
    random_isotropic_subspace,
    sign_twist,
    spin_coordinates,
    t_min,
    verify_cube_relations,
    verify_trbi,
)
from zonorec.spinor import nullspace, rank, trbi_residuals

from oracles import (
    canonical_spinor,
    clifford_act_by_signs,
    clifford_action_rows,
    inner,
    intersect_spans,
    nullspace_by_rref,
    projection_pi,
    pure_spinor_by_fractions,
    random_isotropic_subspace_by_reflections,
    random_unit_vector,
    rref,
    spin_coordinates_by_fractions,
)


def mask(*bits):
    return sum(1 << b for b in bits)


def random_spinor(rng, n):
    return Spinor(n, [Fraction(rng.randint(-4, 4)) for _ in range(1 << n)])


def _scaled_spinor(s, c):
    return Spinor(s.n, [c * x for x in s.coords])


def test_clifford_wedge_and_contraction():
    s = Spinor.basis(3, 0)
    assert clifford_act(eps(0, 3), s) == Spinor.basis(3, mask(0))
    assert clifford_act(eps_dual(0, 3), s).is_zero()
    s12 = Spinor.basis(3, mask(0, 1))
    assert clifford_act(eps_dual(0, 3), s12) == Spinor.basis(3, mask(1))


def test_clifford_relation():
    rng = random.Random(0)
    for n in (3, 4, 5, 6):
        for _ in range(10):
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2 * n))
            s = random_spinor(rng, n)
            assert clifford_act(v, clifford_act(v, s)) == _scaled_spinor(s, inner(v, v))


def test_unit_vector_squares_to_identity():
    rng = random.Random(1)
    v = random_unit_vector(rng, 4)
    s = random_spinor(rng, 4)
    assert clifford_act(v, clifford_act(v, s)) == s


@pytest.mark.parametrize("call, message", [
    (lambda: clifford_act(eps(0, 3), Spinor.basis(4, 0)),
     "vector of 6 coordinates .* spinor of n = 4"),
    (lambda: clifford_act(eps(0, 4), Spinor.basis(3, 0)),
     "vector of 8 coordinates .* spinor of n = 3"),
    (lambda: bilinear_form_B(Spinor.basis(3, 0), Spinor.basis(4, 15)),
     "n = 3 and n = 4"),
    (lambda: bilinear_form_B(Spinor.basis(4, 15), Spinor.basis(3, 0)),
     "n = 4 and n = 3"),
], ids=["act-n3-on-n4", "act-n4-on-n3", "pair-n3-n4", "pair-n4-n3"])
def test_size_mismatch_raises(call, message):
    with pytest.raises(SpinorError, match=message):
        call()


def test_pairing_values_n3():
    cases = [
        ((0, 0, 0), (1, 1, 1), 1),
        ((0, 1, 1), (1, 0, 0), -1),
        ((1, 0, 1), (0, 1, 0), 1),
        ((1, 1, 0), (0, 0, 1), -1),
    ]
    for bits1, bits2, val in cases:
        m1 = sum(b << i for i, b in enumerate(bits1))
        m2 = sum(b << i for i, b in enumerate(bits2))
        assert bilinear_form_B(Spinor.basis(3, m1), Spinor.basis(3, m2)) == val


def test_b_invariance_under_units():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.choice([3, 4, 5])
        v = random_unit_vector(rng, n)
        s1, s2 = random_spinor(rng, n), random_spinor(rng, n)
        assert bilinear_form_B(clifford_act(v, s1), clifford_act(v, s2)) == (
            bilinear_form_B(s1, s2)
        )


def test_pure_spinor_coordinate_subspaces():
    n = 4
    dual = IsotropicSubspace([eps_dual(i, n) for i in range(n)])
    assert pure_spinor(dual) == Spinor.basis(n, 0)
    whole = IsotropicSubspace([eps(i, n) for i in range(n)])
    assert pure_spinor(whole) == Spinor.basis(n, (1 << n) - 1)


def test_pure_spinor_requires_maximal():
    sub = IsotropicSubspace([eps(0, 3), eps(1, 3)])
    with pytest.raises(SpinorError):
        pure_spinor(sub)


def test_pure_spinor_rejects_non_isotropic():
    # eps_0 and eps_0* pair to 1/2, so the subspace is refused when it is made
    with pytest.raises(SpinorError, match="not isotropic"):
        pure_spinor(IsotropicSubspace((eps(0, 3), eps(1, 3), eps_dual(0, 3))))


def _random_skew(rng, n):
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            a[j][i] = -a[i][j]
    return a


def test_pure_spinor_pfaffian_chart():
    # kernel of the rowspan of (A | Id) has coordinates proportional to the
    # Pfaffians of the principal minors of -A (equivalently, of A up to the
    # sign (-1)^{|J|/2})
    rng = random.Random(3)
    for n in (3, 4, 5):
        for _ in range(4):
            a = _random_skew(rng, n)
            sub = isotropic_from_skew(a)
            s = pure_spinor(sub)
            neg = [[-x for x in row] for row in a]
            ref = {}
            for m in range(1 << n):
                if m.bit_count() % 2:
                    continue
                idx = [i for i in range(n) if m >> i & 1]
                ref[m] = pfaffian([[neg[i][j] for j in idx] for i in idx])
            ratios = {
                Fraction(s.coords[m], ref[m]) for m in ref if ref[m] != 0
            }
            assert len(ratios) == 1
            lam = ratios.pop()
            assert all(s.coords[m] == lam * ref[m] for m in ref)
            assert all(
                s.coords[m] == 0 for m in range(1 << n) if m.bit_count() % 2
            )


def test_pure_spinor_matches_kernel_oracle():
    from oracles import pure_spinor_by_kernel

    subs = [
        IsotropicSubspace([eps(i, n) if m >> i & 1 else eps_dual(i, n)
                           for i in range(n)])
        for n in (3, 4)
        for m in range(1 << n)
    ]
    rng = random.Random(11)
    for n in (3, 4, 5, 6):
        subs.append(isotropic_from_skew(_random_skew(rng, n)))
        for _ in range(3 if n < 6 else 1):
            subs.append(random_isotropic_subspace(rng, n, n))
    for sub in subs:
        assert pure_spinor(sub) == pure_spinor_by_kernel(sub)


def test_complete_isotropic_pair_coordinate_case():
    n = 4
    sub = IsotropicSubspace([eps(i, n) for i in range(n - 1)])
    plus, minus = complete_isotropic_pair(sub)
    assert plus.dim == minus.dim == n
    # extensions are K + <eps_n> and K + <eps_n*>
    expect1 = IsotropicSubspace([eps(i, n) for i in range(n)])
    expect2 = IsotropicSubspace([eps(i, n) for i in range(n - 1)] + [eps_dual(n - 1, n)])
    def spanned(sub1, sub2):
        r1, r2 = list(sub1.basis), list(sub2.basis)
        return rank(r1) == rank(r2) == rank(r1 + r2)
    assert (spanned(plus, expect1) and spanned(minus, expect2)) or (
        spanned(plus, expect2) and spanned(minus, expect1)
    )


def test_complete_isotropic_pair_random():
    rng = random.Random(4)
    for n in (3, 4, 5):
        for _ in range(4):
            sub = random_isotropic_subspace(rng, n, n - 1)
            plus, minus = complete_isotropic_pair(sub)
            sp, sm = pure_spinor(plus), pure_spinor(minus)
            assert sp.parity() == 0 and sm.parity() == 1
            inter = intersect_spans(list(plus.basis), list(minus.basis))
            krows = list(sub.basis)
            assert rank(inter) == n - 1
            assert rank(inter + krows) == n - 1


def test_spin_coordinates_special_point():
    sub = IsotropicSubspace([eps(0, 3), eps(1, 3)])
    pt = spin_coordinates(sub)
    nonzero = {m for m, c in enumerate(pt.coords) if c}
    assert nonzero == {mask(0, 1), mask(0, 1, 2)}
    assert verify_trbi(pt) == []


def test_spin_coordinates_satisfy_trbi():
    rng = random.Random(5)
    for n in (3, 4, 5, 6, 7, 8):
        for _ in range(5):
            sub = random_isotropic_subspace(rng, n, n - 1)
            assert verify_trbi(spin_coordinates(sub)) == []


def test_spin_coordinates_matches_extensions_oracle():
    from oracles import spin_coordinates_by_extensions

    subs = [
        IsotropicSubspace([eps(i, n) if m >> i & 1 else eps_dual(i, n)
                           for i in range(n) if i != skip])
        for n in (3, 4)
        for skip in range(n)
        for m in range(1 << n)
        if not m >> skip & 1
    ]
    rng = random.Random(13)
    for n in (3, 4, 5, 6):
        for _ in range(3 if n < 6 else 1):
            subs.append(random_isotropic_subspace(rng, n, n - 1))
    for sub in subs:
        got = spin_coordinates(sub)
        want = spin_coordinates_by_extensions(sub)
        assert got.n == want.n and got.coords == want.coords


def test_pure_spinors_of_the_extensions_are_the_spin_coordinate_halves():
    """pure_spinor of each maximal extension of K, built on the annihilator
    basis of one parity's Clifford product, is the canonical form of that
    parity's half of the spin coordinates of K."""
    rng = random.Random(26)
    for n in (3, 4, 5, 6):
        for _ in range(3):
            sub = random_isotropic_subspace(rng, n, n - 1)
            coords = spin_coordinates(sub).coords
            for parity, extension in enumerate(complete_isotropic_pair(sub)):
                half = Spinor(n, [c if m.bit_count() % 2 == parity else 0
                                  for m, c in enumerate(coords)])
                assert pure_spinor(extension) == canonical_spinor(half)


@pytest.mark.parametrize("basis", [
    (eps(0, 3),),
    (eps(0, 3), eps(1, 3), eps(2, 3)),
    (eps(0, 3), eps_dual(0, 3)),
    (eps(0, 3), eps(0, 3)),
], ids=["too-small", "maximal", "non-isotropic", "dependent"])
def test_spin_coordinates_rejects_bad_subspace(basis):
    with pytest.raises(SpinorError):
        spin_coordinates(IsotropicSubspace(basis))


@pytest.mark.parametrize("basis", [
    (eps(0, 2), eps(1, 3)),
    (eps(0, 4), eps(1, 4), eps(0, 3)),
    (eps_dual(0, 3), eps(1, 4)),
    ((1, 0, 0, 0, 0),),
    (eps(0, 3), (0, 1, 0, 0, 0)),
], ids=["n2-n3", "n4-n4-n3", "dual-n3-n4", "halves-2-3", "halves-3-2"])
def test_isotropic_subspace_rejects_mixed_lengths(basis):
    with pytest.raises(SpinorError, match="do not share one n"):
        IsotropicSubspace(basis)


def test_isotropic_subspace_keeps_each_line_once():
    half = Fraction(1, 2)
    sub = IsotropicSubspace(_scaled(eps(i, 3), half) for i in range(2))
    assert sub.basis == ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
    assert all(type(x) is int for v in sub.basis for x in v)
    assert sub.basis == IsotropicSubspace([eps(0, 3), eps(1, 3)]).basis
    same = IsotropicSubspace([_scaled(eps(0, 3), -3), (0, Fraction(2, 7), 0, 0, 0, 0)])
    assert same == sub and hash(same) == hash(sub)
    assert IsotropicSubspace([(0, -4, 8, 0, 4, 2)]).basis == ((0, 2, -4, 0, -2, -1),)
    empty = IsotropicSubspace(())
    assert (empty.dim, empty.n, empty.basis) == (0, 0, ())


@pytest.mark.parametrize("entry", [0.5, 1.0, "1", None, 1j],
                         ids=["float", "integral-float", "str", "none", "complex"])
def test_isotropic_subspace_rejects_non_rational_entries(entry):
    with pytest.raises(SpinorError, match="must be int or Fraction"):
        IsotropicSubspace([(1, 0, 0, entry, 0, 0)])


def test_every_builder_checks_its_subspace(monkeypatch):
    from zonorec import spinor

    rng = random.Random(27)
    k = random_isotropic_subspace(rng, 4, 3)
    pure = pure_spinor(random_isotropic_subspace(rng, 4, 4))
    monkeypatch.setattr(spinor, "_twice_inner", lambda a, b: 1)
    for build in (lambda: random_isotropic_subspace(rng, 4, 3),
                  lambda: isotropic_from_skew([[0, 1], [-1, 0]]),
                  lambda: purity_check(pure),
                  lambda: complete_isotropic_pair(k)):
        with pytest.raises(SpinorError, match="not isotropic"):
            build()


def _scaled(v, c):
    return tuple(c * x for x in v)


def _canonical_multiple(v):
    """The multiple of v with integer entries of gcd 1 and its first nonzero
    entry positive."""
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints) if next(x for x in ints if x) > 0 else -gcd(*ints)
    return tuple(x // g for x in ints)


def test_clifford_act_matches_sign_oracle():
    rng = random.Random(20)
    for n in (3, 4, 5, 6):
        for _ in range(10):
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2 * n))
            s = _scaled_spinor(random_spinor(rng, n), Fraction(1, rng.randint(1, 5)))
            assert clifford_act(v, s) == clifford_act_by_signs(v, s)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_integer_kernel_matches_fraction_oracle(n):
    """The integer sampler draws the same numbers as the Fraction one and
    keeps the canonical integer multiple of each of the Fraction vectors;
    pure spinors and spin coordinates equal the Fraction construction's."""
    rng = random.Random(100 + n)
    for trial in range(20):
        dim = n if trial % 4 == 3 else n - 1
        state = rng.getstate()
        sub = random_isotropic_subspace(rng, n, dim)
        after = rng.getstate()
        rng.setstate(state)
        ref = random_isotropic_subspace_by_reflections(rng, n, dim)
        assert rng.getstate() == after
        rows = list(sub.basis)
        assert all(type(x) is Fraction for v in ref for x in v)
        assert rank(rows) == rank(ref) == rank(rows + ref) == dim
        assert rows == [_canonical_multiple(v) for v in ref]
        if dim == n:
            assert pure_spinor(sub) == pure_spinor_by_fractions(ref)
        else:
            assert spin_coordinates(sub).coords == spin_coordinates_by_fractions(ref).coords


@pytest.mark.parametrize("n, seed, coords", [
    (3, 4, [444155320, 974470155, 68674228, -666686661, 470431185, -579213405, 307250587,
            57532497]),
    (4, 2, [57876987, 2192425427, -1539681282, -164459781, 589612350, 184363590,
            -107769366, -853234596, 4128229146, 1764779846, -906084342, 894111576,
            132710934, 199007934, -1986811452, -776921130]),
], ids=["n=3", "n=4"])
def test_spin_coordinates_are_ints(n, seed, coords):
    """Spin coordinates, pure spinors and their sign twists hold `int`s, and
    the residuals of the bilinear cube equations are `int` zeros; the pinned
    coordinates of a seeded sample are those the Fraction coordinates had."""
    rng = random.Random(seed)
    point = spin_coordinates(random_isotropic_subspace(rng, n, n - 1))
    assert point.coords == coords
    pure = pure_spinor(random_isotropic_subspace(rng, n, n))
    for s in (point, pure, sign_twist(point)):
        assert all(type(c) is int for c in s.coords)
    assert all(type(res) is int and res == 0 for _, res in trbi_residuals(point))
    assert type(bilinear_form_B(point, pure)) is int


def test_spinor_keeps_integral_coordinates_as_ints():
    s = Spinor(2, [Fraction(4, 2), Fraction(1, 3), 0, -5])
    assert s.coords == [2, Fraction(1, 3), 0, -5]
    assert [type(c) for c in s.coords] == [int, Fraction, int, int]
    assert all(type(c) is int for c in Spinor(3).coords + Spinor.basis(3, 5).coords)
    e0 = tuple(map(Fraction, eps(0, 2)))
    wedged = clifford_act(e0, Spinor.basis(2, 2))  # e_0 wedge e_1, from Fractions
    assert wedged.coords == [0, 0, 0, 1] and all(type(c) is int for c in wedged.coords)


def test_rational_rescaling_keeps_spinor():
    rng = random.Random(21)
    for n in (3, 4, 5, 6):
        for dim in (n - 1, n):
            sub = random_isotropic_subspace(rng, n, dim)
            # vector i is scaled by a factor with denominator (2, 3, 5, ...)[i]
            factors = [Fraction(rng.choice((-1, 1)) * (d * rng.randint(1, 5) + 1), d)
                       for d in (2, 3, 5, 7, 4, 9)[:dim]]
            vecs = [_scaled(v, c) for v, c in zip(sub.basis, factors)]
            assert len({x.denominator for v in vecs for x in v}) > 2
            scaled = IsotropicSubspace(vecs)
            assert scaled == sub and hash(scaled) == hash(sub)
            if dim == n:
                assert pure_spinor(scaled) == pure_spinor(sub)
            else:
                assert spin_coordinates(scaled).coords == spin_coordinates(sub).coords


def _bad_basis(kind, size, n=4):
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    second = {"dependent": _scaled(eps(0, n), -two_thirds),
              "non-isotropic": _scaled(eps_dual(0, n), two_thirds),
              "anisotropic": (0, half) + (0,) * (n - 1) + (two_thirds,) + (0,) * (n - 2),
              "wrong-dimension": _scaled(eps(1, n), -two_thirds)}[kind]
    rest = [eps(2, n), eps(3, n), _scaled(eps_dual(3, n), half)]
    return [_scaled(eps(0, n), half), second] + rest[:size - 2]


BAD_SUBSPACES = [
    (IsotropicSubspace, "dependent", 3, "linearly dependent"),
    (IsotropicSubspace, "non-isotropic", 3, "not isotropic"),
    (IsotropicSubspace, "anisotropic", 3, "not isotropic"),
    (IsotropicSubspace, "wrong-dimension", 5, "not isotropic"),
    (pure_spinor, "dependent", 4, "linearly dependent"),
    (pure_spinor, "non-isotropic", 4, "not isotropic"),
    (pure_spinor, "anisotropic", 4, "not isotropic"),
    (pure_spinor, "wrong-dimension", 3, "maximal isotropic"),
    (spin_coordinates, "dependent", 3, "linearly dependent"),
    (spin_coordinates, "non-isotropic", 3, "not isotropic"),
    (spin_coordinates, "anisotropic", 3, "not isotropic"),
    (spin_coordinates, "wrong-dimension", 4, "dimension n-1"),
]


@pytest.mark.parametrize("fn, kind, size, message", BAD_SUBSPACES,
                         ids=[f"{fn.__name__}-{kind}" for fn, kind, _, _ in BAD_SUBSPACES])
def test_rational_bad_subspace_raises(fn, kind, size, message):
    basis = _bad_basis(kind, size)
    assert len(basis) == size
    with pytest.raises(SpinorError, match=message):
        fn(basis if fn is IsotropicSubspace else IsotropicSubspace(basis))


def _elimination_cases():
    """(rows, ncols, a bound on the rank): random rational matrices of rank
    at most r (so mostly rank-deficient), wide ones with zero rows and a
    dependent row, empty ones, and the Clifford action matrices of maximal
    and (n-1)-dimensional isotropic subspaces for n <= 5, whose kernels have
    dimension 1 and 2."""
    rng = random.Random(22)
    cases = []
    for _ in range(60):
        rows, cols, r = rng.randint(1, 7), rng.randint(1, 9), rng.randint(0, 5)
        left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(r)]
                for _ in range(rows)]
        right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)]
                 for _ in range(r)]
        m = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
             for row in left]
        cases.append((m, cols, r))
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(8, 16)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
             for _ in range(rows)]
        for _ in range(rng.randint(1, 3)):
            m.insert(rng.randint(0, len(m)), [0] * cols)
        m.append([2 * x - y for x, y in zip(m[0], m[-1])])
        cases.append((m, cols, rows))
    cases += [([], 0, 0), ([], 4, 0), ([[]], 0, 0), ([[0] * 5] * 3, 5, 0)]
    for n in (3, 4, 5):
        for dim in (n - 1, n):
            rows = clifford_action_rows(random_isotropic_subspace(rng, n, dim))
            cases.append((rows, 1 << n, (1 << n) + dim - n - 1))
    return cases


def test_rank_matches_rref():
    for m, _, bound in _elimination_cases():
        assert rank(m) == len(rref(m)[0]) <= bound


def test_nullspace_matches_rref_kernel():
    for m, ncols, _ in _elimination_cases():
        got = nullspace(m, ncols)
        assert got == nullspace_by_rref(m, ncols)
        assert all(type(x) is Fraction for vec in got for x in vec)
        assert len(got) == ncols - rank(m)


def test_spin_coordinates_of_a_sample_runs_rank_once(monkeypatch):
    from zonorec import spinor

    calls = []

    def counted(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(spinor, "rank", counted)
    rng = random.Random(25)
    for n in (3, 4, 5, 6):
        for _ in range(3):
            before = len(calls)
            sub = random_isotropic_subspace(rng, n, n - 1)
            assert verify_trbi(spin_coordinates(sub)) == []
            assert calls[before:] == [n - 1]


def test_spin_coordinates_makes_no_solve(monkeypatch):
    from zonorec import spinor

    def forbidden(*args):
        raise AssertionError("spin_coordinates must not call this")

    monkeypatch.setattr(spinor, "nullspace", forbidden)
    monkeypatch.setattr(spinor, "pure_spinor", forbidden)
    pt = spin_coordinates(random_isotropic_subspace(random.Random(12), 4, 3))
    assert verify_trbi(pt) == []


def test_sign_twist_involution_and_examples():
    rng = random.Random(6)
    coords = [Fraction(rng.randint(1, 9)) for m in range(8)]
    pt = Spinor(3, coords)
    tw = sign_twist(pt)
    assert tw.coords[0] == -coords[0]  # popcount 0
    assert tw.coords[mask(0, 1, 2)] == coords[mask(0, 1, 2)]  # popcount 3
    assert sign_twist(tw).coords == coords


def test_twisted_recurrence_point_is_spinor_point():
    rng = random.Random(7)
    for n in (3, 4):
        spec = ZonogonSpec((1,) * n)
        t = t_min(spec)
        vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for v in t.vertices}
        lab = extend_to_lattice(initial_labeling(t, RATIONAL, vals))
        coords = {
            sum(b << i for i, b in enumerate(p)): lab.values[p]
            for p in spec.points
        }
        pt = sign_twist(Spinor(n, [coords[m] for m in range(1 << n)]))
        assert verify_trbi(pt) == []
        even = Spinor(n, [pt.coords[m] if m.bit_count() % 2 == 0 else 0
                          for m in range(1 << n)])
        odd = Spinor(n, [pt.coords[m] if m.bit_count() % 2 == 1 else 0
                         for m in range(1 << n)])
        ok_e, ann_e = purity_check(even)
        ok_o, ann_o = purity_check(odd)
        assert ok_e and ok_o
        inter = intersect_spans(list(ann_e.basis), list(ann_o.basis))
        assert rank(inter) == n - 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_twisted_spin_coordinates_extend_through_the_recurrence(n):
    """The paper's IG(n-1, 2n) statement forward: the sign-twisted spin
    coordinates of an isotropic (n-1)-plane, placed on the vertices of t_min
    of the (1^n) box (bit i of the mask is coordinate i), extend over the
    rationals to all 2^n of them exactly.  Some twisted values are negative,
    so the rational domain must take any nonzero initial value."""
    spec = ZonogonSpec((1,) * n)
    t = t_min(spec)
    moves = extension_moves(t)
    negative = 0
    for seed in range(10):
        K = random_isotropic_subspace(random.Random(seed), n, n - 1)
        tw = sign_twist(spin_coordinates(K)).coords
        at = {p: tw[sum(b << i for i, b in enumerate(p))] for p in spec.points}
        lab = extend_to_lattice(initial_labeling(t, RATIONAL, {v: at[v] for v in t.vertices}),
                                moves)
        assert lab.values == at
        negative += any(at[v] < 0 for v in t.vertices)
    assert negative


def test_trbi_witness_is_the_failing_cube_of_the_twisted_labeling():
    """A violated bilinear equation at (mask, dirs) is the unit cube whose
    base has coordinate i equal to bit i of the mask: on random coordinates,
    the violated equations are exactly the cubes where the sign-twisted
    labeling of the (1^n) box fails the cube relation."""
    rng = random.Random(15)
    for n in range(3, 7):
        spec = ZonogonSpec((1,) * n)
        for _ in range(3):
            pt = Spinor(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            for _ in range(1 << n)])
            tw = sign_twist(pt).coords
            lab = Labeling(t_min(spec), RATIONAL,
                           {p: tw[sum(b << i for i, b in enumerate(p))]
                            for p in spec.points})
            violated = {(tuple(m >> i & 1 for i in range(n)), dirs)
                        for (m, dirs), _ in verify_trbi(pt)}
            assert violated
            assert violated == {(base, dirs) for base, dirs, _ in verify_cube_relations(lab)}


def test_projection_examples():
    n = 4
    dirs = (0, 1, 3)
    point = mask(2)
    got = projection_pi(point, dirs, Spinor.basis(n, point))
    assert got == Spinor.basis(3, 0)
    got = projection_pi(point, dirs, Spinor.basis(n, point | mask(1, 3)))
    want = Spinor(3)
    want.coords[mask(1, 2)] = Fraction(-1)  # one marked index inside (k,l)
    assert got == want


def test_projection_qvs_sign_table():
    rng = random.Random(8)
    for n in (5, 6):
        for _ in range(50):
            dirs = tuple(sorted(rng.sample(range(n), 3)))
            rest = [i for i in range(n) if i not in dirs]
            point = sum(1 << i for i in rest if rng.random() < 0.5)
            j, k, l = dirs
            between = lambda lo, hi: sum(
                1 for i in range(lo + 1, hi) if point >> i & 1
            )
            b, c = between(j, k), between(k, l)
            d = sum(1 for i in range(l + 1, n) if point >> i & 1)
            cases = [
                (point, 1, 0),
                (point | mask(k, l), (-1) ** c, mask(1, 2)),
                (point | mask(j, l), (-1) ** (b + c), mask(0, 2)),
                (point | mask(j, k), (-1) ** b, mask(0, 1)),
                (point | mask(j, k, l), (-1) ** (b + d), mask(0, 1, 2)),
                (point | mask(j), (-1) ** (b + c + d), mask(0)),
                (point | mask(k), (-1) ** (c + d), mask(1)),
                (point | mask(l), (-1) ** d, mask(2)),
            ]
            for src, sign, small in cases:
                got = projection_pi(point, dirs, Spinor.basis(n, src))
                want = Spinor(3)
                want.coords[small] = Fraction(sign)
                assert got == want, (n, point, dirs, src)


def test_projection_tensor_correction():
    # after the (-1)^(b+d) correction the tensor projection sends the four
    # diagonal pairs to the standard ones with coefficient one
    rng = random.Random(9)
    for n in (5, 6):
        for _ in range(25):
            dirs = tuple(sorted(rng.sample(range(n), 3)))
            rest = [i for i in range(n) if i not in dirs]
            point = sum(1 << i for i in rest if rng.random() < 0.5)
            j, k, l = dirs
            between = lambda lo, hi: sum(
                1 for i in range(lo + 1, hi) if point >> i & 1
            )
            b, d = between(j, k), sum(
                1 for i in range(l + 1, n) if point >> i & 1
            )
            corr = (-1) ** (b + d)
            pairs = [
                (point, point | mask(j, k, l), 0, mask(0, 1, 2)),
                (point | mask(j), point | mask(k, l), mask(0), mask(1, 2)),
                (point | mask(k), point | mask(j, l), mask(1), mask(0, 2)),
                (point | mask(l), point | mask(j, k), mask(2), mask(0, 1)),
            ]
            for m1, m2, s1, s2 in pairs:
                if m1.bit_count() % 2:
                    m1, m2, s1, s2 = m2, m1, s2, s1
                p1 = projection_pi(point, dirs, Spinor.basis(n, m1))
                p2 = projection_pi(point, dirs, Spinor.basis(n, m2))
                assert corr * p1.coords[s1] * p2.coords[s2] == 1


def test_purity_check_examples():
    ok, ann = purity_check(Spinor.basis(3, 0))
    assert ok
    assert rank(list(ann.basis)) == 3
    assert all(v[:3] == (0, 0, 0) for v in ann.basis)
    mixed = Spinor(4, [int(m in (0, 0b1111)) for m in range(16)])  # e_0 + e_1111
    ok, ann = purity_check(mixed)
    assert not ok


def test_purity_rejects_zero():
    with pytest.raises(SpinorError):
        purity_check(Spinor(3))


def test_pfaffian_basics():
    assert pfaffian([]) == 1
    assert pfaffian([[0, 5], [-5, 0]]) == 5
    assert pfaffian([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]) == 0
    with pytest.raises(SpinorError):
        pfaffian([[0, 1], [1, 0]])


def test_pfaffian_squares_to_determinant():
    from oracles import det

    rng = random.Random(10)
    for n in (4, 6, 8):
        m = _random_skew(rng, n)
        assert pfaffian(m) ** 2 == det(m)


def test_dimension_bookkeeping():
    # free parameters of the recurrence on the unit box match the variety
    # dimension: C(n,2) + n + 1 = C(n+1,2) + 1
    for n in range(3, 9):
        spec = ZonogonSpec((1,) * n)
        assert spec.vertex_count == n * (n + 1) // 2 + 1


def test_spinor_size_bound():
    with pytest.raises(SpinorError):
        Spinor(9)
