import random
from fractions import Fraction

import pytest

from zonorec import (
    RATIONAL,
    IsotropicSubspace,
    SpinPoint,
    Spinor,
    SpinorError,
    Vector2n,
    ZonogonSpec,
    bilinear_form_B,
    clifford_act,
    complete_isotropic_pair,
    eps,
    eps_dual,
    extend_to_lattice,
    initial_labeling,
    inner,
    isotropic_from_skew,
    make_isotropic,
    pfaffian,
    projection_pi,
    pure_spinor,
    purity_check,
    random_isotropic_subspace,
    random_unit_vector,
    sign_twist,
    spin_coordinates,
    t_min,
    trbi_residuals,
    verify_trbi,
)
from zonorec.spinor import intersect_spans, rank


def mask(*bits):
    return sum(1 << b for b in bits)


def random_spinor(rng, n):
    return Spinor(n, [Fraction(rng.randint(-4, 4)) for _ in range(1 << n)])


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
            v = Vector2n(
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)),
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)),
            )
            s = random_spinor(rng, n)
            assert clifford_act(v, clifford_act(v, s)) == s.scale(inner(v, v))


def test_unit_vector_squares_to_identity():
    rng = random.Random(1)
    v = random_unit_vector(rng, 4)
    s = random_spinor(rng, 4)
    assert clifford_act(v, clifford_act(v, s)) == s


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
    dual = make_isotropic([eps_dual(i, n) for i in range(n)])
    assert pure_spinor(dual) == Spinor.basis(n, 0)
    whole = make_isotropic([eps(i, n) for i in range(n)])
    assert pure_spinor(whole) == Spinor.basis(n, (1 << n) - 1)


def test_pure_spinor_requires_maximal():
    sub = make_isotropic([eps(0, 3), eps(1, 3)])
    with pytest.raises(SpinorError):
        pure_spinor(sub)


def test_pure_spinor_rejects_non_isotropic():
    # eps_0 and eps_0* pair to 1/2, so no spinor is annihilated by all three
    sub = IsotropicSubspace((eps(0, 3), eps(1, 3), eps_dual(0, 3)))
    with pytest.raises(SpinorError):
        pure_spinor(sub)


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
        make_isotropic([eps(i, n) if m >> i & 1 else eps_dual(i, n)
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
    sub = make_isotropic([eps(i, n) for i in range(n - 1)])
    plus, minus = complete_isotropic_pair(sub)
    spans = []
    for ext in (plus, minus):
        assert ext.dim == n
        flats = [v.flat() for v in ext.basis]
        spans.append(flats)
    joined = {tuple(map(tuple, sorted(map(tuple, s)))) for s in spans}
    # extensions are K + <eps_n> and K + <eps_n*>
    expect1 = make_isotropic([eps(i, n) for i in range(n)])
    expect2 = make_isotropic([eps(i, n) for i in range(n - 1)] + [eps_dual(n - 1, n)])
    got = {frozenset(v.flat() for v in plus.basis),
           frozenset(v.flat() for v in minus.basis)}
    def spanned(sub1, basis2):
        r1 = [v.flat() for v in sub1.basis]
        r2 = [v.flat() for v in basis2.basis]
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
            inter = intersect_spans(
                [v.flat() for v in plus.basis], [v.flat() for v in minus.basis]
            )
            krows = [v.flat() for v in sub.basis]
            assert rank(inter) == n - 1
            assert rank(inter + krows) == n - 1


def test_spin_coordinates_special_point():
    sub = make_isotropic([eps(0, 3), eps(1, 3)])
    pt = spin_coordinates(sub)
    nonzero = {m for m, c in pt.coords.items() if c}
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
        make_isotropic([eps(i, n) if m >> i & 1 else eps_dual(i, n)
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


@pytest.mark.parametrize("basis", [
    (eps(0, 3),),
    (eps(0, 3), eps(1, 3), eps(2, 3)),
    (eps(0, 3), eps_dual(0, 3)),
    (eps(0, 3), eps(0, 3)),
], ids=["too-small", "maximal", "non-isotropic", "dependent"])
def test_spin_coordinates_rejects_bad_subspace(basis):
    with pytest.raises(SpinorError):
        spin_coordinates(IsotropicSubspace(basis))


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
    coords = {m: Fraction(rng.randint(1, 9)) for m in range(8)}
    pt = SpinPoint(3, coords)
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
            for p in spec.lattice_points()
        }
        pt = sign_twist(SpinPoint(n, coords))
        assert verify_trbi(pt) == []
        even = Spinor(n, [pt.coords[m] if m.bit_count() % 2 == 0 else 0
                          for m in range(1 << n)])
        odd = Spinor(n, [pt.coords[m] if m.bit_count() % 2 == 1 else 0
                         for m in range(1 << n)])
        ok_e, ann_e = purity_check(even)
        ok_o, ann_o = purity_check(odd)
        assert ok_e and ok_o
        inter = intersect_spans(
            [v.flat() for v in ann_e.basis], [v.flat() for v in ann_o.basis]
        )
        assert rank(inter) == n - 1


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
    assert rank([v.flat() for v in ann.basis]) == 3
    assert all(v.w == (0, 0, 0) for v in ann.basis)
    mixed = Spinor.basis(4, 0) + Spinor.basis(4, 0b1111)
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
