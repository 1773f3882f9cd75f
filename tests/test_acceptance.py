"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible under pytest -s); a failing
criterion fails its test.
"""

import itertools
import random
import time
from fractions import Fraction

from zonorec import (
    LAURENT,
    RATIONAL,
    TROPICAL,
    Spinor,
    Wall,
    ZonogonSpec,
    apply_move,
    bilinear_form_B,
    canonical_cutcurve,
    check_propagation,
    clifford_act,
    connect,
    enumerate_tilings,
    evaluate_path,
    extend_to_lattice,
    flip_value,
    fundamental_forest,
    initial_labeling,
    pfaffian,
    purity_check,
    random_isotropic_subspace,
    random_tiling,
    sign_twist,
    spin_coordinates,
    symbolic_labeling,
    t_min,
    tiling_through_vertex,
    validate_tiling,
    verify_cube_relations,
    verify_trbi,
)
from zonorec.flips import FlipCensus
from zonorec.laurent import LaurentPoly as L
from zonorec.spinor import rank

from oracles import (
    apply_flip,
    intersect_spans,
    move_at,
    projection_pi,
    random_unit_vector,
    replay,
    t_min_vertices,
)
from paper_lemmas import connect_through


def _report(num, name, detail, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num} ({name}): PASS [{detail}; {elapsed:.2f}s < {budget}s]")


def test_acceptance_01_octagon_census():
    started = time.time()
    spec = ZonogonSpec((1, 1, 1, 1))
    tilings = enumerate_tilings(spec)
    assert len(tilings) == 8
    census = FlipCensus(spec)
    edges = set()
    for t in tilings:
        nbrs = set()
        for flip in census.all(t.mask).values():
            t2 = apply_move(t, flip.move)
            assert t2 in tilings
            nbrs.add(t2)
        assert len(nbrs) == 2
        for t2 in nbrs:
            edges.add(frozenset({t, t2}))
    assert len(edges) == 8  # 2-regular connected on 8 vertices: the 8-cycle
    _report(1, "octagon census", "8 tilings, flip graph is an 8-cycle", started, 1.0)


# frozen naming of the eight-flip cycle: positions of the initial variables
# a..k on the minimal tiling and of the five transient vertices l..p
OCT_LETTERS = {
    "a": (0, 0, 0, 1), "b": (0, 0, 1, 1), "c": (0, 1, 1, 1), "d": (1, 1, 1, 1),
    "e": (1, 1, 1, 0), "f": (1, 1, 0, 0), "g": (1, 0, 0, 0), "h": (0, 0, 0, 0),
    "i": (0, 0, 1, 0), "j": (0, 1, 1, 0), "k": (0, 1, 0, 0),
    "l": (0, 1, 0, 1), "m": (1, 1, 0, 1), "n": (1, 0, 0, 1),
    "o": (1, 0, 1, 1), "p": (1, 0, 1, 0),
}


def test_acceptance_02_octagon_cycle_identity():
    started = time.time()
    spec = ZonogonSpec((1, 1, 1, 1))
    start = t_min(spec)
    var = {x: L.var(x) for x in "abcdefghijk"}
    pos_to_letter = {v: k for k, v in OCT_LETTERS.items()}
    labeling = initial_labeling(
        start, LAURENT, {p: var[pos_to_letter[p]] for p in start.vertices}
    )

    def expand(expr):
        return eval(expr, dict(var), {})

    step_exprs = {  # displayed numerator of each new value
        "l": "a*j + b*k + c*h",
        "m": "c*f + d*k + e*l",
        "n": "f*a + g*l + h*m",
        "o": "a*d + b*m + c*n",
        "p": "d*g + e*n + f*o",
        "q": "h*o + a*p + b*g",
        "r": "b*e + c*p + d*q",
        "s": "e*h + f*q + g*r",
    }
    closed_forms = {
        "l": expand("a*j + b*k + c*h").exact_div(var["i"]),
        "m": expand("c*f*i + d*k*i + e*a*j + e*b*k + e*c*h").exact_div(
            var["i"] * var["j"]
        ),
        "n": expand(
            "f*a*i*j + g*a*j*j + g*b*k*j + g*c*h*j + h*c*f*i + h*d*k*i"
            " + h*e*a*j + h*e*b*k + e*c*h*h"
        ).exact_div(var["i"] * var["j"] * var["k"]),
        "o": expand("b*e*k + d*i*k + c*g*j + c*f*i + c*e*h").exact_div(
            var["j"] * var["k"]
        ),
        "p": expand("e*h + f*i + g*j").exact_div(var["k"]),
        "q": var["i"],
        "r": var["j"],
        "s": var["k"],
    }
    divisors = "ijklmnop"
    created = "lmnopqrs"
    cur = start
    walked = labeling.copy()
    env = dict(var)
    for letter, div_letter in zip(created, divisors):
        pivot = OCT_LETTERS[div_letter]
        move = move_at(cur, pivot)
        value = flip_value(walked, move)
        # step identity: value equals the displayed numerator over the value
        # at the flipped vertex (an exact Laurent division)
        numerator = eval(step_exprs[letter], dict(env), {})
        assert value == numerator.exact_div(env[div_letter]), letter
        # expanded identity: value equals the displayed Laurent polynomial
        assert value == closed_forms[letter], letter
        walked.values[move.created] = value
        env[letter] = value
        cur, _ = apply_flip(cur, pivot)
    assert cur == start
    for p in start.vertices:
        assert walked.values[p] == labeling.values[p]
    _report(
        2,
        "octagon 8-cycle identity",
        "all eight displayed Laurent values reproduced; q=i, r=j, s=k",
        started,
        5.0,
    )


def test_acceptance_03_confluence():
    started = time.time()
    rng = random.Random(2026)
    for a in [(1, 1, 1, 1), (2, 2, 1)]:
        spec = ZonogonSpec(a)
        for trial in range(20):
            t1 = random_tiling(spec, rng)
            t2 = random_tiling(spec, rng)
            vals = {
                v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for v in t1.vertices
            }
            lab = initial_labeling(t1, RATIONAL, vals)
            out_a = evaluate_path(lab, connect(t1, t2))
            out_b = evaluate_path(lab, connect(t1, t2, rng=rng))
            for v in t2.vertices:
                assert out_a.values[v] == out_b.values[v]
    _report(3, "confluence", "2 specs x 20 random pairs, labelings equal exactly",
            started, 30.0)


def test_acceptance_04_laurentness():
    started = time.time()
    rng = random.Random(4)
    specs = [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (2, 2, 1)]
    for a in specs:
        spec = ZonogonSpec(a)
        tm = t_min(spec)
        total = extend_to_lattice(symbolic_labeling(tm))
        assert all(p in total.values for p in spec.points)
        assert verify_cube_relations(total) == []
        for p, poly in total.values.items():
            assert poly  # nonzero Laurent polynomial; divisions were exact
        for _ in range(5):
            point = {
                v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for v in tm.vertices
            }
            rational = extend_to_lattice(initial_labeling(tm, RATIONAL, point))
            for p in spec.points:
                assert total.values[p].evaluate(point) == rational.values[p]
    _report(4, "laurentness", "4 specs symbolic, 5 evaluation points each",
            started, 180.0)


def test_acceptance_05_counting():
    started = time.time()
    rng = random.Random(5)
    checked = 0
    for n in (3, 4, 5):
        for a in itertools.product((1, 2, 3), repeat=n):
            spec = ZonogonSpec(a)
            tm = t_min(spec)
            assert len(tm.vertices) == spec.vertex_count
            assert tm.vertices == t_min_vertices(spec)
            checked += 1
    for a in [(2, 2, 2), (3, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]:
        spec = ZonogonSpec(a)
        for _ in range(5):
            t = random_tiling(spec, rng)
            assert len(t.vertices) == spec.vertex_count
            assert validate_tiling(t).ok
    _report(5, "counting", f"{checked} specs t_min == closed form; "
            "random tilings have exact counts", started, 120.0)


def test_acceptance_06_forest_uniqueness():
    started = time.time()
    specs = [
        (1, 1, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2),
        (1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
    ]
    for a in specs:
        spec = ZonogonSpec(a)
        tilings = enumerate_tilings(spec, cap=64)
        seen = {}
        empty = []
        for t in tilings:
            forest = fundamental_forest(t)
            assert forest not in seen, (a, "forests collide")
            seen[forest] = t
            if not forest:
                empty.append(t)
        assert empty == [t_min(spec)]
    _report(6, "forest uniqueness", f"{len(specs)} specs, forests pairwise "
            "distinct, empty forest only at t_min", started, 120.0)


def test_acceptance_07_marked_vertex_paths():
    from oracles import walk_keeping

    started = time.time()
    spec = ZonogonSpec((2, 2, 2))
    rng = random.Random(7)
    every = enumerate_tilings(spec)
    pts = [p for p in spec.points
           if sum(p in t.vertices for t in every) >= 2]
    for trial in range(10):
        marked = rng.choice(pts)
        t0 = tiling_through_vertex(spec, marked)
        t1, t2 = walk_keeping(t0, marked, rng, 12), walk_keeping(t0, marked, rng, 13)
        assert t1 != t2
        tilings = replay(t1, connect_through(t1, t2, marked))
        assert tilings[0] == t1 and tilings[-1] == t2
        for s in tilings:
            assert marked in s.vertices
    _report(7, "marked-vertex paths", "10 random (t, t', I0) triples replayed",
            started, 60.0)


def test_acceptance_08_tropical_propagation():
    started = time.time()
    rng = random.Random(8)
    for a in [(2, 1, 1), (2, 2, 1), (3, 1, 1)]:
        spec = ZonogonSpec(a)
        tm = t_min(spec)
        walls = [Wall(spec, s, c) for s in range(spec.n)
                 for c in range(1, spec.a[s])]
        met = 0
        tries = 0
        while met < 100:
            tries += 1
            assert tries < 5000, f"hypothesis rarely met on {a}"
            if tries % 50 == 0:
                # fall back towards affine data plus small noise
                coeffs = [rng.randint(-2, 2) for _ in range(spec.n)]
                vals = {
                    v: Fraction(sum(c * x for c, x in zip(coeffs, v))
                                + rng.randint(-1, 1))
                    for v in tm.vertices
                }
            else:
                vals = {v: Fraction(rng.randint(-5, 5)) for v in tm.vertices}
            lab = extend_to_lattice(initial_labeling(tm, TROPICAL, vals))
            w = walls[tries % len(walls)]
            g = canonical_cutcurve(w)
            report = check_propagation(lab, w, g)
            if report.hypothesis_ok:
                met += 1
                assert not report.violations, (a, w, report.violations)
    _report(8, "tropical propagation", "3 specs x 100 hypothesis-met labelings, "
            "zero wall violations", started, 120.0)


def test_acceptance_09_grassmannian():
    started = time.time()
    rng = random.Random(9)
    for n in (3, 4, 5):
        for _ in range(50):
            sub = random_isotropic_subspace(rng, n, n - 1)
            point = spin_coordinates(sub)
            assert verify_trbi(point) == []
    # converse: sign-untwisted recurrence outputs are pure spinor pairs
    for n in (3, 4, 5, 6, 7):
        spec = ZonogonSpec((1,) * n)
        tm = t_min(spec)
        vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for v in tm.vertices}
        lab = extend_to_lattice(initial_labeling(tm, RATIONAL, vals))
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
    _report(9, "isotropic grassmannian", "50 samples each n=3,4,5 satisfy the "
            "bilinear equations; recurrence points are pure with common "
            "annihilator of dimension n-1 for n=3..7", started, 120.0)


def test_acceptance_10_clifford_layer():
    from oracles import det

    started = time.time()
    # the four pairing values
    def basis(bits):
        return Spinor.basis(3, sum(b << i for i, b in enumerate(bits)))

    assert bilinear_form_B(basis((0, 0, 0)), basis((1, 1, 1))) == 1
    assert bilinear_form_B(basis((0, 1, 1)), basis((1, 0, 0))) == -1
    assert bilinear_form_B(basis((1, 0, 1)), basis((0, 1, 0))) == 1
    assert bilinear_form_B(basis((1, 1, 0)), basis((0, 0, 1))) == -1
    # invariance under 100 random unit vectors
    rng = random.Random(10)
    for _ in range(100):
        n = rng.choice([3, 4, 5])
        v = random_unit_vector(rng, n)
        s1 = Spinor(n, [Fraction(rng.randint(-4, 4)) for _ in range(1 << n)])
        s2 = Spinor(n, [Fraction(rng.randint(-4, 4)) for _ in range(1 << n)])
        assert bilinear_form_B(clifford_act(v, s1), clifford_act(v, s2)) == (
            bilinear_form_B(s1, s2)
        )
    # sign table of the three-direction projection, 50 cases at n = 5 and 6
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
            table = [
                (point, 1, 0),
                (point | (1 << k) | (1 << l), (-1) ** c, 0b110),
                (point | (1 << j) | (1 << l), (-1) ** (b + c), 0b101),
                (point | (1 << j) | (1 << k), (-1) ** b, 0b011),
                (point | (1 << j) | (1 << k) | (1 << l), (-1) ** (b + d), 0b111),
                (point | (1 << j), (-1) ** (b + c + d), 0b001),
                (point | (1 << k), (-1) ** (c + d), 0b010),
                (point | (1 << l), (-1) ** d, 0b100),
            ]
            for src, sign, small in table:
                got = projection_pi(point, dirs, Spinor.basis(n, src))
                want = Spinor(3)
                want.coords[small] = Fraction(sign)
                assert got == want
    # Pfaffians square to determinants
    for size in (6, 8):
        m = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                m[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                m[j][i] = -m[i][j]
        assert pfaffian(m) ** 2 == det(m)
    _report(10, "clifford layer", "pairing values, 100 invariance checks, "
            "2x50 sign-table cases, Pf^2 = det at sizes 6 and 8", started, 60.0)
