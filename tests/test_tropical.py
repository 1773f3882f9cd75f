import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from zonorec import (
    TROPICAL,
    DomainError,
    Wall,
    ZonogonSpec,
    all_cutcurves,
    canonical_cutcurve,
    check_propagation,
    cutcurve_points,
    elementary_move,
    extend_to_lattice,
    initial_labeling,
    t_min,
    validate_cutcurve,
    verify_cube_relations,
    w_inequalities_hold,
)
from zonorec.tropical import cutcurve_edges
from zonorec.zonogon import shift

from oracles import (
    fourier_motzkin_feasible,
    validate_cutcurve_points,
    wall_inequalities_by_shifts,
)
from paper_lemmas import (
    LEMMA_CONCLUSIONS,
    LEMMA_HYPOTHESES,
    LEMMA_LETTERS,
    LEMMA_RELATIONS,
    local_step_check,
)

SPEC = ZonogonSpec((2, 1, 1))
WALL = Wall(SPEC, 0, 1)


def tropical_extension(spec, values):
    t = t_min(spec)
    return extend_to_lattice(initial_labeling(t, TROPICAL, values))


def test_cutcurve_valid_example():
    g = (1, 2)
    validate_cutcurve(WALL, g)
    assert cutcurve_points(WALL, g) == ((1, 0, 0), (1, 1, 0), (1, 1, 1))


def test_cutcurve_illegal_step():
    """A step along the wall direction, or in a direction outside the box,
    is not one of the wall's steps."""
    for g in ((0, 1, 2), (1, 3), (1, 2, 2)):
        with pytest.raises(ValueError, match=r"^invalid cutcurve: .* is not an ordering "
                           r"of the wall's steps \(1, 2\)$"):
            validate_cutcurve(WALL, g)


def test_cutcurve_wrong_endpoint():
    """A word missing a step stops short of the wall's far end."""
    for g in ((1,), ()):
        with pytest.raises(ValueError, match=r"^invalid cutcurve: "):
            validate_cutcurve(WALL, g)


def test_elementary_move_example():
    g = (1, 2)
    g2 = elementary_move(g, 1)
    assert g2 == (2, 1)
    assert cutcurve_points(WALL, g2) == ((1, 0, 0), (1, 0, 1), (1, 1, 1))
    validate_cutcurve(WALL, g2)
    assert elementary_move(g2, 1) == g


def test_elementary_move_rejects_collinear():
    spec = ZonogonSpec((2, 2, 1))
    g = canonical_cutcurve(Wall(spec, 0, 1))
    # the first two steps are both e2, so point 1 has no square to cross
    assert g == (1, 1, 2)
    with pytest.raises(ValueError, match="collinear"):
        elementary_move(g, 1)
    assert elementary_move(g, 2) == (1, 2, 1)
    for t0 in (0, 3):
        with pytest.raises(ValueError, match="^move position out of range$"):
            elementary_move(g, t0)


# (1,)*5 has no wall, as no c lies in 1..a_s - 1, so five directions are run
# on (2, 1, 2, 1, 1), with walls at s = 0 and s = 2
@pytest.mark.parametrize("a", [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2),
                               (2, 1, 2, 1, 1)])
def test_every_word_walks_a_cutcurve(a):
    """On each wall, s = 0 and s >= 1 alike, the words that elementary moves
    reach are the multinomial count of orderings of the wall's steps, and
    each walks a point path that the point-by-point oracle accepts, whose
    consecutive points are the ends of the word's edges.  A word
    with one step replaced by another direction is refused by both."""
    spec = ZonogonSpec(a)
    walls = [Wall(spec, s, c) for s in range(spec.n) for c in range(1, a[s])]
    assert {w.s == 0 for w in walls} == {True, False}
    for w in walls:
        steps = canonical_cutcurve(w)
        words = all_cutcurves(w)
        assert len(words) == (factorial(len(steps))
                              // prod(map(factorial, Counter(steps).values())))
        for g in words:
            validate_cutcurve(w, g)
            pts = cutcurve_points(w, g)
            validate_cutcurve_points(w, pts)
            assert ([{p, shift(p, d)} for p, d in cutcurve_edges(w, g)]
                    == [{p, q} for p, q in zip(pts, pts[1:])])
        for d in range(spec.n):
            if d != steps[-1]:
                bad = steps[:-1] + (d,)
                with pytest.raises(ValueError, match="^invalid cutcurve: "):
                    validate_cutcurve(w, bad)
                with pytest.raises(ValueError, match="^invalid cutcurve: "):
                    validate_cutcurve_points(w, cutcurve_points(w, bad))


def test_moves_generate_all_cutcurves():
    spec = ZonogonSpec((2, 2, 2))
    w = Wall(spec, 0, 1)
    curves = all_cutcurves(w)
    # steps are two +e2 and two +e3 in any order
    assert len(curves) == 6
    for g in curves:
        validate_cutcurve(w, g)


def test_w_inequalities_zero_and_affine():
    zero = tropical_extension(SPEC, {v: 0 for v in t_min(SPEC).vertices})
    coeffs = (2, -1, 3)
    affine = tropical_extension(
        SPEC,
        {v: Fraction(sum(c * x for c, x in zip(coeffs, v)))
         for v in t_min(SPEC).vertices},
    )
    for lab in (zero, affine):
        for e in WALL.edges:
            assert w_inequalities_hold(lab, WALL, e)


def test_w_inequalities_detect_bump():
    lab = tropical_extension(SPEC, {v: 0 for v in t_min(SPEC).vertices})
    lab.values[(2, 1, 0)] += 10  # bump a point just above the wall
    bad = [e for e in WALL.edges if not w_inequalities_hold(lab, WALL, e)]
    assert bad


@pytest.mark.parametrize("edge", [((1, 0, 1), 2), ((1, 5, 0), 1)],
                         ids=["head-outside", "tail-outside"])
def test_w_inequalities_reject_edge_outside_the_box(edge):
    lab = tropical_extension(SPEC, {v: 0 for v in t_min(SPEC).vertices})
    with pytest.raises(ValueError, match=r"edge .* leaves the wall's box \(2, 1, 1\)"):
        w_inequalities_hold(lab, WALL, edge)


@pytest.mark.parametrize("edge, message", [
    (((1, 0, 0), 0), "edge must not point along the wall direction"),
    (((0, 0, 0), 1), "edge endpoints must lie on the wall"),
    (((2, 0, 0), 2), "edge endpoints must lie on the wall"),
])
def test_w_inequalities_reject_an_edge_off_the_wall(edge, message):
    lab = tropical_extension(SPEC, {v: 0 for v in t_min(SPEC).vertices})
    with pytest.raises(ValueError, match=f"^{message}$"):
        w_inequalities_hold(lab, WALL, edge)


def test_w_inequalities_reject_a_labeling_of_another_box():
    other = ZonogonSpec((2, 2, 1))
    lab = tropical_extension(other, {v: 0 for v in t_min(other).vertices})
    for e in WALL.edges:
        with pytest.raises(ValueError, match=r"^the labeling's box \(2, 2, 1\) is not the "
                           r"wall's box \(2, 1, 1\)$"):
            w_inequalities_hold(lab, WALL, e)


@pytest.mark.parametrize("a", [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 2, 1, 1)])
def test_wall_table_matches_the_inequalities_by_shifts(a):
    """On every edge of every wall, the table holds the head and the in-box
    pairs found by shifting points, and its verdict on random max-plus
    extensions is theirs."""
    spec = ZonogonSpec(a)
    t = t_min(spec)
    rng = random.Random(sum(a))
    labs = [tropical_extension(spec, {v: rng.randint(-5, 5) for v in t.vertices})
            for _ in range(6)]
    verdicts = []
    for s in range(spec.n):
        for c in range(1, spec.a[s]):
            w = Wall(spec, s, c)
            assert tuple(w.comparisons) == w.edges
            for e in w.edges:
                q, up, down = w.comparisons[e]
                for lab in labs:
                    head, pairs, holds = wall_inequalities_by_shifts(lab, w, e)
                    assert (q, (up, down)) == (head, pairs)
                    assert w_inequalities_hold(lab, w, e) == holds
                    verdicts.append(holds)
    assert set(verdicts) == {True, False}


def test_check_propagation_zero():
    lab = tropical_extension(SPEC, {v: 0 for v in t_min(SPEC).vertices})
    g = canonical_cutcurve(WALL)
    report = check_propagation(lab, WALL, g)
    assert report.hypothesis_ok and report.violations == []


def test_check_propagation_random_samples():
    rng = random.Random(0)
    t = t_min(SPEC)
    g = canonical_cutcurve(WALL)
    met = 0
    for _ in range(120):
        values = {v: Fraction(rng.randint(-5, 5)) for v in t.vertices}
        lab = tropical_extension(SPEC, values)
        report = check_propagation(lab, WALL, g)
        # a word read once, as from an iterator, is checked as the tuple is
        assert check_propagation(lab, WALL, iter(g)) == report
        if report.hypothesis_ok:
            met += 1
            assert not report.violations
    assert met >= 10


def test_integral_max_plus_values_are_ints():
    """Integral initial values, given as `int`s or `Fraction`s, extend to
    `int`s; a non-integral one stays an exact `Fraction` and mixes with
    them."""
    t = t_min(SPEC)
    rng = random.Random(3)
    values = {v: rng.randint(-5, 5) for v in t.vertices}
    lab = tropical_extension(SPEC, {v: Fraction(x) for v, x in values.items()})
    assert all(type(x) is int for x in lab.values.values())
    assert tropical_extension(SPEC, values).values == lab.values
    half = (0, 0, 0)
    mixed = tropical_extension(SPEC, {**values, half: Fraction(1, 2)})
    assert type(mixed.values[half]) is Fraction
    shifted = tropical_extension(SPEC, {v: x + Fraction(1, 2) for v, x in values.items()})
    assert all(x.denominator == 2 for x in shifted.values.values())
    assert verify_cube_relations(mixed) == verify_cube_relations(shifted) == []
    assert TROPICAL.coerce("6/3") == 2 and type(TROPICAL.coerce("6/3")) is int


def test_check_propagation_rejects_corrupted():
    lab = tropical_extension(SPEC, {v: 0 for v in t_min(SPEC).vertices})
    lab.values[(1, 1, 1)] = Fraction(5)
    g = canonical_cutcurve(WALL)
    with pytest.raises(DomainError, match=r"^cube relation failed on the cube at \(0, 0, 0\) "
                       r"with directions \(1, 2, 3\): relation violated$"):
        check_propagation(lab, WALL, g)


def test_shift_invariance_of_extension_and_inequalities():
    rng = random.Random(1)
    t = t_min(SPEC)
    values = {v: Fraction(rng.randint(-5, 5)) for v in t.vertices}
    lab = tropical_extension(SPEC, values)
    shifted = tropical_extension(SPEC, {v: x + 7 for v, x in values.items()})
    for p in SPEC.points:
        assert shifted.values[p] == lab.values[p] + 7
    for e in WALL.edges:
        assert w_inequalities_hold(lab, WALL, e) == w_inequalities_hold(
            shifted, WALL, e
        )


def test_local_step_check_zero():
    assert local_step_check({k: 0 for k in "abcdpqrsvwyz"})


def test_local_step_check_random_repaired():
    rng = random.Random(2)
    hyp_met = 0
    for _ in range(500):
        vals = {k: Fraction(rng.randint(-6, 6)) for k in "abcpqrvwyz"}
        vals["s"] = max(vals["v"] + vals["r"], vals["z"] + vals["q"],
                        vals["y"] + vals["p"]) - vals["w"]
        vals["d"] = max(vals["p"] + vals["c"], vals["s"] + vals["b"],
                        vals["r"] + vals["a"]) - vals["q"]
        assert local_step_check(vals)
        if (vals["p"] + vals["q"] >= vals["a"] + vals["w"]
                and vals["p"] + vals["q"] >= vals["b"] + vals["v"]
                and vals["q"] + vals["r"] >= vals["c"] + vals["w"]
                and vals["q"] + vals["r"] >= vals["b"] + vals["y"]):
            hyp_met += 1
    assert hyp_met > 20  # the implication was exercised non-vacuously


def test_local_step_check_requires_relations():
    vals = {k: Fraction(0) for k in "abcdpqrsvwyz"}
    vals["d"] = Fraction(5)
    with pytest.raises(ValueError):
        local_step_check(vals)


@pytest.mark.parametrize("rows, feasible", [
    ([((1,), 0, True), ((-1,), 0, True)], False),  # x > 0 > x
    ([((1,), 0, False), ((-1,), 0, False)], True),  # x = 0
    ([((1,), -1, False), ((-1,), 0, False)], False),  # 1 <= x <= 0
    ([((1,), -1, False), ((-1,), 2, True)], True),  # 1 <= x < 2
    ([((1,), -1, True), ((-1,), 1, False)], False),  # 1 < x <= 1
    ([((1, -1, 0), 0, True), ((0, 1, -1), 0, True), ((-1, 0, 1), 0, True)], False),
    ([((1, -1, 0), 0, False), ((0, 1, -1), 0, False), ((-1, 0, 1), 0, False)], True),
    ([((2, 1), -1, True), ((-1, 1), 0, False), ((0, -1), 0, False)], False),
    ([((2, 1), -1, True), ((-1, 1), 0, False), ((0, -1), 1, False)], True),
])
def test_fourier_motzkin_small_systems(rows, feasible):
    assert fourier_motzkin_feasible(rows) == feasible


def _at_least(greater, lesser, strict=False):
    """The row sum(greater) - sum(lesser) >= 0 (> 0 when strict) over the
    letters of the one-square lemma."""
    return tuple(greater.count(k) - lesser.count(k) for k in LEMMA_LETTERS), 0, strict


def _max_cases():
    """The two max-plus relations as 9 linear systems, one for each choice of
    the term that attains each max."""
    for picks in product(range(3), repeat=2):
        rows = []
        for (left, terms), k in zip(LEMMA_RELATIONS, picks):
            rows += [_at_least(left, terms[k]), _at_least(terms[k], left)]
            rows += [_at_least(terms[k], t) for j, t in enumerate(terms) if j != k]
        yield rows


def _refuted_cases(hypotheses) -> int:
    """How many of the 36 systems (9 max-cases x 4 conclusions) have a point
    where the relations and `hypotheses` hold and the conclusion fails."""
    return sum(
        fourier_motzkin_feasible(case + [_at_least(*h) for h in hypotheses]
                                 + [_at_least(lesser, greater, strict=True)])
        for case in _max_cases() for greater, lesser in LEMMA_CONCLUSIONS
    )


def test_one_square_lemma_holds_exactly():
    """(A)-(D) and the two max-plus relations imply (E)-(H): in each of the 9
    max-cases the negation of each conclusion is infeasible over the reals."""
    assert _refuted_cases(LEMMA_HYPOTHESES) == 0


def test_each_hypothesis_of_the_one_square_lemma_is_needed():
    """Without any one of (A)-(D), some max-case admits a counterexample."""
    assert [_refuted_cases(LEMMA_HYPOTHESES[:i] + LEMMA_HYPOTHESES[i + 1:])
            for i in range(4)] == [10, 2, 10, 2]


def test_cutcurve_edges_lie_on_wall():
    g = canonical_cutcurve(WALL)
    for base, i in cutcurve_edges(WALL, g):
        assert base[WALL.s] == WALL.c
        assert i != WALL.s


@pytest.mark.parametrize("a", [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 2, 1, 1)])
def test_elementary_moves_sweep_every_wall_edge(a):
    """The cutcurves that elementary moves reach from the canonical one cover
    the wall: each wall edge lies on one of them, the combinatorial half of
    the sweep in the propagation proof."""
    spec = ZonogonSpec(a)
    for s in range(spec.n):
        for c in range(1, spec.a[s]):
            w = Wall(spec, s, c)
            swept = {e for g in all_cutcurves(w) for e in cutcurve_edges(w, g)}
            assert swept == set(w.edges), (a, s, c)


@pytest.mark.parametrize("s, c", [(-1, 1), (3, 1), (0, 0), (0, 2), (1, 1)])
def test_wall_outside_its_box_is_rejected(s, c):
    with pytest.raises(ValueError, match=r"^wall (direction|offset) "):
        Wall(SPEC, s, c)


def test_check_propagation_rejects_a_labeling_of_another_box():
    other = ZonogonSpec((2, 1, 2))
    lab = tropical_extension(other, {v: 0 for v in t_min(other).vertices})
    with pytest.raises(ValueError, match=r"^the labeling's box \(2, 1, 2\) is not the wall's "
                       r"box \(2, 1, 1\)$"):
        check_propagation(lab, WALL, canonical_cutcurve(WALL))


def test_check_propagation_refuses_an_invalid_cutcurve_after_a_valid_one():
    """Each call validates its word: an invalid one, among them the old form
    of a cutcurve as its points, is refused after a valid one was checked."""
    lab = tropical_extension(SPEC, {v: 0 for v in t_min(SPEC).vertices})
    w = Wall(SPEC, 0, 1)
    bad = ((0, 1, 2), (1,), cutcurve_points(w, canonical_cutcurve(w)))
    for g in bad:
        assert check_propagation(lab, w, canonical_cutcurve(w)).hypothesis_ok
        with pytest.raises(ValueError, match=r"^invalid cutcurve: "):
            check_propagation(lab, w, g)
