import random
from fractions import Fraction

import pytest

from zonorec import (
    ConsistencyError,
    FlipMove,
    Labeling,
    LAURENT,
    RATIONAL,
    TROPICAL,
    ZonogonSpec,
    apply_flip,
    connect,
    enumerate_tilings,
    evaluate_path,
    exchange_polynomial,
    extend_to_lattice,
    flip_value,
    flippable_vertices,
    initial_labeling,
    move_at,
    random_tiling,
    symbolic_labeling,
    t_min,
    verify_cube_relations,
)
from zonorec.flips import FlipPath
from zonorec.laurent import LaurentPoly as L
from zonorec.zonogon import rhombus_corners, shift, shift2

HEX = ZonogonSpec((1, 1, 1))


def test_flip_value_all_ones():
    t = t_min(HEX)
    lab = initial_labeling(t, RATIONAL, {v: 1 for v in t.vertices})
    move = move_at(t, (0, 1, 0))
    assert flip_value(lab, move) == 3


def test_flip_value_tropical_zero():
    t = t_min(HEX)
    lab = initial_labeling(t, TROPICAL, {v: 0 for v in t.vertices})
    move = move_at(t, (0, 1, 0))
    assert flip_value(lab, move) == 0


def test_flip_value_matches_cube_relation():
    # generic rational data: check the defining relation directly
    rng = random.Random(0)
    t = t_min(HEX)
    vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in t.vertices}
    lab = initial_labeling(t, RATIONAL, vals)
    move = move_at(t, (0, 1, 0))
    new = flip_value(lab, move)
    x = dict(vals)
    x[(1, 0, 1)] = new
    lhs = x[(1, 0, 1)] * x[(0, 1, 0)]
    rhs = (
        x[(0, 0, 0)] * x[(1, 1, 1)]
        + x[(1, 1, 0)] * x[(0, 0, 1)]
        + x[(0, 1, 1)] * x[(1, 0, 0)]
    )
    assert lhs == rhs


def test_evaluate_empty_path():
    t = t_min(HEX)
    lab = initial_labeling(t, RATIONAL, {v: 2 for v in t.vertices})
    out = evaluate_path(lab, FlipPath(t, []))
    assert out.values == lab.values


def test_extend_hexagon_symbolic():
    lab = symbolic_labeling(t_min(HEX))
    total = extend_to_lattice(lab)
    expected = (
        L.var((0, 0, 0)) * L.var((1, 1, 1))
        + L.var((1, 1, 0)) * L.var((0, 0, 1))
        + L.var((0, 1, 1)) * L.var((1, 0, 0))
    ).exact_div(L.var((0, 1, 0)))
    assert total.values[(1, 0, 1)] == expected
    assert verify_cube_relations(total).ok


def test_extend_all_ones():
    t = t_min(HEX)
    lab = initial_labeling(t, RATIONAL, {v: 1 for v in t.vertices})
    total = extend_to_lattice(lab)
    assert total.values[(1, 0, 1)] == 3


def test_verify_relations_detects_perturbation():
    rng = random.Random(1)
    spec = ZonogonSpec((2, 2, 1))
    t = t_min(spec)
    vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in t.vertices}
    total = extend_to_lattice(initial_labeling(t, RATIONAL, vals))
    assert verify_cube_relations(total).ok
    broken = total.copy()
    broken.values[(1, 1, 1)] += 1
    report = verify_cube_relations(broken)
    assert not report.ok
    base, dirs, _ = report.failures[0]
    corners = {shift(base, d) for d in dirs} | {base}
    assert any(sum(abs(a - b) for a, b in zip(c, (1, 1, 1))) <= 3 for c in corners)


@pytest.mark.parametrize("point", [(1, 1, 1), (2, 0, 1), (0, 0, 0)])
def test_verify_relations_reports_every_failing_cube(point):
    rng = random.Random(3)
    spec = ZonogonSpec((2, 2, 2))
    t = t_min(spec)
    vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in t.vertices}
    broken = extend_to_lattice(initial_labeling(t, RATIONAL, vals)).copy()
    broken.values[point] += 1
    report = verify_cube_relations(broken)
    touching = {  # point - base is 0 or 1 along the cube's directions, 0 elsewhere
        (base, dirs) for base, dirs in spec.cubes()
        if all(point[w] - base[w] in ((0, 1) if w in dirs else (0,)) for w in range(3))
    }
    assert {(base, dirs) for base, dirs, _ in report.failures} == touching
    assert len(report.failures) == len(touching)


def test_extend_random_rational_relations():
    rng = random.Random(2)
    spec = ZonogonSpec((2, 2, 1))
    t = t_min(spec)
    vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in t.vertices}
    total = extend_to_lattice(initial_labeling(t, RATIONAL, vals))
    assert verify_cube_relations(total).ok
    assert total.is_total()


def test_positivity_preserved():
    rng = random.Random(3)
    for a in [(1, 1, 1, 1), (2, 2, 1)]:
        spec = ZonogonSpec(a)
        t = t_min(spec)
        vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in t.vertices}
        total = extend_to_lattice(initial_labeling(t, RATIONAL, vals))
        assert all(x > 0 for x in total.values.values())


def test_confluence_two_paths():
    rng = random.Random(4)
    for a in [(1, 1, 1, 1), (2, 2, 1)]:
        spec = ZonogonSpec(a)
        for _ in range(5):
            t1 = random_tiling(spec, rng)
            t2 = random_tiling(spec, rng)
            vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    for v in t1.vertices}
            lab = initial_labeling(t1, RATIONAL, vals)
            out_a = evaluate_path(lab, connect(t1, t2))
            out_b = evaluate_path(lab, connect(t1, t2, rng=rng))
            assert all(out_a.values[v] == out_b.values[v] for v in t2.vertices)


def test_tropical_monotone_and_shift_invariant():
    rng = random.Random(5)
    t = t_min(HEX)
    move = move_at(t, (0, 1, 0))
    vals1 = {v: Fraction(rng.randint(-5, 5)) for v in t.vertices}
    vals2 = {v: vals1[v] + rng.randint(0, 3) for v in t.vertices}
    lab1 = initial_labeling(t, TROPICAL, vals1)
    lab2 = initial_labeling(t, TROPICAL, vals2)
    assert flip_value(lab2, move) >= flip_value(lab1, move)
    shifted = initial_labeling(t, TROPICAL, {v: vals1[v] + 7 for v in t.vertices})
    assert flip_value(shifted, move) == flip_value(lab1, move) + 7


def test_consistency_check_fires_on_corruption():
    # a path revisiting a vertex with a corrupted cache value must be caught
    t = t_min(HEX)
    lab = initial_labeling(t, RATIONAL, {v: 1 for v in t.vertices})
    up = move_at(t, (0, 1, 0))
    t2, _ = apply_flip(t, (0, 1, 0))
    down = move_at(t2, (1, 0, 1))
    walked = evaluate_path(lab, FlipPath(t, [up]))
    walked.values[(0, 1, 0)] = Fraction(99)  # corrupt the shared value
    walked.tiling = t2
    with pytest.raises(ConsistencyError):
        evaluate_path(walked, FlipPath(t2, [down]))


# -- exchange polynomials ----------------------------------------------------


def test_exchange_polynomial_trivalent_is_flip_numerator():
    t = t_min(HEX)
    p = exchange_polynomial(t, (0, 1, 0))
    expected = (
        L.var((0, 0, 0)) * L.var((1, 1, 1))
        + L.var((1, 1, 0)) * L.var((0, 0, 1))
        + L.var((0, 1, 1)) * L.var((1, 0, 0))
    )
    assert p == expected


def test_exchange_polynomial_boundary_term():
    # at a corner vertex one wedge has no rhombus: its term is the full
    # product of the neighbor variables
    t = t_min(HEX)
    p = exchange_polynomial(t, (0, 0, 1))
    expected = L.var((0, 1, 0)) + L.var((0, 0, 0)) * L.var((0, 1, 1))
    assert p == expected


def test_exchange_polynomial_conditions():
    rng = random.Random(6)
    for a in [(2, 2, 1), (1, 1, 1, 1)]:
        spec = ZonogonSpec(a)
        for _ in range(3):
            t = random_tiling(spec, rng)
            for v in sorted(t.vertices):
                p = exchange_polynomial(t, v)
                assert v not in p.variables()
                assert p._content_monomial() == ()  # divisible by no variable


def _classify(t, pivot):
    move = move_at(t, pivot)
    removed = move.removed
    nbrs = set(t.neighbors(removed))
    diag = set()
    for rh in t.rhombi_at(removed):
        base, (p, q) = rh
        far = shift2(base, p, q)
        for x, y in ((base, far), (shift(base, p), shift(base, q))):
            if x == removed:
                diag.add(y)
            if y == removed:
                diag.add(x)
    return nbrs, diag


@pytest.mark.parametrize("a", [(1, 1, 1), (1, 1, 1, 1), (2, 2, 1)])
def test_exchange_polynomials_transform_across_flips(a):
    # across a flip at j, the exchange polynomial of any other vertex i obeys
    #   adjacent i:  R|_{x_j <- Q0/x_j} = P / x_j
    #   diagonal i:  R|_{x_j <- Q0/x_j} = Q0 * P / x_j
    #   otherwise:   R = P and x_j does not occur
    # where Q0 is the pivot's exchange polynomial with x_i set to zero
    spec = ZonogonSpec(a)
    rng = random.Random(7)
    for _ in range(3):
        t = random_tiling(spec, rng)
        down, up = flippable_vertices(t)
        for pivot in sorted(down | up):
            nbrs, diag = _classify(t, pivot)
            t2, move = apply_flip(t, pivot)
            j_pos, new_pos = move.removed, move.created
            var_of = lambda p: j_pos if p == new_pos else p
            Q = exchange_polynomial(t, j_pos)
            xj_inv = L.var(j_pos, -1)
            for i_v in sorted(t.vertices):
                if i_v == j_pos:
                    continue
                P = exchange_polynomial(t, i_v)
                R = exchange_polynomial(t2, i_v, var_of=var_of)
                Q0 = L(
                    {e: c for e, c in Q.terms.items() if dict(e).get(i_v, 0) == 0}
                )
                sub = R.substitute(j_pos, Q0 * xj_inv)
                if i_v in nbrs:
                    assert sub == P * xj_inv, ("case2", a, i_v, pivot)
                elif i_v in diag:
                    assert sub == Q0 * P * xj_inv, ("case3", a, i_v, pivot)
                else:
                    assert R == P and j_pos not in R.variables()
