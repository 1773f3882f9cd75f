import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest

from zonorec import (
    DomainError,
    LAURENT,
    Labeling,
    RATIONAL,
    TROPICAL,
    Tiling,
    ZonogonSpec,
    connect,
    enumerate_tilings,
    evaluate_path,
    extend_to_lattice,
    extension_moves,
    flip_value,
    initial_labeling,
    random_tiling,
    symbolic_labeling,
    t_min,
    validate_tiling,
    verify_cube_relations,
)
from zonorec.engine import RationalDomain
from zonorec.jsonio import labeling_to_json

from oracles import apply_flip, flippable_vertices, move_at, neighbors
from paper_lemmas import exchange_polynomial, substitute
from zonorec.laurent import LaurentPoly as L
from zonorec.zonogon import shift, shift2

HEX = ZonogonSpec((1, 1, 1))


@pytest.mark.parametrize("c", [Fraction(3, 2), 2.7], ids=["fraction", "float"])
def test_laurent_initial_labeling_rejects_non_integral_constant(c):
    t = t_min(HEX)
    values = {v: 1 for v in t.vertices}
    values[(0, 1, 0)] = c
    with pytest.raises(DomainError, match=r"invalid initial value at \(0, 1, 0\)"):
        initial_labeling(t, LAURENT, values)


@pytest.mark.parametrize("domain", [RATIONAL, LAURENT, TROPICAL], ids=lambda d: d.name)
def test_initial_labeling_refuses_a_float_naming_the_least_vertex(domain):
    """No domain stores a float, not even one with an exact rational value
    (0.1 would be 3602879701896397/36028797018963968); of two float values the
    least vertex is named.  A value of no number type is the same
    `DomainError`."""
    t = t_min(HEX)
    values = {v: 1 for v in t.vertices}
    values[(1, 1, 0)] = 2.0
    values[(0, 1, 0)] = 0.1
    with pytest.raises(DomainError, match=r"^invalid initial value at \(0, 1, 0\): 0\.1 is "
                       r"a float, not an exact value$"):
        initial_labeling(t, domain, values)
    values[(0, 1, 0)] = None
    with pytest.raises(DomainError, match=r"^invalid initial value at \(0, 1, 0\): "):
        initial_labeling(t, domain, values)


@pytest.mark.parametrize("domain, zero", [(RATIONAL, Fraction(0)), (LAURENT, 0),
                                          (LAURENT, L())], ids=["rational", "laurent-int",
                                                                "laurent-poly"])
def test_initial_labeling_refuses_zero_and_takes_a_negative(domain, zero):
    """The recurrence divides by initial values, so zero is refused; any other
    exact value, a negative one included, is taken.  Max-plus takes zero."""
    t = t_min(HEX)
    values = {v: -1 for v in t.vertices}
    assert initial_labeling(t, domain, values).values[(0, 1, 0)] == domain.coerce(-1)
    values[(0, 1, 0)] = zero
    with pytest.raises(DomainError, match=r"^invalid initial value at \(0, 1, 0\): zero; "
                       r"the recurrence divides by initial values$"):
        initial_labeling(t, domain, values)
    assert initial_labeling(t, TROPICAL, {**values, (0, 1, 0): 0}).values[(0, 1, 0)] == 0


def test_laurent_initial_labeling_accepts_integral_constant():
    t = t_min(HEX)
    lab = initial_labeling(t, LAURENT, {v: Fraction(4, 2) for v in t.vertices})
    assert set(lab.values.values()) == {L.const(2)}


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


def test_flip_value_names_the_cube_of_a_zero_divisor():
    """A zero at the removed corner, or a hexagon corner with no value, is a
    domain error naming the cube by its base and 1-based directions; the cube
    check gives a missing corner the same reason."""
    t = t_min(HEX)
    move = move_at(t, (0, 1, 0))
    zero = {v: Fraction(1) for v in t.vertices}
    zero[move.removed] = Fraction(0)
    missing = {v: Fraction(1) for v in t.vertices if v != (0, 0, 0)}
    unlabeled = "unlabeled cube corner (0, 0, 0)"
    for values, reason in [(zero, "division by zero"), (missing, unlabeled)]:
        with pytest.raises(DomainError) as info:
            flip_value(Labeling(t, RATIONAL, values), move)
        assert str(info.value) == ("cube relation failed on the cube at (0, 0, 0) with "
                                   f"directions (1, 2, 3): {reason}")
    assert verify_cube_relations(Labeling(t, RATIONAL, missing)) == [
        (move.base, move.dirs, unlabeled)]


def test_cube_errors_carry_their_witness():
    """A zero divisor, a missing corner and a re-derived value that disagrees
    each raise a `DomainError` holding the cube's base, its 1-based
    directions and the reason as fields; a fault of no cube holds only its
    reason."""
    t = t_min(HEX)
    up = move_at(t, (0, 1, 0))
    ones = {v: Fraction(1) for v in t.vertices}
    missing = {v: x for v, x in ones.items() if v != (0, 0, 0)}
    walked = evaluate_path(initial_labeling(t, RATIONAL, ones), [up])
    walked.values[(0, 1, 0)] = Fraction(99)
    down = move_at(walked.tiling, (1, 0, 1))
    cases = [
        (lambda: flip_value(Labeling(t, RATIONAL, {**ones, up.removed: Fraction(0)}), up),
         "division by zero"),
        (lambda: flip_value(Labeling(t, RATIONAL, missing), up),
         "unlabeled cube corner (0, 0, 0)"),
        (lambda: evaluate_path(walked, [down]), "re-derived value at (0, 1, 0) disagrees"),
    ]
    for fail, reason in cases:
        with pytest.raises(DomainError) as info:
            fail()
        assert (info.value.base, info.value.dirs, info.value.reason) == (
            (0, 0, 0), (1, 2, 3), reason)
    with pytest.raises(DomainError) as info:
        initial_labeling(t, RATIONAL, missing)
    assert (info.value.base, info.value.dirs) == (None, None)
    assert str(info.value) == info.value.reason == "initial labeling misses vertex (0, 0, 0)"


def test_evaluate_empty_path():
    t = t_min(HEX)
    lab = initial_labeling(t, RATIONAL, {v: 2 for v in t.vertices})
    out = evaluate_path(lab, [])
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
    assert verify_cube_relations(total) == []


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
    assert verify_cube_relations(total) == []
    broken = total.copy()
    broken.values[(1, 1, 1)] += 1
    failures = verify_cube_relations(broken)
    assert failures
    base, dirs, _ = failures[0]
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
    failures = verify_cube_relations(broken)
    touching = {  # point - base is 0 or 1 along the cube's directions, 0 elsewhere
        (base, dirs) for base, dirs, _ in spec.cubes
        if all(point[w] - base[w] in ((0, 1) if w in dirs else (0,)) for w in range(3))
    }
    assert {(base, dirs) for base, dirs, _ in failures} == touching
    assert len(failures) == len(touching)


def test_extend_random_rational_relations():
    rng = random.Random(2)
    spec = ZonogonSpec((2, 2, 1))
    t = t_min(spec)
    vals = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in t.vertices}
    total = extend_to_lattice(initial_labeling(t, RATIONAL, vals))
    assert verify_cube_relations(total) == []
    assert all(p in total.values for p in spec.points)


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


def _invert(a, p):
    """Central inversion of the box: p -> a - p."""
    return tuple(x - y for x, y in zip(a, p))


def _inverted_rhombus(a, rhombus):
    base, (j, k) = rhombus
    return _invert(a, shift2(base, j, k)), (j, k)


def _reversed_rhombus(a, rhombus):
    base, (j, k) = rhombus
    n = len(a)
    return base[::-1], (n - 1 - k, n - 1 - j)


BOX_MAPS = {
    "inversion": (lambda a: a, _invert, _inverted_rhombus),
    "reversal": (lambda a: a[::-1], lambda a, p: p[::-1], _reversed_rhombus),
}


@pytest.mark.parametrize("domain", [RATIONAL, TROPICAL], ids=["rational", "maxplus"])
@pytest.mark.parametrize("a", [(2, 2, 2), (3, 2, 2), (2, 2, 1, 1), (1, 1, 1, 1, 1),
                               (3, 3, 2), (2, 1, 2, 1)],
                         ids=lambda a: ",".join(map(str, a)))
def test_extension_commutes_with_the_symmetries_of_the_box(a, domain):
    """Central inversion p -> a - p, which sends the rhombus (b, (j, k)) to
    (a - b - e_j - e_k, (j, k)), and direction reversal A -> reversed A,
    p -> reversed p, (b, (j, k)) -> (reversed b, (n-1-k, n-1-j)), each take
    T0 and its initial values to a tiling and values whose extension is the
    mapped extension."""
    spec = ZonogonSpec(a)
    for seed in range(3):
        t0 = random_tiling(spec, random.Random(seed))
        rng = random.Random(100 + seed)
        vals = {v: (Fraction(rng.randint(1, 9), rng.randint(1, 9)) if domain is RATIONAL
                    else rng.randint(-9, 9))
                for v in sorted(t0.vertices)}
        total = extend_to_lattice(initial_labeling(t0, domain, vals)).values
        for box, point, rhombus in BOX_MAPS.values():
            image = ZonogonSpec(box(a))
            t1 = Tiling(image, [rhombus(a, r) for r in t0.canonical_rhombi()])
            assert validate_tiling(t1).ok
            mapped = {point(a, v): x for v, x in vals.items()}
            got = extend_to_lattice(initial_labeling(t1, domain, mapped)).values
            assert got == {point(a, p): x for p, x in total.items()}


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
    walked = evaluate_path(lab, [up])
    assert walked.tiling == t2
    walked.values[(0, 1, 0)] = Fraction(99)  # corrupt the shared value
    with pytest.raises(DomainError, match=r"^cube relation failed on the cube at \(0, 0, 0\) "
                       r"with directions \(1, 2, 3\): re-derived value at \(0, 1, 0\) disagrees$"):
        evaluate_path(walked, [down])


# -- the flip schedule of an extension ----------------------------------------

SCHEDULE_SPECS = [(2, 2, 2), (2, 2, 1, 1), (1, 1, 1, 1, 1), (3, 3, 2)]


def _random_t0(a, seed):
    return random_tiling(ZonogonSpec(a), random.Random(seed))


def _random_rational(t, seed):
    rng = random.Random(seed)
    return initial_labeling(t, RATIONAL, {v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                          for v in t.vertices})


@pytest.mark.parametrize("a", SCHEDULE_SPECS, ids=lambda a: ",".join(map(str, a)))
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_extension_moves_are_distinct_and_create_every_missing_point(a, seed):
    """No move repeats, each finds its hexagon corners and removed point
    labelled, and every lattice point off T0 is created by one of them."""
    t0 = t_min(ZonogonSpec(a)) if seed is None else _random_t0(a, seed)
    moves = extension_moves(t0)
    assert len(set(moves)) == len(moves)
    labelled = set(t0.vertices)
    for move in moves:
        assert labelled.issuperset(move.corners[:6]) and move.removed in labelled, move
        labelled.add(move.created)
    assert set(t0.spec.points) - t0.vertices <= {m.created for m in moves}


@pytest.mark.pinned
def test_tropical_extension_output_is_pinned():
    """The max-plus extension from a random tiling, byte for byte."""
    rng = random.Random(4)
    t = random_tiling(ZonogonSpec((2, 2, 2, 2)), rng)
    x = {v: Fraction(rng.randint(-5, 5)) for v in sorted(t.vertices)}
    total = extend_to_lattice(initial_labeling(t, TROPICAL, x))
    text = json.dumps(labeling_to_json(total), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8d06615db25d4afaa37b2a43be5cdb2086d11aee7a459f667846bc07a1de51b1")


@pytest.mark.parametrize("given", [False, True], ids=["built", "given"])
def test_extend_to_lattice_evaluates_each_scheduled_move_once(monkeypatch, given):
    import zonorec.engine

    t0 = _random_t0((2, 2, 2, 1), 3)
    moves = extension_moves(t0)
    evaluated = []
    value_of = zonorec.engine.flip_value

    def counting(labeling, move):
        evaluated.append(move)
        return value_of(labeling, move)

    monkeypatch.setattr(zonorec.engine, "flip_value", counting)
    total = extend_to_lattice(_random_rational(t0, 3), moves if given else None)
    assert evaluated == moves
    assert verify_cube_relations(total) == []


class _CorruptOneDivision(RationalDomain):
    """Rational arithmetic, but division number `at` (from 0) is off by one."""

    def __init__(self, at):
        self.at, self.calls = at, 0

    def div(self, a, b):
        self.calls += 1
        return super().div(a, b) + (self.calls == self.at + 1)


def test_corrupted_rederivation_raises_consistency_error():
    """Each scheduled move divides once; corrupting the value of a move whose
    point is already labelled must be caught by the exact comparison."""
    t0 = _random_t0((2, 2, 2, 1), 5)
    moves = extension_moves(t0)
    labelled = set(t0.vertices)
    rederived = []
    for i, move in enumerate(moves):
        if move.created in labelled:
            rederived.append(i)
        labelled.add(move.created)
    assert rederived
    values = _random_rational(t0, 5).values
    for at in (rederived[0], rederived[-1]):
        lab = initial_labeling(t0, _CorruptOneDivision(at), values)
        with pytest.raises(DomainError, match="re-derived value"):
            extend_to_lattice(lab, moves)
    # the same domain without a corrupted division extends as the rational one
    lab = initial_labeling(t0, _CorruptOneDivision(len(moves)), values)
    assert extend_to_lattice(lab, moves).values == extend_to_lattice(_random_rational(t0, 5)).values


def test_schedule_for_another_tiling_raises_domain_error():
    """A schedule built for another tiling of the spec, or cut short, is a
    `DomainError`; the given labeling is left as it was."""
    spec = ZonogonSpec((1, 1, 1, 1))
    tilings = enumerate_tilings(spec)
    schedules = {t: extension_moves(t) for t in tilings}
    for t0 in tilings:
        lab = _random_rational(t0, 6)
        before = dict(lab.values)
        for t1 in tilings:
            if t1 != t0:
                with pytest.raises(DomainError, match="unlabeled cube corner"):
                    extend_to_lattice(lab, schedules[t1])
        with pytest.raises(DomainError, match="leaves .* unlabelled"):
            extend_to_lattice(lab, schedules[t0][:1])
        assert lab.values == before

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


@pytest.mark.parametrize("a", [(2, 2, 2), (1, 1, 1, 1, 1), (2, 2, 1, 1)],
                         ids=lambda a: ",".join(map(str, a)))
def test_exchange_polynomial_matches_planar_angles(a):
    """Reading the wedges from the vertex set agrees with sorting the
    neighbours by planar angle and scanning the rhombi, at every vertex of
    every tiling."""
    from oracles import exchange_polynomial_by_angles

    for t in enumerate_tilings(ZonogonSpec(a)):
        for v in t.vertices:
            assert exchange_polynomial(t, v) == exchange_polynomial_by_angles(t, v), (t, v)


def _classify(t, pivot):
    move = move_at(t, pivot)
    removed = move.removed
    nbrs = set(neighbors(t, removed))
    diag = set()
    for rh in t.rhombi:  # only rhombi with a corner at `removed` add to diag
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
                sub = substitute(R, j_pos, Q0 * xj_inv)
                if i_v in nbrs:
                    assert sub == P * xj_inv, ("case2", a, i_v, pivot)
                elif i_v in diag:
                    assert sub == Q0 * P * xj_inv, ("case3", a, i_v, pivot)
                else:
                    assert R == P and j_pos not in R.variables()


# ---------------------------------------------------------------------------
# the Laurent phenomenon as a cross-domain oracle

POSITIVITY_SPECS = [(2, 2, 2), (1, 1, 1, 1, 1), (2, 2, 1, 1)]


@functools.lru_cache(maxsize=None)
def _symbolic_extension(a):
    tm = t_min(ZonogonSpec(a))
    return tm, extend_to_lattice(symbolic_labeling(tm))


@pytest.mark.pinned
@pytest.mark.parametrize("a, digest, max_terms", [
    ((3, 2, 2), "dae9f4cd1dfe56e614fa0a4843ab9987a0615faea07cd961490cab6c2723970e", 221),
    ((2, 2, 1, 1), "e4a5f545b9249d8d5a80148a2c2af4cc1f0b86cfa208135290e12b38df08dd4e", 65),
], ids=["3,2,2", "2,2,1,1"])
def test_symbolic_extension_output_is_pinned(a, digest, max_terms):
    """The exact symbolic extension of t_min, byte for byte: a change to the
    Laurent arithmetic must not change any output."""
    _, total = _symbolic_extension(a)
    text = json.dumps(labeling_to_json(total), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert max(len(p.terms) for p in total.values.values()) == max_terms


@pytest.mark.parametrize("a", POSITIVITY_SPECS, ids=lambda a: ",".join(map(str, a)))
def test_symbolic_extension_coefficients_are_one(a):
    """Every coefficient of every derived Laurent polynomial is 1.  For n = 3
    this follows from the grove model (Carroll & Speyer, "The cube
    recurrence", EJC 11, 2004); for n >= 4 it is observed here, not proved."""
    tm, total = _symbolic_extension(a)
    derived = [p for v, p in total.values.items() if v not in tm.vertices]
    assert derived
    for p in derived:
        assert set(p.terms.values()) == {1}, p


@pytest.mark.parametrize("a", POSITIVITY_SPECS, ids=lambda a: ",".join(map(str, a)))
def test_tropical_extension_tropicalizes_the_symbolic_one(a):
    """The derived polynomials are subtraction-free, so at each point the
    tropical extension equals the max over the point's monomials of
    <exponent, x>, on 20 random integer initial values x."""
    from oracles import tropicalize

    tm, total = _symbolic_extension(a)
    rng = random.Random(0)
    for _ in range(20):
        x = {v: Fraction(rng.randint(-9, 9)) for v in tm.vertices}
        tropical = extend_to_lattice(initial_labeling(tm, TROPICAL, x))
        for p, poly in total.values.items():
            assert tropical.values[p] == tropicalize(poly, x), (p, x)
