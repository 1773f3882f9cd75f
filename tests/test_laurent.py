import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from zonorec.laurent import InexactDivision, LaurentPoly as L, _grlex_key

from oracles import grlex_less
from paper_lemmas import substitute

VARS = ["a", "b", "c"]


def polys(max_terms=4):
    term = st.tuples(
        st.integers(min_value=-9, max_value=9),
        st.lists(
            st.tuples(st.sampled_from(VARS), st.integers(min_value=-3, max_value=3)),
            max_size=3,
        ),
    )

    def build(terms):
        out = L()
        for coeff, exps in terms:
            mono = L.const(coeff)
            for v, e in exps:
                mono = mono * L.var(v, e)
            out = out + mono
        return out

    return st.lists(term, max_size=max_terms).map(build)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=150, deadline=None)
@given(polys(), polys())
def test_exact_div_of_products(p, q):
    if not q:
        return
    assert (p * q).exact_div(q) == p


@settings(max_examples=300, deadline=None)
@given(polys(), polys())
def test_exact_div_returns_the_quotient_or_raises(p, q):
    # arbitrary pairs, so most divisions are inexact
    if not q:
        return
    try:
        s = p.exact_div(q)
    except InexactDivision as exc:
        assert exc.remainder
    else:
        assert s * q == p


# monomials over lattice-point variables, as the engine's are
POINTS = [(i, j) for i in range(3) for j in range(3)]
monomials = st.dictionaries(
    st.sampled_from(POINTS), st.integers(min_value=-3, max_value=3), max_size=4
).map(lambda d: tuple(sorted((v, e) for v, e in d.items() if e)))


@settings(max_examples=300, deadline=None)
@given(st.lists(monomials, min_size=1, max_size=8, unique=True),
       st.sets(st.sampled_from(POINTS)))
def test_grlex_key_orders_as_the_pairwise_comparator(monos, extra):
    # the key may range over variables that no monomial has, as it does
    # when exact_div builds it from both operands
    key = _grlex_key({v for m in monos for v, _ in m} | extra)
    lead = None
    for m in monos:
        if lead is None or grlex_less(lead, m):
            lead = m
    assert max(monos, key=key) == lead
    cmp = cmp_to_key(lambda a, b: grlex_less(b, a) - grlex_less(a, b))
    assert sorted(monos, key=key) == sorted(monos, key=cmp)


@pytest.mark.parametrize("c", [Fraction(3, 2), 2.7, 0.5, Fraction(-1, 3)])
def test_const_rejects_non_integral_coefficients(c):
    with pytest.raises(ValueError, match="not an integer"):
        L.const(c)


def test_const_accepts_integral_coefficients():
    assert L.const(Fraction(4, 2)).terms == {(): 2}
    assert type(L.const(Fraction(4, 2)).terms[()]) is int
    assert L.const(-3.0) == L.const(-3)
    assert not L.const(Fraction(0, 7))


def test_additive_identity_and_inverse_monomial():
    p = L.var("a") + L.var("b")
    assert p + L() == p
    assert L.var("a") * L.var("a", -1) == L.const(1)


def test_difference_of_squares():
    a, b = L.var("a"), L.var("b")
    minus_b = L.const(-1) * b
    assert (a + b) * (a + minus_b) == a * a + minus_b * b


def test_monomial_divisor():
    a, b, c = L.var("a"), L.var("b"), L.var("c")
    assert (a * b + a * c).exact_div(a) == b + c


def test_division_by_monomial_is_always_exact():
    # in the Laurent ring a monomial divides everything
    a, b, c = L.var("a"), L.var("b"), L.var("c")
    q = (a + b).exact_div(c)
    assert q * c == a + b
    assert q == a * L.var("c", -1) + b * L.var("c", -1)


def test_inexact_division_raises():
    a, b, c = L.var("a"), L.var("b"), L.var("c")
    with pytest.raises(InexactDivision) as info:
        (a + b).exact_div(a + c)
    assert info.value.remainder
    with pytest.raises(InexactDivision):
        (a * a + b).exact_div(a + b)
    with pytest.raises(InexactDivision):
        (a + a).exact_div(L.const(3))  # integer coefficients only


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        L.var("a").exact_div(L())


def test_octagon_step_division():
    # one full step of the eight-flip cycle: dividing by an earlier computed
    # value must be exact, with the displayed quotient
    v = {x: L.var(x) for x in "abcdefghijk"}

    def poly(expr):
        return eval(expr, dict(v), {})

    l_val = poly("a*j + b*k + c*h").exact_div(v["i"])
    m_val = (v["c"] * v["f"] + v["d"] * v["k"] + v["e"] * l_val).exact_div(v["j"])
    n_val = (v["f"] * v["a"] + v["g"] * l_val + v["h"] * m_val).exact_div(v["k"])
    o_val = (v["a"] * v["d"] + v["b"] * m_val + v["c"] * n_val).exact_div(l_val)
    expected = poly("b*e*k + d*i*k + c*g*j + c*f*i + c*e*h").exact_div(
        v["j"] * v["k"]
    )
    assert o_val == expected


def test_evaluate_examples():
    assert L.const(1).evaluate({}) == 1
    p = L.var("a") * L.var("b", -1)
    assert p.evaluate({"a": 3, "b": 2}) == Fraction(3, 2)
    with pytest.raises(KeyError):
        p.evaluate({"a": 3})
    with pytest.raises(ZeroDivisionError):
        p.evaluate({"a": 3, "b": 0})


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_evaluate_is_homomorphic(p, q):
    rng = random.Random(0)
    point = {v: Fraction(rng.randint(1, 7), rng.randint(1, 7)) for v in VARS}
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_substitute_with_laurent_value():
    a, b = L.var("a"), L.var("b")
    p = a * a * b + a + L.const(2)
    assert substitute(p, "a", b) == b * b * b + b + L.const(2)
    q = a * b
    assert substitute(q, "a", b * L.var("b", -1)) == b  # a -> 1
