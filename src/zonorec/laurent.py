"""Sparse multivariate Laurent polynomials over arbitrary-precision integers.

Terms are keyed by sorted tuples of (variable, exponent) pairs; variables are
any mutually orderable hashables (lattice points, strings).  Exponents may be
negative; zero exponents and zero coefficients are never stored.  Division
orders monomials graded lex by one sort key, `_grlex_key`, with variables
compared ascending, and keeps one remainder that each step updates in place.
"""

from __future__ import annotations

from fractions import Fraction


class InexactDivision(ArithmeticError):
    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


def _merge_exps(e1, e2, sign=1):
    out = dict(e1)
    for v, e in e2:
        ne = out.get(v, 0) + sign * e
        if ne:
            out[v] = ne
        else:
            out.pop(v, None)
    return tuple(sorted(out.items()))


def _grlex_key(variables):
    """Sort key for graded lex order on monomials over `variables`: the total
    degree, then the exponent list over the sorted variables."""
    index = {v: i for i, v in enumerate(sorted(variables))}
    zeros = [0] * len(index)

    def key(exps):
        dense = zeros.copy()
        for v, e in exps:
            dense[index[v]] = e
        return sum(dense), dense

    return key


class LaurentPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        """The constant c; a non-integral c is a ValueError."""
        n = int(c)
        if n != c:
            raise ValueError(f"coefficient {c!r} is not an integer")
        return cls({(): n} if n else {})

    @classmethod
    def var(cls, v, exp: int = 1) -> "LaurentPoly":
        return cls({((v, exp),): 1} if exp else {(): 1})

    # -- basics --------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{{{v}}}" + (f"^{e}" if e != 1 else "") for v, e in exps
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def variables(self):
        out = set()
        for exps in self.terms:
            out.update(v for v, _ in exps)
        return out

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            nc = out.get(k, 0) + c
            if nc:
                out[k] = nc
            else:
                out.pop(k, None)
        return LaurentPoly(out)

    def __mul__(self, other):
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = _merge_exps(k1, k2)
                nc = out.get(k, 0) + c1 * c2
                if nc:
                    out[k] = nc
                else:
                    out.pop(k, None)
        return LaurentPoly(out)

    # -- division ------------------------------------------------------------

    def _content_monomial(self):
        """Componentwise minimum exponent over all terms, as an exps tuple."""
        terms = [dict(exps) for exps in self.terms]
        mins = [(v, min(d.get(v, 0) for d in terms)) for v in sorted(self.variables())]
        return tuple((v, e) for v, e in mins if e)

    def _shift(self, exps, sign=1):
        return LaurentPoly(
            {_merge_exps(k, exps, sign): c for k, c in self.terms.items()}
        )

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Quotient self/other; raises InexactDivision unless it divides exactly."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly()
        cp = self._content_monomial()
        cq = other._content_monomial()
        content = _merge_exps(cp, cq, -1)
        r = self._shift(cp, -1).terms
        q = other._shift(cq, -1).terms
        key = _grlex_key(self.variables() | other.variables())
        qlead = max(q, key=key)
        qc = q[qlead]
        quot: dict = {}
        while r:
            rlead = max(r, key=key)
            shift = _merge_exps(rlead, qlead, -1)
            if any(e < 0 for _, e in shift) or r[rlead] % qc:
                raise InexactDivision(
                    "inexact division", remainder=LaurentPoly(r)._shift(content)
                )
            c = r[rlead] // qc
            quot[shift] = c
            for k, qk in q.items():
                k = _merge_exps(k, shift)
                nc = r.get(k, 0) - c * qk
                if nc:
                    r[k] = nc
                else:
                    del r[k]
        return LaurentPoly(quot)._shift(content)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point: dict) -> Fraction:
        """Exact value at a nonzero rational point; a ring homomorphism."""
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = Fraction(c)
            for v, e in exps:
                if v not in point:
                    raise KeyError(f"no value assigned to variable {v}")
                x = Fraction(point[v])
                if x == 0 and e < 0:
                    raise ZeroDivisionError(f"zero value for {v} with exponent {e}")
                val *= x**e
            total += val
        return total
