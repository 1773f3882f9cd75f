"""Sparse multivariate Laurent polynomials over arbitrary-precision integers.

Terms are keyed by sorted tuples of (variable, exponent) pairs; variables are
any mutually orderable hashables (lattice points, strings).  Exponents may be
negative; zero exponents and zero coefficients are never stored.  The term
order used for division is graded lex with variables compared ascending.
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


def _grlex_key(exps):
    # not a sort key by itself; see _grlex_less
    return sum(e for _, e in exps)


def _grlex_less(e1, e2) -> bool:
    g1, g2 = _grlex_key(e1), _grlex_key(e2)
    if g1 != g2:
        return g1 < g2
    d1, d2 = dict(e1), dict(e2)
    for v in sorted(set(d1) | set(d2)):
        a, b = d1.get(v, 0), d2.get(v, 0)
        if a != b:
            return a < b
    return False


class LaurentPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        c = int(c)
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, v, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        if coeff == 0:
            return cls()
        if exp == 0:
            return cls.const(coeff)
        return cls({((v, exp),): int(coeff)})

    @classmethod
    def monomial(cls, exps: dict, coeff: int = 1) -> "LaurentPoly":
        if coeff == 0:
            return cls()
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        return cls({key: int(coeff)})

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

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

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
        mins: dict = {}
        allvars = self.variables()
        first = True
        for exps in self.terms:
            d = dict(exps)
            if first:
                mins = {v: d.get(v, 0) for v in allvars}
                first = False
            else:
                for v in allvars:
                    mins[v] = min(mins[v], d.get(v, 0))
        return tuple(sorted((v, e) for v, e in mins.items() if e))

    def _shift(self, exps, sign=1):
        return LaurentPoly(
            {_merge_exps(k, exps, sign): c for k, c in self.terms.items()}
        )

    def _leading(self):
        lead = None
        for exps in self.terms:
            if lead is None or _grlex_less(lead, exps):
                lead = exps
        return lead

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Quotient self/other; raises InexactDivision unless it divides exactly."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly()
        cp = self._content_monomial()
        cq = other._content_monomial()
        p = self._shift(cp, -1)
        q = other._shift(cq, -1)
        qlead = q._leading()
        qc = q.terms[qlead]
        quot: dict = {}
        r = p
        while r:
            rlead = r._leading()
            shift = _merge_exps(rlead, qlead, -1)
            if any(e < 0 for _, e in shift) or r.terms[rlead] % qc:
                raise InexactDivision(
                    "inexact division", remainder=r._shift(cp)._shift(cq, -1)
                )
            c = r.terms[rlead] // qc
            quot[shift] = c
            r = r - q._shift(shift) * LaurentPoly.const(c)
        result = LaurentPoly(quot)._shift(cp)._shift(cq, -1)
        return result

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
