"""JSON encodings for tilings, flip paths, labelings and tropical propagation reports.

Direction indices are 1-based on the wire and 0-based in memory.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .engine import DOMAINS, Labeling, initial_labeling
from .flips import FlipMove
from .laurent import LaurentPoly
from .zonogon import Tiling, ZonogonSpec, _check_rhombi


class InvalidTiling(ValueError):
    """A tiling document that does not describe a tiling of its zonogon."""


def _ints(x, n: int) -> bool:
    return isinstance(x, list) and len(x) == n and all(type(c) is int for c in x)


def tiling_to_json(t: Tiling) -> dict:
    return {
        "A": list(t.spec.a),
        "rhombi": [
            {"base": list(base), "dirs": [j + 1, k + 1]}
            for base, (j, k) in t.canonical_rhombi()
        ],
    }


class _RhombusBlocks(dict):
    """Each rhombus's text in a `tile --enumerate` document, nested in its
    tiling's "rhombi" list as `json.dumps(indent=1)` writes it, keyed by its
    rank in `spec`; a block is formatted on its first lookup."""

    def __init__(self, spec: ZonogonSpec):
        super().__init__()
        self.spec = spec

    def __missing__(self, rank):
        base, (j, k) = self.spec.rhombus(rank)
        coords = ",\n     ".join(map(str, base))
        block = self[rank] = (f'   {{\n    "base": [\n     {coords}\n    ],\n'
                              f'    "dirs": [\n     {j + 1},\n     {k + 1}\n    ]\n   }}')
        return block


def tilings_to_json(tilings, fh) -> None:
    """Write the text of `json.dumps([tiling_to_json(t) for t in tilings],
    indent=1)` to the stream `fh`, one tiling at a time.

    With `indent` set, json runs its pure-Python encoder; here each distinct
    multiplicity vector, and each distinct rhombus rank of a spec, is
    formatted once per call, and each tiling's document is joined from those
    text blocks.  Ranks are only meaningful within one spec, so each spec
    has its own blocks.
    """
    heads, sep = {}, "[\n"
    for t in tilings:
        a = t.spec.a
        if a not in heads:
            heads[a] = (' {\n  "A": [\n   ' + ",\n   ".join(map(str, a))
                        + '\n  ],\n  "rhombi": [\n', _RhombusBlocks(t.spec).__getitem__)
        head, block = heads[a]
        fh.write(sep + head + ",\n".join(map(block, t.ranks)) + "\n  ]\n }")
        sep = ",\n"
    fh.write("[]" if sep == "[\n" else "\n]")


def tiling_from_json(data: dict) -> Tiling:
    """Decode a tiling and validate it; `InvalidTiling` names the first violation."""
    a = data["A"]
    if not _ints(a, len(a)):
        raise InvalidTiling(f"A {a!r} is not a list of integers")
    spec = ZonogonSpec(a)
    n = spec.n
    rhombi = []
    for i, r in enumerate(data["rhombi"]):
        base, dirs = r["base"], r["dirs"]
        if not (_ints(base, n) and _ints(dirs, 2) and dirs[0] != dirs[1]
                and all(1 <= d <= n for d in dirs)):
            raise InvalidTiling(f"rhombus {i}: base {base!r} must be {n} integers and "
                                f"dirs {dirs!r} two distinct integers in 1..{n}")
        rhombi.append((tuple(base), (min(dirs) - 1, max(dirs) - 1)))
    if len(given := frozenset(rhombi)) < len(rhombi):
        raise InvalidTiling("a rhombus repeats")
    if not (report := _check_rhombi(spec, given)).ok:
        raise InvalidTiling(f"not a tiling: {report.violations[0]}")
    return Tiling(spec, given)


def flip_path_from_json(data: dict, tiling: Tiling) -> list:
    """Decode the moves of a flip path, which must start at `tiling`, and
    check each move's fields (`ValueError`); whether a move applies is checked
    when the path is evaluated."""
    if tiling_from_json(data["start"]) != tiling:
        raise ValueError("flip path does not start at the tiling")
    spec, moves = tiling.spec, []
    for i, m in enumerate(data["moves"]):
        base, dirs, direction = m["base"], m["dirs"], m["dir"]
        move = None
        if (_ints(dirs, 3) and 1 <= dirs[0] < dirs[1] < dirs[2] <= spec.n
                and _ints(base, spec.n) and direction in ("up", "down")):
            move = FlipMove(tuple(base), tuple(d - 1 for d in dirs), direction)
        # the cube is in the box when its base and top corner jkl are
        if move is None or not (spec.contains(move.base) and spec.contains(move.corners[5])):
            raise ValueError(f"move {i}: {m!r} needs dirs three increasing integers in "
                             f"1..{spec.n}, its cube in the box and dir up or down")
        moves.append(move)
    return moves


def _fraction_to_json(x: Fraction) -> str:
    return str(Fraction(x))


def _fraction_from_json(x) -> Fraction:
    """A JSON integer or a string p or p/q in decimal digits (`ValueError`)."""
    if not (type(x) is int or isinstance(x, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x)):
        raise ValueError(f"value {x!r} must be a JSON integer or a string p or p/q")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"value {x!r} has denominator 0") from None


def laurent_to_json(p: LaurentPoly) -> dict:
    terms = []
    for exps, coeff in sorted(p.terms.items()):
        terms.append(
            {
                "coeff": str(coeff),
                "exps": {",".join(map(str, v)): e for v, e in exps},
            }
        )
    return {"terms": terms}


def laurent_from_json(data: dict) -> LaurentPoly:
    """Decode a Laurent polynomial; coefficients must be integer strings,
    variable keys comma-separated integers, no term may name a variable twice,
    and exponents must be JSON integers (`ValueError`).  Terms with the same
    monomial are summed."""
    terms: dict = {}
    for term in data["terms"]:
        coeff, exps = term["coeff"], term["exps"]
        if not (isinstance(coeff, str) and re.fullmatch(r"-?[0-9]+", coeff)
                and isinstance(exps, dict) and all(type(e) is int for e in exps.values())
                and all(isinstance(k, str) and re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", k)
                        for k in exps)):
            raise ValueError(f"term {term!r} needs an integer-string coeff, "
                             f"comma-separated integer variables and integer exponents")
        named = {tuple(map(int, key.split(","))): e for key, e in exps.items()}
        if len(named) < len(exps):
            raise ValueError(f"term {term!r} names a variable twice")
        mono = tuple(sorted((v, e) for v, e in named.items() if e))
        c = terms.get(mono, 0) + int(coeff)
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
    return LaurentPoly(terms)


def labeling_to_json(labeling: Labeling) -> dict:
    dom = labeling.domain.name
    values = []
    for vertex in sorted(labeling.values):
        val = labeling.values[vertex]
        if dom == "laurent":
            enc = laurent_to_json(val)
        else:
            enc = _fraction_to_json(val)
        values.append({"vertex": list(vertex), "value": enc})
    return {"A": list(labeling.spec.a), "domain": dom, "values": values}


def labeling_from_json(data: dict, tiling: Tiling) -> Labeling:
    """Decode the initial labeling of `tiling`; the domain must be a name in
    `engine.DOMAINS`, each vertex n JSON integers and each value a Laurent
    polynomial or a rational, and the vertices must be exactly the tiling's
    vertices (`ValueError`).  A value the domain does not take as initial is
    `engine.initial_labeling`'s `DomainError`."""
    spec = tiling.spec
    if tuple(spec.a) != tuple(data["A"]):
        raise ValueError("labeling multiplicities disagree with the spec")
    if (domain := DOMAINS.get(data["domain"])) is None:
        raise ValueError(f"unknown domain {data['domain']!r}; the known domains are "
                         f"{', '.join(DOMAINS)}")
    values = {}
    for item in data["values"]:
        if not _ints(item["vertex"], spec.n):
            raise ValueError(f"vertex {item['vertex']!r} must be {spec.n} integers")
        vertex = tuple(item["vertex"])
        if vertex in values:
            raise ValueError(f"vertex {item['vertex']!r} repeats")
        if data["domain"] == "laurent":
            values[vertex] = laurent_from_json(item["value"])
        else:
            values[vertex] = _fraction_from_json(item["value"])
    extra = sorted(values.keys() - tiling.vertices)
    if extra:
        raise ValueError(f"labeling has values at {extra}, which are not tiling vertices")
    missing = sorted(tiling.vertices - values.keys())
    if missing:
        raise ValueError(f"labeling misses tiling vertices {missing}")
    return initial_labeling(tiling, domain, values)


def propagation_report_to_json(report) -> dict:
    def enc_edge(e):
        base, i = e
        return {"base": list(base), "dir": i + 1}

    out = {
        "hypothesis_ok": report.hypothesis_ok,
        "violations": [enc_edge(e) for e in report.violations],
    }
    if report.hypothesis_witness is not None:
        out["hypothesis_witness"] = enc_edge(report.hypothesis_witness)
    return out
