"""JSON encodings for tilings, flip paths, labelings, walls, and spin points.

Direction indices are 1-based on the wire and 0-based in memory.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .engine import DOMAINS, Labeling
from .flips import FlipMove, FlipPath
from .laurent import LaurentPoly
from .spinor import SpinPoint
from .tropical import Cutcurve, Wall
from .zonogon import Tiling, ZonogonSpec, validate_tiling


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


def tiling_from_json(data: dict, spec: ZonogonSpec | None = None) -> Tiling:
    """Decode a tiling and validate it; `InvalidTiling` names the first violation."""
    a = data["A"]
    if not _ints(a, len(a)) or (spec is not None and tuple(spec.a) != tuple(a)):
        raise InvalidTiling(f"A {a!r} is not a list of integers matching the spec")
    spec = spec or ZonogonSpec(a)
    n = spec.n
    rhombi = []
    for i, r in enumerate(data["rhombi"]):
        base, dirs = r["base"], r["dirs"]
        if not (_ints(base, n) and _ints(dirs, 2) and dirs[0] != dirs[1]
                and all(1 <= d <= n for d in dirs)):
            raise InvalidTiling(f"rhombus {i}: base {base!r} must be {n} integers and "
                                f"dirs {dirs!r} two distinct integers in 1..{n}")
        rhombi.append((tuple(base), (dirs[0] - 1, dirs[1] - 1)))
    t = Tiling(spec, rhombi)
    if len(t.rhombi) < len(rhombi):
        raise InvalidTiling("a rhombus repeats")
    report = validate_tiling(t)
    if not report.ok:
        raise InvalidTiling(f"not a tiling: {report.violations[0]}")
    return t


def flip_path_to_json(path: FlipPath) -> dict:
    return {
        "start": tiling_to_json(path.start),
        "moves": [
            {
                "base": list(m.base),
                "dirs": [d + 1 for d in m.dirs],
                "dir": m.direction,
            }
            for m in path.moves
        ],
    }


def flip_path_from_json(data: dict, spec: ZonogonSpec | None = None) -> FlipPath:
    """Decode a flip path and check each move's fields (`ValueError`); whether
    a move applies is checked when the path is replayed."""
    start = tiling_from_json(data["start"], spec)
    spec, moves = start.spec, []
    for i, m in enumerate(data["moves"]):
        base, dirs, direction = m["base"], m["dirs"], m["dir"]
        if not (_ints(dirs, 3) and 1 <= dirs[0] < dirs[1] < dirs[2] <= spec.n
                and _ints(base, spec.n) and direction in ("up", "down")
                and spec.contains(tuple(base)) and spec.contains(
                    tuple(c + (d + 1 in dirs) for d, c in enumerate(base)))):
            raise ValueError(f"move {i}: {m!r} needs dirs three increasing integers in "
                             f"1..{spec.n}, its cube in the box and dir up or down")
        moves.append(FlipMove(tuple(base), tuple(d - 1 for d in dirs), direction))
    return FlipPath(start, moves)


def _fraction_to_json(x: Fraction) -> str:
    return str(Fraction(x))


def _fraction_from_json(s) -> Fraction:
    return Fraction(str(s))


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
    """Decode a Laurent polynomial; coefficients must be integer strings and
    exponents JSON integers (`ValueError`)."""
    out = LaurentPoly()
    for term in data["terms"]:
        coeff, exps = term["coeff"], term["exps"]
        if not (isinstance(coeff, str) and re.fullmatch(r"-?[0-9]+", coeff)
                and isinstance(exps, dict) and all(type(e) is int for e in exps.values())):
            raise ValueError(f"term {term!r} needs an integer-string coeff and "
                             f"integer exponents")
        exps = {tuple(int(c) for c in key.split(",")): e for key, e in exps.items()}
        out = out + LaurentPoly.monomial(exps, int(coeff))
    return out


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


def labeling_from_json(data: dict, tiling: Tiling | None = None) -> Labeling:
    spec = tiling.spec if tiling is not None else ZonogonSpec(data["A"])
    if tuple(spec.a) != tuple(data["A"]):
        raise ValueError("labeling multiplicities disagree with the spec")
    domain = DOMAINS[data["domain"]]
    values = {}
    for item in data["values"]:
        vertex = tuple(item["vertex"])
        if data["domain"] == "laurent":
            values[vertex] = laurent_from_json(item["value"])
        else:
            values[vertex] = _fraction_from_json(item["value"])
    return Labeling(spec, domain, values, tiling)


def wall_to_json(w: Wall, g: Cutcurve | None = None) -> dict:
    out = {"s": w.s + 1, "c": w.c}
    if g is not None:
        out["cutcurve"] = [list(p) for p in g.points]
    return out


def wall_from_json(data: dict):
    w = Wall(data["s"] - 1, data["c"])
    g = None
    if "cutcurve" in data:
        g = Cutcurve(tuple(tuple(p) for p in data["cutcurve"]))
    return w, g


def propagation_report_to_json(report) -> dict:
    def enc_edge(e):
        base, i = e
        return {"base": list(base), "dir": i + 1}

    out = {
        "recurrence_ok": report.recurrence_ok,
        "hypothesis_ok": report.hypothesis_ok,
        "violations": [enc_edge(e) for e in report.violations],
    }
    if report.hypothesis_witness is not None:
        w = report.hypothesis_witness
        out["hypothesis_witness"] = (
            enc_edge(w) if isinstance(w, tuple) and len(w) == 2 else repr(w)
        )
    return out


def spin_point_to_json(p: SpinPoint) -> dict:
    def key(mask):
        return ",".join(str((mask >> i) & 1) for i in range(p.n))

    even = {}
    odd = {}
    for mask in sorted(p.coords):
        enc = _fraction_to_json(p.coords[mask])
        (even if mask.bit_count() % 2 == 0 else odd)[key(mask)] = enc
    return {"n": p.n, "even": even, "odd": odd}


def spin_point_from_json(data: dict) -> SpinPoint:
    n = data["n"]
    coords = {}
    for group in ("even", "odd"):
        for key, enc in data[group].items():
            bits = [int(b) for b in key.split(",")]
            mask = sum(b << i for i, b in enumerate(bits))
            coords[mask] = _fraction_from_json(enc)
    return SpinPoint(n, coords)
