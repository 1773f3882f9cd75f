"""Output checks and digests for benchmark ops.

Every check recomputes what it needs with this file's own code (exact
``Fraction`` arithmetic, MacMahon's formula, OEIS A006245) rather than by
calling the program, and runs outside the timed interval.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations, product

from workloads import canonical_bytes


class CheckFailed(Exception):
    pass


def digest(op, stdout: str, out_text: str | None) -> str:
    """Canonical digest of the op's data output: re-serialised parsed JSON for
    file outputs, the printed text for verify suites."""
    if op.out is not None:
        return hashlib.sha256(canonical_bytes(json.loads(out_text))).hexdigest()
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(op, rc: int, stdout: str, out_text: str | None) -> None:
    """Raise CheckFailed unless the op exited 0 with a correct output."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    if op.kind == "run":
        _check_run(op, json.loads(out_text))
    elif op.kind == "tile_enumerate":
        _check_enumerate(op, json.loads(out_text))
    else:
        _check_verify(op, stdout)


# ---------------------------------------------------------------------------


def lattice_points(a):
    return [tuple(p) for p in product(*(range(m + 1) for m in a))]


def unit_cubes(a):
    n = len(a)
    for j, k, l in combinations(range(n), 3):
        ranges = [range(m) if i in (j, k, l) else range(m + 1) for i, m in enumerate(a)]
        for base in product(*ranges):
            yield base, (j, k, l)


def _plus(p, *dirs):
    q = list(p)
    for d in dirs:
        q[d] += 1
    return tuple(q)


def cube_relation_failures(a, x):
    """Unit cubes on which x[B+jl] x[B+k] = x[B] x[B+jkl] + x[B+jk] x[B+l]
    + x[B+kl] x[B+j] fails."""
    bad = []
    for b, (j, k, l) in unit_cubes(a):
        lhs = x[_plus(b, j, l)] * x[_plus(b, k)]
        rhs = (x[b] * x[_plus(b, j, k, l)] + x[_plus(b, j, k)] * x[_plus(b, l)]
               + x[_plus(b, k, l)] * x[_plus(b, j)])
        if lhs != rhs:
            bad.append((b, (j + 1, k + 1, l + 1)))
    return bad


def evaluate_laurent(enc, point) -> Fraction:
    total = Fraction(0)
    for term in enc["terms"]:
        val = Fraction(int(term["coeff"]))
        for var, e in term["exps"].items():
            val *= point[var] ** e
        total += val
    return total


def _check_run(op, data):
    a = op.expect["A"]
    domain = op.expect["domain"]
    if data["A"] != a or data["domain"] != domain:
        raise CheckFailed("output multiplicities or domain differ from the input")
    values = {}
    for item in data["values"]:
        v = tuple(item["vertex"])
        if v in values:
            raise CheckFailed(f"vertex {v} labelled twice")
        values[v] = item["value"]
    if set(values) != set(lattice_points(a)):
        raise CheckFailed("output does not cover exactly the lattice points of the box")
    for item in op.files["labeling"]["values"]:
        v = tuple(item["vertex"])
        given = item["value"]
        kept = (Fraction(values[v]) == Fraction(given) if domain == "rational"
                else canonical_bytes(values[v]) == canonical_bytes(given))
        if not kept:
            raise CheckFailed(f"initial value at {v} changed")
    if domain == "rational":
        x = {v: Fraction(val) for v, val in values.items()}
    else:
        # a variable that is not a vertex of T0 raises KeyError: a failure
        point = {k: Fraction(s) for k, s in op.expect["point"].items()}
        x = {v: evaluate_laurent(enc, point) for v, enc in values.items()}
    bad = cube_relation_failures(a, x)
    if bad:
        raise CheckFailed(f"cube relation fails at base {bad[0][0]} dirs {bad[0][1]}")


def _check_enumerate(op, data):
    a = op.expect["A"]
    rhombi = sum(a[i] * a[j] for i, j in combinations(range(len(a)), 2))
    seen = set()
    for t in data:
        if t["A"] != a or len(t["rhombi"]) != rhombi:
            raise CheckFailed("tiling with wrong multiplicities or rhombus count")
        key = tuple(sorted((tuple(r["base"]), tuple(r["dirs"])) for r in t["rhombi"]))
        if key in seen:
            raise CheckFailed("the same tiling is listed twice")
        seen.add(key)
    if len(seen) != op.expect["count"]:
        raise CheckFailed(f"{len(seen)} tilings, expected {op.expect['count']}")


_VERIFY_LINES = {
    "confluence": r"confluence: (\d+) trials on A=.*: all labelings equal",
    "laurent": r"laurent: A=.*: all \d+ initial \+ \d+ derived values Laurent; "
               r"evaluation matches the rational run",
    "tropical": r"tropical: (\d+)/(\d+) samples met the cutcurve hypothesis; "
                r"wall inequalities held on every edge",
    "grassmann": r"grassmann: n=(\d+): (\d+) samples, all bilinear residuals zero",
}


def _check_verify(op, stdout):
    suite = op.expect["suite"]
    m = re.match(_VERIFY_LINES[suite], stdout)
    if m is None:
        raise CheckFailed(f"unexpected output {stdout.strip()[:120]!r}")
    if suite == "tropical" and (int(m.group(1)) < 1 or m.group(2) != op.expect["samples"]):
        raise CheckFailed("no sample met the cutcurve hypothesis, or wrong sample count")
    if suite == "confluence" and m.group(1) != op.expect["trials"]:
        raise CheckFailed("wrong trial count")
    if suite == "grassmann" and (m.group(1), m.group(2)) != (op.expect["n"],
                                                             op.expect["samples"]):
        raise CheckFailed("wrong n or sample count")

