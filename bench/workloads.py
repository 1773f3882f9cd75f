"""Deterministic inputs for the benchmark workloads.

An op is one ``zonorec`` CLI call; a pass is a workload's fixed list of ops.
The inputs of a pass are a pure function of (workload, workload seed, slot),
and every op carries its own ``--seed`` derived from its slot and position.
A run op's files differ from those of every other op of the process (its
initial values, or for a symbolic labeling its variable names, are drawn
afresh), so an in-process memo cannot show a gain there that a CLI user,
who starts a new process per call, never gets.  Two kinds of op repeat
work within a process because their spec is fixed: ``verify laurent`` on
each A starts from the same symbolic labeling, so its ``--seed`` changes
the route but not the polynomials derived; ``tile --enumerate`` on (3,3,3)
and (1,1,1,1,1,1) does not use ``--seed`` at all.  The other verify suites
draw their samples from ``--seed``.  The generator is independent of the
program: tilings come from random sorting networks (wiring diagrams), never
from ``zonorec`` itself, so a change to the program cannot change the
inputs it is measured on.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

WORKLOADS = ("numeric", "symbolic", "grassmann", "enumerate")

# Setups come first, then timed passes; each takes one slot.
SETUPS = 7
OPS_PER_SLOT = 64

# Tilings of the all-ones zonogon with n directions (OEIS A006245).
ALL_ONES_TILINGS = {3: 2, 4: 8, 5: 62, 6: 908}


@dataclass
class Op:
    """One CLI call: ``argv`` with ``{name}`` placeholders for ``files``."""

    kind: str  # run, verify_laurent, ..., tile_enumerate
    argv: list
    files: dict = field(default_factory=dict)  # placeholder -> JSON document
    out: str | None = None  # placeholder of the data output file, if any
    expect: dict = field(default_factory=dict)  # what the output check needs

    def input_key(self) -> str:
        """Digest of everything the program reads: argv and file contents."""
        h = hashlib.sha256()
        for arg in self.argv:
            if arg == "{out}":
                continue
            h.update(arg.encode() + b"\0")
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + canonical_bytes(self.files[name]))
        return h.hexdigest()


def canonical_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


# What decides an op's cost is common to all workload seeds: its ``--seed``
# (the routing of an extension, the samples of a verify suite) and its
# initial tiling.  Pass i therefore costs the same under every workload
# seed, and runs with different seeds compare like with like; the workload
# seed draws the initial values and the points the checks evaluate at.


def _shape_rng(workload: str, slot: int, index: int) -> random.Random:
    return random.Random(f"{workload}|{slot}|{index}")


def _value_rng(workload: str, seed: int, slot: int, index: int) -> random.Random:
    return random.Random(f"{workload}|{seed}|{slot}|{index}")


def _op_seed(slot: int, index: int) -> str:
    """The op's ``--seed``, distinct for every (slot, index) by construction."""
    return str(slot * OPS_PER_SLOT + index)


# ---------------------------------------------------------------------------
# tilings from random sorting networks


def random_tiling(a, rng):
    """A random rhombus tiling of the zonogon with multiplicities ``a``.

    The edge word of the lower boundary (directions ascending) is sorted to
    the upper one (descending) by random swaps of adjacent ascending pairs;
    each swap lays one rhombus.  Returns the rhombi with 0-based directions.
    """
    n = len(a)
    word = [d for d in range(n) for _ in range(a[d])]
    rhombi = []
    while True:
        ascending = [i for i in range(len(word) - 1) if word[i] < word[i + 1]]
        if not ascending:
            break
        i = rng.choice(ascending)
        base = [0] * n
        for d in word[:i]:
            base[d] += 1
        rhombi.append((tuple(base), (word[i], word[i + 1])))
        word[i], word[i + 1] = word[i + 1], word[i]
    return sorted(rhombi)


def rhombus_corners(base, dirs):
    j, k = dirs
    out = []
    for dj in (0, 1):
        for dk in (0, 1):
            p = list(base)
            p[j] += dj
            p[k] += dk
            out.append(tuple(p))
    return out


def tiling_vertices(rhombi):
    return sorted({p for base, dirs in rhombi for p in rhombus_corners(base, dirs)})


def tiling_json(a, rhombi) -> dict:
    return {
        "A": list(a),
        "rhombi": [{"base": list(b), "dirs": [j + 1, k + 1]} for b, (j, k) in rhombi],
    }


def variable_names(verts, rng) -> dict:
    """Vertex -> the name of its initial variable in a symbolic labeling.

    The names are distinct random integers in the order of the vertices, so
    each workload seed gives a different labeling file, while the program,
    which orders its terms by variable, does the same work on every one.
    """
    keys = sorted(rng.sample(range(1, 1 << 30), len(verts)))
    return {v: str(k) for v, k in zip(sorted(verts), keys)}


def random_positive(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


# ---------------------------------------------------------------------------
# ops


def run_op(a, domain, shape_rng, rng, seed):
    rhombi = random_tiling(a, shape_rng)
    verts = tiling_vertices(rhombi)
    if domain == "rational":
        values = [{"vertex": list(v), "value": str(random_positive(rng))} for v in verts]
    else:
        names = variable_names(verts, rng)
        values = [
            {"vertex": list(v), "value": {"terms": [{"coeff": "1", "exps": {names[v]: 1}}]}}
            for v in verts
        ]
    argv = ["run", "--tiling", "{tiling}", "--labeling", "{labeling}", "--seed", seed,
            "--out", "{out}"]
    expect = {"A": list(a), "domain": domain}
    if domain == "rational":
        argv.append("--check")
    else:  # the point at which the check evaluates the Laurent output
        expect["point"] = {names[v]: str(random_positive(rng)) for v in verts}
    return Op("run", argv, out="out", expect=expect,
              files={"tiling": tiling_json(a, rhombi),
                     "labeling": {"A": list(a), "domain": domain, "values": values}})


def verify_op(suite, seed, **opts):
    argv = ["verify", suite]
    for key, val in opts.items():
        argv += [f"--{key}", str(val)]
    argv += ["--seed", seed]
    expect = {"suite": suite}
    expect.update({k: str(v) for k, v in opts.items()})
    return Op(f"verify_{suite}", argv, expect=expect)


def macmahon(a, b, c) -> int:
    """Plane partitions in an a x b x c box = tilings of the (a,b,c) hexagon."""
    r = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                r *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(r)


def expected_tilings(a) -> int:
    if len(a) == 3:
        return macmahon(*a)
    if all(x == 1 for x in a):
        return ALL_ONES_TILINGS[len(a)]
    raise ValueError(f"no closed-form tiling count for {a}")


def enumerate_op(a, seed):
    argv = ["tile", "--A", ",".join(map(str, a)), "--enumerate", "--seed", seed,
            "--out", "{out}"]
    return Op("tile_enumerate", argv, out="out",
              expect={"A": list(a), "count": expected_tilings(a)})


NUMERIC_RUNS = [(3, 3, 3, 3), (2, 2, 2, 2, 2), (4, 4, 4)]
SYMBOLIC_LAURENT = [(3, 2, 2), (2, 2, 1, 1), (1, 1, 1, 1, 1)]
SYMBOLIC_RUNS = [(1, 1, 1, 1, 1), (2, 2, 2), (2, 2, 1, 1)]
GRASSMANN_SAMPLES = [(3, 20), (4, 5), (5, 1)]
# (4,3,2) cycles through its permutations, which all have 490 tilings, so
# that a memo keyed on the spec cannot hit from one pass to the next.
PERMS_432 = sorted(set(permutations((4, 3, 2))))


def _pass(workload, seed, slot, warmup):
    ops = []

    def run(a, domain):
        i = len(ops)
        ops.append(run_op(a, domain, _shape_rng(workload, slot, i),
                          _value_rng(workload, seed, slot, i), _op_seed(slot, i)))

    def nxt():
        return _op_seed(slot, len(ops))

    if workload == "numeric":
        for a in [(2, 2, 2)] if warmup else NUMERIC_RUNS:
            run(a, "rational")
        ops.append(verify_op("tropical", nxt(), A="2,2,1", samples=100 if warmup else 150))
        ops.append(verify_op("confluence", nxt(), A="1,1,1,1" if warmup else "2,2,2",
                             trials=2 if warmup else 10))
    elif workload == "symbolic":
        for a in [(2, 2, 1)] if warmup else SYMBOLIC_LAURENT:
            ops.append(verify_op("laurent", nxt(), A=",".join(map(str, a))))
        for a in [(1, 1, 1, 1)] if warmup else SYMBOLIC_RUNS:
            run(a, "laurent")
    elif workload == "grassmann":
        for n, samples in [(3, 2)] if warmup else GRASSMANN_SAMPLES:
            ops.append(verify_op("grassmann", nxt(), n=n, samples=samples))
    elif workload == "enumerate":
        if warmup:
            specs = [(2, 2, 2), (1, 1, 1, 1)]
        else:
            specs = [(3, 3, 3), PERMS_432[slot % len(PERMS_432)], (1, 1, 1, 1, 1, 1)]
        for a in specs:
            ops.append(enumerate_op(a, nxt()))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def setup_ops(workload: str, seed: int, r: int) -> list:
    """The small warm-up pass of setup number ``r`` (0 <= r < SETUPS)."""
    return _pass(workload, seed, r, warmup=True)


def pass_ops(workload: str, seed: int, i: int) -> list:
    """The ops of timed pass ``i``."""
    return _pass(workload, seed, SETUPS + i, warmup=False)


def domain_items(ops) -> dict:
    """Domain units the ops produce: lattice points labelled by runs, spin
    points checked, tilings emitted."""
    out = {}

    def add(key, n):
        out[key] = out.get(key, 0) + n

    for op in ops:
        if op.kind == "run":
            points = 1
            for x in op.expect["A"]:
                points *= x + 1
            add("lattice_points_labelled", points)
        elif op.kind == "verify_grassmann":
            add("spin_points_checked", int(op.expect["samples"]))
        elif op.kind == "tile_enumerate":
            add("tilings_emitted", op.expect["count"])
    return out
