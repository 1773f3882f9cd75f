"""Command line surface: construct tilings, run the recurrence, verify, render.

Exit codes: 0 success, 2 invalid input, 3 resource cap exceeded, 4 domain
error (zero divisor / inexact division).  The verify suites draw their
samples from --seed (default: the ZONOREC_SEED environment variable, else 0);
tile and run accept --seed but their results do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import engine, flips, jsonio, spinor, tropical, zonogon
from .laurent import InexactDivision
from .svg import render_svg

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CAP = 3
EXIT_DOMAIN = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_a(text: str):
    try:
        a = tuple(int(x) for x in text.split(","))
        return zonogon.ZonogonSpec(a)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid multiplicities {text!r}: {exc}", EXIT_BAD_INPUT)


def _require_at_least(value: int, least: int, flag: str):
    if value < least:
        raise CliError(f"{flag} must be at least {least}, got {value}", EXIT_BAD_INPUT)


def _write_out(path, payload: str):
    if path in (None, "-"):
        sys.stdout.write(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_BAD_INPUT)


def _load(decode, path, *args):
    """Read a JSON file and decode it; a malformed document is bad input."""
    data = _read_json(path)
    try:
        return decode(data, *args)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed {path}: {type(exc).__name__}: {exc}",
                       EXIT_BAD_INPUT)


def cmd_tile(args) -> int:
    spec = _parse_a(args.A)
    if args.enumerate:
        _require_at_least(args.cap, 0, "--cap")
        try:
            tilings = flips.enumerate_tilings(spec, cap=args.cap)
        except flips.CapExceeded as exc:
            raise CliError(str(exc), EXIT_CAP)
        payload = [jsonio.tiling_to_json(t) for t in
                   sorted(tilings, key=lambda t: t.canonical_rhombi())]
        _write_out(args.out, json.dumps(payload, indent=1) + "\n")
        return EXIT_OK
    if args.through:
        try:
            p = tuple(int(x) for x in args.through.split(","))
        except ValueError as exc:
            raise CliError(f"bad vertex {args.through!r}: {exc}", EXIT_BAD_INPUT)
        if not spec.contains(p):
            raise CliError(f"vertex {p} outside the box", EXIT_BAD_INPUT)
        t = zonogon.tiling_through_vertex(spec, p)
    elif args.cube:
        bits = args.cube.split(",")
        if len(bits) != spec.n + 4:
            raise CliError(
                f"--cube needs base ({spec.n} coords), j,k,l, side", EXIT_BAD_INPUT
            )
        try:
            base = tuple(int(x) for x in bits[: spec.n])
            dirs = tuple(int(x) - 1 for x in bits[spec.n:spec.n + 3])
            t = zonogon.tiling_with_cube_faces(spec, base, dirs, bits[-1])
        except ValueError as exc:
            raise CliError(str(exc), EXIT_BAD_INPUT)
    else:
        t = zonogon.t_min(spec)
    _write_out(args.out, json.dumps(jsonio.tiling_to_json(t), indent=1) + "\n")
    return EXIT_OK


def cmd_run(args) -> int:
    tiling = _load(jsonio.tiling_from_json, args.tiling)
    given = _load(jsonio.labeling_from_json, args.labeling, tiling)
    if args.domain and given.domain.name != args.domain:
        raise CliError(
            f"labeling domain {given.domain.name!r} != --domain {args.domain!r}",
            EXIT_BAD_INPUT,
        )
    extra = [v for v in given.values if v not in tiling.vertices]
    if extra:
        raise CliError(f"labeling has values at {extra}, which are not tiling vertices",
                       EXIT_BAD_INPUT)
    missing = [v for v in tiling.vertices if v not in given.values]
    if missing:
        raise CliError(f"labeling misses tiling vertices {missing}", EXIT_BAD_INPUT)
    try:
        labeling = engine.initial_labeling(tiling, given.domain, given.values)
        if args.path:
            path = _load(jsonio.flip_path_from_json, args.path, tiling.spec)
            if path.start != tiling:
                raise CliError("flip path does not start at the tiling", EXIT_BAD_INPUT)
            result = engine.evaluate_path(labeling, path)
        else:
            result = engine.extend_to_lattice(labeling, check=args.check)
            if args.check:
                report = engine.verify_cube_relations(result)
                if not report.ok:
                    raise CliError(f"relation check failed: {report.failures[0]}",
                                   EXIT_DOMAIN)
    except (InexactDivision, ZeroDivisionError, engine.DomainError) as exc:
        raise CliError(f"domain error: {exc}", EXIT_DOMAIN)
    except engine.ConsistencyError as exc:
        raise CliError(f"consistency violation: {exc}", EXIT_DOMAIN)
    except flips.FlipError as exc:
        raise CliError(f"invalid tiling or flip path: {exc}", EXIT_BAD_INPUT)
    _write_out(args.out, json.dumps(jsonio.labeling_to_json(result), indent=1) + "\n")
    return EXIT_OK


def cmd_render(args) -> int:
    tiling = _load(jsonio.tiling_from_json, args.tiling)
    svg = render_svg(tiling, scale=args.scale, labels=args.labels, forest=args.forest)
    _write_out(args.out, svg)
    return EXIT_OK


def _verify_confluence(args) -> list[str]:
    spec = _parse_a(args.A)
    _require_at_least(args.trials, 1, "--trials")
    rng = random.Random(args.seed)
    lines = []
    for trial in range(args.trials):
        t1 = flips.random_tiling(spec, rng)
        t2 = flips.random_tiling(spec, rng)
        values = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for v in t1.vertices}
        lab = engine.initial_labeling(t1, engine.RATIONAL, values)
        path_a = flips.connect(t1, t2)
        path_b = flips.connect(t1, t2, rng=rng)
        out_a = engine.evaluate_path(lab, path_a)
        out_b = engine.evaluate_path(lab, path_b)
        for v in t2.vertices:
            if out_a.values[v] != out_b.values[v]:
                raise CliError(
                    f"confluence violated at {v} on trial {trial}", EXIT_DOMAIN
                )
    lines.append(f"confluence: {args.trials} trials on A={spec.a}: all labelings equal")
    return lines


def _verify_laurent(args) -> list[str]:
    spec = _parse_a(args.A)
    t0 = zonogon.t_min(spec)
    lab = engine.symbolic_labeling(t0)
    total = engine.extend_to_lattice(lab)
    report = engine.verify_cube_relations(total)
    if not report.ok:
        raise CliError(f"cube relation failed: {report.failures[0]}", EXIT_DOMAIN)
    rng = random.Random(args.seed)
    point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in t0.vertices}
    rat = engine.extend_to_lattice(engine.initial_labeling(t0, engine.RATIONAL, point))
    for p in spec.lattice_points():
        if total.values[p].evaluate(point) != rat.values[p]:
            raise CliError(f"symbolic/rational mismatch at {p}", EXIT_DOMAIN)
    lines = [f"laurent: A={spec.a}: all {spec.vertex_count} initial + "
             f"{len(total.values) - spec.vertex_count} derived values Laurent; "
             "evaluation matches the rational run"]
    return lines


def _verify_tropical(args) -> list[str]:
    spec = _parse_a(args.A)
    _require_at_least(args.samples, 1, "--samples")
    w = tropical.Wall(args.s - 1, args.c)
    try:
        w.validate(spec)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    rng = random.Random(args.seed)
    t0 = zonogon.t_min(spec)
    g = tropical.canonical_cutcurve(spec, w)
    met = 0
    last_report = None
    for _ in range(args.samples):
        values = {v: Fraction(rng.randint(-5, 5)) for v in t0.vertices}
        lab = engine.extend_to_lattice(
            engine.initial_labeling(t0, engine.TROPICAL, values))
        report = tropical.check_propagation(lab, w, g)
        if not report.hypothesis_ok:
            continue
        met += 1
        last_report = report
        if report.violations:
            raise CliError(
                f"wall inequality violated at {report.violations[0]}", EXIT_DOMAIN
            )
    if args.json and last_report is not None:
        return [json.dumps(jsonio.propagation_report_to_json(last_report))]
    if met == 0:
        return [f"tropical: hypothesis not met on any of {args.samples} samples "
                f"(wall s={args.s}, c={args.c})"]
    return [f"tropical: {met}/{args.samples} samples met the cutcurve hypothesis; "
            "wall inequalities held on every edge"]


def _verify_grassmann(args) -> list[str]:
    n = args.n
    if not 3 <= n <= spinor.MAX_N:
        raise CliError(f"n must be in 3..{spinor.MAX_N}", EXIT_BAD_INPUT)
    _require_at_least(args.samples, 1, "--samples")
    rng = random.Random(args.seed)
    worst = Fraction(0)
    for _ in range(args.samples):
        sub = spinor.random_isotropic_subspace(rng, n, n - 1)
        point = spinor.spin_coordinates(sub)
        for _, res in spinor.trbi_residuals(point):
            worst = max(worst, abs(res))
            if res != 0:
                raise CliError(f"bilinear cube equation violated: {res}", EXIT_DOMAIN)
    return [f"grassmann: n={n}: {args.samples} samples, all bilinear residuals "
            f"zero (max |residual| = {worst})"]


def cmd_verify(args) -> int:
    suites = {
        "confluence": _verify_confluence,
        "laurent": _verify_laurent,
        "tropical": _verify_tropical,
        "grassmann": _verify_grassmann,
    }
    lines = suites[args.suite](args)
    for line in lines:
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zonorec", description=__doc__)
    default_seed = int(os.environ.get("ZONOREC_SEED", "0"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_tile = sub.add_parser("tile", help="construct tilings")
    p_tile.add_argument("--A", required=True, help="comma separated multiplicities")
    mode = p_tile.add_mutually_exclusive_group()
    mode.add_argument("--min", action="store_true", help="minimal tiling (default)")
    mode.add_argument("--through", help="vertex the tiling must contain, e.g. 1,0,2")
    mode.add_argument("--cube", help="base,j,k,l,side with 1-based directions")
    mode.add_argument("--enumerate", action="store_true", help="all tilings")
    p_tile.add_argument("--cap", type=int, default=10000)
    p_tile.add_argument("--seed", type=int, default=default_seed,
                        help="accepted; tilings do not depend on it")
    p_tile.add_argument("--out", default="-")
    p_tile.set_defaults(func=cmd_tile)

    p_run = sub.add_parser("run", help="run the cube recurrence")
    p_run.add_argument("--tiling", required=True)
    p_run.add_argument("--labeling", required=True)
    p_run.add_argument("--domain", choices=("rational", "laurent", "tropical"))
    p_run.add_argument("--path", help="flip path JSON; default extends to the lattice")
    p_run.add_argument("--check", action="store_true")
    p_run.add_argument("--seed", type=int, default=default_seed,
                       help="accepted; the extension does not depend on it")
    p_run.add_argument("--out", default="-")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite",
                          choices=("confluence", "laurent", "tropical", "grassmann"))
    p_verify.add_argument("--A", help="comma separated multiplicities")
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--samples", type=int, default=25)
    p_verify.add_argument("--s", type=int, default=1, help="wall direction (1-based)")
    p_verify.add_argument("--c", type=int, default=1, help="wall offset")
    p_verify.add_argument("--n", type=int, default=3)
    p_verify.add_argument("--seed", type=int, default=default_seed)
    p_verify.add_argument("--json", action="store_true",
                          help="emit a JSON report where supported")
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="render a tiling to SVG")
    p_render.add_argument("--tiling", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--scale", type=int, default=40)
    p_render.add_argument("--labels", action="store_true")
    p_render.add_argument("--forest", action="store_true")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    needs_a = args.command == "tile" or (
        args.command == "verify" and args.suite in ("confluence", "laurent", "tropical")
    )
    if needs_a and not getattr(args, "A", None):
        print("error: --A is required", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except flips.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InexactDivision, ZeroDivisionError, engine.DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
