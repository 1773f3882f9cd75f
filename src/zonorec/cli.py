"""Command line surface: construct tilings, run the recurrence, verify, render.

Exit codes: 0 success, 2 invalid input, 3 resource cap exceeded, 4 domain
error (zero divisor, inexact division, or a failed cube relation, named by
its cube's base and 1-based directions).  The verify suites draw their
samples from --seed (default: the ZONOREC_SEED environment variable, else 0);
tile and run accept --seed but their results do not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import engine, flips, jsonio, spinor, tropical, zonogon
from .svg import render_svg

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CAP = 3
EXIT_DOMAIN = 4

# file outputs leave in writes of this size, not the 8 KiB default: a
# (3,3,3) `tile --enumerate` document takes about 40 writes instead of 330
OUT_BUFFER = 1 << 16


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Every parse error is one `error:` line and exit 2, in subparsers too; a
    flag is never abbreviated, so a flag a command lacks is never one it has."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message, EXIT_BAD_INPUT)


def _parse(text: str, what: str, make):
    """`make(text)`, where a `ValueError` is invalid input naming `what`."""
    try:
        return make(text)
    except ValueError as exc:
        raise CliError(f"invalid {what} {text!r}: {exc}", EXIT_BAD_INPUT)


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _parse_a(text: str):
    """The argparse type of --A; argparse passes its `CliError` through."""
    return _parse(text, "multiplicities", lambda t: zonogon.ZonogonSpec(_ints(t)))


def _count(least: int):
    """The argparse type of a count of at least `least`."""
    def count(text: str) -> int:
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


def _cube_tiling(spec, text: str):
    """The tiling `--cube base,j,k,l,side` names (1-based directions)."""
    bits = text.split(",")
    if len(bits) != spec.n + 4:
        raise ValueError(f"needs base ({spec.n} coords), j,k,l, side")
    base = tuple(int(x) for x in bits[:spec.n])
    dirs = tuple(int(x) for x in bits[spec.n:spec.n + 3])
    if not all(1 <= d <= spec.n for d in dirs):
        raise ValueError(f"directions must be in 1..{spec.n}")
    return zonogon.tiling_with_cube_faces(spec, base, tuple(d - 1 for d in dirs), bits[-1])


@contextlib.contextmanager
def _write_out(path):
    """The stream the output goes to: stdout for "-", else the file `path`,
    buffered in `OUT_BUFFER` bytes.  A failed write, also to a pipe whose
    reader has gone, is bad input."""
    to_stdout = path in (None, "-")
    try:
        if to_stdout:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", buffering=OUT_BUFFER) as fh:
                yield fh
    except OSError as exc:
        if to_stdout:  # drop what is left, which Python would flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliError(f"cannot write {'stdout' if to_stdout else path}: {exc}",
                       EXIT_BAD_INPUT)


def _load(decode, path, *args):
    """Read a JSON file and decode it; an unreadable or malformed one is bad input."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_BAD_INPUT)
    try:
        return decode(data, *args)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed {path}: {type(exc).__name__}: {exc}",
                       EXIT_BAD_INPUT)


def cmd_tile(args) -> int:
    if args.enumerate:
        tilings = flips.enumerate_tilings(args.A, cap=args.cap)
        with _write_out(args.out) as fh:
            jsonio.tilings_to_json(tilings, fh)
            fh.write("\n")
        return EXIT_OK
    if args.through:
        t = _parse(args.through, "--through",
                   lambda text: zonogon.tiling_through_vertex(args.A, _ints(text)))
    elif args.cube:
        t = _parse(args.cube, "--cube", lambda text: _cube_tiling(args.A, text))
    else:
        t = zonogon.t_min(args.A)
    with _write_out(args.out) as fh:
        fh.write(json.dumps(jsonio.tiling_to_json(t), indent=1) + "\n")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.path and args.check:
        raise CliError("--check applies only to extensions, not to --path",
                       EXIT_BAD_INPUT)
    tiling = _load(jsonio.tiling_from_json, args.tiling)
    labeling = _load(jsonio.labeling_from_json, args.labeling, tiling)
    if args.domain and labeling.domain.name != args.domain:
        raise CliError(f"labeling domain {labeling.domain.name!r} != --domain "
                       f"{args.domain!r}", EXIT_BAD_INPUT)
    if args.path:
        moves = _load(jsonio.flip_path_from_json, args.path, tiling)
        result = engine.evaluate_path(labeling, moves)
    else:
        result = engine.extend_to_lattice(labeling)
        if args.check and (failures := engine.verify_cube_relations(result)):
            raise engine.cube_error(*failures[0])
    with _write_out(args.out) as fh:
        fh.write(json.dumps(jsonio.labeling_to_json(result), indent=1) + "\n")
    return EXIT_OK


def cmd_render(args) -> int:
    tiling = _load(jsonio.tiling_from_json, args.tiling)
    svg = render_svg(tiling, scale=args.scale, labels=args.labels, forest=args.forest)
    with _write_out(args.out) as fh:
        fh.write(svg)
    return EXIT_OK


def _verify_confluence(args) -> str:
    spec = args.A
    rng = random.Random(args.seed)
    census = flips.FlipCensus(spec)
    for trial in range(args.trials):
        t1 = flips.random_tiling(spec, rng, census)
        t2 = flips.random_tiling(spec, rng, census)
        values = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                  for v in sorted(t1.vertices)}
        lab = engine.initial_labeling(t1, engine.RATIONAL, values)
        out_a = engine.evaluate_path(lab, flips.connect(t1, t2))
        out_b = engine.evaluate_path(lab, flips.connect(t1, t2, rng=rng))
        for v in sorted(t2.vertices):
            if out_a.values[v] != out_b.values[v]:
                raise CliError(f"confluence violated at {v} on trial {trial}",
                               EXIT_DOMAIN)
    return f"confluence: {args.trials} trials on A={spec.a}: all labelings equal"


def _verify_laurent(args) -> str:
    spec = args.A
    t0 = zonogon.t_min(spec)
    moves = engine.extension_moves(t0)
    total = engine.extend_to_lattice(engine.symbolic_labeling(t0), moves)
    if failures := engine.verify_cube_relations(total):
        raise engine.cube_error(*failures[0])
    rng = random.Random(args.seed)
    point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
             for v in sorted(t0.vertices)}
    rat = engine.extend_to_lattice(engine.initial_labeling(t0, engine.RATIONAL, point),
                                   moves)
    for p in spec.points:
        if total.values[p].evaluate(point) != rat.values[p]:
            raise CliError(f"symbolic/rational mismatch at {p}", EXIT_DOMAIN)
    return (f"laurent: A={spec.a}: all {spec.vertex_count} initial + "
            f"{len(total.values) - spec.vertex_count} derived values Laurent; "
            "evaluation matches the rational run")


def _verify_tropical(args) -> str:
    spec = args.A
    if not 1 <= args.s <= spec.n:
        raise CliError(f"--s must be a direction in 1..{spec.n}, got {args.s}",
                       EXIT_BAD_INPUT)
    try:
        w = tropical.Wall(spec, args.s - 1, args.c)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    rng = random.Random(args.seed)
    t0 = zonogon.t_min(spec)
    moves = engine.extension_moves(t0)
    g = tropical.canonical_cutcurve(w)
    met = 0
    last_report = None
    vertices = sorted(t0.vertices)
    for _ in range(args.samples):
        values = {v: rng.randint(-5, 5) for v in vertices}
        lab = engine.extend_to_lattice(
            engine.initial_labeling(t0, engine.TROPICAL, values), moves)
        report = tropical.check_propagation(lab, w, g)
        if not report.hypothesis_ok:
            continue
        met += 1
        last_report = report
        if report.violations:
            base, i = report.violations[0]
            raise CliError(f"wall inequality violated on the edge at {base} "
                           f"in direction {i + 1}", EXIT_DOMAIN)
    if args.json:  # with no sample met, the last one's report and its witness
        return json.dumps(jsonio.propagation_report_to_json(
            last_report if last_report is not None else report))
    if met == 0:
        return (f"tropical: hypothesis not met on any of {args.samples} samples "
                f"(wall s={args.s}, c={args.c})")
    return (f"tropical: {met}/{args.samples} samples met the cutcurve hypothesis; "
            "wall inequalities held on every edge")


def _verify_grassmann(args) -> str:
    n = args.n
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        sub = spinor.random_isotropic_subspace(rng, n, n - 1)
        if violated := spinor.verify_trbi(spinor.spin_coordinates(sub)):
            (mask, dirs), res = violated[0]
            base = tuple(mask >> i & 1 for i in range(n))
            raise engine.cube_error(base, dirs, f"bilinear residual {res}")
    return (f"grassmann: n={n}: {args.samples} samples, all bilinear residuals "
            "zero (max |residual| = 0)")


def cmd_verify(args) -> int:
    print(args.check(args))
    return EXIT_OK


def _env_seed() -> int:
    """The default --seed: ZONOREC_SEED, else 0; read on every call that
    takes --seed and is not given one."""
    env_seed = os.environ.get("ZONOREC_SEED", "0")
    try:
        return int(env_seed)
    except ValueError:
        raise CliError(f"ZONOREC_SEED must be an integer, got {env_seed!r}", EXIT_BAD_INPUT)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; --seed defaults to None,
    which `main` replaces by `_env_seed()`."""
    parser = _Parser(prog="zonorec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_a(p):
        p.add_argument("--A", required=True, type=_parse_a,
                       help="comma separated multiplicities")

    p_tile = sub.add_parser("tile", help="construct tilings")
    add_a(p_tile)
    mode = p_tile.add_mutually_exclusive_group()
    mode.add_argument("--min", action="store_true", help="minimal tiling (default)")
    mode.add_argument("--through", help="vertex the tiling must contain, e.g. 1,0,2")
    mode.add_argument("--cube", help="base,j,k,l,side with 1-based directions")
    mode.add_argument("--enumerate", action="store_true", help="all tilings")
    p_tile.add_argument("--cap", type=_count(0), default=10000)
    p_tile.add_argument("--seed", type=int, default=None,
                        help="accepted; tilings do not depend on it")
    p_tile.add_argument("--out", default="-")
    p_tile.set_defaults(func=cmd_tile)

    p_run = sub.add_parser("run", help="run the cube recurrence")
    p_run.add_argument("--tiling", required=True)
    p_run.add_argument("--labeling", required=True)
    p_run.add_argument("--domain", choices=tuple(engine.DOMAINS))
    p_run.add_argument("--path", help="flip path JSON; default extends to the lattice")
    p_run.add_argument("--check", action="store_true",
                       help="also check the cube relation on every unit 3-cube "
                            "of the extension (not with --path)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="accepted; the extension does not depend on it")
    p_run.add_argument("--out", default="-")
    p_run.set_defaults(func=cmd_run)

    suites = sub.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="suite", required=True)

    def add_suite(name, check, about, takes_a=True):
        p = suites.add_parser(name, help=about)
        if takes_a:
            add_a(p)
        p.add_argument("--seed", type=int, default=None,
                       help="sample seed (default: ZONOREC_SEED, else 0)")
        p.set_defaults(func=cmd_verify, check=check)
        return p

    add_suite("confluence", _verify_confluence, "flip order does not matter").add_argument(
        "--trials", type=_count(1), default=20)
    add_suite("laurent", _verify_laurent, "every value is a Laurent polynomial")
    p_trop = add_suite("tropical", _verify_tropical, "wall inequalities propagate")
    p_trop.add_argument("--samples", type=_count(1), default=25)
    p_trop.add_argument("--s", type=int, default=1, help="wall direction (1-based)")
    p_trop.add_argument("--c", type=int, default=1, help="wall offset")
    p_trop.add_argument("--json", action="store_true", help="print the report as JSON")
    p_grass = add_suite("grassmann", _verify_grassmann, "the IG(n-1, 2n) equations",
                        takes_a=False)
    p_grass.add_argument("--n", type=int, choices=range(3, spinor.MAX_N + 1), default=3)
    p_grass.add_argument("--samples", type=_count(1), default=25)

    p_render = sub.add_parser("render", help="render a tiling to SVG")
    p_render.add_argument("--tiling", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--scale", type=_count(1), default=40)
    p_render.add_argument("--labels", action="store_true")
    p_render.add_argument("--forest", action="store_true")
    p_render.set_defaults(func=cmd_render)
    return parser


# The exit code of each library exception that reaches `main`; a `CliError`
# carries its own.  A division that fails in the recurrence reaches it as the
# `DomainError` of its cube (`engine.flip_value`).
_EXIT_CODES = {
    flips.CapExceeded: EXIT_CAP,
    flips.FlipError: EXIT_BAD_INPUT,
    engine.DomainError: EXIT_DOMAIN,
}


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # --help, which has printed the help
            return EXIT_OK
        if getattr(args, "seed", 0) is None:
            args.seed = _env_seed()
        return args.func(args)
    except (CliError, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
