"""Benchmark of the zonorec command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory and driven in process through ``zonorec.cli.main(argv)``,
one op (CLI call) at a time, on inputs generated from ``--seed`` (see
``workloads.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

- A set-up is a fresh import of the program, the generation of a small
  warm-up pass and that pass.  The first one precedes the first timed op;
  the other ``workloads.SETUPS - 1`` run between the first timed passes.
- Timed passes run until their time, converted from reference units (see
  below), reaches ``--seconds``.  The number of passes, and with it the set
  of inputs the median is taken over, thus does not follow the speed the
  machine gives this process; wall time is longer than ``--seconds`` by the
  factor the machine runs below full speed.  Each op runs after a garbage
  collection, with its input files written before its timer starts.
- Times are measured in reference units.  While a set-up or an op runs, a
  timer signal every 20 ms times a fixed pure-Python computation
  (``reference_seconds``, about 2% of the op's time); each stretch of the
  program's own time is divided by the reference time measured right after
  it.  On a shared machine the speed this process gets can halve for
  seconds to minutes at a time, in CPU time as much as in wall time; the
  reference slows with it, so the ratio follows the program and not its
  neighbours.  ``REFERENCE_SECONDS`` turns reference units back into
  seconds at the machine's full speed.
- ``pass_s`` is the median pass time and ``setup_s`` the median set-up
  time, both so converted.  Wall times less the probes are kept in the
  results file.
- ``--trace 1`` spends the first half of the budget on untraced passes and
  the second half on passes with the span recorder of ``spans.py``
  installed, and reports the per-layer metrics per traced pass.
- Every op's output is checked after the last pass (``checks.py``); a
  non-zero exit, an exception or a failed check counts the op as failed.

Per-op digests and times, per-command times and, when tracing, all spans
are written to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpResult:
    phase: str  # setup, pass or traced
    slot: int
    index: int
    op: workloads.Op
    out_path: Path | None
    seconds: float
    rc: int | None
    stdout: str
    error: str = ""
    ref_units: float = 0.0  # time in units of the reference computation
    digest: str = ""
    ok: bool = False


def import_program():
    """A fresh import of zonorec from the checkout, as a new CLI process gets."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "zonorec" or n.startswith("zonorec.")]:
        del sys.modules[name]
    cli = importlib.import_module("zonorec.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"zonorec imported from {cli.__file__}, not from {SRC}")
    return cli


# The time of one ``reference_seconds`` call at full speed on a 2-vCPU Intel
# Xeon VM under CPython 3.11, the hardware the baseline was measured on.
REFERENCE_SECONDS = 350e-6


def reference_seconds() -> float:
    """Time of a short fixed pure-Python computation like the program's inner
    loops (exact fractions, tuples, dicts, sets); it never calls the program."""
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict = {}
    for i in range(1, 120):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        key = (i % 13, i % 17, i % 19)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class SpeedSampler:
    """Times the reference computation every ``PERIOD`` seconds while the
    program runs, from a SIGALRM handler, so that each stretch of the
    program's time can be divided by the reference time measured right after
    it."""

    PERIOD = 0.02

    def __enter__(self):
        self.samples = []  # (probe start, probe end)
        self.end = None
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def _on_alarm(self, signum, frame):
        if self.end is None:  # a signal still pending when the op ended is dropped
            self._probe()

    def _probe(self):
        # with the collector off, so that the program's heap cannot make a
        # collection land inside the reference time
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_seconds()
        self.samples.append((start, time.perf_counter()))
        if enabled:
            gc.enable()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = time.perf_counter()
        self._probe()  # the reference for the last stretch; lets a pending alarm run
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def program_seconds(self) -> float:
        """The op's wall time less the time spent in the probes."""
        return self.end - self.start - sum(e - s for s, e in self.samples[:-1])

    def ref_units(self) -> float:
        """Sum over stretches of program time of stretch / reference time."""
        units, last = 0.0, self.start
        for start, end in self.samples:
            units += (min(start, self.end) - last) / (end - start)
            last = end
        return units


def execute(cli, op, phase, slot, index, workdir) -> OpResult:
    tag = f"{slot}-{index}"
    paths = {}
    for name, doc in op.files.items():
        paths[name] = workdir / f"{tag}-{name}.json"
        paths[name].write_text(json.dumps(doc))
    out_path = workdir / f"{tag}-out.json" if op.out else None
    if out_path is not None:
        paths[op.out] = out_path
    argv = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in op.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with SpeedSampler() as speed:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an op that raises is a failed op, not a crash
                rc, error = None, f"{type(exc).__name__}: {exc}"
    if rc not in (0, None):
        error = stderr.getvalue().strip()[:300]
    return OpResult(phase, slot, index, op, out_path, speed.program_seconds(), rc,
                    stdout.getvalue(), error, speed.ref_units())


def setup(workload, seed, r, workdir, results):
    """Set-up number ``r``: returns the freshly imported cli and the time of
    the import, the input generation and the warm-up ops, in seconds and in
    reference units."""
    gc.collect()
    with SpeedSampler() as speed:
        cli = import_program()
        ops = workloads.setup_ops(workload, seed, r)
    done = [execute(cli, op, "setup", r, k, workdir) for k, op in enumerate(ops)]
    results.extend(done)
    return cli, (speed.program_seconds() + sum(r.seconds for r in done),
                 speed.ref_units() + sum(r.ref_units for r in done))


def timed_pass(cli, workload, seed, i, phase, workdir, results):
    """Timed pass ``i``: returns its time in seconds and in reference units."""
    slot = workloads.SETUPS + i
    done = [execute(cli, op, phase, slot, k, workdir)
            for k, op in enumerate(workloads.pass_ops(workload, seed, i))]
    results.extend(done)
    return sum(r.seconds for r in done), sum(r.ref_units for r in done)


def finish(result: OpResult) -> None:
    """Check the op's output and take its digest, then drop the output file."""
    out_text = None
    try:
        if result.out_path is not None and result.out_path.exists():
            out_text = result.out_path.read_text()
        if result.rc is None:
            raise checks.CheckFailed(result.error)
        checks.check(result.op, result.rc, result.stdout, out_text)
        result.digest = checks.digest(result.op, result.stdout, out_text)
        result.ok = True
    except (checks.CheckFailed, ValueError, KeyError, TypeError, AttributeError,
            IndexError) as exc:  # a malformed output fails its op
        result.error = result.error or f"{type(exc).__name__}: {exc}"
    finally:
        if result.out_path is not None:
            result.out_path.unlink(missing_ok=True)


def command_times(results) -> dict:
    """Per command kind, its median time in a pass, converted from reference
    units (``s``) and as wall time (``wall_s``)."""
    per_pass: dict = {}
    for r in results:
        if r.phase == "pass":
            row = per_pass.setdefault(r.slot, {}).setdefault(r.op.kind, [0.0, 0.0])
            row[0] += r.ref_units * REFERENCE_SECONDS
            row[1] += r.seconds
    kinds = sorted({k for p in per_pass.values() for k in p})
    return {f"{k}_s": {"s": statistics.median(p[k][0] for p in per_pass.values()),
                       "wall_s": statistics.median(p[k][1] for p in per_pass.values())}
            for k in kinds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zonorec" / "__init__.py").is_file():
        print(f"error: no zonorec sources under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results: list[OpResult] = []
    setups, passes, traced = [], [], []  # (seconds, reference units) each
    budget = (args.seconds / 2 if args.trace else args.seconds) / REFERENCE_SECONDS
    try:
        i = 0
        while len(setups) < workloads.SETUPS or sum(ref for _, ref in passes) < budget:
            if len(setups) < workloads.SETUPS:
                cli, times = setup(args.workload, args.seed, len(setups), workdir, results)
                setups.append(times)
            if not passes or sum(ref for _, ref in passes) < budget:
                passes.append(timed_pass(cli, args.workload, args.seed, i, "pass",
                                         workdir, results))
                i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                while not traced or sum(ref for _, ref in traced) < budget:
                    traced.append(timed_pass(cli, args.workload, args.seed, i, "traced",
                                             workdir, results))
                    i += 1
            finally:
                tracer.uninstall()
        check_start = time.perf_counter()
        for r in results:
            finish(r)
        check_seconds = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    failed = sum(1 for r in results if not r.ok)
    pass_ref = statistics.median(ref for _, ref in passes)
    if args.trace:
        overhead = statistics.median(ref for _, ref in traced) / pass_ref
        metrics = spans.layer_metrics(tracer, len(traced), overhead)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        metrics = {
            "pass_s": pass_ref * REFERENCE_SECONDS,
            "setup_s": statistics.median(ref for _, ref in setups) * REFERENCE_SECONDS,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": metrics,
        "setup_wall_s": [s for s, _ in setups],
        "setup_ref": [ref for _, ref in setups],
        "pass_wall_s": [s for s, _ in passes],
        "pass_ref": [ref for _, ref in passes],
        "traced_pass_wall_s": [s for s, _ in traced],
        "traced_pass_ref": [ref for _, ref in traced],
        "command_s": command_times(results),
        "items_per_pass": workloads.domain_items(workloads.pass_ops(args.workload, args.seed, 0)),
        "ops": [
            {"phase": r.phase, "slot": r.slot, "index": r.index, "kind": r.op.kind,
             "input": r.op.input_key()[:16], "seconds": r.seconds,
             "ref_units": r.ref_units, "rc": r.rc, "ok": r.ok, "digest": r.digest,
             "error": r.error}
            for r in results
        ],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes; pass wall s "
          f"{[round(s, 3) for s in report['pass_wall_s']]}; pass ref "
          f"{[round(r, 1) for r in report['pass_ref']]}; set-up ref "
          f"{[round(r, 1) for r in report['setup_ref']]}")
    print("per command and pass, median s/wall s: " + ", ".join(
        f"{k} {v['s']:.3f}/{v['wall_s']:.3f}" for k, v in report["command_s"].items()))
    print(f"output checks took {check_seconds:.2f} s")
    for r in results:
        if not r.ok:
            print(f"FAILED {r.phase} slot {r.slot} op {r.index} {r.op.kind}: {r.error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
