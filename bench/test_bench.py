"""Tests of the benchmark itself: inputs, output checks and span arithmetic."""

import json
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads


@pytest.fixture
def program():
    """zonorec.cli freshly imported from the checkout; the modules imported
    before the test are put back afterwards."""
    before = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "zonorec"}
    try:
        yield run.import_program()
    finally:
        for k in [k for k in sys.modules if k.split(".")[0] == "zonorec"]:
            del sys.modules[k]
        sys.modules.update(before)


def _doc(op):
    return (op.kind, op.argv, {k: workloads.canonical_bytes(v) for k, v in op.files.items()},
            op.expect)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_seed_and_pass(workload):
    for make, i in ((workloads.setup_ops, 1), (workloads.pass_ops, 3)):
        first = [_doc(op) for op in make(workload, 11, i)]
        second = [_doc(op) for op in make(workload, 11, i)]
        assert first == second


# Kinds of op whose work may repeat within a process (see workloads.py): the
# verify suites that draw their samples from ``--seed``, and the ops with a
# fixed spec.
SEED_SAMPLED = {"verify_tropical", "verify_confluence", "verify_grassmann"}
FIXED_SPEC = {"verify_laurent", "tile_enumerate"}


def _key_without_seed(op):
    argv = list(op.argv)
    i = argv.index("--seed")
    del argv[i:i + 2]
    return tuple(argv), tuple((k, workloads.canonical_bytes(v)) for k, v in sorted(op.files.items()))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_two_ops_of_a_process_share_an_input(workload):
    ops = [op for r in range(workloads.SETUPS) for op in workloads.setup_ops(workload, 5, r)]
    ops += [op for i in range(40) for op in workloads.pass_ops(workload, 5, i)]
    keys = [op.input_key() for op in ops]
    assert len(set(keys)) == len(keys)
    # Apart from their --seed, only those kinds repeat; run ops never do.
    seen, repeated = set(), set()
    for op in ops:
        key = _key_without_seed(op)
        if key in seen:
            repeated.add(op.kind)
        seen.add(key)
    assert repeated <= SEED_SAMPLED | FIXED_SPEC


def test_workload_seed_draws_the_values():
    a = workloads.pass_ops("numeric", 1, 0)[0].files["labeling"]
    b = workloads.pass_ops("numeric", 2, 0)[0].files["labeling"]
    assert a != b


@pytest.mark.parametrize("a", [(2, 2, 2), (3, 2, 2, 1), (1, 1, 1, 1, 1), (3, 3, 3, 3)])
def test_generated_tilings_are_valid(program, a):
    import random

    from zonorec import zonogon

    spec = zonogon.ZonogonSpec(a)
    for r in range(3):
        t = zonogon.Tiling(spec, workloads.random_tiling(a, random.Random(r)))
        assert zonogon.validate_tiling(t).ok
        assert len(t.vertices) == spec.vertex_count


def test_expected_tiling_counts():
    assert [workloads.expected_tilings(a) for a in [(3, 3, 3), (4, 3, 2), (2, 3, 4)]] == [
        980, 490, 490]
    assert workloads.expected_tilings((1,) * 6) == 908


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def leaf():
        return 1

    leaf = tracer.wrap("t.leaf", leaf)

    def middle():
        return leaf() + leaf()

    middle = tracer.wrap("t.middle", middle)

    def top():
        return middle() + leaf()

    top = tracer.wrap("t.top", top)
    assert top() == 3
    # clock reads in call order: top 0, middle 10, leaf 20-30, leaf 40-50,
    # middle ends 60, leaf 70-80, top ends 90
    totals = tracer.totals()
    assert totals["t.top"] == [1, 90 - 50 - 10, 0]
    assert totals["t.middle"] == [1, 50 - 10 - 10, 0]
    assert totals["t.leaf"] == [3, 30, 0]
    assert sum(tracer.self_ns()) == 90
    assert tracer.count_under("t.leaf", "t.middle") == 2


def test_reference_units_divide_each_stretch_by_the_probe_after_it():
    speed = run.SpeedSampler()
    speed.start, speed.end = 0.0, 3.0
    speed.samples = [(1.0, 1.5), (2.5, 2.75), (3.125, 3.375)]
    assert speed.ref_units() == 1.0 / 0.5 + 1.0 / 0.25 + 0.25 / 0.25
    assert speed.program_seconds() == 3.0 - 0.75


def test_the_probe_runs_with_the_collector_off(monkeypatch):
    seen = []
    monkeypatch.setattr(run, "reference_seconds", lambda: seen.append(run.gc.isenabled()))
    speed = run.SpeedSampler()
    speed.samples = []
    speed._probe()
    assert seen == [False] and run.gc.isenabled()


def test_escaping_exceptions_are_counted():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    boom = tracer.wrap("t.boom", boom)
    with pytest.raises(ValueError):
        boom()
    assert tracer.totals()["t.boom"][2] == 1


def test_wrappers_reach_names_imported_elsewhere_and_methods(program):
    import zonorec
    from zonorec import engine, flips, laurent, zonogon

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine.normalize_to_min is flips.normalize_to_min
        assert engine.tiling_through_vertex is zonogon.tiling_through_vertex
        assert zonorec.normalize_to_min is flips.normalize_to_min
        assert flips.normalize_to_min.__wrapped__ is not None
        assert laurent.LaurentPoly.exact_div.__wrapped__ is not None
        zonogon.Tiling(zonogon.ZonogonSpec((1, 1, 1)), [])
        assert tracer.totals()["zonogon.Tiling.__init__"][0] == 1
    finally:
        tracer.uninstall()
    assert not hasattr(flips.normalize_to_min, "__wrapped__")
    assert not hasattr(laurent.LaurentPoly.exact_div, "__wrapped__")


# ---------------------------------------------------------------------------
# output checks


def _run(cli, op, tmp_path, index=0):
    result = run.execute(cli, op, "pass", 0, index, tmp_path)
    out_text = result.out_path.read_text() if result.out_path else None
    return result, out_text


def _finish(result, out_text=None):
    if out_text is not None:
        result.out_path.write_text(out_text)
    run.finish(result)
    return result.ok


def test_rational_run_passes_and_a_corrupted_labeling_fails(program, tmp_path):
    op = workloads.pass_ops("numeric", 3, 0)[2]  # run --check on (4,4,4)
    result, out_text = _run(program, op, tmp_path)
    assert _finish(result, out_text), result.error
    data = json.loads(out_text)
    t0 = {tuple(v["vertex"]) for v in op.files["labeling"]["values"]}
    item = next(v for v in data["values"] if tuple(v["vertex"]) not in t0)
    item["value"] = str(checks.Fraction(item["value"]) + 1)
    result.ok = False
    assert not _finish(result, json.dumps(data))
    assert "cube relation" in result.error


def test_symbolic_run_passes_and_a_changed_initial_value_fails(program, tmp_path):
    op = workloads.setup_ops("symbolic", 3, 0)[1]  # run on (1,1,1,1), symbolic
    result, out_text = _run(program, op, tmp_path)
    assert _finish(result, out_text), result.error
    data = json.loads(out_text)
    data["values"][0]["value"]["terms"][0]["coeff"] = "2"
    result.ok = False
    assert not _finish(result, json.dumps(data))


def test_a_wrong_tiling_count_fails(program, tmp_path):
    op = workloads.setup_ops("enumerate", 3, 0)[0]  # tile (2,2,2) --enumerate
    result, out_text = _run(program, op, tmp_path)
    data = json.loads(out_text)
    assert len(data) == 20
    assert not _finish(result, json.dumps(data[:-1]))
    assert "expected 20" in result.error
    result.error = ""
    assert not _finish(result, json.dumps(data[:-1] + data[:1]))
    assert "twice" in result.error


def test_a_nonzero_exit_fails(program, tmp_path):
    op = workloads.Op("tile_enumerate", ["tile", "--A", "2,0,1", "--enumerate"],
                      expect={"A": [2, 0, 1], "count": 1})
    result, _ = _run(program, op, tmp_path)
    assert result.rc == 2
    assert not _finish(result)


def test_verify_needs_its_success_line(program, tmp_path):
    op = workloads.setup_ops("grassmann", 3, 0)[0]
    result, _ = _run(program, op, tmp_path)
    assert _finish(result), result.error
    result.stdout = "grassmann: n=3: something else\n"
    result.ok = False
    assert not _finish(result)


def test_traced_and_untraced_outputs_have_equal_digests(program, tmp_path):
    ops = workloads.setup_ops("symbolic", 4, 2) + workloads.setup_ops("enumerate", 4, 2)
    plain = [_run(program, op, tmp_path, k) for k, op in enumerate(ops)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [_run(program, op, tmp_path, k) for k, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    digests = []
    for result, out_text in plain + traced:
        assert _finish(result, out_text), result.error
        digests.append(result.digest)
    assert digests[:len(ops)] == digests[len(ops):]
    metrics = spans.layer_metrics(tracer, 1, 1.0)
    assert metrics["laurent.exact_div.calls"] > 0
    assert metrics["flips.new_tiling_ratio"] > 0


# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "grassmann", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
