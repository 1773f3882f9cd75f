import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zonorec import (
    DomainError,
    Labeling,
    RATIONAL,
    TROPICAL,
    Tiling,
    ZonogonSpec,
    connect,
    enumerate_tilings,
    evaluate_path,
    initial_labeling,
    random_tiling,
    render_svg,
    symbolic_labeling,
    t_min,
    tiling_through_vertex,
)
from zonorec import jsonio
from zonorec.cli import OUT_BUFFER, build_parser, main
from zonorec.flips import fundamental_forest
from zonorec.laurent import LaurentPoly

from oracles import move_at, replay


def test_tiling_json_round_trip():
    spec = ZonogonSpec((2, 2, 1))
    t = tiling_through_vertex(spec, (1, 1, 1))
    data = jsonio.tiling_to_json(t)
    assert data["A"] == [2, 2, 1]
    assert all(1 <= d <= 3 for r in data["rhombi"] for d in r["dirs"])
    assert jsonio.tiling_from_json(json.loads(json.dumps(data))) == t


def _flip_path_json(start, moves) -> dict:
    """A flip path document: the start tiling and each move with 1-based
    directions."""
    return {"start": jsonio.tiling_to_json(start),
            "moves": [{"base": list(m.base), "dirs": [d + 1 for d in m.dirs],
                       "dir": m.direction} for m in moves]}


def test_flip_path_json_round_trip():
    spec = ZonogonSpec((2, 2, 1))
    rng = random.Random(0)
    t1, t2 = random_tiling(spec, rng), random_tiling(spec, rng)
    assert t1 != t2
    moves = connect(t1, t2)
    data = json.loads(json.dumps(_flip_path_json(t1, moves)))
    back = jsonio.flip_path_from_json(data, t1)
    assert back == moves
    assert replay(t1, back)[-1] == t2
    with pytest.raises(ValueError, match="flip path does not start at the tiling"):
        jsonio.flip_path_from_json(data, t2)


@pytest.mark.parametrize("domain", ["rational", "laurent", "tropical"])
def test_labeling_json_round_trip(domain):
    """The labeling of the flipped hexagon, whose value at (1, 0, 1) is
    derived, decodes against its tiling to the same values."""
    spec = ZonogonSpec((1, 1, 1))
    t = t_min(spec)
    rng = random.Random(1)
    if domain == "laurent":
        lab = symbolic_labeling(t)
    elif domain == "rational":
        lab = initial_labeling(
            t, RATIONAL,
            {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in t.vertices},
        )
    else:
        lab = initial_labeling(
            t, TROPICAL, {v: Fraction(rng.randint(-5, 5)) for v in t.vertices}
        )
    flipped = evaluate_path(lab, [move_at(t, (0, 1, 0))])
    lab = Labeling(flipped.tiling, lab.domain,
                   {v: flipped.values[v] for v in flipped.tiling.vertices})
    data = json.loads(json.dumps(jsonio.labeling_to_json(lab)))
    back = jsonio.labeling_from_json(data, lab.tiling)
    assert back.domain.name == domain
    assert back.tiling == lab.tiling
    assert back.values == lab.values


def test_svg_deterministic_and_forest():
    spec = ZonogonSpec((1, 1, 1))
    ts = sorted(
        __import__("zonorec").enumerate_tilings(spec),
        key=lambda t: t.canonical_rhombi(),
    )
    other = next(t for t in ts if t != t_min(spec))
    svg1 = render_svg(other, labels=True, forest=True)
    svg2 = render_svg(other, labels=True, forest=True)
    assert svg1 == svg2
    assert svg1.count("<line") == len(fundamental_forest(other)) == 1
    assert svg1.count("<path") == 3


def test_cli_tile_min(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["tile", "--A", "1,1,1", "--min", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    t = jsonio.tiling_from_json(data)
    assert len(t.vertices) == 7


def test_cli_tile_enumerate(tmp_path):
    out = tmp_path / "all.json"
    assert main(["tile", "--A", "1,1,1,1", "--enumerate", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 8


@pytest.mark.parametrize("a", [(2, 2, 2), (1, 1, 1, 1, 1), (2, 2, 1, 1), (3, 2, 2),
                               (1, 1, 1, 1, 1, 1), (3, 3, 3)],
                         ids=lambda a: ",".join(map(str, a)))
def test_tilings_to_json_matches_dumps(a):
    from oracles import tilings_json_by_dumps

    tilings = enumerate_tilings(ZonogonSpec(a))
    for some in (tilings, tilings[::-1], tilings[:1], []):
        fh = io.StringIO()
        jsonio.tilings_to_json(some, fh)
        assert fh.getvalue() == tilings_json_by_dumps(some)


def test_tilings_to_json_matches_dumps_on_two_digit_numbers():
    """The formatted blocks hold coordinates and directions of two digits,
    in the base of a rhombus and in A, as json writes them."""
    from oracles import tilings_json_by_dumps

    tilings = [t_min(ZonogonSpec((11, 1, 1))), t_min(ZonogonSpec((1,) * 11)),
               tiling_through_vertex(ZonogonSpec((12, 2, 1)), (10, 1, 1))]
    assert any(base[0] >= 10 for base, _ in tilings[2].canonical_rhombi())
    fh = io.StringIO()
    jsonio.tilings_to_json(tilings, fh)
    assert fh.getvalue() == tilings_json_by_dumps(tilings)
    assert '"dirs": [\n     10,\n     11\n    ]' in fh.getvalue()


@pytest.mark.pinned
def test_tilings_to_json_keeps_specs_apart():
    """Interleaved tilings of three specs whose equal ranks are different
    rhombi: each spec's ranks name its own text blocks."""
    from oracles import tilings_json_by_dumps

    specs = [ZonogonSpec(a) for a in [(2, 2, 2), (2, 2, 3), (2, 2, 1, 1)]]
    rank = specs[0].rank(((0, 1, 0), (0, 2)))
    assert specs[0].rhombus(rank) != specs[1].rhombus(rank)
    every = [enumerate_tilings(spec) for spec in specs]
    mixed = [t for group in itertools.zip_longest(*every) for t in group if t is not None]
    assert len(mixed) == 20 + 50 + 75
    fh = io.StringIO()
    jsonio.tilings_to_json(mixed, fh)
    assert fh.getvalue() == tilings_json_by_dumps(mixed)


# the benchmark's enumerate workload writes these
_ENUMERATE_SHA256 = {
    (3, 3, 3): "e3685b2e12d78ec6294a8f547395505c1b1e36c00ea440d0ce5ed208840fb9e4",
    (4, 3, 2): "27171dbff8af5d8f6621f9152d74a1be4b03aea1431a48e7d8fc36dec254fc12",
    (1, 1, 1, 1, 1, 1): "7075bbb245e9c086b6f38b716d6e324d460e8474903f0efc3bb54786e981e1fe",
}


def _enumerate_sha256(tmp_path, a):
    out = tmp_path / "all.json"
    assert main(["tile", "--A", ",".join(map(str, a)), "--enumerate", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.pinned
def test_cli_tile_enumerate_output_is_unchanged(tmp_path):
    """The 5383 tilings of (2,2,2,2), byte for byte as json.dumps wrote them."""
    assert _enumerate_sha256(tmp_path, (2, 2, 2, 2)) == (
        "18909b0fd697393b72bd7a6c15f0145f76502162f1b5100f8fcc83daa023ad0c")


@pytest.mark.pinned
@pytest.mark.parametrize("a", _ENUMERATE_SHA256, ids=lambda a: ",".join(map(str, a)))
def test_cli_tile_enumerate_benchmark_outputs_are_unchanged(tmp_path, a):
    assert _enumerate_sha256(tmp_path, a) == _ENUMERATE_SHA256[a]


@pytest.mark.pinned
def test_cli_tile_enumerate_does_not_derive_rhombi(tmp_path, monkeypatch):
    """The flip search carries each tiling's sorted rhombi, so `tile
    --enumerate` sorts and writes them without deriving any from a vertex set."""
    def derive(t):
        raise AssertionError(f"rhombi of {t} derived from its vertex set")

    rhombi = functools.cached_property(derive)
    rhombi.__set_name__(Tiling, "rhombi")
    monkeypatch.setattr(Tiling, "rhombi", rhombi)
    assert _enumerate_sha256(tmp_path, (3, 3, 3)) == _ENUMERATE_SHA256[(3, 3, 3)]


def test_cli_tile_enumerate_memory_follows_the_tilings(tmp_path):
    """The writer streams the text, so the peak of Python allocations stays
    well below the size of the output."""
    import tracemalloc

    out = tmp_path / "all.json"
    tracemalloc.start()
    try:
        assert main(["tile", "--A", "2,2,2,2", "--enumerate", "--cap", "10000",
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 2, (peak, out.stat().st_size)


def test_cli_tile_enumerate_over_cap_leaves_out_untouched(tmp_path, capsys):
    out = tmp_path / "all.json"
    out.write_bytes(b"earlier output\n")
    assert main(["tile", "--A", "2,2,2", "--enumerate", "--cap", "19",
                 "--out", str(out)]) == 3
    assert "more than 19 tilings" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("a", ["20,20,20,20", "200,200,200"])
def test_cli_tile_enumerate_exits_3_before_the_census_on_big_boxes(tmp_path, capsys, a):
    """These boxes have more flip ranks than the default cap, and so more
    tilings: the command exits 3 before it builds the box's index or a
    census, which need memory quadratic in the box's lattice points."""
    out = tmp_path / "all.json"
    out.write_bytes(b"earlier output\n")
    tracemalloc.start()
    try:
        assert main(["tile", "--A", a, "--enumerate", "--out", str(out)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == "error: more than 10000 tilings\n"
    assert out.read_bytes() == b"earlier output\n"
    assert peak < 2_000_000, peak


@pytest.mark.pinned
def test_cli_tile_of_a_big_box_needs_no_table_of_its_points(tmp_path):
    """`tile --A 60,60,60` writes t_min, 10,800 rhombi in a box of 226,981
    lattice points, byte for byte, and its Python allocations peak under
    25 MB: it builds neither `points` nor `index`, which alone take 37 MB."""
    out = tmp_path / "t.json"
    tracemalloc.start()
    try:
        assert main(["tile", "--A", "60,60,60", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "10aa0eb9d0ef733f950470dc0f0355728c80c9fd7db93bb966ec87f84bc6f25f")
    assert peak < 25_000_000, peak


def test_cli_tile_enumerate_stdout_equals_file(tmp_path, capsys):
    out = tmp_path / "all.json"
    assert main(["tile", "--A", "2,2,2", "--enumerate", "--out", str(out)]) == 0
    assert main(["tile", "--A", "2,2,2", "--enumerate"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.pinned
@pytest.mark.parametrize("command", ["run", "tile_enumerate"])
def test_cli_file_outputs_beyond_the_write_buffer_are_complete(tmp_path, capsys, command):
    """A file output more than twice the size of the write buffer holds
    the same bytes as the same command writing to stdout.  The run's initial
    values have nine digits, so that its output outgrows two buffers."""
    if command == "run":
        rng = random.Random(1)
        t = random_tiling(ZonogonSpec((3, 3, 3, 3)), rng)
        lab = initial_labeling(t, RATIONAL, {
            v: Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**9))
            for v in sorted(t.vertices)})
        (tmp_path / "t.json").write_text(json.dumps(jsonio.tiling_to_json(t)))
        (tmp_path / "lab.json").write_text(json.dumps(jsonio.labeling_to_json(lab)))
        argv = ["run", "--tiling", str(tmp_path / "t.json"), "--labeling",
                str(tmp_path / "lab.json"), "--check"]
    else:
        argv = ["tile", "--A", "3,3,3", "--enumerate"]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert main(argv) == 0
    assert out.stat().st_size > 2 * OUT_BUFFER
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("a", ["1,1,1", "2,2,2"])  # fails on close, and mid-stream
def test_cli_tile_enumerate_to_a_full_device_is_bad_output(capsys, a):
    assert main(["tile", "--A", a, "--enumerate", "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full") and "Traceback" not in err


def test_cli_tile_enumerate_to_a_closed_pipe_is_bad_output():
    """`zonorec tile --enumerate | head -c 10`: the writer meets a pipe whose
    reader has gone, and exits 2 with an error line, not a traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "zonorec", "tile", "--A", "3,3,3", "--enumerate"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.read(10) == b"[\n {\n  \"A\""
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: cannot write stdout: ") and "Traceback" not in err, err


def test_cli_bad_input_exit_codes(capsys):
    assert main(["tile", "--A", "1,1", "--min"]) == 2
    assert main(["tile", "--A", "1,1,1,1", "--enumerate", "--cap", "3"]) == 3


@pytest.mark.parametrize("cube", ["a,0,0,1,2,3,bottom", "0,0,0,1,x,3,bottom",
                                  "0,0,0,3,2,1,top", "0,0,0,1,2,3,left"])
def test_cli_tile_bad_cube_exits_2(capsys, cube):
    assert main(["tile", "--A", "2,2,2", "--cube", cube]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("cube, message", [
    ("0,0,0,1,2,4,top", "directions must be in 1..3"),
    ("0,0,0,0,2,3,top", "directions must be in 1..3"),
    ("0,0,0,3,2,1,top", "directions must satisfy j < k < l")])
def test_cli_tile_cube_names_what_is_wrong_with_its_directions(capsys, cube, message):
    """A direction outside 1..n is named as such, not as an order error."""
    assert main(["tile", "--A", "1,1,1", "--cube", cube]) == 2
    assert capsys.readouterr().err == f"error: invalid --cube {cube!r}: {message}\n"


@pytest.mark.parametrize("mode", [["--through", "1,2,0,1"], ["--cube", "1,0,1,0,1,2,4,top"],
                                  ["--enumerate"]])
def test_cli_tile_does_not_depend_on_seed(tmp_path, mode):
    outs = []
    for seed in ("0", "1", "7"):
        out = tmp_path / f"t{seed}.json"
        argv = ["tile", "--A", "2,2,1,2", *mode, "--seed", seed, "--out", str(out)]
        assert main(argv) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] == outs[2]


def test_cli_run_lattice(tmp_path):
    spec = ZonogonSpec((1, 1, 1))
    t = t_min(spec)
    tiling_file = tmp_path / "t.json"
    tiling_file.write_text(json.dumps(jsonio.tiling_to_json(t)))
    lab = initial_labeling(t, RATIONAL, {v: 1 for v in t.vertices})
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(json.dumps(jsonio.labeling_to_json(lab)))
    out = tmp_path / "out.json"
    code = main([
        "run", "--tiling", str(tiling_file), "--labeling", str(lab_file),
        "--check", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    vals = {tuple(v["vertex"]): v["value"] for v in data["values"]}
    assert vals[(1, 0, 1)] == "3"


def test_cli_run_symbolic_lattice(tmp_path):
    # every emitted value is a Laurent polynomial, machine-checked on reload
    spec = ZonogonSpec((1, 1, 1, 1))
    t = t_min(spec)
    tiling_file = tmp_path / "t.json"
    tiling_file.write_text(json.dumps(jsonio.tiling_to_json(t)))
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(json.dumps(jsonio.labeling_to_json(symbolic_labeling(t))))
    out = tmp_path / "out.json"
    code = main([
        "run", "--tiling", str(tiling_file), "--labeling", str(lab_file),
        "--domain", "laurent", "--check", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["domain"] == "laurent"
    assert len(data["values"]) == 16
    for item in data["values"]:
        poly = jsonio.laurent_from_json(item["value"])
        assert poly  # nonzero Laurent polynomial


def test_cli_run_tropical_zero(tmp_path):
    spec = ZonogonSpec((1, 1, 1))
    t = t_min(spec)
    tiling_file = tmp_path / "t.json"
    tiling_file.write_text(json.dumps(jsonio.tiling_to_json(t)))
    lab = initial_labeling(t, TROPICAL, {v: 0 for v in t.vertices})
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(json.dumps(jsonio.labeling_to_json(lab)))
    out = tmp_path / "out.json"
    assert main([
        "run", "--tiling", str(tiling_file), "--labeling", str(lab_file),
        "--check", "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    assert all(v["value"] == "0" for v in data["values"])


def test_cli_run_domain_error(tmp_path):
    # a labeling with a zero value forces a zero divisor somewhere
    spec = ZonogonSpec((1, 1, 1))
    t = t_min(spec)
    tiling_file = tmp_path / "t.json"
    tiling_file.write_text(json.dumps(jsonio.tiling_to_json(t)))
    values = [
        {"vertex": list(v), "value": "0" if v == (0, 1, 0) else "1"}
        for v in sorted(t.vertices)
    ]
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(json.dumps(
        {"A": [1, 1, 1], "domain": "rational", "values": values}
    ))
    code = main([
        "run", "--tiling", str(tiling_file), "--labeling", str(lab_file),
        "--out", str(tmp_path / "o.json"),
    ])
    assert code == 4


_T_MIN_111 = {"A": [1, 1, 1], "rhombi": [
    {"base": [0, 0, 0], "dirs": [1, 2]},
    {"base": [0, 0, 0], "dirs": [2, 3]},
    {"base": [0, 1, 0], "dirs": [1, 3]},
]}
_ONES_111 = {"A": [1, 1, 1], "domain": "rational", "values": [
    {"vertex": v, "value": "1"}
    for v in ([0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 1, 0],
              [1, 1, 1])
]}


@pytest.mark.parametrize("command, tiling, labeling", [
    ("run", _T_MIN_111, {"A": [1, 1, 1], "values": _ONES_111["values"]}),
    ("run", _T_MIN_111, {**_ONES_111, "values": [{"vertex": [0, 0, 0]}]}),
    ("run", {"A": [1, 1, 1], "rhombi": [{"base": [0, 0, 0]}]}, _ONES_111),
    ("render", {"A": [1, 1, 1], "rhombi": [{"base": [0, 0, 0]}]}, None),
    ("run", {"A": [1, 1, 1], "rhombi": [{"base": [0, 0, 0], "dirs": [1, 2]}]},
     _ONES_111),
], ids=["no-domain", "no-value", "tiling-no-dirs", "render-no-dirs", "one-rhombus"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, command, tiling, labeling):
    tiling_file = tmp_path / "t.json"
    tiling_file.write_text(json.dumps(tiling))
    argv = [command, "--tiling", str(tiling_file), "--out", str(tmp_path / "o")]
    if labeling is not None:
        lab_file = tmp_path / "lab.json"
        lab_file.write_text(json.dumps(labeling))
        argv += ["--labeling", str(lab_file)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _run_111(tmp_path, values, *args):
    tiling_file = tmp_path / "t.json"
    tiling_file.write_text(json.dumps(_T_MIN_111))
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(json.dumps({**_ONES_111, "values": values}))
    return main(["run", "--tiling", str(tiling_file), "--labeling", str(lab_file),
                 "--out", str(tmp_path / "o.json"), *args])


def test_cli_run_does_not_depend_on_seed(tmp_path):
    outs = []
    for seed in ("0", "1", "7"):
        assert _run_111(tmp_path, _ONES_111["values"], "--check", "--seed", seed) == 0
        outs.append((tmp_path / "o.json").read_text())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.pinned
@pytest.mark.parametrize("a, seed, digest", [
    ((3, 3, 3, 3), 1, "626f5a209a40148a1fc6ac42c0b67244deb0ab628e62393e4f2c1c41ff519cd8"),
    ((2, 2, 2, 2, 2), 2, "d4ee99ca4f0e8e2ae6cbc93bd8ae7397ec8df057d22f6ccf4fefda83a218b4e5"),
    ((4, 4, 4), 3, "155ed313f83d09870c04323152c71b08dfaf94500bfc3b17c2f2bfb88ff47a05"),
], ids=["3,3,3,3", "2,2,2,2,2", "4,4,4"])
def test_cli_run_check_output_is_pinned(tmp_path, a, seed, digest):
    """`run --check` from a random tiling, byte for byte: the flip schedule
    of the extension must not change any value."""
    rng = random.Random(seed)
    t = random_tiling(ZonogonSpec(a), rng)
    lab = initial_labeling(t, RATIONAL, {v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                         for v in sorted(t.vertices)})
    (tmp_path / "t.json").write_text(json.dumps(jsonio.tiling_to_json(t)))
    (tmp_path / "lab.json").write_text(json.dumps(jsonio.labeling_to_json(lab)))
    out = tmp_path / "out.json"
    assert main(["run", "--tiling", str(tmp_path / "t.json"), "--labeling",
                 str(tmp_path / "lab.json"), "--check", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("a, seed, digest", [
    ((2, 2, 2), 4, "3de2c18937ba12f4aaef3298116c9f51afcaf326301041c3e41e7626917ae395"),
    ((3, 2, 2, 1), 5, "91b1c1a3ab2c07a909c0a0c1ecb6545b5a046c7fdb4c1ce3ba20ee28d7d8fceb"),
], ids=["2,2,2", "3,2,2,1"])
def test_cli_run_tropical_mixed_output_is_pinned(tmp_path, a, seed, digest):
    """`run --check` on a tropical labeling of integers with "1/2", "-7/3" and
    "8/4" among them, byte for byte as when every max-plus value was a
    `Fraction`: integral values kept as `int`s mix exactly with the others."""
    rng = random.Random(seed)
    t = random_tiling(ZonogonSpec(a), rng)
    values = [{"vertex": list(v), "value": str(rng.randint(-5, 5))} for v in sorted(t.vertices)]
    values[1]["value"] = "1/2"
    values[-2]["value"] = "-7/3"
    values[len(values) // 2]["value"] = "8/4"
    (tmp_path / "t.json").write_text(json.dumps(jsonio.tiling_to_json(t)))
    (tmp_path / "lab.json").write_text(json.dumps(
        {"A": list(a), "domain": "tropical", "values": values}))
    out = tmp_path / "out.json"
    assert main(["run", "--tiling", str(tmp_path / "t.json"), "--labeling",
                 str(tmp_path / "lab.json"), "--check", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.pinned
@pytest.mark.parametrize("argv, line", [
    (["tropical", "--A", "2,2,1", "--seed", "5", "--samples", "150"],
     "tropical: 17/150 samples met the cutcurve hypothesis; wall inequalities held on "
     "every edge"),
    (["tropical", "--A", "2,2,1", "--seed", "7", "--samples", "40"],
     "tropical: 4/40 samples met the cutcurve hypothesis; wall inequalities held on "
     "every edge"),
    (["tropical", "--A", "3,2,2", "--seed", "2", "--s", "1", "--c", "2", "--samples", "60"],
     "tropical: 3/60 samples met the cutcurve hypothesis; wall inequalities held on "
     "every edge"),
    (["tropical", "--A", "2,2,1", "--seed", "3"],
     "tropical: hypothesis not met on any of 25 samples (wall s=1, c=1)"),
    (["tropical", "--A", "2,1,2", "--seed", "11", "--samples", "3", "--json"],
     '{"hypothesis_ok": false, "violations": [], "hypothesis_witness": '
     '{"base": [1, 0, 0], "dir": 2}}'),
    (["grassmann", "--n", "4", "--seed", "2", "--samples", "10"],
     "grassmann: n=4: 10 samples, all bilinear residuals zero (max |residual| = 0)"),
    (["grassmann", "--n", "5", "--seed", "9", "--samples", "5"],
     "grassmann: n=5: 5 samples, all bilinear residuals zero (max |residual| = 0)"),
], ids=["tropical-5", "tropical-7", "tropical-wall-c2", "tropical-none-met",
        "tropical-json", "grassmann-4", "grassmann-5"])
def test_cli_verify_lines_are_pinned(capsys, argv, line):
    """The verify suites print the same lines for pinned seeds whether the
    max-plus values and spin coordinates are `int`s or `Fraction`s."""
    assert main(["verify", *argv]) == 0
    assert capsys.readouterr().out == line + "\n"


class _ReversedSet(frozenset):
    """A vertex set that iterates in the reverse of its own order."""

    def __iter__(self):
        return reversed(list(super().__iter__()))


class _ReversedTiling(Tiling):
    """A tiling whose vertex set iterates in the reverse of its own order."""

    @property
    def vertices(self):
        return _ReversedSet(super().vertices)


def test_cli_verify_draws_follow_sorted_vertices(monkeypatch, capsys):
    """`verify laurent` and `verify tropical` draw their values over t_min's
    vertices in sorted order, so their lines do not follow the iteration
    order of its vertex set."""
    import zonorec.zonogon

    argvs = [["verify", "tropical", "--A", "2,2,1", "--seed", "5", "--samples", "150"],
             ["verify", "laurent", "--A", "2,2,1", "--seed", "3"]]

    def lines():
        for argv in argvs:
            assert main(argv) == 0
        return capsys.readouterr().out

    want = lines()
    t_min_of = zonorec.zonogon.t_min

    def reversed_t_min(spec):
        return _ReversedTiling.from_mask(spec, t_min_of(spec).mask)

    monkeypatch.setattr(zonorec.zonogon, "t_min", reversed_t_min)
    spec = ZonogonSpec((2, 2, 1))
    assert list(reversed_t_min(spec).vertices) == list(t_min_of(spec).vertices)[::-1]
    assert lines() == want


def test_labeling_errors_name_the_least_bad_vertices():
    """`initial_labeling` and the labeling decoder name the least of two bad
    vertices, or list both in sorted order, so their messages do not follow
    the iteration order of the vertex set."""
    spec = ZonogonSpec((2, 2, 1))
    messages = []
    for order, tiling in ((frozenset, Tiling), (_ReversedSet, _ReversedTiling)):
        t = tiling.from_mask(spec, t_min(spec).mask)
        vs = sorted(t.vertices)
        bad = vs[2:4]
        outside = order(sorted(p for p in product(range(3), range(3), range(2))
                               if p not in t.vertices)[:2])
        ones = {v: 1 for v in t.vertices}
        got = []
        with pytest.raises(DomainError) as missed:
            initial_labeling(t, RATIONAL, {v: 1 for v in t.vertices if v not in bad})
        with pytest.raises(DomainError) as invalid:
            initial_labeling(t, RATIONAL, {**ones, **{v: 0 for v in order(bad)}})
        got += [str(missed.value), str(invalid.value)]
        for values in ({**ones, **{p: 1 for p in outside}},
                       {v: 1 for v in t.vertices if v not in bad}):
            data = {"A": [2, 2, 1], "domain": "rational",
                    "values": [{"vertex": list(v), "value": x} for v, x in values.items()]}
            with pytest.raises(ValueError) as decoded:
                jsonio.labeling_from_json(data, t)
            got.append(str(decoded.value))
        messages.append(got)
    assert list(_ReversedSet(vs)) == list(frozenset(vs))[::-1]
    assert messages[0] == messages[1]


@pytest.mark.parametrize("argv", [
    ["verify", "tropical", "--A", "2,2,2", "--samples", "20"],
    ["verify", "laurent", "--A", "2,2,1"],
], ids=["tropical", "laurent"])
def test_cli_verify_routes_t_min_once(monkeypatch, argv):
    """The verify suites extend many labelings of t_min along one flip
    schedule, so t_min is normalized once per call, not once per labeling."""
    import zonorec.engine

    tm = t_min(ZonogonSpec(tuple(map(int, argv[3].split(",")))))
    routed = []
    normalize = zonorec.engine.normalize_to_min

    def counting(t, *args):
        routed.append(t == tm)
        return normalize(t, *args)

    monkeypatch.setattr(zonorec.engine, "normalize_to_min", counting)
    assert main(argv) == 0
    assert routed.count(True) == 1


@pytest.mark.parametrize("point", [[1, 0, 1], [5, 5, 5]],
                         ids=["non-vertex", "outside-box"])
def test_cli_run_rejects_value_off_the_tiling(tmp_path, capsys, point):
    values = _ONES_111["values"] + [{"vertex": point, "value": "7"}]
    assert _run_111(tmp_path, values) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tuple(point)) in err


def _path_111(*moves):
    return {"start": _T_MIN_111, "moves": list(moves)}


def _run_path_111(tmp_path, path):
    (tmp_path / "p.json").write_text(json.dumps(path))
    return _run_111(tmp_path, _ONES_111["values"], "--path", str(tmp_path / "p.json"))


def test_cli_run_path(tmp_path):
    up = {"base": [0, 0, 0], "dirs": [1, 2, 3], "dir": "up"}
    assert _run_path_111(tmp_path, _path_111(up)) == 0
    data = json.loads((tmp_path / "o.json").read_text())
    assert {"vertex": [1, 0, 1], "value": "3"} in data["values"]


def test_cli_run_path_rejects_check(tmp_path, capsys):
    """The cube check reads a total labeling; a flip path labels one tiling."""
    up = {"base": [0, 0, 0], "dirs": [1, 2, 3], "dir": "up"}
    (tmp_path / "p.json").write_text(json.dumps(_path_111(up)))
    assert _run_111(tmp_path, _ONES_111["values"], "--path", str(tmp_path / "p.json"),
                    "--check") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--check applies only to extensions" in err
    assert not (tmp_path / "o.json").exists()


def _max_111():
    """The (1,1,1) tiling other than the minimal one, as a document."""
    spec = ZonogonSpec((1, 1, 1))
    return jsonio.tiling_to_json(next(t for t in enumerate_tilings(spec) if t != t_min(spec)))


@pytest.mark.parametrize("flags, message", [
    (["--domain", "tropical"], "labeling domain 'rational' != --domain 'tropical'"),
    (["--path", "p.json"], "flip path does not start at the tiling"),
], ids=["domain", "path-start"])
def test_cli_run_rejects_documents_that_disagree(tmp_path, capsys, flags, message):
    """The labeling's domain must be the one --domain names, and a flip path
    must start at --tiling."""
    (tmp_path / "p.json").write_text(json.dumps({"start": _max_111(), "moves": []}))
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    assert _run_111(tmp_path, _ONES_111["values"], *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("a", [(1, 1, 2), (1, 1, 1, 1)])
def test_cli_run_rejects_a_path_from_another_zonogon(tmp_path, capsys, a):
    """A path whose start is a tiling of other multiplicities does not start
    at --tiling either."""
    start = jsonio.tiling_to_json(t_min(ZonogonSpec(a)))
    assert _run_path_111(tmp_path, {"start": start, "moves": []}) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "flip path does not start at the tiling" in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("move", [
    {"base": [0, 0, 0], "dirs": [1, 2], "dir": "up"},
    {"base": [0, 0, 0], "dirs": [1, 2, 9], "dir": "up"},
    {"base": [0, 0, 0], "dirs": [1, 2, 3], "dir": "sideways"},
    {"base": [0, 0, 0], "dirs": [1, 2, 3], "dir": "down"},
], ids=["two-dirs", "dir-out-of-range", "sideways", "inapplicable-down"])
def test_cli_run_path_rejects_bad_move(tmp_path, capsys, move):
    assert _run_path_111(tmp_path, _path_111(move)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _laurent_111():
    return jsonio.labeling_to_json(symbolic_labeling(t_min(ZonogonSpec((1, 1, 1)))))


@pytest.mark.parametrize("exponent", [1.5, True, "1"], ids=["float", "bool", "string"])
def test_cli_run_rejects_non_integer_laurent_exponent(tmp_path, capsys, exponent):
    labeling = _laurent_111()
    exps = labeling["values"][0]["value"]["terms"][0]["exps"]
    exps[next(iter(exps))] = exponent
    (tmp_path / "t.json").write_text(json.dumps(_T_MIN_111))
    (tmp_path / "lab.json").write_text(json.dumps(labeling))
    assert main(["run", "--tiling", str(tmp_path / "t.json"), "--labeling",
                 str(tmp_path / "lab.json"), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "integer exponents" in err


@pytest.mark.parametrize("exps", [
    {"10": 1, "1_0": 1}, {" 7": 1}, {"+8": 1}, {"\u0663": 1}, {"0,1,": 1}, {"": 1},
    {"0,,1": 1},
], ids=["underscore", "space", "plus", "arabic-indic", "trailing-comma", "empty",
        "empty-field"])
def test_cli_run_rejects_loose_laurent_variable_key(tmp_path, capsys, exps):
    labeling = _laurent_111()
    labeling["values"][0]["value"]["terms"][0]["exps"] = exps
    (tmp_path / "t.json").write_text(json.dumps(_T_MIN_111))
    (tmp_path / "lab.json").write_text(json.dumps(labeling))
    assert main(["run", "--tiling", str(tmp_path / "t.json"), "--labeling",
                 str(tmp_path / "lab.json"), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "comma-separated integer variables" in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("exps", [{"10": 1, "010": 1}, {"0,1,0": 2, "-0,01,0": 1}],
                         ids=["leading-zero", "signed-zero"])
def test_laurent_term_naming_a_variable_twice_is_rejected(exps):
    with pytest.raises(ValueError, match="names a variable twice"):
        jsonio.laurent_from_json({"terms": [{"coeff": "1", "exps": exps}]})


def test_laurent_from_json_sums_repeated_monomials():
    terms = [
        {"coeff": "2", "exps": {"1": 1, "2": -1}},
        {"coeff": "3", "exps": {"2": -1, "1": 1}},
        {"coeff": "1", "exps": {"3": 1}},
        {"coeff": "-1", "exps": {"3": 1, "4": 0}},
        {"coeff": "0", "exps": {}},
    ]
    expected = LaurentPoly.const(5) * LaurentPoly.var((1,)) * LaurentPoly.var((2,), -1)
    assert jsonio.laurent_from_json({"terms": terms}) == expected


@pytest.mark.parametrize("domain, value, vertex", [
    ("rational", 1.5, [0, 1, 0]),
    ("rational", "1e2", [0, 1, 0]),
    ("rational", "1", [0.0, 1, 0]),
    ("tropical", 1.5, [0, 1, 0]),
    ("rational", "1/0", [0, 1, 0]),
], ids=["float", "exponent-string", "float-vertex", "tropical-float", "zero-denominator"])
def test_cli_run_rejects_non_rational_value_or_vertex(tmp_path, capsys, domain, value, vertex):
    values = [{"vertex": vertex, "value": value} if item["vertex"] == [0, 1, 0] else item
              for item in _ONES_111["values"]]
    (tmp_path / "t.json").write_text(json.dumps(_T_MIN_111))
    (tmp_path / "lab.json").write_text(json.dumps({**_ONES_111, "domain": domain,
                                                   "values": values}))
    assert main(["run", "--tiling", str(tmp_path / "t.json"), "--labeling",
                 str(tmp_path / "lab.json"), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_run_accepts_a_negative_and_rejects_a_zero_initial_value(tmp_path, capsys):
    """The rational domain takes any nonzero initial value: the recurrence
    divides only by values."""
    values = [dict(item, value="-3/2") if item["vertex"] == [0, 1, 0] else item
              for item in _ONES_111["values"]]
    assert _run_111(tmp_path, values, "--check") == 0
    values = [dict(item, value="0") if item["vertex"] == [0, 1, 0] else item
              for item in _ONES_111["values"]]
    assert _run_111(tmp_path, values, "--check") == 4
    assert ("error: invalid initial value at (0, 1, 0): zero; the recurrence divides by "
            "initial values\n") == capsys.readouterr().err


def test_cli_run_names_the_cube_of_a_zero_divisor(tmp_path, capsys):
    """Signed initial values, all nonzero, whose extension derives a zero and
    then divides by it: exit 4 naming the cube of that division."""
    t = t_min(ZonogonSpec((2, 2, 2)))
    signs = [-1, -1, 2, -1, -1, 2, 2, 2, 2, 2, -1, -1, -1, 2, -1, 2, 2, -1, 1]
    data = {"A": [2, 2, 2], "domain": "rational",
            "values": [{"vertex": list(v), "value": str(x)}
                       for v, x in zip(sorted(t.vertices), signs, strict=True)]}
    (tmp_path / "t.json").write_text(json.dumps(jsonio.tiling_to_json(t)))
    (tmp_path / "lab.json").write_text(json.dumps(data))
    assert main(["run", "--tiling", str(tmp_path / "t.json"), "--labeling",
                 str(tmp_path / "lab.json"), "--check", "--out",
                 str(tmp_path / "o.json")]) == 4
    assert capsys.readouterr().err == ("error: cube relation failed on the cube at "
                                       "(1, 0, 1) with directions (1, 2, 3): division by "
                                       "zero\n")


def test_cli_run_names_an_unknown_domain(tmp_path, capsys):
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(json.dumps({**_ONES_111, "domain": "bogus"}))
    (tmp_path / "t.json").write_text(json.dumps(_T_MIN_111))
    assert main(["run", "--tiling", str(tmp_path / "t.json"), "--labeling",
                 str(lab_file)]) == 2
    assert capsys.readouterr().err == (f"error: malformed {lab_file}: ValueError: unknown "
                                       "domain 'bogus'; the known domains are rational, "
                                       "laurent, tropical\n")


def test_cli_run_missing_vertex_exits_2(tmp_path, capsys):
    assert _run_111(tmp_path, _ONES_111["values"][1:]) == 2
    assert "misses tiling vertices" in capsys.readouterr().err


def test_cli_verify_suites(capsys):
    assert main(["verify", "confluence", "--A", "1,1,1", "--trials", "3"]) == 0
    assert main(["verify", "laurent", "--A", "1,1,1"]) == 0
    assert main(["verify", "tropical", "--A", "2,1,1", "--s", "1", "--c", "1",
                 "--samples", "30"]) == 0
    assert main(["verify", "grassmann", "--n", "3", "--samples", "3"]) == 0
    assert main(["verify", "grassmann", "--n", "6", "--samples", "1"]) == 0
    out = capsys.readouterr().out
    assert "confluence" in out and "grassmann" in out


def test_cli_verify_confluence_draws_by_the_tiling(monkeypatch):
    """verify confluence draws its values over the sorted vertices, so one
    tiling gets the same values from one seed however its vertex set was
    built."""
    import zonorec.engine
    import zonorec.flips

    spec = ZonogonSpec((2, 2, 1))
    built = [cls.from_mask(spec, t_min(spec).mask) for cls in (Tiling, _ReversedTiling)]
    # the two vertex sets iterate differently
    assert list(built[0].vertices) != list(built[1].vertices)
    initial, drawn = zonorec.engine.initial_labeling, []

    def recording(tiling, domain, values):
        drawn.append(values)
        return initial(tiling, domain, values)

    monkeypatch.setattr(zonorec.engine, "initial_labeling", recording)
    for tiling in built:
        monkeypatch.setattr(zonorec.flips, "random_tiling", lambda *args: tiling)
        assert main(["verify", "confluence", "--A", "2,2,1", "--trials", "1",
                     "--seed", "3"]) == 0
    assert len(drawn) == 2 and drawn[0] == drawn[1]


def test_cli_render(tmp_path):
    spec = ZonogonSpec((1, 1, 1))
    t = t_min(spec)
    tiling_file = tmp_path / "t.json"
    tiling_file.write_text(json.dumps(jsonio.tiling_to_json(t)))
    out = tmp_path / "t.svg"
    assert main(["render", "--tiling", str(tiling_file), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.count("<path") == 3


def _limit_address_space():
    """Cap the child's address space at 1 GiB, so that a decoder that
    allocates in proportion to a huge multiplicity raises `MemoryError`
    there instead of exhausting the machine's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("exponent", [5, 6, 30])
@pytest.mark.parametrize("command", ["run", "render"])
def test_cli_huge_multiplicity_is_a_rhombus_count_error(tmp_path, capsys, command, exponent):
    """A tiling document of A = (2, 1, 10**k) with the 5 rhombi of (2, 1, 1)
    has fewer rhombi than a_3, so it is exit 2 at once, in memory
    independent of a_3: the sweep line of sum(a) lines is never built."""
    t = t_min(ZonogonSpec((2, 1, 1)))
    tiling = jsonio.tiling_to_json(t)
    labeling = jsonio.labeling_to_json(initial_labeling(t, RATIONAL, {v: 1 for v in t.vertices}))
    tiling["A"] = labeling["A"] = [2, 1, 10**exponent]
    (tmp_path / "t.json").write_text(json.dumps(tiling))
    (tmp_path / "lab.json").write_text(json.dumps(labeling))
    argv = [command, "--tiling", str(tmp_path / "t.json"), "--out", str(tmp_path / "o")]
    if command == "run":
        argv += ["--labeling", str(tmp_path / "lab.json")]
    if exponent < 30:
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert peak < 2**20
    else:
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "zonorec", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                              preexec_fn=_limit_address_space, timeout=60)
        code, err = proc.returncode, proc.stderr
    assert code == 2
    assert re.fullmatch(r"error: .*: rhombus count 5 != \d+\n", err), err
    assert not (tmp_path / "o").exists()


def test_cli_entry_point_subprocess():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "zonorec.cli", "tile", "--A", "1,1,1", "--min"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["A"] == [1, 1, 1]


def test_package_runs_as_module():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "zonorec", "verify", "grassmann", "--n", "3",
         "--samples", "1", "--seed", "0"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("grassmann: n=3: 1 samples, all bilinear residuals zero")


@pytest.mark.parametrize("argv", [
    ["verify", "grassmann", "--n", "3", "--samples", "0"],
    ["verify", "tropical", "--A", "2,1,1", "--samples", "-1"],
    ["verify", "confluence", "--A", "1,1,1", "--trials", "-3"],
    ["tile", "--A", "1,1,1", "--enumerate", "--cap", "-1"],
    ["tile", "--A", "1,1,1", "--cap", "-1"],
], ids=["grassmann-samples", "tropical-samples", "confluence-trials", "enumerate-cap",
        "tile-cap"])
def test_cli_rejects_bad_counts(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and argv[-2] in out.err
    assert out.err.count("\n") == 1 and out.out == ""


@pytest.mark.parametrize("argv, message", [
    ("verify laurent --A 2,1,1 --samples 0", "unrecognized arguments: --samples 0"),
    ("verify grassmann --n 3 --samples 1 --A 1,1", "unrecognized arguments: --A 1,1"),
    ("verify confluence --A 1,1,1 --trials 1 --s 9", "unrecognized arguments: --s 9"),
    ("verify tropical --A 2,2,1 --samples 5 --trials 3", "unrecognized arguments: --trials 3"),
    ("bogus", "argument command: invalid choice: 'bogus'"),
    ("verify laurent", "the following arguments are required: --A"),
    ("run --tiling t.json --labeling l.json --domain bogus",
     "argument --domain: invalid choice: 'bogus'"),
    ("verify tropical --A 2,1,1 --samples x", "argument --samples: invalid count value: 'x'"),
    ("verify grassmann --n 9", "argument --n: invalid choice: '?9'?"),  # quoted on 3.13
], ids=["laurent-samples", "grassmann-A", "confluence-s", "tropical-trials", "unknown-command",
        "missing-A", "run-domain", "samples-not-int", "grassmann-n"])
def test_cli_bad_flags_are_one_error_line(capsys, argv, message):
    """A flag the command does not take, an unknown command, a missing flag
    and a value the flag's type or choices reject are each one `error:` line
    and exit 2, with nothing on stdout; no suite ignores a flag (a long flag
    is not abbreviated either: confluence's --seed does not take --s)."""
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert re.match(f"error: {message}", err), err


@pytest.mark.parametrize("suite, flags", [
    ("confluence", {"--A", "--trials", "--seed"}),
    ("laurent", {"--A", "--seed"}),
    ("tropical", {"--A", "--samples", "--s", "--c", "--json", "--seed"}),
    ("grassmann", {"--n", "--samples", "--seed"}),
])
def test_cli_verify_help_lists_only_the_suites_flags(capsys, suite, flags):
    assert main(["verify", suite, "--help"]) == 0
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) == flags | {"--help"}


def test_readme_command_lines_parse(tmp_path):
    """Every `zonorec ...` line of the README's command-line block parses,
    with its file names replaced by files under tmp_path."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("zonorec ")]
    assert len(lines) >= 11
    for argv in lines:
        argv = [str(tmp_path / a) if a.endswith((".json", ".svg")) else a for a in argv]
        assert callable(build_parser().parse_args(argv).func), argv


def test_cli_rejects_non_integer_seed_variable(monkeypatch, capsys):
    monkeypatch.setenv("ZONOREC_SEED", "abc")
    assert main(["tile", "--A", "1,1,1"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ZONOREC_SEED must be an integer")
    assert out.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "laurent", "--A", "1,1,1", "--seed", "3"],
    ["render", "--tiling", "t.json", "--out", "t.svg"],
    ["verify", "laurent", "--help"],
], ids=["explicit-seed", "render", "help"])
def test_cli_reads_seed_variable_only_when_it_is_the_default(tmp_path, monkeypatch, capsys,
                                                             argv):
    """A run that is given --seed, takes none, or only prints help never reads
    ZONOREC_SEED, so a non-integer value does not fail it."""
    monkeypatch.setenv("ZONOREC_SEED", "x")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.json").write_text(json.dumps(_T_MIN_111))
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert main(["verify", "laurent", "--A", "1,1,1"]) == 2
    assert capsys.readouterr().err == "error: ZONOREC_SEED must be an integer, got 'x'\n"


def test_cli_reads_seed_variable_on_every_call(monkeypatch):
    """The parser is built once per process, but the default --seed follows
    ZONOREC_SEED as it is at each call; an explicit --seed wins."""
    import zonorec.spinor

    seen = []
    sampler = zonorec.spinor.random_isotropic_subspace

    def recording(rng, n, dim):
        seen.append(rng.getstate())
        return sampler(rng, n, dim)

    monkeypatch.setattr(zonorec.spinor, "random_isotropic_subspace", recording)
    argv = ["verify", "grassmann", "--n", "3", "--samples", "1"]
    for env in ("5", "6"):
        monkeypatch.setenv("ZONOREC_SEED", env)
        assert main(argv) == 0
    assert main(argv + ["--seed", "7"]) == 0
    monkeypatch.delenv("ZONOREC_SEED")
    assert main(argv) == 0
    assert seen == [random.Random(s).getstate() for s in (5, 6, 7, 0)]


@pytest.mark.parametrize("scale", ["0", "-5"])
def test_cli_render_rejects_scale_below_1(tmp_path, capsys, scale):
    (tmp_path / "t.json").write_text(json.dumps(_T_MIN_111))
    out = tmp_path / "t.svg"
    argv = ["render", "--tiling", str(tmp_path / "t.json"), "--out", str(out), "--scale", scale]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: argument --scale: must be at least 1, got {scale}\n"
    assert not out.exists()


@pytest.mark.parametrize("s", ["0", "4"])
def test_cli_verify_tropical_names_wall_direction_1_based(capsys, s):
    assert main(["verify", "tropical", "--A", "2,1,1", "--s", s]) == 2
    assert capsys.readouterr().err == f"error: --s must be a direction in 1..3, got {s}\n"


@pytest.mark.parametrize("command", ["run", "laurent", "tropical"])
def test_cli_verify_tropical_reports_a_failed_recurrence(monkeypatch, capsys, tmp_path,
                                                         command):
    """`run --check`, `verify laurent` and `verify tropical` each report an
    extension that breaks a cube relation as a domain error naming the cube
    (1-based directions); for verify tropical it is not a sample that missed
    the hypothesis."""
    import zonorec.engine
    import zonorec.tropical

    def failing(labeling):
        return [((0, 1, 0), (0, 1, 2), "relation violated")]

    monkeypatch.setattr(zonorec.engine, "verify_cube_relations", failing)
    monkeypatch.setattr(zonorec.tropical, "verify_cube_relations", failing)
    if command == "run":
        assert _run_111(tmp_path, _ONES_111["values"], "--check") == 4
        assert not (tmp_path / "o.json").exists()
    else:
        argv = ["verify", command, "--A", "2,1,1"]
        assert main(argv + (["--samples", "3"] if command == "tropical" else [])) == 4
    assert capsys.readouterr().err == ("error: cube relation failed on the cube at "
                                       "(0, 1, 0) with directions (1, 2, 3): "
                                       "relation violated\n")


@pytest.mark.parametrize("command", ["run", "laurent", "tropical", "grassmann"])
def test_cli_cube_errors_carry_their_witness(monkeypatch, tmp_path, command):
    """The `DomainError` that `run --check` and the laurent, tropical and
    grassmann suites raise on a failed cube holds the cube's base, its
    1-based directions and the reason as fields."""
    import zonorec.engine
    import zonorec.tropical

    def failing(labeling):
        return [((0, 1, 0), (0, 1, 2), "relation violated")]

    monkeypatch.setattr(zonorec.engine, "verify_cube_relations", failing)
    monkeypatch.setattr(zonorec.tropical, "verify_cube_relations", failing)
    witness = ((0, 1, 0), (1, 2, 3), "relation violated")
    if command == "run":
        (tmp_path / "t.json").write_text(json.dumps(_T_MIN_111))
        (tmp_path / "lab.json").write_text(json.dumps(_ONES_111))
        argv = ["run", "--tiling", str(tmp_path / "t.json"), "--labeling",
                str(tmp_path / "lab.json"), "--check", "--out", str(tmp_path / "o.json")]
    elif command == "grassmann":
        _violate_a_bilinear_equation(monkeypatch)
        argv = ["verify", "grassmann", "--n", "4", "--samples", "3"]
        witness = ((0, 1, 0, 0), (1, 3, 4), "bilinear residual -3/2")
    else:
        argv = ["verify", command, "--A", "2,1,1"]
    args = build_parser().parse_args(argv)
    args.seed = 0
    with pytest.raises(DomainError) as info:
        args.func(args)
    assert (info.value.base, info.value.dirs, info.value.reason) == witness


def _violate_a_wall(monkeypatch):
    import zonorec.tropical

    def report(labeling, w, g):
        return zonorec.tropical.PropagationReport(True, None, [((1, 0, 0), 1)])

    monkeypatch.setattr(zonorec.tropical, "check_propagation", report)
    return "wall inequality violated on the edge at (1, 0, 0) in direction 2"


def _violate_a_bilinear_equation(monkeypatch):
    import zonorec.spinor

    # bit i of the mask is coordinate i of the cube's base
    violated = [((0b0010, (0, 2, 3)), Fraction(-3, 2))]
    monkeypatch.setattr(zonorec.spinor, "verify_trbi", lambda p: violated)
    return ("cube relation failed on the cube at (0, 1, 0, 0) with directions "
            "(1, 3, 4): bilinear residual -3/2")


def _break_confluence(monkeypatch):
    import zonorec.engine

    evaluate, calls = zonorec.engine.evaluate_path, []

    def second_path_differs(labeling, moves):
        out = evaluate(labeling, moves)
        calls.append(moves)
        if len(calls) == 2:  # the origin is a vertex of every tiling
            out.values[(0, 0, 0)] += 1
        return out

    monkeypatch.setattr(zonorec.engine, "evaluate_path", second_path_differs)
    return "confluence violated at (0, 0, 0) on trial 0"


@pytest.mark.parametrize("suite, violate", [
    ("tropical", _violate_a_wall),
    ("grassmann", _violate_a_bilinear_equation),
    ("confluence", _break_confluence),
], ids=["tropical-wall", "grassmann", "confluence"])
def test_cli_verify_names_the_witness_of_a_failure(monkeypatch, capsys, suite, violate):
    """Each verify suite exits 4 on one failure, with a line naming where it
    failed: a wall edge by its base and 1-based direction, a bilinear equation
    by its cube, a confluence failure by its vertex and trial."""
    message = violate(monkeypatch)
    argv = ["verify", suite] + {
        "tropical": ["--A", "2,1,1", "--samples", "3"],
        "grassmann": ["--n", "4", "--samples", "3"],
        "confluence": ["--A", "2,1,1", "--trials", "2"],
    }[suite]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("a, met", [("2,2,2", False), ("2,1,1", True)])
def test_cli_verify_tropical_json_is_always_a_report(capsys, a, met):
    """With --json the output is one report even when no sample met the
    hypothesis (on (2,2,2) none of these five does): the last sample's, with
    the cutcurve edge where the hypothesis failed."""
    assert main(["verify", "tropical", "--A", a, "--s", "1", "--c", "1",
                 "--samples", "5", "--seed", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    assert report["hypothesis_ok"] == met
    keys = {"hypothesis_ok", "violations"}
    assert set(report) == (keys if met else keys | {"hypothesis_witness"})
    if not met:
        base, d = report["hypothesis_witness"]["base"], report["hypothesis_witness"]["dir"]
        assert base[0] == 1 and d != 1  # an edge on the wall i_1 = 1


@pytest.mark.parametrize("argv", [
    ["verify", "confluence", "--A", "1,1,1", "--trials", "1"],
    ["verify", "laurent", "--A", "1,1,1"],
    ["verify", "grassmann", "--n", "3", "--samples", "1"],
], ids=["confluence", "laurent", "grassmann"])
def test_cli_verify_json_outside_tropical_exits_2(capsys, argv):
    """Only verify tropical has a JSON report; elsewhere --json is a flag the
    suite does not take, rejected before the suite runs, not ignored."""
    assert main(argv + ["--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unrecognized arguments: --json\n"


@pytest.mark.parametrize("command", ["tile", "run", "render"])
def test_cli_out_into_missing_directory_exits_2(tmp_path, capsys, command):
    (tmp_path / "t.json").write_text(json.dumps(_T_MIN_111))
    (tmp_path / "lab.json").write_text(json.dumps(_ONES_111))
    argv = {
        "tile": ["tile", "--A", "1,1,1"],
        "run": ["run", "--tiling", str(tmp_path / "t.json"),
                "--labeling", str(tmp_path / "lab.json")],
        "render": ["render", "--tiling", str(tmp_path / "t.json")],
    }[command]
    out = str(tmp_path / "missing" / "o.json")
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


def test_cli_run_rejects_repeated_vertex(tmp_path, capsys):
    values = _ONES_111["values"] + [{"vertex": [0, 1, 0], "value": "5"}]
    assert _run_111(tmp_path, values) == 2
    assert "vertex [0, 1, 0] repeats" in capsys.readouterr().err


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["rhombi"][0].update(dirs=[1, 9]), "rhombus 0: "),
    (lambda d: d["rhombi"][0].update(dirs=[2, 2]), "rhombus 0: "),
    (lambda d: d["rhombi"][0].update(base=[0, 0]), "rhombus 0: "),
    (lambda d: d["rhombi"][1].update(base=[0, 0.5, 0]), "rhombus 1: "),
    (lambda d: d["rhombi"][0].update(base=[1, 1, 1]), "not a tiling: rhombus outside box"),
    (lambda d: d["rhombi"].append(d["rhombi"][0]), "a rhombus repeats"),
    (lambda d: d.update(A=[1, 1, True]), "A [1, 1, True]"),
], ids=["dir-out-of-range", "dirs-equal", "short-base", "float-base", "base-outside",
        "repeated-rhombus", "bool-multiplicity"])
def test_tiling_from_json_rejects_invalid(mutate, message):
    data = json.loads(json.dumps(_T_MIN_111))
    mutate(data)
    with pytest.raises(jsonio.InvalidTiling, match=re.escape(message)):
        jsonio.tiling_from_json(data)


def test_cli_render_rejects_invalid_tiling(tmp_path, capsys):
    tiling = json.loads(json.dumps(_T_MIN_111))
    tiling["rhombi"][0]["dirs"] = [1, 9]
    tiling_file = tmp_path / "t.json"
    tiling_file.write_text(json.dumps(tiling))
    assert main(["render", "--tiling", str(tiling_file), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rhombus 0:" in err and "[1, 9]" in err


@pytest.mark.parametrize("content", [
    b"1" * 5000,  # an integer over the int-to-str digit limit
    b'{"A": "\xff\xfe"}',  # invalid UTF-8
    b"[" * 100_000,  # deeper than the recursion limit
], ids=["long-integer", "invalid-utf8", "deep-nesting"])
def test_cli_unreadable_json_exits_2(tmp_path, capsys, content):
    (tmp_path / "t.json").write_bytes(content)
    assert main(["render", "--tiling", str(tmp_path / "t.json"),
                 "--out", str(tmp_path / "o.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {tmp_path / 't.json'}: ") and err.count("\n") == 1
    assert not (tmp_path / "o.svg").exists()


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, val in items:
        yield from _json_paths(val, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False)
    | st.sampled_from(["", "1", "A", "rhombi"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["A", "rhombi", "base", "dirs"]), kids, max_size=3),
    max_leaves=6,
)


def _mutate(data, doc, values):
    """Replace, delete or duplicate one to three nodes of a JSON document."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = data.draw(values)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent[path[-1]] = value
        elif isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.insert(path[-1], json.loads(json.dumps(parent[path[-1]])))
    return doc


def _exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv[0]
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().startswith("error: ")


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cli_mutated_tiling_exits_cleanly(tmp_path_factory, data):
    doc = _mutate(data, _T_MIN_111, _JSON_VALUES)
    work = tmp_path_factory.mktemp("fuzz")
    (work / "t.json").write_text(json.dumps(doc))
    (work / "lab.json").write_text(json.dumps(_ONES_111))
    for argv in (["render", "--tiling", str(work / "t.json"), "--out", str(work / "o.svg")],
                 ["run", "--tiling", str(work / "t.json"), "--labeling", str(work / "lab.json"),
                  "--check", "--out", str(work / "o.json")]):
        _exits_cleanly(argv)


_RUN_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False)
    | st.sampled_from(["", "0", "1", "-1/2", "1,0", "up", "down", "laurent", "rational"])
)
_RUN_JSON_VALUES = _RUN_JSON_LEAVES | st.recursive(
    _RUN_JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["A", "values", "vertex", "value", "terms", "coeff",
                                       "exps", "moves", "base", "dirs", "dir"]),
                      kids, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("kind", ["rational", "laurent", "path"])
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cli_mutated_labeling_or_path_exits_cleanly(tmp_path_factory, kind, data):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "t.json").write_text(json.dumps(_T_MIN_111))
    argv = ["run", "--tiling", str(work / "t.json"), "--labeling", str(work / "lab.json"),
            "--out", str(work / "o.json")]
    labeling = _laurent_111() if kind == "laurent" else _ONES_111
    if kind == "path":  # without --check, which --path rejects before reading the path
        up = {"base": [0, 0, 0], "dirs": [1, 2, 3], "dir": "up"}
        path = _mutate(data, _path_111(up, dict(up, dir="down")), _RUN_JSON_VALUES)
        (work / "p.json").write_text(json.dumps(path))
        argv += ["--path", str(work / "p.json")]
    elif data.draw(st.booleans()):
        labeling = _mutate(data, labeling, _RUN_JSON_VALUES)
    else:  # one value's subtree, where the per-value decoding happens
        i = data.draw(st.integers(0, len(labeling["values"]) - 1))
        labeling = json.loads(json.dumps(labeling))
        labeling["values"][i] = _mutate(data, labeling["values"][i], _RUN_JSON_VALUES)
    (work / "lab.json").write_text(json.dumps(labeling))
    _exits_cleanly(argv if kind == "path" else argv + ["--check"])
