import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zonorec import (
    RATIONAL,
    TROPICAL,
    Wall,
    ZonogonSpec,
    canonical_cutcurve,
    connect,
    extend_to_lattice,
    initial_labeling,
    random_tiling,
    render_svg,
    spin_coordinates,
    symbolic_labeling,
    t_min,
    tiling_through_vertex,
    random_isotropic_subspace,
)
from zonorec import jsonio
from zonorec.cli import main
from zonorec.flips import fundamental_forest


def test_tiling_json_round_trip():
    spec = ZonogonSpec((2, 2, 1))
    t = tiling_through_vertex(spec, (1, 1, 1))
    data = jsonio.tiling_to_json(t)
    assert data["A"] == [2, 2, 1]
    assert all(1 <= d <= 3 for r in data["rhombi"] for d in r["dirs"])
    assert jsonio.tiling_from_json(json.loads(json.dumps(data))) == t


def test_flip_path_json_round_trip():
    spec = ZonogonSpec((2, 2, 1))
    rng = random.Random(0)
    t1, t2 = random_tiling(spec, rng), random_tiling(spec, rng)
    path = connect(t1, t2)
    data = json.loads(json.dumps(jsonio.flip_path_to_json(path)))
    back = jsonio.flip_path_from_json(data)
    assert back.start == path.start and back.moves == path.moves
    assert back.end == t2


@pytest.mark.parametrize("domain", ["rational", "laurent", "tropical"])
def test_labeling_json_round_trip(domain):
    spec = ZonogonSpec((1, 1, 1))
    t = t_min(spec)
    rng = random.Random(1)
    if domain == "laurent":
        lab = extend_to_lattice(symbolic_labeling(t))
    elif domain == "rational":
        lab = extend_to_lattice(initial_labeling(
            t, RATIONAL,
            {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in t.vertices},
        ))
    else:
        lab = extend_to_lattice(initial_labeling(
            t, TROPICAL, {v: Fraction(rng.randint(-5, 5)) for v in t.vertices}
        ))
    data = json.loads(json.dumps(jsonio.labeling_to_json(lab)))
    back = jsonio.labeling_from_json(data, t)
    assert back.domain.name == domain
    assert back.values == lab.values


def test_wall_json_round_trip():
    spec = ZonogonSpec((2, 1, 1))
    w = Wall(0, 1)
    g = canonical_cutcurve(spec, w)
    data = json.loads(json.dumps(jsonio.wall_to_json(w, g)))
    assert data["s"] == 1
    w2, g2 = jsonio.wall_from_json(data)
    assert w2 == w and g2 == g


def test_spin_point_json_round_trip():
    rng = random.Random(2)
    sub = random_isotropic_subspace(rng, 3, 2)
    pt = spin_coordinates(sub)
    data = json.loads(json.dumps(jsonio.spin_point_to_json(pt)))
    back = jsonio.spin_point_from_json(data)
    assert back.n == pt.n and back.coords == pt.coords


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
    assert svg1.count("<line") == len(fundamental_forest(other).edges) == 1
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


def test_cli_bad_input_exit_codes(capsys):
    assert main(["tile", "--A", "1,1", "--min"]) == 2
    assert main(["tile", "--A", "1,1,1,1", "--enumerate", "--cap", "3"]) == 3


@pytest.mark.parametrize("cube", ["a,0,0,1,2,3,bottom", "0,0,0,1,x,3,bottom",
                                  "0,0,0,3,2,1,top", "0,0,0,1,2,3,left"])
def test_cli_tile_bad_cube_exits_2(capsys, cube):
    assert main(["tile", "--A", "2,2,2", "--cube", cube]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("mode", [["--through", "1,2,0,1"], ["--cube", "1,0,1,0,1,2,4,top"]])
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


def test_cli_run_rejects_negative_initial_value(tmp_path, capsys):
    values = [dict(item, value="-3/2") if item["vertex"] == [0, 1, 0] else item
              for item in _ONES_111["values"]]
    assert _run_111(tmp_path, values) == 4
    assert "invalid initial value at (0, 1, 0)" in capsys.readouterr().err


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


def test_cli_render(tmp_path):
    spec = ZonogonSpec((1, 1, 1))
    t = t_min(spec)
    tiling_file = tmp_path / "t.json"
    tiling_file.write_text(json.dumps(jsonio.tiling_to_json(t)))
    out = tmp_path / "t.svg"
    assert main(["render", "--tiling", str(tiling_file), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.count("<path") == 3


def test_cli_entry_point_subprocess():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "zonorec.cli", "tile", "--A", "1,1,1", "--min"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["A"] == [1, 1, 1]


@pytest.mark.parametrize("argv", [
    ["verify", "grassmann", "--n", "3", "--samples", "0"],
    ["verify", "tropical", "--A", "2,1,1", "--samples", "-1"],
    ["verify", "confluence", "--A", "1,1,1", "--trials", "-3"],
    ["tile", "--A", "1,1,1", "--enumerate", "--cap", "-1"],
], ids=["grassmann-samples", "tropical-samples", "confluence-trials", "enumerate-cap"])
def test_cli_rejects_bad_counts(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and argv[-2] in out.err
    assert out.out == ""


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
            "--check", "--out", str(work / "o.json")]
    labeling = _laurent_111() if kind == "laurent" else _ONES_111
    if kind == "path":
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
    _exits_cleanly(argv)
