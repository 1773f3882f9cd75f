"""A seeded fuzzer for the CLI's exit codes.

Each case mutates a valid tiling, labeling or flip-path document of
A = (2, 1, 1) and runs `cli.main` in process for `run`, `run --check`,
`run --path` or `render`, always writing to a file.  Whatever the input,
the exit code is one of the documented ones (0 ok, 2 bad input, 3 cap,
4 domain); a failure prints exactly one `error:` line and nothing on
stdout; and no case allocates more than a small bound, so a document
costs at most its size.
"""

import copy
import json
import random
import tracemalloc

import pytest

from zonorec import (
    RATIONAL,
    ZonogonSpec,
    connect,
    enumerate_tilings,
    initial_labeling,
    jsonio,
    t_min,
)
from zonorec.cli import main

SPEC = ZonogonSpec((2, 1, 1))
T0 = t_min(SPEC)
TILING = jsonio.tiling_to_json(T0)
LABELING = jsonio.labeling_to_json(
    initial_labeling(T0, RATIONAL, {v: i + 1 for i, v in enumerate(sorted(T0.vertices))}))
MOVES = max((connect(T0, t) for t in enumerate_tilings(SPEC)), key=len)
PATH = {"start": TILING,
        "moves": [{"base": list(m.base), "dirs": [d + 1 for d in m.dirs], "dir": m.direction}
                  for m in MOVES]}

POOL = [None, True, False, -1, 0, 1, 2, 3, 4, 10**5, 10**6, 1.5, "", "x", "1", "1/0",
        "-7/3", "up", "down", "rational", "tropical", "laurent", [], {}, [0, 0, 0],
        [1, 2], [1, 2, 3], [2, 1, 1], [2, 1, 10**5], [2, 1, 10**6],
        {"base": [0, 0, 0], "dirs": [1, 2]}, {"vertex": [0, 0, 0], "value": "1"}]

# each command and the documents it reads
READS = {("run",): ("tiling", "labeling"), ("run", "--check"): ("tiling", "labeling"),
         ("run", "--path"): ("tiling", "labeling", "path"), ("render",): ("tiling",)}

PEAK_BOUND = 2**20  # bytes of Python allocations per case


def _nodes(doc, where=()):
    """The path of every node below the root, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield where + (key,)
        yield from _nodes(child, where + (key,))


def _mutate(doc, rng):
    """The document with one node replaced from the pool, one key or item
    deleted, or one list item repeated."""
    doc = copy.deepcopy(doc)
    where = rng.choice(list(_nodes(doc)))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    key = where[-1]
    kind = rng.choice(("replace", "replace", "delete", "repeat"))
    if kind == "replace":
        parent[key] = copy.deepcopy(rng.choice(POOL))
    elif kind == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [copy.deepcopy(parent[key])] * 2
    return doc


def _huge_a(exponent):
    return {**TILING, "A": [2, 1, 10**exponent]}


def _cases(seed, count):
    """(command, tiling, labeling, path) documents: the valid ones for each
    command and the huge-multiplicity tilings first, then `count` seeded
    mutations of one or two documents."""
    for command in READS:
        yield command, TILING, LABELING, PATH
    for exponent in (5, 6):
        for command in (("run",), ("render",)):
            yield command, _huge_a(exponent), LABELING, PATH
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(list(READS))
        docs = {"tiling": TILING, "labeling": LABELING, "path": PATH}
        for _ in range(rng.choice((1, 1, 2))):
            name = rng.choice(READS[command])
            docs[name] = _mutate(docs[name], rng)
        yield command, docs["tiling"], docs["labeling"], docs["path"]


def _argv(where, command, tiling, labeling, path):
    """The command line of a case, its documents written to new files in
    the new directory `where`."""
    where.mkdir()
    files = {}
    for name, doc in (("tiling", tiling), ("labeling", labeling), ("path", path)):
        files[name] = where / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    argv = [command[0], "--tiling", str(files["tiling"]), "--out", str(where / "out")]
    if command[0] == "run":
        argv += ["--labeling", str(files["labeling"])]
        argv += ["--path", str(files["path"])] if "--path" in command else list(command[1:])
    return argv


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cli_exit_codes_hold_for_mutated_documents(tmp_path, capsys, seed):
    codes = {}
    tracemalloc.start()
    try:
        for i, case in enumerate(_cases(seed, 100)):
            argv = _argv(tmp_path / str(i), *case)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - before
            _check_case(capsys, case, code, peak)
            codes[code] = codes.get(code, 0) + 1
    finally:
        tracemalloc.stop()
    assert codes.get(0) and codes.get(2), codes


def _check_case(capsys, case, code, peak):
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4), (case, code, err)
    assert out == "", (case, out)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
    assert peak < PEAK_BOUND, (case, peak)
