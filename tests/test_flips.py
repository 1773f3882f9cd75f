import functools
import itertools
import random

import pytest

from zonorec import (
    CapExceeded,
    FlipError,
    FlipMove,
    Tiling,
    ZonogonSpec,
    apply_flip,
    apply_move,
    cells_2,
    connect,
    connect_through,
    enumerate_tilings,
    flippable_vertices,
    fundamental_forest,
    move_at,
    normalize_to_min,
    phi,
    random_tiling,
    rhombus_chain,
    t_min,
    tiling_through_vertex,
    validate_tiling,
)
from zonorec.zonogon import shift

HEX = ZonogonSpec((1, 1, 1))
OCT = ZonogonSpec((1, 1, 1, 1))

FOREST_SPECS = [
    (1, 1, 1),
    (2, 1, 1),
    (3, 1, 1),
    (2, 2, 1),
    (3, 2, 1),
    (2, 2, 2),
    (1, 1, 1, 1),
    (2, 1, 1, 1),
    (1, 1, 1, 1, 1),
]


def hexagon_tilings():
    ts = sorted(enumerate_tilings(HEX), key=lambda t: t.canonical_rhombi())
    tm = t_min(HEX)
    other = next(t for t in ts if t != tm)
    return tm, other


def test_forest_of_min_is_empty():
    for a in [(1, 1, 1), (2, 2, 1), (1, 1, 1, 1)]:
        assert not fundamental_forest(t_min(ZonogonSpec(a))).edges


def test_forest_of_nonminimal_hexagon():
    _, other = hexagon_tilings()
    forest = fundamental_forest(other)
    # sole internal up-edge at the interior vertex (1,0,1)
    assert forest.edges == frozenset({((1, 0, 1), 1)})
    assert forest.leaves == frozenset({(1, 0, 1)})


def test_down_flippable_vertices_are_forest_leaves():
    # the direct census of flippable_vertices agrees with the forest theorem
    tilings = [t for a in [(2, 2, 2), (1, 1, 1, 1, 1), (2, 2, 1, 1)]
               for t in enumerate_tilings(ZonogonSpec(a))]
    rng = random.Random(14)
    tilings += [random_tiling(ZonogonSpec((3, 3, 3, 3)), rng) for _ in range(10)]
    for t in tilings:
        down, _ = flippable_vertices(t)
        assert down == fundamental_forest(t).leaves, t.canonical_rhombi()


def test_forest_down_edge_census():
    # vertices with r >= 3 down-edges carry exactly r - 2 forest down-edges
    rng = random.Random(5)
    for a in [(2, 2, 1), (2, 2, 2)]:
        spec = ZonogonSpec(a)
        for _ in range(4):
            t = random_tiling(spec, rng)
            forest = fundamental_forest(t)
            for v in t.vertices:
                _, down = t.edges_at(v)
                got = len(forest.link(v))
                if len(down) >= 3:
                    assert got == len(down) - 2, (a, v)
                else:
                    assert got == 0


def test_flippable_hexagon():
    tm, other = hexagon_tilings()
    down, up = flippable_vertices(tm)
    assert down == frozenset()
    assert up == frozenset({(0, 1, 0)})
    down, up = flippable_vertices(other)
    assert down == frozenset({(1, 0, 1)})
    assert up == frozenset()


def test_apply_flip_hexagon():
    tm, other = hexagon_tilings()
    flipped, move = apply_flip(other, (1, 0, 1))
    assert flipped == tm
    assert move.direction == "down"
    assert phi(other) - phi(flipped) == 1


def test_flip_involution():
    rng = random.Random(1)
    for a in [(2, 2, 1), (1, 1, 1, 1)]:
        spec = ZonogonSpec(a)
        t = random_tiling(spec, rng)
        down, up = flippable_vertices(t)
        for v in sorted(down | up):
            t2, move = apply_flip(t, v)
            back, move2 = apply_flip(t2, move.created)
            assert back == t
            assert move2 == move.inverse()


def test_not_flippable_raises():
    tm = t_min(HEX)
    with pytest.raises(FlipError, match="not an internal vertex"):
        apply_flip(tm, (0, 0, 0))


def test_middle_direction_between():
    # at internal trivalent vertices the odd-flavored edge direction is the
    # middle one; move_at asserts this, so just exercise it broadly
    rng = random.Random(2)
    for a in [(2, 2, 2), (2, 1, 1, 1)]:
        spec = ZonogonSpec(a)
        for _ in range(5):
            t = random_tiling(spec, rng)
            down, up = flippable_vertices(t)
            for v in down | up:
                mv = move_at(t, v)
                assert mv.dirs[0] < mv.dirs[1] < mv.dirs[2]


def test_octagon_flip_graph_is_8_cycle():
    ts = enumerate_tilings(OCT)
    assert len(ts) == 8
    degrees = []
    edges = set()
    for t in ts:
        down, up = flippable_vertices(t)
        nbrs = set()
        for v in down | up:
            t2, _ = apply_flip(t, v)
            nbrs.add(t2)
            edges.add(frozenset({t, t2}))
        degrees.append(len(nbrs))
    assert degrees == [2] * 8
    assert len(edges) == 8  # connected 2-regular graph on 8 nodes: one 8-cycle


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_tilings(OCT, cap=3)


def test_normalize_to_min():
    rng = random.Random(3)
    _, other = hexagon_tilings()
    assert len(normalize_to_min(other)) == 1
    spec = ZonogonSpec((2, 2, 1))
    tm = t_min(spec)
    assert len(normalize_to_min(tm)) == 0
    for _ in range(5):
        t = random_tiling(spec, rng)
        path = normalize_to_min(t)
        assert path.end == tm
        assert len(path) == phi(t) - phi(tm)
        assert all(m.direction == "down" for m in path.moves)


def test_normalize_endpoint_independent_of_leaf_policy():
    rng = random.Random(4)
    spec = ZonogonSpec((2, 2, 1))
    tm = t_min(spec)
    for _ in range(6):
        t = random_tiling(spec, rng)
        assert normalize_to_min(t, rng=rng).end == tm


def test_phi_strictly_decreases_downward():
    rng = random.Random(9)
    t = random_tiling(ZonogonSpec((2, 2, 2)), rng)
    path = normalize_to_min(t)
    values = [phi(s) for s in path.replay()]
    assert all(a - b == 1 for a, b in zip(values, values[1:]))
    assert len(set(path.replay())) == len(path) + 1


def test_connect_endpoints_octagon():
    ts = sorted(enumerate_tilings(OCT), key=lambda t: t.canonical_rhombi())
    for t1, t2 in itertools.product(ts, ts):
        path = connect(t1, t2)
        assert path.end == t2


def test_connect_same_tiling():
    tm = t_min(HEX)
    path = connect(tm, tm)
    assert path.end == tm


def test_connect_hexagon_short():
    tm, other = hexagon_tilings()
    assert len(connect(tm, other)) <= 2
    assert len(connect(other, tm)) <= 2


def test_forests_distinct_and_min_unique():
    for a in FOREST_SPECS:
        spec = ZonogonSpec(a)
        ts = enumerate_tilings(spec, cap=64)
        forests = {}
        empty = []
        for t in ts:
            f = fundamental_forest(t)
            key = f.edges
            assert key not in forests, (a, "forest collision")
            forests[key] = t
            if not f.edges:
                empty.append(t)
        assert empty == [t_min(spec)], a


def test_highest_difference_vertex_has_distinct_links():
    rng = random.Random(11)
    for a in [(2, 2, 1), (2, 2, 2), (1, 1, 1, 1)]:
        spec = ZonogonSpec(a)
        for _ in range(8):
            t1 = random_tiling(spec, rng)
            t2 = random_tiling(spec, rng)
            if t1 == t2:
                continue
            f1, f2 = fundamental_forest(t1), fundamental_forest(t2)
            shared = t1.rhombi & t2.rhombi
            diff_corners = set()
            for t in (t1, t2):
                for rh in t.rhombi - shared:
                    from zonorec.zonogon import rhombus_corners

                    diff_corners.update(rhombus_corners(rh))
            top = max(diff_corners, key=lambda v: (spec.height(v), v))
            assert f1.link(top) != f2.link(top), (a, top)


def test_rhombus_chain_lengths():
    rng = random.Random(12)
    for a in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]:
        spec = ZonogonSpec(a)
        t = random_tiling(spec, rng)
        for e in sorted(t.edge_rhombi):
            chain = rhombus_chain(t, e)
            assert len(chain) == sum(spec.a) - spec.a[e[1]]
            assert all(e[1] in rh[1] for rh in chain)


def test_chains_of_distinct_directions_cross_once():
    # chains are pseudolines: any chain in direction i crosses each chain of a
    # different direction in exactly one rhombus
    for a in [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (2, 2, 1)]:
        spec = ZonogonSpec(a)
        for t in enumerate_tilings(spec, cap=64):
            chains = {}
            for e in t.edge_rhombi:
                key = frozenset(rhombus_chain(t, e))
                chains.setdefault(e[1], set()).add(key)
            for d, group in chains.items():
                assert len(group) == spec.a[d]
            for d1, d2 in itertools.combinations(sorted(chains), 2):
                for c1 in chains[d1]:
                    for c2 in chains[d2]:
                        assert len(c1 & c2) == 1


def test_hexagon_chain_through_direction_one():
    t = t_min(HEX)
    chain = rhombus_chain(t, ((0, 0, 0), 0))
    assert len(chain) == 2
    assert all(0 in rh[1] for rh in chain)


def test_connect_through_trivial_and_boundary():
    tm, other = hexagon_tilings()
    assert len(connect_through(tm, tm, (0, 0, 0))) == 0
    ts = sorted(enumerate_tilings(OCT), key=lambda t: t.canonical_rhombi())
    for t1, t2 in itertools.combinations(ts, 2):
        for marked in sorted(OCT.boundary_vertices)[:3]:
            path = connect_through(t1, t2, marked)
            assert path.end == t2
            assert all(marked in s.vertices for s in path.replay())


def test_connect_through_matches_restricted_bfs_reachability():
    from oracles import restricted_bfs_connect

    rng = random.Random(13)
    for a in [(2, 1, 1), (2, 2, 1)]:
        spec = ZonogonSpec(a)
        ts = sorted(enumerate_tilings(spec), key=lambda t: t.canonical_rhombi())
        for t1, t2 in itertools.product(ts, ts):
            for marked in sorted(t1.vertices & t2.vertices):
                path = connect_through(t1, t2, marked)
                tilings = path.replay()
                assert tilings[-1] == t2
                assert all(marked in s.vertices for s in tilings)
                oracle = restricted_bfs_connect(t1, t2, marked)
                assert oracle is not None
                assert len(tilings) >= len(oracle)


def test_connect_through_interior_marked():
    from oracles import walk_keeping

    spec = ZonogonSpec((2, 2, 2))
    rng = random.Random(14)
    every = enumerate_tilings(spec)
    pts = [p for p in sorted(spec.lattice_points())
           if sum(p in t.vertices for t in every) >= 2]
    for trial in range(10):
        marked = rng.choice(pts)
        t0 = tiling_through_vertex(spec, marked)
        t1, t2 = walk_keeping(t0, marked, rng, 12), walk_keeping(t0, marked, rng, 13)
        assert t1 != t2
        path = connect_through(t1, t2, marked)
        tilings = path.replay()
        assert tilings[-1] == t2
        assert all(marked in s.vertices for s in tilings)


def test_cells_hexagon_min_empty():
    assert cells_2(t_min(HEX)) == []


def test_cells_octagon():
    for t in enumerate_tilings(OCT):
        cells = cells_2(t)
        assert [c.kind for c in cells] == ["octagon"]
        cur = t
        seen = {cur}
        for mv in cells[0].moves:
            cur = apply_move(cur, mv)
            seen.add(cur)
        assert cur == t
        assert len(seen) == 8


def test_square_cell_exists():
    spec = ZonogonSpec((2, 2, 2))
    squares = 0
    for t in enumerate_tilings(spec):
        for cell in cells_2(t):
            if cell.kind == "square":
                m1, m2 = cell.moves
                assert apply_move(apply_move(t, m1), m2) == apply_move(
                    apply_move(t, m2), m1
                )
                squares += 1
    assert squares > 0


def test_every_generated_tiling_counts():
    rng = random.Random(15)
    for a in [(2, 2, 2), (3, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]:
        spec = ZonogonSpec(a)
        for _ in range(4):
            t = random_tiling(spec, rng)
            assert len(t.vertices) == spec.vertex_count
            assert len(t.rhombi) == spec.rhombus_count
            assert validate_tiling(t).ok


# ---------------------------------------------------------------------------
# the vertex-set tiling against the rhombus-based oracles

ORACLE_COUNTS = {(2, 2, 2): 20, (1, 1, 1, 1, 1): 62, (2, 2, 1, 1): 75, (3, 2, 2): 50,
                 (1, 1, 1, 1, 1, 1): 908}


def _spec_id(a):
    return ",".join(map(str, a))


@functools.lru_cache(maxsize=None)
def _face_flip_tilings(a):
    """Every tiling of spec a by the face-set rule, each beside the library's
    tiling of the same vertex set."""
    from oracles import tilings_by_face_flips

    spec = ZonogonSpec(a)
    return [(t, Tiling.from_vertices(spec, t.vertices))
            for t in tilings_by_face_flips(spec)]


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_distinct_tilings_have_distinct_vertex_sets(a):
    pairs = _face_flip_tilings(a)
    assert len(pairs) == ORACLE_COUNTS[a]
    assert len({t.vertices for t, _ in pairs}) == len(pairs)
    assert enumerate_tilings(ZonogonSpec(a)) == {lib for _, lib in pairs}


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_derived_rhombi_equal_laid_rhombi(a):
    spec = ZonogonSpec(a)
    laid = [t for t, _ in _face_flip_tilings(a)]
    laid += [tiling_through_vertex(spec, p) for p in spec.lattice_points()]
    for t in laid:
        assert Tiling.from_vertices(spec, t.vertices).rhombi == t.rhombi


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_edges_at_matches_rhombus_census(a):
    from oracles import edges_by_census

    for t, lib in _face_flip_tilings(a):
        census = edges_by_census(t)
        assert {v: lib.edges_at(v) for v in lib.vertices} == census


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_apply_move_matches_face_rule(a):
    from oracles import apply_move_by_faces

    spec = ZonogonSpec(a)
    for t, lib in _face_flip_tilings(a):
        for base, dirs in spec.cubes():
            for direction in ("up", "down"):
                move = FlipMove(base, dirs, direction)
                try:
                    want = apply_move_by_faces(t, move).vertices
                except FlipError:
                    want = None
                try:
                    got = apply_move(lib, move).vertices
                except FlipError:
                    got = None
                assert got == want, (a, move)


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_cells_2_matches_rhombus_scan(a):
    from oracles import cells_2_by_rhombus_scan

    for t, lib in _face_flip_tilings(a):
        assert cells_2(lib) == cells_2_by_rhombus_scan(t)


@pytest.mark.parametrize("a", list(ORACLE_COUNTS)[:4], ids=_spec_id)
def test_validate_tiling_matches_overlap_oracle(a):
    """Every tiling is valid, and seeded random mutations of tilings (drop,
    add, replace or translate 1-3 rhombi, or move a base out of the box) get
    the same verdict from the sweep as from the geometric oracle."""
    from oracles import all_candidate_rhombi, is_tiling_by_overlap

    spec = ZonogonSpec(a)
    tilings = [t for t, _ in _face_flip_tilings(a)]
    for t in tilings:
        assert validate_tiling(t).ok and is_tiling_by_overlap(t)
    candidates = all_candidate_rhombi(spec)
    rng = random.Random(7)
    kinds = ("drop", "add", "replace", "translate", "outside")
    for trial in range(200):
        rhombi = sorted(rng.choice(tilings).rhombi)
        kind, k = kinds[trial % len(kinds)], rng.randint(1, 3)
        picked = rng.sample(range(len(rhombi)), k)
        if kind == "drop":
            rhombi = [rh for i, rh in enumerate(rhombi) if i not in picked]
        elif kind == "add":
            rhombi += rng.sample(candidates, k)
        elif kind == "replace":
            for i in picked:
                rhombi[i] = rng.choice(candidates)
        elif kind == "translate":
            for i in picked:
                base, dirs = rhombi[i]
                rhombi[i] = (shift(base, rng.randrange(spec.n), rng.choice((1, -1))), dirs)
        else:
            base, dirs = rhombi[picked[0]]
            d = rng.randrange(spec.n)
            step = rng.choice((-1 - base[d], a[d] + 1 - base[d]))
            rhombi[picked[0]] = (shift(base, d, step), dirs)
        mutated = Tiling(spec, rhombi)
        assert validate_tiling(mutated).ok == is_tiling_by_overlap(mutated), (kind, rhombi)
