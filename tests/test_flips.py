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
    apply_move,
    connect,
    enumerate_tilings,
    fundamental_forest,
    normalize_to_min,
    phi,
    random_tiling,
    t_min,
    tiling_through_vertex,
    tiling_with_cube_faces,
    validate_tiling,
)
from zonorec.flips import FlipCensus
from zonorec.zonogon import _check_rhombi, shift

from oracles import edges_at, flippable_vertices, move_at, replay
from paper_lemmas import FundamentalForest, cells_2, connect_through, edge_rhombi, rhombus_chain

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


def _flips(t):
    """Pivot -> move for every flip of t, by the library's census."""
    census = FlipCensus(t.spec)
    return {census.points[i]: flip.move
            for i, flip in census.all(t.mask).items()}


def _pivots(t, direction):
    return frozenset(v for v, move in _flips(t).items() if move.direction == direction)


def hexagon_tilings():
    ts = sorted(enumerate_tilings(HEX), key=lambda t: t.canonical_rhombi())
    tm = t_min(HEX)
    other = next(t for t in ts if t != tm)
    return tm, other


def test_forest_of_min_is_empty():
    for a in [(1, 1, 1), (2, 2, 1), (1, 1, 1, 1)]:
        assert not fundamental_forest(t_min(ZonogonSpec(a)))


def test_forest_of_nonminimal_hexagon():
    _, other = hexagon_tilings()
    forest = FundamentalForest(other)
    # sole internal up-edge at the interior vertex (1,0,1)
    assert forest.edges == frozenset({((1, 0, 1), 1)})
    assert forest.leaves == frozenset({(1, 0, 1)})


def test_down_flippable_vertices_are_forest_leaves():
    # the census's down pivots are the forest's leaves, as the paper proves
    tilings = [t for a in [(2, 2, 2), (1, 1, 1, 1, 1), (2, 2, 1, 1)]
               for t in enumerate_tilings(ZonogonSpec(a))]
    rng = random.Random(14)
    tilings += [random_tiling(ZonogonSpec((3, 3, 3, 3)), rng) for _ in range(10)]
    for t in tilings:
        assert _pivots(t, "down") == FundamentalForest(t).leaves, t.canonical_rhombi()


def test_forest_down_edge_census():
    # vertices with r >= 3 down-edges carry exactly r - 2 forest down-edges
    rng = random.Random(5)
    for a in [(2, 2, 1), (2, 2, 2)]:
        spec = ZonogonSpec(a)
        for _ in range(4):
            t = random_tiling(spec, rng)
            forest = FundamentalForest(t)
            for v in t.vertices:
                _, down = edges_at(t, v)
                got = len(forest.link(v))
                if len(down) >= 3:
                    assert got == len(down) - 2, (a, v)
                else:
                    assert got == 0


def test_flippable_hexagon():
    tm, other = hexagon_tilings()
    assert _pivots(tm, "down") == frozenset()
    assert _pivots(tm, "up") == frozenset({(0, 1, 0)})
    assert _pivots(other, "down") == frozenset({(1, 0, 1)})
    assert _pivots(other, "up") == frozenset()


def test_apply_flip_hexagon():
    tm, other = hexagon_tilings()
    move = _flips(other)[(1, 0, 1)]
    flipped = apply_move(other, move)
    assert flipped == tm
    assert move.direction == "down"
    assert phi(other) - phi(flipped) == 1


def test_flip_involution():
    rng = random.Random(1)
    for a in [(2, 2, 1), (1, 1, 1, 1)]:
        spec = ZonogonSpec(a)
        t = random_tiling(spec, rng)
        for _, move in sorted(_flips(t).items()):
            t2 = apply_move(t, move)
            move2 = _flips(t2)[move.created]
            assert apply_move(t2, move2) == t
            assert move2 == move.inverse()


def test_not_flippable_raises():
    """The census offers no flip at a boundary vertex, and a flip made twice
    no longer applies."""
    census = FlipCensus(HEX)
    mask = t_min(HEX).mask
    moves = census.all(mask)
    assert [census.points[i] for i in moves] == [(0, 1, 0)]
    up = moves[census.index[(0, 1, 0)]]
    with pytest.raises(FlipError, match="not applicable"):
        up.apply(up.apply(mask))


def test_inapplicable_move_names_its_witness():
    """The move is data on the error, with 1-based directions as in a flip
    path document; the message is built from those fields."""
    tm = t_min(HEX)
    move = FlipMove((0, 0, 0), (0, 1, 2), "down")
    with pytest.raises(FlipError, match="not applicable") as info:
        apply_move(tm, move)
    err = info.value
    assert (err.base, err.dirs, err.direction) == ((0, 0, 0), (1, 2, 3), "down")
    assert str(err) == "down move on the cube at (0, 0, 0) with directions (1, 2, 3) not applicable"


def test_middle_direction_between():
    # at internal trivalent vertices the odd-flavored edge direction is the
    # middle one; the census asserts this, so just exercise it broadly
    rng = random.Random(2)
    for a in [(2, 2, 2), (2, 1, 1, 1)]:
        spec = ZonogonSpec(a)
        for _ in range(5):
            t = random_tiling(spec, rng)
            for mv in _flips(t).values():
                assert mv.dirs[0] < mv.dirs[1] < mv.dirs[2]


def test_octagon_flip_graph_is_8_cycle():
    ts = enumerate_tilings(OCT)
    assert len(ts) == 8
    degrees = []
    edges = set()
    for t in ts:
        nbrs = set()
        for move in _flips(t).values():
            t2 = apply_move(t, move)
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
        moves = normalize_to_min(t)
        assert replay(t, moves)[-1] == tm
        assert len(moves) == phi(t) - phi(tm)
        assert all(m.direction == "down" for m in moves)


def test_normalize_endpoint_independent_of_leaf_policy():
    rng = random.Random(4)
    spec = ZonogonSpec((2, 2, 1))
    tm = t_min(spec)
    for _ in range(6):
        t = random_tiling(spec, rng)
        assert replay(t, normalize_to_min(t, rng=rng))[-1] == tm


def test_phi_strictly_decreases_downward():
    rng = random.Random(9)
    t = random_tiling(ZonogonSpec((2, 2, 2)), rng)
    moves = normalize_to_min(t)
    values = [phi(s) for s in replay(t, moves)]
    assert all(a - b == 1 for a, b in zip(values, values[1:]))
    assert len(set(replay(t, moves))) == len(moves) + 1


def test_connect_endpoints_octagon():
    ts = sorted(enumerate_tilings(OCT), key=lambda t: t.canonical_rhombi())
    for t1, t2 in itertools.product(ts, ts):
        assert replay(t1, connect(t1, t2))[-1] == t2


def test_connect_same_tiling():
    tm = t_min(HEX)
    assert replay(tm, connect(tm, tm))[-1] == tm


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
            key = fundamental_forest(t)
            assert key not in forests, (a, "forest collision")
            forests[key] = t
            if not key:
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
            f1, f2 = FundamentalForest(t1), FundamentalForest(t2)
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
        for e in sorted(edge_rhombi(t)):
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
            for e in edge_rhombi(t):
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
            tilings = replay(t1, connect_through(t1, t2, marked))
            assert tilings[-1] == t2
            assert all(marked in s.vertices for s in tilings)


def test_connect_through_matches_restricted_bfs_reachability():
    from oracles import restricted_bfs_connect

    rng = random.Random(13)
    for a in [(2, 1, 1), (2, 2, 1)]:
        spec = ZonogonSpec(a)
        ts = sorted(enumerate_tilings(spec), key=lambda t: t.canonical_rhombi())
        for t1, t2 in itertools.product(ts, ts):
            for marked in sorted(t1.vertices & t2.vertices):
                tilings = replay(t1, connect_through(t1, t2, marked))
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
    pts = [p for p in spec.points
           if sum(p in t.vertices for t in every) >= 2]
    for trial in range(10):
        marked = rng.choice(pts)
        t0 = tiling_through_vertex(spec, marked)
        t1, t2 = walk_keeping(t0, marked, rng, 12), walk_keeping(t0, marked, rng, 13)
        assert t1 != t2
        tilings = replay(t1, connect_through(t1, t2, marked))
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
    return [(t, Tiling.from_mask(spec, t.mask))
            for t in tilings_by_face_flips(spec)]


@functools.lru_cache(maxsize=None)
def _enumerated(a):
    return enumerate_tilings(ZonogonSpec(a))


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_distinct_tilings_have_distinct_vertex_sets(a):
    pairs = _face_flip_tilings(a)
    assert len(pairs) == ORACLE_COUNTS[a]
    assert len({t.vertices for t, _ in pairs}) == len(pairs)
    assert set(_enumerated(a)) == {lib for _, lib in pairs}
    rhombi = [t.canonical_rhombi() for t in _enumerated(a)]
    assert rhombi == sorted(set(rhombi))  # sorted, no repeats


@pytest.mark.pinned
@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_carried_rhombi_equal_derived_rhombi(a):
    """The search carries each tiling's sorted rhombus ranks through its
    flips; they are the ranks of the rhombi the vertex set gives, and they
    decode to those rhombi."""
    spec = ZonogonSpec(a)
    for t in _enumerated(a):
        derived = Tiling.from_mask(spec, t.mask).rhombi
        assert vars(t)["ranks"] == tuple(sorted(map(spec.rank, derived))), t
        assert t.canonical_rhombi() == tuple(sorted(derived)), t


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_move_faces_are_the_cube_faces(a):
    """A move takes out the faces through its removed corner and lays those
    through its created one; the search swaps exactly these rhombi."""
    from oracles import cube_bottom_faces, cube_top_faces

    for t in _enumerated(a):
        for move in _census_moves(t).values():
            bottom = cube_bottom_faces(move.base, move.dirs)
            top = cube_top_faces(move.base, move.dirs)
            removed, created = move.faces
            assert (removed, created) == ((bottom, top) if move.direction == "up"
                                          else (top, bottom)), move
            assert set(removed) <= t.rhombi
            assert set(created) <= apply_move(t, move).rhombi


def _census_moves(t):
    down, up = flippable_vertices(t)
    return {v: move_at(t, v) for v in down | up}


def _census_up_moves(t):
    return {v: move_at(t, v) for v in flippable_vertices(t)[1]}


@pytest.mark.pinned
@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_carried_moves_match_census(a):
    """After every flip, up or down, out of every tiling, the moves the census
    carries to the new tiling equal a full census of it; so do the up moves
    alone that the search carries after an up flip.  Comparing only the
    tilings found would miss a carried census that drops flips yet reaches
    them all."""
    spec = ZonogonSpec(a)
    census, up_census = FlipCensus(spec), FlipCensus(spec, up_only=True)

    def by_point(moves):
        return {census.points[i]: flip.move for i, flip in moves.items()}

    for _, t in _face_flip_tilings(a):
        mask = t.mask
        moves, ups = census.all(mask), up_census.all(mask)
        assert by_point(moves) == _census_moves(t), a
        assert by_point(ups) == _census_up_moves(t), a
        for flip in moves.values():
            t2 = apply_move(t, flip.move)
            mask2 = flip.apply(mask)
            assert mask2 == t2.mask
            carried = census.after(moves, flip, mask2)
            assert by_point(carried) == _census_moves(t2), (a, flip.move)
            if flip.move.direction == "up":
                carried = up_census.after(ups, ups[flip.pivot], mask2)
                assert by_point(carried) == _census_up_moves(t2), (a, flip.move)
    with pytest.raises(FlipError, match="not applicable"):
        flip.apply(mask2)


WALK_SPECS = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (3, 2, 2), (1, 1, 1, 1), (2, 1, 1, 1),
              (2, 2, 2, 2), (1, 1, 1, 1, 1)]


@pytest.mark.parametrize("a", WALK_SPECS, ids=_spec_id)
def test_random_walk_matches_the_census_walk(a):
    """The walk on bitmasks returns the tiling of the walk that takes a full
    census and builds a tiling at every step, and leaves its rng in the same
    state, with a census of its own or one shared by every walk."""
    from oracles import random_tiling_by_census

    spec = ZonogonSpec(a)
    census = FlipCensus(spec)
    for seed in range(25):
        rng, shared, oracle = (random.Random(seed) for _ in range(3))
        want = random_tiling_by_census(spec, oracle).vertices
        assert random_tiling(spec, rng).vertices == want, seed
        assert random_tiling(spec, shared, census).vertices == want, seed
        assert rng.random() == shared.random() == oracle.random()


@pytest.mark.parametrize("a", [(2, 2, 2), (2, 2, 1, 1), (1, 1, 1, 1, 1)], ids=_spec_id)
def test_normalize_to_min_matches_the_census_walk_on_every_tiling(a):
    """The walk on bitmasks makes the moves of the walk that takes a full
    census and builds a tiling at every step, at the lowest leaf and at the
    rng's choice, and leaves the rng in the same state."""
    from oracles import normalize_to_min_by_census

    for seed, t in enumerate(_enumerated(a)):
        assert normalize_to_min(t) == normalize_to_min_by_census(t), t
        rng, oracle = random.Random(seed), random.Random(seed)
        assert normalize_to_min(t, rng) == normalize_to_min_by_census(t, oracle), t
        assert rng.random() == oracle.random()


@pytest.mark.parametrize("a", [(3, 3, 3, 3), (2, 2, 2, 2, 2), (4, 4, 4)], ids=_spec_id)
def test_normalize_to_min_matches_the_census_walk_on_random_tilings(a):
    from oracles import normalize_to_min_by_census

    spec = ZonogonSpec(a)
    for seed in range(4):
        t = random_tiling(spec, random.Random(seed))
        assert normalize_to_min(t) == normalize_to_min_by_census(t), seed
        rng, oracle = random.Random(seed), random.Random(seed)
        assert normalize_to_min(t, rng) == normalize_to_min_by_census(t, oracle), seed
        assert rng.random() == oracle.random()


@pytest.mark.pinned
@pytest.mark.parametrize("a", [(2, 2, 2), (2, 2, 1, 1), (1, 1, 1, 1, 1), (3, 3, 3, 3),
                               (4, 4, 4)], ids=_spec_id)
def test_a_tiling_is_its_mask(a):
    """A tiling found by the flip search, which carries its ranks, by a
    random walk, or by a wiring diagram (t_min, through each vertex, with
    the bottom or top faces of each cube), the tiling of its rhombi and the
    tiling of its mask are one state: equal, hash equal, with the same
    vertices, rhombi and ranks."""
    spec = ZonogonSpec(a)
    if a in ORACLE_COUNTS:
        tilings = _enumerated(a)
    else:
        tilings = [random_tiling(spec, random.Random(seed)) for seed in range(4)]
    wired = [t_min(spec), *(tiling_through_vertex(spec, p) for p in spec.points),
             *(tiling_with_cube_faces(spec, base, dirs, side)
               for base, dirs, _ in spec.cubes for side in ("bottom", "top"))]
    for t in [*tilings, *wired]:
        for built in (Tiling(spec, t.canonical_rhombi()), Tiling.from_mask(spec, t.mask)):
            assert built == t and hash(built) == hash(t)
            assert built.vertices == t.vertices and built.rhombi == t.rhombi
            assert built.canonical_rhombi() == t.canonical_rhombi()
            assert built.ranks == t.ranks


@pytest.mark.parametrize("a", [(2, 2, 2), (2, 2, 1, 1), (1, 1, 1, 1, 1)], ids=_spec_id)
def test_apply_move_matches_the_vertex_set_flip(a):
    """Every census move is the oracle's move at its pivot, and `apply_move`
    swaps its removed vertex for its created one, as the oracle's flip does."""
    from oracles import apply_flip

    for t in _enumerated(a):
        for pivot, move in _flips(t).items():
            t2, oracle_move = apply_flip(t, pivot)
            assert oracle_move == move
            assert apply_move(t, move) == t2
            assert t2.vertices == t.vertices - {move.removed} | {move.created}


def test_apply_move_raises_off_the_box_and_when_made_twice():
    """A move whose cube leaves the box never applies, whatever the tiling,
    a move made twice does not apply the second time, and no move applies
    where its created point is already a vertex."""
    cube = FlipMove((0, 0, 0), (0, 1, 2), "up")
    every_corner = Tiling.from_mask(HEX, (1 << 8) - 1)  # not a tiling's vertex set
    assert not validate_tiling(every_corner).ok
    for move in (cube, cube.inverse()):
        with pytest.raises(FlipError, match="not applicable"):
            apply_move(every_corner, move)
    spec = ZonogonSpec((2, 1, 1))
    for t in enumerate_tilings(spec):
        for base in [(2, 0, 0), (-1, 0, 0), (0, 1, 0)]:
            for direction in ("up", "down"):
                with pytest.raises(FlipError, match="not applicable"):
                    apply_move(t, FlipMove(base, (0, 1, 2), direction))
        for move in _flips(t).values():
            with pytest.raises(FlipError, match="not applicable"):
                apply_move(apply_move(t, move), move)


def test_apply_move_raises_on_directions_not_increasing_in_range():
    """Directions that are not j < k < l in range, or not three of them,
    name no cube, whatever the base and the tiling: the move does not apply."""
    spec = ZonogonSpec((2, 2, 2))
    for t in enumerate_tilings(spec):
        for base in spec.points:
            for dirs in [(0, 1, 3), (-1, 0, 1), (0, 0, 1), (0, 1, 1), (2, 1, 0), (1, 0, 2),
                         (0, 1), (0, 1, 2, 3)]:
                for direction in ("up", "down"):
                    with pytest.raises(FlipError, match="not applicable"):
                        apply_move(t, FlipMove(base, dirs, direction))


@pytest.mark.pinned
def test_flip_move_refuses_a_direction_other_than_up_or_down():
    """A move is up or down.  Any other direction names no move, so making
    one is a `FlipError` that names it, and `apply_move` and `inverse` never
    meet one."""
    for direction in ("sideways", "Up", "downward"):
        with pytest.raises(FlipError) as info:
            FlipMove((0, 0, 0), (0, 1, 2), direction)
        assert info.value.direction == direction
        assert str(info.value) == (f"{direction} move on the cube at (0, 0, 0) with "
                                   "directions (1, 2, 3) is neither up nor down")


@pytest.mark.pinned
@pytest.mark.parametrize("up_only", [False, True], ids=["full", "up_only"])
@pytest.mark.parametrize("a", [(2, 2, 2), (2, 2, 1, 1), (1, 1, 1, 1, 1)], ids=_spec_id)
def test_apply_move_and_census_flips_agree_on_every_tiling(a, up_only):
    """The two move validators agree: every move of the census, on every
    tiling, either gives the same tiling by `apply_move` and by its `_Flip`,
    or is refused by both."""
    census = FlipCensus(ZonogonSpec(a), up_only=up_only)
    tilings = _enumerated(a)
    for t in tilings:
        census.all(t.mask)
    flips = list(census._memo.values())  # every move of the census
    applied = refused = 0
    for t in tilings:
        for flip in flips:
            try:
                mask = flip.apply(t.mask)
            except FlipError:
                with pytest.raises(FlipError, match="not applicable"):
                    apply_move(t, flip.move)
                refused += 1
            else:
                assert apply_move(t, flip.move).mask == mask
                applied += 1
    assert applied >= len(tilings) - 1 and refused > applied


@pytest.mark.pinned
@pytest.mark.parametrize("a", [(1, 1, 1), (2, 3, 1), (2, 2, 1, 1), (3, 1, 2, 1),
                               (1, 2, 1, 2, 1)], ids=_spec_id)
def test_cube_bits_are_the_bits_of_the_cube_corners(a):
    """Each direction triple's precomputed bits, shifted by a cube's base
    index, are the bits of its six hexagon corners and of its corners k and
    jl, for every unit cube of the box."""
    spec = ZonogonSpec(a)
    assert list(spec.cube_bits) == list(itertools.combinations(range(spec.n), 3))

    def bits(points):
        return sum(1 << spec.index[p] for p in points)

    cubes = 0
    for dirs, (hexagon, k, jl) in spec.cube_bits.items():
        for origin, base in enumerate(spec.points):
            if all(base[d] < spec.a[d] for d in dirs):
                corners = FlipMove(base, dirs, "up").corners
                assert hexagon << origin == bits(corners[:6])
                assert (k << origin, jl << origin) == (bits(corners[6:7]), bits(corners[7:]))
                cubes += 1
    assert cubes == len(spec.cubes)


@pytest.mark.pinned
def test_census_memory_is_not_a_mask_per_neighbour():
    """A census holds each lattice neighbour as an index, so building one
    for the 6561 points of (8,8,8,8), its spec's tables included, allocates
    under 12 MB; a `1 << index` int per neighbour took about 30 MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        FlipCensus(ZonogonSpec((8, 8, 8, 8)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000, peak


@pytest.mark.pinned
@pytest.mark.parametrize("a", [(2, 2, 2), (1, 1, 1, 1, 1)], ids=_spec_id)
def test_census_memoizes_only_moves(a):
    """After a census has found the moves of every tiling, its memo holds
    one entry per distinct move and no entry for a pivot without one."""
    spec = ZonogonSpec(a)
    census, up_census = FlipCensus(spec), FlipCensus(spec, up_only=True)
    moves, ups = set(), set()
    for t in enumerate_tilings(spec):
        moves.update(flip.move for flip in census.all(t.mask).values())
        ups.update(flip.move for flip in up_census.all(t.mask).values())
    for memo, want in [(census._memo, moves), (up_census._memo, ups)]:
        assert len(memo) == len(want)
        assert {flip.move for flip in memo.values()} == want
    assert {m.direction for m in ups} == {"up"}


@pytest.mark.parametrize("a", [(2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 3, 2)], ids=_spec_id)
def test_enumerated_ranks_count_plane_partitions(a):
    """An up flip adds one unit cube, so the tilings of rank r (phi above
    t_min by r) are the plane partitions of r in the box (MacMahon)."""
    from oracles import macmahon_rank_counts

    spec = ZonogonSpec(a)
    low = phi(t_min(spec))
    ranks = [0] * (a[0] * a[1] * a[2] + 1)
    for t in enumerate_tilings(spec):
        ranks[phi(t) - low] += 1
    assert ranks == macmahon_rank_counts(*a)


@pytest.mark.parametrize("a", [(2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 3, 2)], ids=_spec_id)
def test_wiring_rank_counts_are_plane_partition_counts(a):
    from oracles import macmahon_rank_counts, wiring_rank_counts

    assert wiring_rank_counts(a) == macmahon_rank_counts(*a)


def test_wiring_rank_counts_total_a006245():
    """Tilings of the all-ones zonogon with n directions (OEIS A006245)."""
    from oracles import wiring_rank_counts

    totals = {3: 2, 4: 8, 5: 62, 6: 908, 7: 24698}
    assert {n: sum(wiring_rank_counts((1,) * n)) for n in totals} == totals


@pytest.mark.parametrize("a", [(2, 2, 1, 1), (3, 2, 2, 1), (2, 1, 2, 1, 1), (1,) * 6],
                         ids=_spec_id)
def test_enumerated_ranks_count_wiring_diagram_classes(a):
    """For n >= 4, where MacMahon's product does not apply, the tilings of
    each rank are the commutation classes of wiring diagrams of that
    weight."""
    from oracles import wiring_rank_counts

    spec = ZonogonSpec(a)
    low = phi(t_min(spec))
    counts = wiring_rank_counts(a)
    ranks = [0] * len(counts)
    for t in enumerate_tilings(spec):
        ranks[phi(t) - low] += 1
    assert ranks == counts


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_enumerate_applies_one_move_per_tiling_found(a, monkeypatch):
    import zonorec.flips

    calls = []

    def counted(t, move):
        calls.append(move)
        return apply_move(t, move)

    monkeypatch.setattr(zonorec.flips, "apply_move", counted)
    assert len(enumerate_tilings(ZonogonSpec(a))) == ORACLE_COUNTS[a]
    assert len(calls) == ORACLE_COUNTS[a] - 1


@pytest.mark.parametrize("a", [(2, 2, 2), (1, 1, 1, 1, 1)], ids=_spec_id)
def test_enumerate_cap_boundary(a):
    spec, count = ZonogonSpec(a), ORACLE_COUNTS[a]
    assert len(enumerate_tilings(spec, cap=count)) == count
    with pytest.raises(CapExceeded):
        enumerate_tilings(spec, cap=count - 1)


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_the_flip_ranks_run_up_to_the_top_rank(a):
    """The ranks of the flip graph run from t_min, rank 0, to the spec's
    `top_rank`, sum a_j a_k a_l, and none is empty."""
    spec = ZonogonSpec(a)
    low = phi(t_min(spec))
    assert {phi(t) - low for t in _enumerated(a)} == set(range(spec.top_rank + 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_a_cap_below_the_ranks_raises_before_the_search(k, monkeypatch):
    """(k,1,1) has one tiling per rank 0..k, so the cap is exactly k + 1: a
    cap of k + 1 lists them all, and a cap of k raises before a census is
    built."""
    import zonorec.flips

    spec = ZonogonSpec((k, 1, 1))
    assert spec.top_rank == k
    assert len(enumerate_tilings(spec, cap=k + 1)) == k + 1

    def no_census(*args, **kwargs):
        raise AssertionError("census built")

    monkeypatch.setattr(zonorec.flips, "FlipCensus", no_census)
    with pytest.raises(CapExceeded, match=f"more than {k} tilings"):
        enumerate_tilings(spec, cap=k)


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_derived_rhombi_equal_laid_rhombi(a):
    spec = ZonogonSpec(a)
    laid = [t for t, _ in _face_flip_tilings(a)]
    laid += [tiling_through_vertex(spec, p) for p in spec.points]
    for t in laid:
        assert Tiling.from_mask(spec, t.mask).rhombi == t.rhombi


@pytest.mark.pinned
@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_edges_at_matches_rhombus_census(a):
    """The census tables, the vertex probe and the rhombi give each vertex
    the same edges; the fundamental forest reads its up edges from the
    census tables, which hold each neighbour's index into `points`."""
    from oracles import edges_by_census

    spec = ZonogonSpec(a)
    census = FlipCensus(spec)
    for t, lib in _face_flip_tilings(a):
        want = edges_by_census(t)
        mask = lib.mask
        tables = {v: tuple(tuple(d for d, q in steps if mask >> q & 1)
                           for steps in census.steps[census.index[v]])
                  for v in lib.vertices}
        assert tables == want
        assert {v: edges_at(lib, v) for v in lib.vertices} == want
        assert fundamental_forest(lib) == {
            (v, up[0]) for v, (up, _) in want.items()
            if len(up) == 1 and not spec.is_boundary_edge((v, up[0]))}


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_apply_move_matches_face_rule(a):
    from oracles import cube_moves, flip_by_faces

    moves = cube_moves(ZonogonSpec(a))  # both directions on every unit cube
    for t, lib in _face_flip_tilings(a):
        for move in moves:
            want = flip_by_faces(t, move)
            try:
                got = apply_move(lib, move).vertices
            except FlipError:
                got = None
            assert got == (None if want is None else want.vertices), (a, move)


@pytest.mark.parametrize("a", ORACLE_COUNTS, ids=_spec_id)
def test_cells_2_matches_rhombus_scan(a):
    from oracles import cells_2_by_rhombus_scan

    for t, lib in _face_flip_tilings(a):
        assert cells_2(lib) == cells_2_by_rhombus_scan(t)


@pytest.mark.parametrize("a", list(ORACLE_COUNTS)[:4], ids=_spec_id)
def test_validate_tiling_matches_overlap_oracle(a):
    """Every tiling is valid, and seeded random mutations of the rhombus sets
    of tilings (drop, add, replace or translate 1-3 rhombi, or move a base
    out of the box) get the same verdict from the decoder's sweep as from
    the geometric oracle."""
    from oracles import all_candidate_rhombi, is_tiling_by_overlap

    spec = ZonogonSpec(a)
    tilings = [t for t, _ in _face_flip_tilings(a)]
    for t in tilings:
        assert validate_tiling(t).ok and is_tiling_by_overlap(spec, t.rhombi)
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
        mutated = frozenset(rhombi)
        assert _check_rhombi(spec, mutated).ok == is_tiling_by_overlap(spec, mutated), (
            kind, rhombi)
