import itertools

import pytest

from zonorec import (
    Tiling,
    ZonogonSpec,
    t_min,
    tiling_through_vertex,
    tiling_with_cube_faces,
    validate_tiling,
)
from zonorec.flips import FlipMove
from zonorec.jsonio import InvalidTiling, tiling_from_json
from zonorec.zonogon import _check_rhombi, rhombus_corners

from oracles import (
    cross,
    cube_bottom_faces,
    cube_list,
    cube_top_faces,
    flippable_vertices,
    t_min_vertices,
)
from paper_lemmas import LiftError, lift_decomposition

HEX = ZonogonSpec((1, 1, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        ZonogonSpec((1, 1))
    with pytest.raises(ValueError):
        ZonogonSpec((1, 0, 1))
    spec = ZonogonSpec((2, 1, 3))
    assert spec.rhombus_count == 2 * 1 + 2 * 3 + 1 * 3
    assert spec.vertex_count == spec.rhombus_count + 6 + 1


def test_default_directions_are_angle_sorted():
    for n in range(3, 9):
        spec = ZonogonSpec((1,) * n)
        for u, v in itertools.combinations(spec.vectors, 2):
            assert cross(u, v) > 0
        assert all(v[1] > 0 for v in spec.vectors)


def test_project_examples():
    spec = HEX
    assert spec.project((0, 0, 0)) == (0, 0)
    assert spec.project((1, 0, 0)) == spec.vectors[0]
    v1, v2 = spec.vectors[0], spec.vectors[1]
    assert spec.project((1, 1, 0)) == (v1[0] + v2[0], v1[1] + v2[1])


def test_t_min_hexagon():
    t = t_min(HEX)
    report = validate_tiling(t)
    assert report.ok
    assert len(t.rhombi) == 3
    assert t.vertices == frozenset(
        {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)}
    )


def test_t_min_octagon_vertex_count():
    t = t_min(ZonogonSpec((1, 1, 1, 1)))
    assert len(t.vertices) == 11
    assert validate_tiling(t).ok


def test_t_min_vertices_formula():
    spec = ZonogonSpec((2, 1, 1))
    verts = t_min_vertices(spec)
    assert len(verts) == 2 * 1 + 2 * 1 + 1 * 1 + 4 + 1 == 10
    assert (0, 0, 0) in verts
    assert verts == t_min(spec).vertices


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_t_min_matches_closed_form(n):
    for a in itertools.product((1, 2, 3) if n < 6 else (1, 2), repeat=n):
        spec = ZonogonSpec(a)
        t = t_min(spec)
        assert t.vertices == t_min_vertices(spec), a
        assert not flippable_vertices(t)[0], a


def _decode(spec, rhombi):
    return tiling_from_json({"A": list(spec.a), "rhombi": [
        {"base": list(base), "dirs": [j + 1, k + 1]} for base, (j, k) in rhombi]})


def test_validate_empty():
    with pytest.raises(InvalidTiling, match="^not a tiling: rhombus count 0 != 3$"):
        _decode(HEX, [])
    assert not validate_tiling(Tiling(HEX, [])).ok


def test_validate_missing_rhombus_reports_edge():
    rhombi = t_min(HEX).canonical_rhombi()[:-1]
    with pytest.raises(InvalidTiling, match="^not a tiling: rhombus count 2 != 3$"):
        _decode(HEX, rhombi)
    report = _check_rhombi(HEX, frozenset(rhombi))
    assert len(report.violations) == 2
    assert report.violations[1].startswith("sweep stops at edges")


def test_a_vertex_outside_the_box_is_named():
    """`Tiling(spec, rhombi)` is the tiling of the rhombi's corners, so a
    corner outside the box is a `ValueError` naming the least such vertex
    and the box when it is made; the decoder names the rhombus."""
    rhombi = t_min(HEX).canonical_rhombi() + (((1, 1, 1), (0, 1)),)
    message = r"vertex \(1, 2, 1\) outside the box of ZonogonSpec\(\[1, 1, 1\]\)"
    with pytest.raises(ValueError, match=message):
        Tiling(HEX, rhombi)
    with pytest.raises(InvalidTiling, match=r"rhombus outside box: \(\(1, 1, 1\), \(0, 1\)\)"):
        _decode(HEX, rhombi)


@pytest.mark.parametrize(
    "a", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1), (2, 2, 2), (1, 1, 1, 1, 1)]
)
def test_tiling_through_vertex_contains_target(a):
    spec = ZonogonSpec(a)
    for p in spec.points:
        t = tiling_through_vertex(spec, p)
        assert p in t.vertices
        assert validate_tiling(t).ok


def test_tiling_through_vertex_origin():
    t = tiling_through_vertex(HEX, (0, 0, 0))
    assert (0, 0, 0) in t.vertices


def test_cube_faces_bottom_is_hexagon_min():
    # the three faces around base+e_k of the unit cube are exactly t_min here
    t = tiling_with_cube_faces(HEX, (0, 0, 0), (0, 1, 2), "bottom")
    assert t == t_min(HEX)
    faces = {((0, 0, 0), (0, 1)), ((0, 0, 0), (1, 2)), ((0, 1, 0), (0, 2))}
    assert faces <= t.rhombi


def test_cube_faces_top_is_other_hexagon():
    t = tiling_with_cube_faces(HEX, (0, 0, 0), (0, 1, 2), "top")
    assert t != t_min(HEX)
    assert validate_tiling(t).ok
    assert {((0, 0, 0), (0, 2)), ((1, 0, 0), (1, 2)), ((0, 0, 1), (0, 1))} <= t.rhombi


@pytest.mark.parametrize("side", ["bottom", "top"])
def test_cube_faces_contains_requested(side):
    faces_of = cube_bottom_faces if side == "bottom" else cube_top_faces
    for a in [(2, 2, 2), (2, 1, 3, 1)]:
        spec = ZonogonSpec(a)
        for base, dirs, _ in spec.cubes:
            t = tiling_with_cube_faces(spec, base, dirs, side)
            assert set(faces_of(base, dirs)) <= t.rhombi, (a, base, dirs)
            assert validate_tiling(t).ok


@pytest.mark.parametrize("a", [(2, 2, 1), (3, 2, 2), (2, 2, 1, 1), (1, 1, 1, 1, 1),
                               (2, 2, 2, 2, 2)])
def test_cube_table_lists_every_cube_with_its_shared_corners(a):
    """The table lists the cubes in the order of the base ranges, each with
    the corners of its up move, and a lattice point is one object in it.  The
    spec's `points` are the box's lattice points in sorted order, and `index`
    gives each one's position."""
    spec = ZonogonSpec(a)
    assert [(base, dirs) for base, dirs, _ in spec.cubes] == cube_list(spec)
    points = {}
    for base, dirs, corners in spec.cubes:
        assert corners == FlipMove(base, dirs, "up").corners
        assert corners[0] is base
        for p in corners:
            assert points.setdefault(p, p) is p
    assert list(spec.points) == sorted(points)
    assert spec.index == {p: i for i, p in enumerate(spec.points)}
    assert spec.cubes is spec.cubes


@pytest.mark.pinned
@pytest.mark.parametrize("a", [(3, 3, 3), (2, 2, 1, 1), (1,) * 11],
                         ids=lambda a: ",".join(map(str, a)))
def test_rhombus_ranks_order_and_decode(a):
    """Every rhombus of the box, in sorted order, has a strictly larger rank
    than the one before it, below the points times the pairs, and its rank
    decodes back to it.  (1,)*11 has two-digit directions and 55 pairs."""
    spec = ZonogonSpec(a)
    every = sorted((p, (j, k)) for p in spec.points for j, k in spec.pairs
                   if p[j] < a[j] and p[k] < a[k])
    ranks = [spec.rank(rh) for rh in every]
    assert ranks == sorted(set(ranks))
    assert 0 <= ranks[0] and ranks[-1] < len(spec.points) * len(spec.pairs)
    assert [spec.rhombus(r) for r in ranks] == every


@pytest.mark.parametrize("a", [(1, 1, 1), (3, 1, 2), (2, 2, 1, 1), (1, 3, 1, 2),
                               (2, 1, 1, 1, 2), (1,) * 6], ids=lambda a: ",".join(map(str, a)))
def test_stride_decode_is_the_point_table(a):
    """`point(i)` and `position(p)`, computed by strides, are `points[i]` and
    `index[p]` for every point of the box, and `size` counts the points."""
    spec, tables = ZonogonSpec(a), ZonogonSpec(a)
    for i, p in enumerate(tables.points):
        assert spec.point(i) == p and spec.position(p) == tables.index[p] == i
    assert spec.size == len(tables.points)
    assert "points" not in vars(spec) and "index" not in vars(spec)


def test_cube_faces_validates_cube():
    with pytest.raises(ValueError):
        tiling_with_cube_faces(HEX, (1, 0, 0), (0, 1, 2), "bottom")
    for dirs in [(0, 1, 3), (-1, 1, 2)]:
        with pytest.raises(ValueError, match=r"directions must be in 0\.\.2"):
            tiling_with_cube_faces(HEX, (0, 0, 0), dirs, "bottom")
    with pytest.raises(ValueError, match="directions must satisfy j < k < l"):
        tiling_with_cube_faces(HEX, (0, 0, 0), (2, 1, 0), "bottom")


def _planar(t):
    return [
        [t.spec.project(c) for c in rhombus_corners(rh)]
        for rh in t.canonical_rhombi()
    ]


def test_lift_round_trip():
    for a in [(1, 1, 1), (2, 2, 1)]:
        spec = ZonogonSpec(a)
        t = tiling_through_vertex(spec, tuple(m // 2 for m in spec.a))
        assert lift_decomposition(spec, _planar(t)) == t


def test_lift_translated_input_rejected():
    t = t_min(HEX)
    planar = [[(x + 1, y) for x, y in poly] for poly in _planar(t)]
    with pytest.raises(LiftError, match="not covering P"):
        lift_decomposition(HEX, planar)


def test_lift_unmatched_direction():
    planar = [[(x * 2, y) for x, y in poly] for poly in _planar(t_min(HEX))]
    with pytest.raises(LiftError, match="unmatched edge direction"):
        lift_decomposition(HEX, planar)


def test_lift_overlapping_rhombi():
    # replace one rhombus by an overlapping translate of another
    t = t_min(HEX)
    planar = _planar(t)
    v1 = HEX.vectors[0]
    bad = planar[:-1] + [[(x + v1[0], y + v1[1]) for x, y in planar[0]]]
    with pytest.raises(LiftError):
        lift_decomposition(HEX, bad)


def test_enumerate_counts_against_brute_force():
    from oracles import brute_force_tilings
    from zonorec import enumerate_tilings

    for a in [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1)]:
        spec = ZonogonSpec(a)
        tilings = enumerate_tilings(spec)
        assert set(brute_force_tilings(spec)) == set(tilings)
        rhombi = [t.canonical_rhombi() for t in tilings]
        assert rhombi == sorted(set(rhombi))  # sorted, no repeats
