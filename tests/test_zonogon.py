import itertools

import pytest

from zonorec import (
    LiftError,
    Tiling,
    ZonogonSpec,
    lift_decomposition,
    project,
    t_min,
    t_min_vertices,
    tiling_through_vertex,
    tiling_with_cube_faces,
    validate_tiling,
)
from zonorec.flips import flippable_vertices
from zonorec.zonogon import cross, rhombus_corners

from oracles import cube_bottom_faces, cube_top_faces

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
    mapped = project(spec, t_min(spec))
    assert mapped[(0, 0, 0)] == (0, 0)
    assert len(mapped) == 7


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


def test_validate_empty():
    report = validate_tiling(Tiling(HEX, []))
    assert not report.ok
    assert any("rhombus count 0 != 3" in v for v in report.violations)


def test_validate_missing_rhombus_reports_edge():
    t = t_min(HEX)
    broken = Tiling(HEX, sorted(t.rhombi)[:-1])
    report = validate_tiling(broken)
    assert not report.ok
    assert any("edge" in v for v in report.violations)


@pytest.mark.parametrize(
    "a", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1), (2, 2, 2), (1, 1, 1, 1, 1)]
)
def test_tiling_through_vertex_contains_target(a):
    spec = ZonogonSpec(a)
    for p in spec.lattice_points():
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
        for base, dirs in spec.cubes():
            t = tiling_with_cube_faces(spec, base, dirs, side)
            assert set(faces_of(base, dirs)) <= t.rhombi, (a, base, dirs)
            assert validate_tiling(t).ok


def test_cube_faces_validates_cube():
    with pytest.raises(ValueError):
        tiling_with_cube_faces(HEX, (1, 0, 0), (0, 1, 2), "bottom")


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
        assert set(brute_force_tilings(spec)) == enumerate_tilings(spec)
