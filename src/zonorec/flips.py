"""Fundamental forest, flips, enumeration and flip paths."""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .zonogon import (
    Point,
    Tiling,
    ZonogonSpec,
    shift,
    shift2,
    t_min,
)


class FlipError(ValueError):
    """A flip that cannot be made.  When a move is at fault, `base`, `dirs`
    (1-based, as in a flip path document) and `direction` name it, and the
    message is built from them only when it is read."""

    def __init__(self, reason: str, move: FlipMove | None = None):
        super().__init__(reason)
        self.reason = reason
        self.base = self.dirs = self.direction = None
        if move is not None:
            self.base, self.direction = move.base, move.direction
            self.dirs = tuple(d + 1 for d in move.dirs)

    def __str__(self):
        if self.base is None:
            return self.reason
        return (f"{self.direction} move on the cube at {self.base} with directions "
                f"{self.dirs} {self.reason}")


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class FlipMove:
    """One flip on the unit 3-cube at `base` with directions j < k < l.

    An up move removes base+e_k and inserts base+e_j+e_l; down is the
    inverse.  Any other direction is a `FlipError`.
    """

    base: Point
    dirs: tuple[int, int, int]
    direction: str  # "up" | "down"

    def __post_init__(self):
        if self.direction != "up" and self.direction != "down":
            raise FlipError("is neither up nor down", self)

    def inverse(self) -> "FlipMove":
        return FlipMove(self.base, self.dirs, "down" if self.direction == "up" else "up")

    # the points are cached: the flip search applies each move many times

    @cached_property
    def removed(self) -> Point:
        return self.corners[6] if self.direction == "up" else self.corners[7]

    @cached_property
    def created(self) -> Point:
        return self.corners[7] if self.direction == "up" else self.corners[6]

    @cached_property
    def corners(self) -> tuple:
        """The cube's corners: the hexagon o, j, l, jk, kl, jkl, then k and jl."""
        base, (j, k, l) = self.base, self.dirs
        jk = shift2(base, j, k)
        return (base, shift(base, j), shift(base, l), jk, shift2(base, k, l),
                shift(jk, l), shift(base, k), shift2(base, j, l))

    @cached_property
    def faces(self) -> tuple:
        """(removed, created): the cube's three faces through the removed
        corner, which the move takes out of the tiling, and the three through
        the created corner, which it lays."""
        o, pj, pl, *_, pk, _ = self.corners
        j, k, l = self.dirs
        bottom = ((o, (j, k)), (o, (k, l)), (pk, (j, l)))
        top = ((o, (j, l)), (pj, (k, l)), (pl, (j, k)))
        return (bottom, top) if self.direction == "up" else (top, bottom)


def fundamental_forest(t: Tiling) -> frozenset:
    """The internal edges (I, I+e_j) that are the sole up-edge at I."""
    census, mask = FlipCensus(t.spec), t.mask
    edges = set()
    for v in t.vertices:
        up = [d for d, q in census.steps[census.index[v]][0] if mask >> q & 1]
        if len(up) == 1 and not t.spec.is_boundary_edge((v, up[0])):
            edges.add((v, up[0]))
    return frozenset(edges)


def _move_bits(bits: tuple, origin: int, direction: str) -> tuple:
    """(hexagon, removed, created): the bits of a move's hexagon corners and
    of the corners it removes and creates, from its cube's bits at index 0
    (`ZonogonSpec.cube_bits`), its base's index `origin` and its direction,
    up or down."""
    hexagon, k, jl = bits
    if direction == "up":
        return hexagon << origin, k << origin, jl << origin
    return hexagon << origin, jl << origin, k << origin


def apply_move(t: Tiling, move: FlipMove) -> Tiling:
    """Swap the move's removed vertex for its created one.  It applies when
    its cube lies in the box, with directions j < k < l, the hexagon corners
    o, j, l, jk, kl, jkl are vertices and `created` is not."""
    spec, base, dirs, direction = t.spec, move.base, move.dirs, move.direction
    origin, bits = spec.index.get(base), spec.cube_bits.get(dirs)
    if origin is None or bits is None:
        raise FlipError("not applicable", move)  # no such cube in the box
    (j, k, l), a = dirs, spec.a
    if base[j] == a[j] or base[k] == a[k] or base[l] == a[l]:
        raise FlipError("not applicable", move)
    hexagon, removed, created = _move_bits(bits, origin, direction)
    mask = t.mask
    if mask & (hexagon | removed | created) != hexagon | removed:
        raise FlipError("not applicable", move)
    return Tiling.from_mask(spec, mask ^ removed ^ created)


def _ranks_after(ranks: tuple, removed: tuple, created: tuple) -> tuple:
    """The sorted rhombus ranks after a move that takes out the faces ranked
    `removed` and lays those ranked `created`, from the sorted ranks before."""
    out = list(ranks)
    for r in removed:
        del out[bisect_left(out, r)]
    for r in created:
        insort(out, r)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class _Flip:
    """A move on vertex sets held as bitmasks: it applies to a mask that
    holds the bits of `need` (the hexagon corners and the removed point, its
    pivot) and not the created point's, and XORs `swap` (those two points'
    bits) into it.  `recheck` lists the internal points among the hexagon
    corners and the created point, the only points whose flips the move can
    change; an up-only census leaves out the created point, which has no up
    move."""

    move: FlipMove
    pivot: int
    need: int
    test: int
    swap: int
    recheck: tuple

    def apply(self, mask: int) -> int:
        """The tiling `mask` after the move; `FlipError` unless it applies."""
        if mask & self.test != self.need:
            raise FlipError("not applicable", self.move)
        return mask ^ self.swap


class FlipCensus:
    """The moves of a spec's tilings, up and down, or only the up moves with
    `up_only`; each tiling is its `Tiling.mask`.  A pivot's move depends only
    on which of its lattice neighbours are vertices: a census holds each
    point's neighbours as indices into `points`, and the mask of them all,
    decides whether a pivot moves by two popcounts and memoizes only the
    moves, built from the spec's `cube_offsets` and `cube_bits`.  It is the
    one move finder: random walks, enumeration, `normalize_to_min` and the
    fundamental forest read their moves or edges from it."""

    def __init__(self, spec: ZonogonSpec, up_only: bool = False):
        self.up_only = up_only
        self.points, self.index = spec.points, spec.index
        self.strides, self.cube_offsets = spec.strides, spec.cube_offsets
        self.cube_bits = spec.cube_bits
        self.internal = [p not in spec.boundary_vertices for p in self.points]
        # per point: the (direction, index) of its lattice neighbours above
        # and below it, and the mask of them all
        self.steps = [tuple(tuple([(d, self.index[q]) for d in range(spec.n)
                                   if (q := shift(p, d, step)) in self.index])
                            for step in (1, -1))
                      for p in self.points]
        self.around = [sum(1 << q for _, q in up + down) for up, down in self.steps]
        self._memo: dict = {}

    def at(self, mask: int, i: int) -> _Flip | None:
        """The move pivoting at internal vertex i of the tiling `mask`: None
        unless i has two edges up and one down, or, unless `up_only`, one up
        and two down.  Every neighbour above i has a larger index, so the
        edges up are the bits of the neighbours' mask above bit i."""
        near = mask & self.around[i]
        if near.bit_count() != 3:
            return None
        # two points share at most two lattice neighbours, so three
        # neighbours name their pivot
        flip = self._memo.get(near)
        if flip is None:
            up = (near >> i).bit_count()
            if not (up == 2 or up == 1 and not self.up_only):
                return None
            flip = self._memo[near] = self._build(i, near)
        return flip

    def _build(self, i: int, near: int) -> _Flip:
        """The move pivoting at i with the neighbours `near`, three of them
        with one or two above i."""
        up, down = ([d for d, q in steps if near >> q & 1] for steps in self.steps[i])
        if len(up) == 2:
            (j, l), (k,), direction = up, down, "up"
            origin = i - self.strides[k]
        else:
            (j, l), (k,), direction = down, up, "down"
            origin = i - self.strides[j] - self.strides[l]
        if not j < k < l:
            raise FlipError(f"edge directions {tuple(up)}+{tuple(down)} out of order "
                            f"at {self.points[i]}")
        hexagon, removed, created = _move_bits(self.cube_bits[j, k, l], origin, direction)
        corners = [origin + o for o in self.cube_offsets[j, k, l][:6]]
        # right after an up flip the created point has one edge up and two
        # down, so an up-only census need not look at it again
        if not self.up_only:
            corners.append(created.bit_length() - 1)
        recheck = tuple(q for q in corners if self.internal[q])
        need = hexagon | removed
        return _Flip(FlipMove(self.points[origin], (j, k, l), direction), i, need,
                     need | created, removed | created, recheck)

    def all(self, mask: int) -> dict:
        """Every move of the tiling `mask`, keyed by pivot."""
        found = ((i, self.at(mask, i)) for i in range(len(self.points))
                 if mask >> i & 1 and self.internal[i])
        return {i: flip for i, flip in found if flip is not None}

    def after(self, moves: dict, flip: _Flip, mask: int) -> dict:
        """The moves of the tiling `mask`, reached by `flip` from the tiling
        whose moves are `moves`: only `flip.recheck` is re-examined."""
        out = dict(moves)
        del out[flip.pivot]
        for i in flip.recheck:
            nxt = self.at(mask, i)
            if nxt is None:
                out.pop(i, None)
            else:
                out[i] = nxt
        return out


def enumerate_tilings(spec: ZonogonSpec, cap: int = 10**6) -> list:
    """All tilings, rank by rank up the flip graph from t_min, as a list in
    `canonical_rhombi` order.

    An up flip adds one unit cube (`phi` rises by 1), and every tiling but
    t_min has a down flip, so each tiling of rank r + 1 is an up flip of one
    of rank r: new tilings are looked up only among their own rank, keyed by
    vertex bitmask.  A chain of up flips from t_min reaches every rank up to
    the box's `top_rank`, so a box with more ranks than `cap` raises
    `CapExceeded` before the search starts.

    Each tiling of the current and the next rank carries its up moves,
    re-examining only the created point and the six hexagon corners after a
    flip, and its sorted rhombus ranks (`Tiling.ranks`), so neither is
    derived from the vertex set; the ranks of each census flip's faces are
    read once per enumeration.  `apply_move` builds each tiling found once,
    and the search keeps that tiling, with its ranks set, and sorts by them.
    None of them holds a vertex set, so memory follows the number of tilings
    and not their vertex sets."""
    if spec.top_rank + 1 > cap:
        raise CapExceeded(f"more than {cap} tilings")
    census = FlipCensus(spec, up_only=True)
    start = t_min(spec)
    found = [start]
    faces: dict = {}  # id of a census flip (the census keeps it) -> its face ranks
    layer = {start.mask: (start, census.all(start.mask))}
    while layer:
        nxt: dict = {}
        for mask, (t, moves) in layer.items():
            ranks = t.ranks
            for up in moves.values():
                mask2 = up.apply(mask)
                if mask2 in nxt:
                    continue
                sides = faces.get(id(up))
                if sides is None:
                    sides = faces[id(up)] = tuple(
                        tuple(map(spec.rank, side)) for side in up.move.faces)
                t2 = apply_move(t, up.move)
                t2.ranks = _ranks_after(ranks, *sides)
                nxt[mask2] = (t2, census.after(moves, up, mask2))
                if len(found) + len(nxt) > cap:
                    raise CapExceeded(f"more than {cap} tilings")
        layer = nxt
        found.extend(t for t, _ in layer.values())
    found.sort(key=attrgetter("ranks"))
    return found


def random_tiling(spec: ZonogonSpec, rng: random.Random,
                  census: FlipCensus | None = None) -> Tiling:
    """Random walk in the flip graph from t_min, of 3R to 4R flips for R
    rhombi, each drawn from the flippable vertices in sorted order.  The walk
    finds its moves on vertex bitmasks and carries them from step to step, so
    a caller that draws many tilings of one spec passes them one `census`."""
    if census is None:
        census = FlipCensus(spec)
    mask = t_min(spec).mask
    moves = census.all(mask)
    steps = 3 * spec.rhombus_count + rng.randrange(spec.rhombus_count + 1)
    for _ in range(steps):
        flip = moves[rng.choice(sorted(moves))]
        mask = flip.apply(mask)
        moves = census.after(moves, flip, mask)
    return Tiling.from_mask(spec, mask)


def normalize_to_min(t: Tiling, rng: random.Random | None = None) -> list:
    """The downward flips from t to t_min, at the lowest leaf by (height,
    point) each step, or at rng's choice of the leaves in sorted order.  The
    walk finds its moves on vertex bitmasks with a census of its own."""
    spec = t.spec
    census, mask = FlipCensus(spec), t.mask
    moves = census.all(mask)
    out = []
    while down := [i for i, flip in moves.items() if flip.move.direction == "down"]:
        if rng is None:
            i = min(down, key=lambda i: (spec.height(census.points[i]), i))
        else:
            i = rng.choice(sorted(down))
        flip = moves[i]
        mask = flip.apply(mask)
        moves = census.after(moves, flip, mask)
        out.append(flip.move)
    return out


def connect(t: Tiling, t2: Tiling, rng: random.Random | None = None) -> list:
    """The moves of a flip path from t to t2, routed through t_min."""
    if t.spec != t2.spec:
        raise FlipError("tilings have different specs")
    down = normalize_to_min(t, rng)
    up = normalize_to_min(t2, rng)
    return down + [m.inverse() for m in reversed(up)]
