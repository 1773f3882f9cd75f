"""Fundamental forest, flips, enumeration and flip paths."""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property

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
            j, k, l = move.dirs
            self.base, self.direction = move.base, move.direction
            self.dirs = (j + 1, k + 1, l + 1)

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

    An up move removes base+e_k and inserts base+e_j+e_l; down is the inverse.
    """

    base: Point
    dirs: tuple[int, int, int]
    direction: str  # "up" | "down"

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
    edges = set()
    for v in t.vertices:
        up, _ = t.edges_at(v)
        if len(up) == 1 and not t.spec.is_boundary_edge((v, up[0])):
            edges.add((v, up[0]))
    return frozenset(edges)


def flippable_vertices(t: Tiling):
    """(down-flippable, up-flippable) vertex sets, by the direct census.

    A vertex is down-flippable when it is internal with two edges down and
    one up; these are exactly the leaves of the fundamental forest.
    """
    down = set()
    up = set()
    for v in t.vertices:
        if not t.is_internal(v):
            continue
        u, d = t.edges_at(v)
        if len(u) == 1 and len(d) == 2:
            down.add(v)
        elif len(u) == 2 and len(d) == 1:
            up.add(v)
    return frozenset(down), frozenset(up)


def _pivot_move(at: Point, up, down) -> FlipMove | None:
    """The flip move pivoting at `at`, whose edges go up in the directions
    `up` and down in `down`: a down move for two down and one up, an up move
    for two up and one down, else None."""
    if len(down) == 2 and len(up) == 1:
        (j, l), (k,), direction = down, up, "down"
        base = shift2(at, j, l, -1)
    elif len(up) == 2 and len(down) == 1:
        (j, l), (k,), direction = up, down, "up"
        base = shift(at, k, -1)
    else:
        return None
    if not j < k < l:
        raise FlipError(f"edge directions {tuple(up)}+{tuple(down)} out of order at {at}")
    return FlipMove(base, (j, k, l), direction)


def move_at(t: Tiling, at: Point) -> FlipMove:
    """The flip move pivoting at the given trivalent internal vertex."""
    if at not in t.vertices or not t.is_internal(at):
        raise FlipError(f"{at} is not an internal vertex")
    up, down = t.edges_at(at)
    move = _pivot_move(at, up, down)
    if move is None:
        raise FlipError(f"not flippable at {at}: {len(up)} up / {len(down)} down edges")
    return move


def apply_move(t: Tiling, move: FlipMove) -> Tiling:
    """Swap the move's removed vertex for its created one.  It applies when the
    hexagon corners o, j, l, jk, kl, jkl are vertices and `created` is not."""
    vs = t.vertices
    removed, created = move.removed, move.created
    if created in vs or removed not in vs or not vs.issuperset(move.corners[:6]):
        raise FlipError("not applicable", move)
    return Tiling.from_vertices(t.spec, vs - {removed} | {created})


def apply_flip(t: Tiling, at: Point):
    """Flip at a trivalent internal vertex; returns (new tiling, move)."""
    move = move_at(t, at)
    return apply_move(t, move), move


def _rhombi_after(rhombi: tuple, move: FlipMove) -> tuple:
    """The sorted rhombi after the move, from the sorted rhombi before it."""
    out = list(rhombi)
    removed, created = move.faces
    for rh in removed:
        del out[bisect_left(out, rh)]
    for rh in created:
        insort(out, rh)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class _Flip:
    """A move on vertex sets held as bitmasks: it applies to a mask that
    holds the bits of `need` (the hexagon corners and the removed point, its
    pivot) and not the created point's, and XORs `swap` (those two points'
    bits) into it.  `recheck` lists the internal points among the created
    point and the hexagon corners, the only points whose flips the move can
    change."""

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
    `up_only`; each tiling is a bitmask over the sorted lattice points (bit i
    for point i).  A pivot's move depends only on which of its lattice
    neighbours are vertices, so it is built once per (pivot, neighbour bits),
    and one census serves every walk on the spec that a command makes."""

    def __init__(self, spec: ZonogonSpec, up_only: bool = False):
        self.up_only = up_only
        self.points = list(spec.lattice_points())  # product order: sorted
        self.index = {p: i for i, p in enumerate(self.points)}
        self.internal = [p not in spec.boundary_vertices for p in self.points]
        # per point: the (direction, bit) of its lattice neighbours above and
        # below it, and the mask of them all
        self.steps = [tuple([(d, self.bit(q)) for d in range(spec.n)
                             if (q := shift(p, d, step)) in self.index]
                            for step in (1, -1))
                      for p in self.points]
        self.around = [sum(b for _, b in up + down) for up, down in self.steps]
        self._memo: dict = {}

    def bit(self, p: Point) -> int:
        return 1 << self.index[p]

    def mask(self, vertices) -> int:
        return sum(map(self.bit, vertices))

    def at(self, mask: int, i: int) -> _Flip | None:
        """The move pivoting at internal vertex i of the tiling `mask`: None
        unless i has two edges up and one down, or, unless `up_only`, one up
        and two down."""
        key = (i, mask & self.around[i])
        try:
            return self._memo[key]
        except KeyError:
            flip = self._memo[key] = self._build(*key)
            return flip

    def _build(self, i: int, near: int) -> _Flip | None:
        p, bit = self.points[i], self.bit
        move = _pivot_move(p, *([d for d, b in steps if near & b] for steps in self.steps[i]))
        if move is None or self.up_only and move.direction == "down":
            return None
        need = bit(p) + sum(map(bit, move.corners[:6]))
        swap = bit(p) | bit(move.created)
        recheck = tuple(self.index[q] for q in move.corners[:6] + (move.created,)
                        if self.internal[self.index[q]])
        return _Flip(move, i, need, need | swap, swap, recheck)

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
    vertex bitmask.  Each tiling of the current and the next rank carries its
    up moves, re-examining only the created point and the six hexagon corners
    after a flip, and its sorted rhombi (`canonical_rhombi`), so neither is
    derived from the vertex set.  `apply_move` builds each tiling found once.
    A tiling found keeps only its sorted rhombi, so memory follows the number
    of tilings and not their vertex sets."""
    census = FlipCensus(spec, up_only=True)
    start = t_min(spec)
    mask = census.mask(start.vertices)
    found = [start.canonical_rhombi()]
    rank = {mask: (start, census.all(mask))}
    while rank:
        nxt: dict = {}
        for mask, (t, moves) in rank.items():
            for up in moves.values():
                mask2 = up.apply(mask)
                if mask2 in nxt:
                    continue
                t2 = Tiling.from_vertices(spec, apply_move(t, up.move).vertices,
                                          _rhombi_after(t.canonical_rhombi(), up.move))
                nxt[mask2] = (t2, census.after(moves, up, mask2))
                if len(found) + len(nxt) > cap:
                    raise CapExceeded(f"more than {cap} tilings")
        rank = nxt
        found.extend(t.canonical_rhombi() for t, _ in rank.values())
    found.sort()
    return [Tiling.from_sorted_rhombi(spec, rhombi) for rhombi in found]


def random_tiling(spec: ZonogonSpec, rng: random.Random,
                  census: FlipCensus | None = None) -> Tiling:
    """Random walk in the flip graph from t_min, of 3R to 4R flips for R
    rhombi, each drawn from the flippable vertices in sorted order.  The walk
    finds its moves on vertex bitmasks and carries them from step to step, so
    a caller that draws many tilings of one spec passes them one `census`."""
    if census is None:
        census = FlipCensus(spec)
    vertices = t_min(spec).vertices
    mask = census.mask(vertices)
    moves = census.all(mask)
    steps = 3 * spec.rhombus_count + rng.randrange(spec.rhombus_count + 1)
    for _ in range(steps):
        flip = moves[rng.choice(sorted(moves))]
        mask = flip.apply(mask)
        moves = census.after(moves, flip, mask)
        # built as `apply_move` builds it: a set's iteration order, which
        # callers' draws follow, depends on how the set was made
        vertices = vertices - {flip.move.removed} | {flip.move.created}
    return Tiling.from_vertices(spec, vertices)


def normalize_to_min(t: Tiling, rng: random.Random | None = None) -> list:
    """The downward flips from t to t_min, at the lowest leaf each step (or
    rng's choice)."""
    moves = []
    cur = t
    while leaves := flippable_vertices(cur)[0]:
        if rng is None:
            at = min(leaves, key=lambda v: (t.spec.height(v), v))
        else:
            at = rng.choice(sorted(leaves))
        cur, move = apply_flip(cur, at)
        moves.append(move)
    return moves


def connect(t: Tiling, t2: Tiling, rng: random.Random | None = None) -> list:
    """The moves of a flip path from t to t2, routed through t_min."""
    if t.spec != t2.spec:
        raise FlipError("tilings have different specs")
    down = normalize_to_min(t, rng)
    up = normalize_to_min(t2, rng)
    return down + [m.inverse() for m in reversed(up)]
