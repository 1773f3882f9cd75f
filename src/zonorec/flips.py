"""Fundamental forest, flips, flip paths, and the 2-cells of the flip complex."""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

from .zonogon import (
    Edge,
    Point,
    Rhombus,
    Tiling,
    ZonogonSpec,
    shift,
    shift2,
    t_min,
)


class FlipError(ValueError):
    pass


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


@dataclass
class FlipPath:
    start: Tiling
    moves: list

    def __len__(self):
        return len(self.moves)

    def replay(self):
        """All tilings along the path, starting with `start`."""
        out = [self.start]
        for m in self.moves:
            out.append(apply_move(out[-1], m))
        return out

    @property
    def end(self) -> Tiling:
        t = self.start
        for m in self.moves:
            t = apply_move(t, m)
        return t


class FundamentalForest:
    """The internal edges (I, I+e_j) that are the sole up-edge at I."""

    def __init__(self, tiling: Tiling):
        spec = tiling.spec
        edges = set()
        for v in tiling.vertices:
            up, _ = tiling.edges_at(v)
            if len(up) == 1 and not spec.is_boundary_edge((v, up[0])):
                edges.add((v, up[0]))
        self.tiling = tiling
        self.edges = frozenset(edges)
        self.parent = {base: shift(base, d) for base, d in edges}
        self.parent_dir = {base: d for base, d in edges}
        children: dict = {}
        for base, d in edges:
            children.setdefault(shift(base, d), []).append(base)
        self.children = children
        verts = set(self.parent) | set(children)
        self.vertices = frozenset(verts)
        self.leaves = frozenset(v for v in self.parent if v not in children)
        self.roots = frozenset(v for v in children if v not in self.parent)

    def link(self, v: Point) -> frozenset:
        """Forest edges pointing down from v (empty off the forest)."""
        return frozenset((c, self.parent_dir[c]) for c in self.children.get(v, ()))

    def path_from(self, leaf: Point) -> list:
        out = [leaf]
        while out[-1] in self.parent:
            out.append(self.parent[out[-1]])
        return out


def fundamental_forest(t: Tiling) -> FundamentalForest:
    return FundamentalForest(t)


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


def _flip_at(t: Tiling, at: Point) -> FlipMove | None:
    """The flip move pivoting at `at`, or None unless `at` is a trivalent
    internal vertex."""
    if at not in t.vertices or not t.is_internal(at):
        return None
    u, d = t.edges_at(at)
    if len(u) + len(d) != 3:
        return None
    if len(d) == 2:
        (j, l), k, direction = d, u[0], "down"
    else:
        (j, l), k, direction = u, d[0], "up"
    if not j < k < l:
        raise FlipError(f"edge directions {u}+{d} out of order at {at}")
    base = shift2(at, j, l, -1) if direction == "down" else shift(at, k, -1)
    return FlipMove(base, (j, k, l), direction)


def move_at(t: Tiling, at: Point) -> FlipMove:
    """The flip move pivoting at the given trivalent internal vertex."""
    move = _flip_at(t, at)
    if move is None:
        if at not in t.vertices or not t.is_internal(at):
            raise FlipError(f"{at} is not an internal vertex")
        u, d = t.edges_at(at)
        raise FlipError(f"not flippable at {at}: {len(u)} up / {len(d)} down edges")
    return move


def apply_move(t: Tiling, move: FlipMove) -> Tiling:
    """Swap the move's removed vertex for its created one.  It applies when the
    hexagon corners o, j, l, jk, kl, jkl are vertices and `created` is not."""
    vs = t.vertices
    removed, created = move.removed, move.created
    if created in vs or removed not in vs or not vs.issuperset(move.corners[:6]):
        raise FlipError(f"move {move} not applicable")
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
class _UpFlip:
    """An up move on vertex sets held as bitmasks: it applies to a mask that
    holds the bits of `need` (the hexagon corners and the removed point) and
    not the created point's, and XORs `swap` (those two points' bits) into
    it.  `recheck` lists the internal points among the created point and the
    hexagon corners, the only points whose flips the move can change."""

    move: FlipMove
    pivot: int
    need: int
    test: int
    swap: int
    recheck: tuple


class _UpFlips:
    """The up moves of a spec's tilings, each tiling a bitmask over the
    sorted lattice points (bit i for point i).  A pivot's move depends only
    on which of its lattice neighbours are vertices, so it is built once per
    (pivot, neighbour bits)."""

    def __init__(self, spec: ZonogonSpec):
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

    def at(self, mask: int, i: int) -> _UpFlip | None:
        """The up move pivoting at internal vertex i of the tiling `mask`, or
        None unless i has two edges up and one down."""
        key = (i, mask & self.around[i])
        try:
            return self._memo[key]
        except KeyError:
            up = self._memo[key] = self._build(*key)
            return up

    def _build(self, i: int, near: int) -> _UpFlip | None:
        up, down = ([d for d, b in steps if near & b] for steps in self.steps[i])
        if len(up) != 2 or len(down) != 1:
            return None
        (j, l), (k,) = up, down
        if not j < k < l:
            raise FlipError(f"edge directions {tuple(up)}+{tuple(down)} out of order at "
                            f"{self.points[i]}")
        p, bit = self.points[i], self.bit
        move = FlipMove(shift(p, k, -1), (j, k, l), "up")
        need = bit(p) + sum(map(bit, move.corners[:6]))
        swap = bit(p) | bit(move.created)
        recheck = tuple(self.index[q] for q in move.corners[:6] + (move.created,)
                        if self.internal[self.index[q]])
        return _UpFlip(move, i, need, need | swap, swap, recheck)

    def all(self, mask: int) -> dict:
        """Every up move of the tiling `mask`, keyed by pivot."""
        found = ((i, self.at(mask, i)) for i in range(len(self.points))
                 if mask >> i & 1 and self.internal[i])
        return {i: up for i, up in found if up is not None}

    def after(self, moves: dict, up: _UpFlip, mask: int) -> dict:
        """The up moves of the tiling `mask`, reached by `up` from the tiling
        whose up moves are `moves`: only `up.recheck` is re-examined."""
        out = dict(moves)
        del out[up.pivot]
        for i in up.recheck:
            nxt = self.at(mask, i)
            if nxt is None:
                out.pop(i, None)
            else:
                out[i] = nxt
        return out


def enumerate_tilings(spec: ZonogonSpec, cap: int = 10**6) -> set:
    """All tilings, rank by rank up the flip graph from t_min.

    An up flip adds one unit cube (`phi` rises by 1), and every tiling but
    t_min has a down flip, so each tiling of rank r + 1 is an up flip of one
    of rank r: new tilings are looked up only among their own rank, keyed by
    vertex bitmask.  Each tiling carries its up moves, re-examining only the
    created point and the six hexagon corners after a flip, and each tiling
    found its sorted rhombi (`canonical_rhombi`), so neither is derived from
    the vertex set.  `apply_move` builds each tiling found once."""
    up_flips = _UpFlips(spec)
    start = t_min(spec)
    mask = up_flips.mask(start.vertices)
    found = {start}
    rank = {mask: (start, up_flips.all(mask))}
    while rank:
        nxt: dict = {}
        for mask, (t, moves) in rank.items():
            for up in moves.values():
                if mask & up.test != up.need:
                    raise FlipError(f"move {up.move} not applicable")
                mask2 = mask ^ up.swap
                if mask2 in nxt:
                    continue
                t2 = Tiling.from_vertices(spec, apply_move(t, up.move).vertices,
                                          _rhombi_after(t.canonical_rhombi(), up.move))
                nxt[mask2] = (t2, up_flips.after(moves, up, mask2))
                if len(found) + len(nxt) > cap:
                    raise CapExceeded(f"more than {cap} tilings")
        rank = nxt
        found.update(t for t, _ in rank.values())
    return found


def random_tiling(spec: ZonogonSpec, rng: random.Random, steps=None) -> Tiling:
    """Random walk in the flip graph from t_min."""
    t = t_min(spec)
    if steps is None:
        steps = 3 * spec.rhombus_count + rng.randrange(spec.rhombus_count + 1)
    for _ in range(steps):
        down, up = flippable_vertices(t)
        options = sorted(down | up)
        t, _ = apply_flip(t, rng.choice(options))
    return t


def _descend(t: Tiling, keep: Point | None = None, rng: random.Random | None = None):
    """Downward flips at leaves other than `keep` until none is left, at the
    lowest leaf each step (or rng's choice); returns (last tiling, moves)."""
    moves = []
    cur = t
    while True:
        leaves = flippable_vertices(cur)[0] - {keep}
        if not leaves:
            return cur, moves
        if rng is None:
            at = min(leaves, key=lambda v: (t.spec.height(v), v))
        else:
            at = rng.choice(sorted(leaves))
        cur, move = apply_flip(cur, at)
        moves.append(move)


def normalize_to_min(t: Tiling, rng: random.Random | None = None) -> FlipPath:
    """Downward flips to t_min, at the lowest leaf each step (or rng's choice)."""
    return FlipPath(t, _descend(t, rng=rng)[1])


def connect(t: Tiling, t2: Tiling, rng: random.Random | None = None) -> FlipPath:
    """A flip path from t to t2, routed through t_min."""
    if t.spec != t2.spec:
        raise FlipError("tilings have different specs")
    down = normalize_to_min(t, rng)
    up = normalize_to_min(t2, rng)
    moves = list(down.moves) + [m.inverse() for m in reversed(up.moves)]
    return FlipPath(t, moves)


# ---------------------------------------------------------------------------
# rhombus chains (de Bruijn ribbons) and paths avoiding a marked vertex


def _is_left_of_edge(rh: Rhombus, e: Edge) -> bool:
    base, (p, q) = rh
    ebase, d = e
    z = q if p == d else p
    if base == ebase:
        return d < z
    return z < d


def _other_parallel_edge(rh: Rhombus, e: Edge) -> Edge:
    base, (p, q) = rh
    ebase, d = e
    z = q if p == d else p
    first = (base, d)
    second = (shift(base, z), d)
    return second if e == first else first


def chain_indexed(t: Tiling, e: Edge) -> dict:
    """Chain of rhombi sharing translates of e's direction, as index -> rhombus.

    Index 0 is the rhombus on the left of the upward-directed edge, 1 the one
    on its right; indices decrease leftward and increase rightward out to the
    boundary.
    """
    if e not in t.edge_rhombi:
        raise FlipError(f"{e} is not an edge of the tiling")
    d = e[1]
    out = {}
    for rh in t.edge_rhombi[e]:
        i = 0 if _is_left_of_edge(rh, e) else 1
        step = -1 if i == 0 else 1
        out[i] = rh
        cur, cur_e = rh, e
        while True:
            nxt_e = _other_parallel_edge(cur, cur_e)
            nbrs = [r for r in t.edge_rhombi.get(nxt_e, ()) if r != cur]
            if not nbrs:
                break
            cur, cur_e = nbrs[0], nxt_e
            i += step
            out[i] = cur
    return out


def rhombus_chain(t: Tiling, e: Edge) -> list:
    """The maximal chain of rhombi through edge e, in boundary-to-boundary order."""
    indexed = chain_indexed(t, e)
    return [indexed[i] for i in sorted(indexed)]


def _shared_parallel_edge(r1: Rhombus, r2: Rhombus, d: int) -> Edge:
    e1 = {(r1[0], d), (shift(r1[0], [z for z in r1[1] if z != d][0]), d)}
    e2 = {(r2[0], d), (shift(r2[0], [z for z in r2[1] if z != d][0]), d)}
    common = e1 & e2
    if len(common) != 1:
        raise FlipError("rhombi are not chain neighbors")
    return next(iter(common))


def _edge_corners(e: Edge):
    base, d = e
    return (base, shift(base, d))


def _transposition_flips(t: Tiling, path: list, pos: int):
    """Flips exchanging letters pos-1, pos of the forest path's direction word.

    `path` lists the forest-path vertices from the marked leaf to the root;
    pos is 1-based: the edges (path[pos-1], path[pos]) and (path[pos], path[pos+1])
    get swapped.  Implements the chain-intersection construction: take the two
    rhombus chains through those edges, locate their common rhombus, and flip
    along the boundary of the first chain between it and the stalling vertex.
    """
    prev_v, mid_v, next_v = path[pos - 1], path[pos], path[pos + 1]
    u = [d for d in range(t.spec.n) if mid_v[d] == prev_v[d] + 1][0]
    w = [d for d in range(t.spec.n) if next_v[d] == mid_v[d] + 1][0]
    alpha = (mid_v, w)
    beta = (prev_v, u)
    chain_r = chain_indexed(t, alpha)
    chain_s = chain_indexed(t, beta)
    inv_r = {rh: i for i, rh in chain_r.items()}
    inv_s = {rh: i for i, rh in chain_s.items()}
    common = set(inv_r) & set(inv_s)
    if len(common) != 1:
        raise FlipError(f"chains cross in {len(common)} rhombi")
    vee = next(iter(common))
    a, b = inv_r[vee], inv_s[vee]
    if a >= 1:  # mirror case: reindex both chains so the crossing is on the left
        chain_r = {1 - i: rh for i, rh in chain_r.items()}
        chain_s = {1 - i: rh for i, rh in chain_s.items()}
        a, b = 1 - a, 1 - b
    if a != b or a > 0:
        raise FlipError(f"unexpected chain indices a={a}, b={b}")

    # walk the boundary edges of the first chain from the crossing upward
    alpha_i = _shared_parallel_edge(vee, chain_s[b + 1], u)
    xs = {}
    i = a
    c = None
    while True:
        nxt = chain_r.get(i + 1)
        if nxt is None:
            c = i if i >= 1 else c
            break
        shared = _shared_parallel_edge(chain_r[i], nxt, w)
        hit = [p for p in _edge_corners(alpha_i) if p in _edge_corners(shared)]
        if len(hit) != 1:
            raise FlipError("chain boundary walk lost adjacency")
        xs[i] = hit[0]
        z = [d for d in nxt[1] if d != w][0]
        nb = nxt[0]
        if xs[i] == nb:
            alpha_next, points_down = (nb, z), False
        elif xs[i] == shift(nb, z):
            alpha_next, points_down = (nb, z), True
        elif xs[i] == shift(nb, w):
            alpha_next, points_down = (shift(nb, w), z), False
        elif xs[i] == shift2(nb, w, z):
            alpha_next, points_down = (shift(nb, w), z), True
        else:
            raise FlipError("boundary edge not incident to walk vertex")
        if i + 1 >= 1 and not points_down:
            c = i
            break
        alpha_i = alpha_next
        i += 1

    if c is None or c < 1:
        raise FlipError("no descending boundary edge after the pivot")
    if xs.get(0) != mid_v:
        raise FlipError("boundary walk did not pass through the path vertex")

    moves = []
    cur = t
    for i in range(a, c):
        cur, mv = apply_flip(cur, xs[i])
        moves.append(mv)
    return cur, moves


def _forest_path(t: Tiling, leaf: Point):
    forest = fundamental_forest(t)
    if not forest.edges:
        return [leaf], []
    if forest.leaves != frozenset({leaf}):
        raise FlipError(f"forest is not a single path with leaf {leaf}")
    path = forest.path_from(leaf)
    word = [forest.parent_dir[v] for v in path[:-1]]
    return path, word


def connect_through(t: Tiling, t2: Tiling, marked: Point) -> FlipPath:
    """A flip path from t to t2 whose intermediate tilings all contain `marked`.

    Both tilings are first descended (never flipping at the marked vertex)
    until their forests are single paths rooted at the common top vertex; the
    residual direction words are then sorted into each other by adjacent
    transpositions, each realized by the chain-intersection flips.
    """
    if t.spec != t2.spec:
        raise FlipError("tilings have different specs")
    if marked not in t.vertices or marked not in t2.vertices:
        raise FlipError(f"{marked} must be a vertex of both tilings")
    if t == t2:
        return FlipPath(t, [])

    cur, moves = _descend(t, keep=marked)
    cur2, moves2 = _descend(t2, keep=marked)
    path, word = _forest_path(cur, marked)
    path2, word2 = _forest_path(cur2, marked)
    if sorted(word) != sorted(word2):
        raise FlipError("descended words are not permutations of each other")

    while word != word2:
        idx = next(i for i in range(len(word)) if word[i] != word2[i])
        src = next(i for i in range(idx, len(word)) if word[i] == word2[idx])
        for k in range(src, idx, -1):
            cur, extra = _transposition_flips(cur, path, k)
            moves.extend(extra)
            word[k - 1], word[k] = word[k], word[k - 1]
            path = [path[0]]
            for d in word:
                path.append(shift(path[-1], d))
            actual_path, actual_word = _forest_path(cur, marked)
            if actual_path != path or actual_word != word:
                raise FlipError("transposition produced an unexpected forest path")
    if cur != cur2:
        raise FlipError("transposition phase did not reach the target tiling")

    moves.extend(m.inverse() for m in reversed(moves2))
    return FlipPath(t, moves)


# ---------------------------------------------------------------------------
# 2-cells: commuting square pairs and octagon cycles


@dataclass(frozen=True)
class Cell:
    kind: str  # "square" | "octagon"
    moves: tuple
    base: Point | None = None
    dirs: tuple | None = None


def _lift(base: Point, dirs, off) -> Point:
    """The point at offsets `off` along `dirs` from base."""
    p = list(base)
    for w, o in zip(dirs, off):
        p[w] += o
    return tuple(p)


@lru_cache(maxsize=None)
def _octagon_atlas() -> dict:
    """Vertex set of each tiling of the unit 4-cube zonogon -> the eight moves
    walking its flip cycle, the first towards the neighbour with the least
    sorted rhombi."""
    atlas = {}
    for t in enumerate_tilings(ZonogonSpec((1, 1, 1, 1))):
        prev, cur, moves = None, t, []
        for _ in range(8):
            down, up = flippable_vertices(cur)
            options = [apply_flip(cur, v) for v in down | up]
            nxt, mv = min((o for o in options if o[0] != prev),
                          key=lambda o: o[0].canonical_rhombi())
            moves.append(mv)
            prev, cur = cur, nxt
        if cur != t:
            raise FlipError("octagon walk did not close up")
        atlas[t.vertices] = tuple(moves)
    return atlas


def cells_2(t: Tiling) -> list:
    """All square and octagon 2-cells of the flip complex incident to t."""
    spec = t.spec
    cells = []

    down, up = flippable_vertices(t)
    moves = [move_at(t, v) for v in sorted(down | up)]
    for i, m1 in enumerate(moves):
        t1 = apply_move(t, m1)
        for m2 in moves[i + 1:]:
            try:  # m2 survives m1 exactly when the two flips share no face
                apply_move(t1, m2)
            except FlipError:
                continue
            cells.append(Cell("square", (m1, m2)))

    atlas = _octagon_atlas()
    for dirs in combinations(range(spec.n), 4):
        ranges = [range(m) if i in dirs else range(m + 1) for i, m in enumerate(spec.a)]
        for base in product(*ranges):
            pattern = frozenset(off for off in product((0, 1), repeat=4)
                                if _lift(base, dirs, off) in t.vertices)
            if pattern not in atlas:
                continue
            full_moves = tuple(
                FlipMove(_lift(base, dirs, mv.base), tuple(dirs[d] for d in mv.dirs),
                         mv.direction)
                for mv in atlas[pattern]
            )
            cells.append(Cell("octagon", full_moves, base=base, dirs=dirs))
    return cells
