"""Fundamental forest, flips, flip paths, and the 2-cells of the flip complex."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
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

    @property
    def removed(self) -> Point:
        j, k, l = self.dirs
        if self.direction == "up":
            return shift(self.base, k)
        return shift2(self.base, j, l)

    @property
    def created(self) -> Point:
        return self.inverse().removed


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


def move_at(t: Tiling, at: Point) -> FlipMove:
    """The flip move pivoting at the given trivalent internal vertex."""
    if at not in t.vertices or not t.is_internal(at):
        raise FlipError(f"{at} is not an internal vertex")
    u, d = t.edges_at(at)
    if len(u) + len(d) != 3:
        raise FlipError(f"not flippable at {at}: {len(u)} up / {len(d)} down edges")
    if len(d) == 2:
        j, l = d
        k = u[0]
        if not j < k < l:
            raise FlipError(f"edge directions {d}+{u} out of order at {at}")
        base = shift2(at, j, l, -1)
        return FlipMove(base, (j, k, l), "down")
    j, l = u
    k = d[0]
    if not j < k < l:
        raise FlipError(f"edge directions {u}+{d} out of order at {at}")
    base = shift(at, k, -1)
    return FlipMove(base, (j, k, l), "up")


def apply_move(t: Tiling, move: FlipMove) -> Tiling:
    """Swap the move's removed vertex for its created one.  It applies when the
    hexagon corners o, j, l, jk, kl, jkl are vertices and `created` is not."""
    base, (j, k, l) = move.base, move.dirs
    hexagon = (base, shift(base, j), shift(base, l), shift2(base, j, k),
               shift2(base, k, l), shift(shift2(base, j, k), l))
    vs = t.vertices
    removed, created = move.removed, move.created
    if created in vs or removed not in vs or not all(p in vs for p in hexagon):
        raise FlipError(f"move {move} not applicable")
    return Tiling.from_vertices(t.spec, vs - {removed} | {created})


def apply_flip(t: Tiling, at: Point):
    """Flip at a trivalent internal vertex; returns (new tiling, move)."""
    move = move_at(t, at)
    return apply_move(t, move), move


def enumerate_tilings(spec: ZonogonSpec, cap: int = 10**6) -> set:
    """All tilings, by breadth-first flip search from t_min."""
    start = t_min(spec)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            down, up = flippable_vertices(t)
            for v in down | up:
                t2, _ = apply_flip(t, v)
                if t2 not in seen:
                    seen.add(t2)
                    if len(seen) > cap:
                        raise CapExceeded(f"more than {cap} tilings")
                    nxt.append(t2)
        frontier = nxt
    return seen


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


def _leaf_key(spec: ZonogonSpec, v: Point):
    return (spec.height(v), v)


def normalize_to_min(t: Tiling, rng: random.Random | None = None) -> FlipPath:
    """Downward flips to t_min, at the lowest leaf each step (or rng's choice)."""
    moves = []
    cur = t
    while True:
        leaves = flippable_vertices(cur)[0]
        if not leaves:
            break
        if rng is None:
            at = min(leaves, key=lambda v: _leaf_key(t.spec, v))
        else:
            at = rng.choice(sorted(leaves))
        cur, move = apply_flip(cur, at)
        moves.append(move)
    return FlipPath(t, moves)


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


def _descend_keeping(t: Tiling, keep: Point):
    """Downward flips at leaves other than `keep` until only it can flip down."""
    moves = []
    cur = t
    while True:
        leaves = flippable_vertices(cur)[0] - {keep}
        if not leaves:
            return cur, moves
        at = min(leaves, key=lambda v: _leaf_key(t.spec, v))
        cur, mv = apply_flip(cur, at)
        moves.append(mv)


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

    cur, moves = _descend_keeping(t, marked)
    cur2, moves2 = _descend_keeping(t2, marked)
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
