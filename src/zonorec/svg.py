"""Deterministic SVG rendering of projected tilings."""

from __future__ import annotations

from fractions import Fraction

from .flips import fundamental_forest
from .zonogon import Tiling, rhombus_corners, shift

_PALETTE = (
    "#c6dbef", "#fdd0a2", "#c7e9c0", "#fcbba1", "#dadaeb",
    "#fee391", "#d9d9d9", "#a6cee3", "#b2df8a", "#fb9a99",
)


def _fmt(x: Fraction) -> str:
    return f"{float(x):.4f}"


def render_svg(t: Tiling, scale: int = 40, labels: bool = False,
               forest: bool = False) -> str:
    spec = t.spec
    pts = {v: spec.project(v) for v in t.vertices}
    xs = [Fraction(p[0]) for p in pts.values()]
    ys = [Fraction(p[1]) for p in pts.values()]
    norm = max(max(abs(v[0]) for v in spec.vectors),
               max(v[1] for v in spec.vectors))
    unit = Fraction(scale, norm)
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    margin = Fraction(scale, 2)

    def xy(v):
        px = (Fraction(pts[v][0]) - minx) * unit + margin
        py = (maxy - Fraction(pts[v][1])) * unit + margin
        return px, py

    width = (maxx - minx) * unit + 2 * margin
    height = (maxy - miny) * unit + 2 * margin
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    pair_index = {}
    for rh in t.canonical_rhombi():
        base, (j, k) = rh
        key = (j, k)
        if key not in pair_index:
            pair_index[key] = len(pair_index) % len(_PALETTE)
        fill = _PALETTE[pair_index[key]]
        a, b, c, d = rhombus_corners(rh)
        path = (
            f"M{_fmt(xy(a)[0])} {_fmt(xy(a)[1])}"
            f"L{_fmt(xy(b)[0])} {_fmt(xy(b)[1])}"
            f"L{_fmt(xy(d)[0])} {_fmt(xy(d)[1])}"
            f"L{_fmt(xy(c)[0])} {_fmt(xy(c)[1])}z"
        )
        out.append(
            f'<path d="{path}" fill="{fill}" stroke="#333333" stroke-width="1"/>'
        )
    if forest:
        for base, d in sorted(fundamental_forest(t)):
            x1, y1 = xy(base)
            x2, y2 = xy(shift(base, d))
            out.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" stroke="#d62728" stroke-width="3"/>'
            )
    if labels:
        for v in sorted(t.vertices):
            x, y = xy(v)
            text = "".join(map(str, v)) if max(spec.a) <= 9 else str(v)
            out.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="9" '
                f'fill="#000000">{text}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
