"""Dependency-free SVG emission for bar charts, line charts, and top-down
scene plots.

Every coordinate is written with fixed precision and attributes appear in a
fixed order, so identical inputs always produce byte-identical documents.
No timestamps, no random ids.
"""

from __future__ import annotations

import html
import math

import numpy as np

# shared palette so the CLI marks selections consistently across artifacts
BEST_COLOR = "#2ca02c"
WORST_COLOR = "#d62728"
SECOND_BEST_COLOR = "#98df8a"
SECOND_WORST_COLOR = "#ff9896"
NEUTRAL_COLOR = "#b0b8c4"
SERIES_COLORS = ["#4878a8", "#b24040", "#3f9b5c", "#8a6db1", "#c78a3b"]

_FONT = "Helvetica,Arial,sans-serif"


def fmt(v: float) -> str:
    """Pixel coordinate format: two decimals, trailing zeros stripped."""
    s = f"{float(v):.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def label_fmt(v: float) -> str:
    """Tick/readout format: four significant digits."""
    return f"{float(v):.4g}"


def nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Ticks inside [lo, hi] on a 1-2-5 step ladder, about `target` of them."""
    span = hi - lo
    if not span > 0.0:
        return [lo]
    raw = span / target
    k = math.floor(math.log10(raw))
    step = 10.0 ** (k + 1)
    for m in (1.0, 2.0, 5.0):
        if m * 10.0**k >= raw * (1.0 - 1e-9):
            step = m * 10.0**k
            break
    i = math.ceil(lo / step - 1e-9)
    out = []
    while i * step <= hi + 1e-9 * span:
        out.append(round(i * step, 12))
        i += 1
    return out


class DataView:
    """Affine map from data coordinates into a pixel box, y axis flipped."""

    def __init__(self, px, py, pw, ph, xmin, xmax, ymin, ymax):
        if not xmax - xmin > 0.0:
            xmin, xmax = xmin - 0.5, xmax + 0.5
        if not ymax - ymin > 0.0:
            ymin, ymax = ymin - 0.5, ymax + 0.5
        self.px, self.py, self.pw, self.ph = px, py, pw, ph
        self.xmin, self.xmax = xmin, xmax
        self.ymin, self.ymax = ymin, ymax

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        sx = self.px + (x - self.xmin) / (self.xmax - self.xmin) * self.pw
        sy = self.py + (self.ymax - y) / (self.ymax - self.ymin) * self.ph
        return (float(sx), float(sy))

    def map_points(self, xs, ys) -> list[tuple[float, float]]:
        return [self.to_px(x, y) for x, y in zip(xs, ys)]


class Canvas:
    """Append-only element list rendered into one SVG document."""

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = []

    def rect(self, x, y, w, h, fill, stroke=None, stroke_width=1.0, opacity=None):
        a = f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(w)}" height="{fmt(h)}" fill="{fill}"'
        if stroke is not None:
            a += f' stroke="{stroke}" stroke-width="{fmt(stroke_width)}"'
        if opacity is not None:
            a += f' fill-opacity="{fmt(opacity)}"'
        self._parts.append(a + "/>")

    def line(self, x1, y1, x2, y2, stroke, width=1.0):
        self._parts.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{fmt(width)}"/>'
        )

    def polyline(self, points, stroke, width=1.5, opacity=None):
        pts = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        a = (
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{fmt(width)}"'
        )
        if opacity is not None:
            a += f' stroke-opacity="{fmt(opacity)}"'
        self._parts.append(a + "/>")

    def circle(self, cx, cy, r, fill):
        self._parts.append(
            f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" fill="{fill}"/>'
        )

    def text(self, x, y, s, size=11, fill="#222222", anchor="start"):
        self._parts.append(
            f'<text x="{fmt(x)}" y="{fmt(y)}" font-family="{_FONT}" '
            f'font-size="{fmt(size)}" fill="{fill}" text-anchor="{anchor}">'
            f"{html.escape(str(s), quote=False)}</text>"
        )

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(self.width)}" '
            f'height="{fmt(self.height)}" viewBox="0 0 {fmt(self.width)} '
            f'{fmt(self.height)}">'
        )
        return "\n".join([head, *self._parts, "</svg>"]) + "\n"


def thin(arr: np.ndarray, max_pts: int) -> np.ndarray:
    """Stride-decimate a point array for plotting, keeping both endpoints."""
    n = len(arr)
    if n <= max_pts:
        return arr
    stride = math.ceil(n / max_pts)
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return arr[idx]


# ---------------------------------------------------------------------------
# chart scaffolding


def _frame(c: Canvas, view: DataView, title, xlabel, ylabel, int_x=False):
    """Background, gridlines, tick labels, axis labels, and title."""
    c.rect(0, 0, c.width, c.height, fill="#ffffff")
    x0, y0 = view.px, view.py
    x1, y1 = view.px + view.pw, view.py + view.ph
    for t in nice_ticks(view.ymin, view.ymax, 5):
        _, sy = view.to_px(view.xmin, t)
        c.line(x0, sy, x1, sy, stroke="#e3e6ea", width=1.0)
        c.text(x0 - 6, sy + 3.5, label_fmt(t), size=10, fill="#555555", anchor="end")
    for t in nice_ticks(view.xmin, view.xmax, 8):
        if int_x and t != int(t):
            continue
        sx, _ = view.to_px(t, view.ymin)
        c.line(sx, y0, sx, y1, stroke="#eef0f3", width=1.0)
        label = label_fmt(int(t)) if int_x else label_fmt(t)
        c.text(sx, y1 + 14, label, size=10, fill="#555555", anchor="middle")
    c.rect(x0, y0, view.pw, view.ph, fill="none", stroke="#30343a", stroke_width=1.0)
    c.text(x0, 16, title, size=13, fill="#111111")
    c.text((x0 + x1) / 2, c.height - 6, xlabel, size=11, fill="#333333", anchor="middle")
    c.text(12, y0 - 8, ylabel, size=11, fill="#333333")


def _legend(c: Canvas, view: DataView, entries):
    """Colored swatch + label rows anchored at the top-right of the frame."""
    x = view.px + view.pw - 10
    y = view.py + 14
    for color, label in entries:
        c.rect(x - 150, y - 8, 14, 8, fill=color)
        c.text(x - 132, y, label, size=10, fill="#333333")
        y += 14


def bar_chart(values, title, ylabel, highlights) -> str:
    """One bar per value; `highlights` maps index -> (color, legend label)."""
    values = [float(v) for v in values]
    n = len(values)
    vmax = max(values) if values and max(values) > 0 else 1.0
    c = Canvas(960.0, 420.0)
    view = DataView(70, 30, c.width - 95, c.height - 80, -0.5, n - 0.5, 0.0, 1.05 * vmax)
    _frame(c, view, title, "candidate", ylabel, int_x=True)
    for i, v in enumerate(values):
        color = highlights.get(i, (NEUTRAL_COLOR, ""))[0]
        sx0, sy0 = view.to_px(i - 0.4, v)
        sx1, sy1 = view.to_px(i + 0.4, 0.0)
        c.rect(sx0, sy0, sx1 - sx0, sy1 - sy0, fill=color)
    _legend(c, view, [(col, lab) for _, (col, lab) in sorted(highlights.items()) if lab])
    return c.render()


def line_chart(series, title, xlabel, ylabel) -> str:
    """Overlaid polylines; series entries are (label, xs, ys, color)."""
    for label, xs, ys, _ in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: x and y lengths differ")
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    c = Canvas(900.0, 420.0)
    view = DataView(
        70, 30, c.width - 95, c.height - 80,
        float(xs_all.min()), float(xs_all.max()),
        min(0.0, float(ys_all.min())), float(ys_all.max()),
    )
    _frame(c, view, title, xlabel, ylabel)
    for label, xs, ys, color in series:
        pts = thin(np.column_stack([xs, ys]), 1500)
        c.polyline(view.map_points(pts[:, 0], pts[:, 1]), stroke=color, width=1.5)
    _legend(c, view, [(color, label) for label, _, _, color in series])
    return c.render()


def scene_plot(bounds_min, bounds_max, boxes, paths, markers, title) -> str:
    """Top-down (n east-west on screen) view of obstacles, paths, markers.

    paths entries: (label, points (k,>=2) array, color, stroke width, opacity).
    markers entries: (point, color, label).
    """
    nspan = float(bounds_max[0] - bounds_min[0])
    espan = float(bounds_max[1] - bounds_min[1])
    width = 900.0
    pw = width - 95
    ph = min(640.0, max(160.0, pw * espan / max(nspan, 1e-9)))
    c = Canvas(width, ph + 80)
    view = DataView(
        70, 30, pw, ph,
        float(bounds_min[0]), float(bounds_max[0]),
        float(bounds_min[1]), float(bounds_max[1]),
    )
    _frame(c, view, title, "n [m]", "e [m]")
    for lo, hi in boxes:
        sx0, sy0 = view.to_px(float(lo[0]), float(hi[1]))
        sx1, sy1 = view.to_px(float(hi[0]), float(lo[1]))
        c.rect(sx0, sy0, sx1 - sx0, sy1 - sy0, fill="#c9ced6", opacity=0.85,
               stroke="#9aa1ac", stroke_width=1.0)
    for label, pts, color, swidth, opacity in paths:
        pts = thin(np.asarray(pts, dtype=float), 2000)
        c.polyline(view.map_points(pts[:, 0], pts[:, 1]), stroke=color,
                   width=swidth, opacity=opacity)
    for pt, color, label in markers:
        sx, sy = view.to_px(float(pt[0]), float(pt[1]))
        c.circle(sx, sy, 4.0, fill=color)
        if label:
            c.text(sx + 6, sy - 5, label, size=10, fill="#333333")
    _legend(c, view, [(color, label) for label, _, color, _, _ in paths if label])
    return c.render()
